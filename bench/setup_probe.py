"""Cold set-up of one workload in a fresh interpreter.

Run by run.py as `python3 bench/setup_probe.py WORKLOAD INPUT_DIR OUT_DIR`
from the repository root.  Prints "ready" once the workload is prepared,
so the parent's clock covers process start, imports, config and profile
build, quadrature tables and level lookups, and nothing after.
"""

import sys
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path.cwd() / "src"))
    from workloads import WORKLOADS

    name, input_dir, out_dir = sys.argv[1:4]
    WORKLOADS[name](Path(input_dir), Path(out_dir)).prepare()
    print("ready", flush=True)
