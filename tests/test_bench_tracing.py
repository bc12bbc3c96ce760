"""The benchmark's tracer finds every package name it rebinds and puts it back, and
no package module keeps an import that nothing reads, exports or rebinds."""

import ast
import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_install_and_restore_round_trip():
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    try:
        # install raises KeyError on the first name the package lacks
        tracing.install(tracer)
        patched = list(tracer._patched)
        assert patched
        for owner, attr, original in patched:
            assert owner.__dict__[attr] is not original, f"{owner.__name__}.{attr}"
    finally:
        tracer.restore()
    assert not tracer._patched
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original, f"{owner.__name__}.{attr}"


def _unused_imports(path: Path) -> set:
    """Names a module imports but never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.add((alias.asname or alias.name).split(".")[0])
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - read


def test_every_import_is_used_exported_or_traced():
    """An import a module neither reads nor exports is dead, unless the tracer
    rebinds that name in the module's namespace; and every name a module
    exports resolves in it, so a deleted name cannot linger in `__all__`."""
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        traced = {(owner.__name__, attr) for owner, attr, _ in tracer._patched}
    finally:
        tracer.restore()
    package = TRACING.parents[1] / "src" / "airywell"
    dead, dangling = [], []
    for path in sorted(package.glob("*.py")):
        name = "airywell" if path.stem == "__init__" else f"airywell.{path.stem}"
        module = importlib.import_module(name)
        exported = set(getattr(module, "__all__", ()))
        dead += [f"{name}.{attr}" for attr in sorted(_unused_imports(path))
                 if attr not in exported and (name, attr) not in traced]
        dangling += [f"{name}.{attr}" for attr in sorted(exported) if not hasattr(module, attr)]
    assert not dead
    assert not dangling
