"""The package namespace: submodules stay reachable and __all__ resolves."""

import ast
import sys
import types
from pathlib import Path

import hilbert_ggl


def test_scan_submodule_not_shadowed():
    import hilbert_ggl.scan

    assert hilbert_ggl.scan is sys.modules["hilbert_ggl.scan"]
    from hilbert_ggl.scan import scan

    assert callable(scan)


def test_all_names_resolve():
    for name in hilbert_ggl.__all__:
        assert getattr(hilbert_ggl, name) is not None, name


def test_all_lists_exactly_the_bound_public_names():
    # a name dropped from only one of the import list and __all__ fails here
    assert len(hilbert_ggl.__all__) == len(set(hilbert_ggl.__all__))
    bound = {name for name, value in vars(hilbert_ggl).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(hilbert_ggl.__all__) == bound - {"annotations"}


def _unused_imports(source: str) -> set[str]:
    """The names a module binds by import and never reads, less those its
    __all__ re-exports."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets):
            exported.update(ast.literal_eval(node.value))
    return imported - read - exported


def test_every_import_is_used_or_exported():
    # a deleted function leaves no import behind it
    package = Path(hilbert_ggl.__file__).parent
    modules = sorted(package.glob("*.py"))
    assert len(modules) >= 13
    unused = {path.name: names for path in modules
              if (names := _unused_imports(path.read_text(encoding="utf-8")))}
    assert unused == {}
    # the check sees an import that only a docstring mentions
    assert _unused_imports('"""uses math"""\nimport math\nimport os as o\nprint(o)\n') == {"math"}
