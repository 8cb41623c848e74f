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


def _unread_private_definitions(sources) -> set[str]:
    """The module-level names _x (one leading underscore) that one of the
    sources defines, by def, class or assignment, and that none of them
    reads, as a name or as an attribute."""
    defined, read = set(), set()
    for source in sources:
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update(name.id for target in targets for name in ast.walk(target)
                               if isinstance(name, ast.Name))
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
                read.add(node.id if isinstance(node, ast.Name) else node.attr)
    return {name for name in defined - read if name.startswith("_") and not name.startswith("__")}


def test_every_private_definition_is_read():
    # a private helper or constant that the package no longer reads is dead
    package = Path(hilbert_ggl.__file__).parent
    sources = [path.read_text(encoding="utf-8") for path in sorted(package.glob("*.py"))]
    assert len(sources) >= 13
    assert _unread_private_definitions(sources) == set()
    # the check sees a definition read in another module, as an attribute,
    # and one that only a docstring or a store mentions
    assert _unread_private_definitions([
        '"""_dead"""\n_dead, _used = 1, 2\ndef _f(): pass\nclass _C: pass\n__all__ = []\n',
        'import m\nm._dead = 3\nprint(_used, m._C)\n',
    ]) == {"_dead", "_f"}
