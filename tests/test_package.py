"""The package namespace: submodules stay reachable and __all__ resolves."""

import sys
import types

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
