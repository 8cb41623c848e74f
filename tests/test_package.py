"""The package namespace: submodules stay reachable and __all__ resolves."""

import sys

import hilbert_ggl


def test_scan_submodule_not_shadowed():
    import hilbert_ggl.scan

    assert hilbert_ggl.scan is sys.modules["hilbert_ggl.scan"]
    from hilbert_ggl.scan import scan

    assert callable(scan)


def test_all_names_resolve():
    for name in hilbert_ggl.__all__:
        assert getattr(hilbert_ggl, name) is not None, name
