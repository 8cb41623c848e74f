"""Fixtures and helpers shared by the test modules."""

import dataclasses

import numpy as np
import pytest

from hilbert_ggl.scan import _scan_run, scan_tables


@pytest.fixture(scope="session")
def tables():
    """The (l1_lookup, sigma) tables of a scan to 1e5, which reach every
    field the tests hand to scan_record."""
    return scan_tables(100_000)


def scan_record(D: int, epsilon, l1_lookup, sigma):
    """The scan record of field D: the one-field run of scan._scan_run."""
    return _scan_run([D], epsilon, l1_lookup, sigma)[0]


def unusual_records(exact):
    """Records that no scan writes and the record writers still take, made
    from an exact-path record: h without R, R without h, flags held as a
    list, flags whose JSON text needs escapes, and every float key holding a
    numpy float64."""
    floats = {f.name: np.float64(getattr(exact, f.name)) for f in dataclasses.fields(exact)
              if type(getattr(exact, f.name)) is float}
    return [dataclasses.replace(exact, R=None), dataclasses.replace(exact, h=None),
            dataclasses.replace(exact, flags=list(exact.flags)),
            dataclasses.replace(exact, flags=("f0", 'q"\\\u00e9\n')),
            dataclasses.replace(exact, **floats)]
