"""Fixtures shared by the test modules."""

import pytest

from hilbert_ggl.scan import scan_tables


@pytest.fixture(scope="session")
def tables():
    """The (l1_lookup, sigma) tables of a scan to 1e5, which reach every
    field the tests hand to scan_field."""
    return scan_tables(100_000)
