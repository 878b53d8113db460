"""Shared fixtures."""

import pytest

import toricmult.lattice
import toricmult.multiplication
import toricmult.reduction
import toricmult.surface


@pytest.fixture
def no_point_lists(monkeypatch):
    """Make every route to a list of lattice points raise: the
    ``lattice_points`` name in each module."""

    def listed(poly):
        raise RuntimeError(f"the lattice points of {poly} were listed")

    for module in (
        toricmult.lattice,
        toricmult.multiplication,
        toricmult.reduction,
        toricmult.surface,
    ):
        if hasattr(module, "lattice_points"):
            monkeypatch.setattr(module, "lattice_points", listed)
    return monkeypatch
