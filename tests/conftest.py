"""Shared fixtures."""

import math

import pytest

from entroineq import HalfInt, su11


@pytest.fixture
def plant_ladder(monkeypatch):
    """plant_ladder(squares) makes su11's `bargmann_b` a column whose
    squared elements are `squares`, then exact zeros."""

    def plant(squares):
        def planted(args, weights):
            index = ((HalfInt.coerce(w).doubled - args.k) // 2 for w in weights)
            return tuple(math.sqrt(squares[i]) if i < len(squares) else 0.0 for i in index)

        monkeypatch.setattr(su11, "bargmann_b", planted)

    return plant
