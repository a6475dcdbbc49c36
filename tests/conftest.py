"""Shared fixtures."""

import math
import os
from pathlib import Path

import numpy as np
import pytest

import entroineq
from entroineq import HalfInt, su11

# `python -m entroineq` in a subprocess imports the package under test
os.environ["PYTHONPATH"] = os.pathsep.join(
    [str(Path(entroineq.__file__).parents[1]), *filter(None, [os.environ.get("PYTHONPATH")])]
)


@pytest.fixture
def plant_ladder(monkeypatch):
    """plant_ladder(squares) makes su11's `bargmann_b` a column whose
    squared elements are `squares`, then exact zeros, at every rapidity
    (one row per rapidity of a grid)."""

    def plant(squares):
        def planted(args, weights):
            index = ((HalfInt.coerce(w).doubled - args.k) // 2 for w in weights)
            column = tuple(math.sqrt(squares[i]) if i < len(squares) else 0.0 for i in index)
            return np.tile(column, (args.t.size, 1)) if np.ndim(args.t) else column

        monkeypatch.setattr(su11, "bargmann_b", planted)

    return plant
