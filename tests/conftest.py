import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))  # for the oracles module

from slspectra import (
    ConstantRule,
    Piece,
    PiecewiseCoefficient,
    SLProblem,
    constant_coefficient_problem,
)
from slspectra import spectral


@pytest.fixture(autouse=True)
def cleared_root_sets():
    """No test reads the root sets (spectral._root_sets) that find_eigenvalues
    kept in another test, whatever order the tests run in."""
    spectral._root_sets.clear()
    yield spectral._root_sets
    spectral._root_sets.clear()


@pytest.fixture(scope="session")
def free():
    """Free problem on [0,1]: p=1, q=0, Delta=1, alpha=-pi/2."""
    return constant_coefficient_problem()


@pytest.fixture(scope="session")
def mid():
    """Weight vanishing on the middle third of [0,1]."""
    third = 1.0 / 3.0

    def const3(v0, v1, v2):
        return PiecewiseCoefficient(
            pieces=(
                Piece(0.0, third, ConstantRule(v0)),
                Piece(third, 2 * third, ConstantRule(v1)),
                Piece(2 * third, 1.0, ConstantRule(v2)),
            )
        )

    return SLProblem(
        a=0.0,
        b=1.0,
        alpha=-math.pi / 2,
        p=const3(1.0, 1.0, 1.0),
        q=const3(0.0, 0.0, 0.0),
        delta=const3(1.0, 0.0, 1.0),
    )
