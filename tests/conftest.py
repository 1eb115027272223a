import pytest

from gleason_lab.linalg import Matrix, _orthonormality_defects
from gleason_lab.rng import SplitMix64
from gleason_lab.scalars import Algebra

ALGEBRAS = (Algebra.R, Algebra.C, Algebra.H)


def orthonormality_defect(U: Matrix) -> float:
    """Largest entry magnitude of U*U - I over the columns of U."""
    return float(_orthonormality_defects(U.comps, U.algebra))


@pytest.fixture
def rng():
    return SplitMix64(0xFEED)


def pytest_make_parametrize_id(config, val, argname):
    if isinstance(val, Algebra):
        return val.value
    return None
