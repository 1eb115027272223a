import numpy as np
import pytest

from gleason_lab.gleason import DensityOperator
from gleason_lab.linalg import Matrix, _orthonormality_defects
from gleason_lab.quantum import SymmetryOp
from gleason_lab.rng import SplitMix64
from gleason_lab.scalars import Algebra, Quaternion, as_quaternion

ALGEBRAS = (Algebra.R, Algebra.C, Algebra.H)


def orthonormality_defect(U: Matrix) -> float:
    """Largest entry magnitude of U*U - I over the columns of U."""
    return float(_orthonormality_defects(U.comps, U.algebra))


def matrices_close(A: Matrix, B: Matrix, tol: float = 1e-9) -> bool:
    """Every component of A - B within ``tol``."""
    return bool(np.abs(A.comps - B.comps).max() <= tol)


def quaternions_close(p: Quaternion, q, tol: float = 1e-10) -> bool:
    """|p - q| within ``tol``; q may be any scalar that converts to a quaternion."""
    return abs(p - as_quaternion(q)) <= tol


def conjugate_state(sym: SymmetryOp, T: DensityOperator) -> DensityOperator:
    """U T U^{-1}, certified to still be a state."""
    return DensityOperator(sym.transform_state(T.matrix))


@pytest.fixture
def rng():
    return SplitMix64(0xFEED)


def pytest_make_parametrize_id(config, val, argname):
    if isinstance(val, Algebra):
        return val.value
    return None
