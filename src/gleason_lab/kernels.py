"""Hot numeric kernels: the Hermitian eigensolver, the quaternion matrix product,
and the Hamilton table.

Every Hermitian eigendecomposition in the package runs through :func:`eigh`,
LAPACK's complex Hermitian solver as shipped with numpy, and every matrix
product through :func:`quat_matmul`, sixteen real BLAS products.  Both need
nothing beyond numpy, the one hard dependency.  :data:`HAMILTON` is the one
written-out multiplication table of the units 1, i, j, k; the pointwise
product and the Gram-Schmidt block in :mod:`gleason_lab.linalg` are read off it.

Quaternion matrices are stored as float64 arrays of shape (n, m, 4) holding
the components of a + bi + cj + dk per entry.  Real and complex matrices use
the same storage with the trailing components zero, so every algebra shares
these kernels.
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceFailure

# HAMILTON[a, b] holds the components of e_a e_b for the units e = 1, i, j, k
HAMILTON = np.array(
    [
        # right factor:  1             i              j              k
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],  # 1
        [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]],  # i
        [[0, 0, 1, 0], [0, 0, 0, -1], [-1, 0, 0, 0], [0, 1, 0, 0]],  # j
        [[0, 0, 0, 1], [0, 0, 1, 0], [0, -1, 0, 0], [-1, 0, 0, 0]],  # k
    ],
    dtype=np.float64,
)
HAMILTON.flags.writeable = False


def active_backend() -> str:
    """Name of the numeric backend, reported in benchmark environment blocks."""
    return "numpy"


def quat_matmul(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Hamilton-product matrix multiply, (n,k,4) @ (k,m,4) -> (n,m,4)."""
    a0, a1, a2, a3 = A[..., 0], A[..., 1], A[..., 2], A[..., 3]
    b0, b1, b2, b3 = B[..., 0], B[..., 1], B[..., 2], B[..., 3]
    out = np.empty((A.shape[0], B.shape[1], 4))
    out[..., 0] = a0 @ b0 - a1 @ b1 - a2 @ b2 - a3 @ b3
    out[..., 1] = a0 @ b1 + a1 @ b0 + a2 @ b3 - a3 @ b2
    out[..., 2] = a0 @ b2 - a1 @ b3 + a2 @ b0 + a3 @ b1
    out[..., 3] = a0 @ b3 + a1 @ b2 - a2 @ b1 + a3 @ b0
    return out


def eigh(H: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(eigenvalues ascending, eigenvector columns) of a complex Hermitian matrix.

    LAPACK reads only the lower triangle, so the caller must pass an exactly
    Hermitian matrix.  Non-finite entries in either triangle, and a solver
    that does not converge, raise ConvergenceFailure instead of returning a
    spectrum.
    """
    H = np.asarray(H, dtype=np.complex128)
    if not np.isfinite(H).all():
        raise ConvergenceFailure("Hermitian eigenproblem has a non-finite entry")
    try:
        return np.linalg.eigh(H)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"LAPACK eigh did not converge: {exc}") from exc
