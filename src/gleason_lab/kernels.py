"""Hot numeric kernels: the Hermitian eigensolver, the quaternion matrix product,
and the Hamilton table.

Every Hermitian eigensolve in the package runs through :func:`eigh`, LAPACK's
complex Hermitian solver as shipped with numpy.  A caller that reads only the
spectrum asks for no eigenvectors (``vectors=False``) and gets LAPACK's
eigenvalue-only driver; the guards are the same in both modes.  Every matrix
product runs through :func:`quat_matmul`, one complex GEMM through the block
form of the complex adjoint chi.  A real regular-representation block (4n x 4k
of A, or 4k x 4m of B) would also make one GEMM, but it builds sixteen doubles
per quaternion entry and measured about four times slower than the complex
block at n = 64.  Both kernels need nothing beyond numpy, the one hard
dependency.  :data:`HAMILTON` is the one written-out multiplication table of
the units 1, i, j, k; the pointwise product, the Gram-Schmidt block in
:mod:`gleason_lab.linalg` and the jB block of :func:`quat_matmul` are read
off it.

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
    """Hamilton-product matrix multiply, (n,k,4) @ (k,m,4) -> (n,m,4).

    One complex matrix product through the complex adjoint.  Read as complex
    pairs, an entry a0 + a1 i + a2 j + a3 k is (A1, A2) = (a0 + a1 i, a2 + a3 i)
    with a = A1 + A2 j, and a complex scalar acts on both halves of a pair.
    Then AB = A1 B + A2 (jB), that is

        AB = [A1 A2] @ [[B1, B2], [-conj B2, conj B1]],

    since jB = -conj B2 + conj(B1) j.  The left factor is the storage of A
    viewed as complex, with the columns of A1 and A2 interleaved; the right
    factor interleaves its rows B and jB the same way and is the one block
    built per call.  The product comes out in (n, m, 4) storage order.
    """
    n, k = A.shape[0], A.shape[1]
    if B.shape[0] != k:
        raise ValueError(f"cannot multiply {n}x{k} by {B.shape[0]}x{B.shape[1]}")
    m = B.shape[1]
    Ac = np.ascontiguousarray(A, dtype=np.float64).view(np.complex128).reshape(n, 2 * k)
    R = np.empty((k, 2, m, 4))
    R[:, 0] = B
    # jB entry by entry: the components of j b are b @ HAMILTON[2].  A signed
    # permutation as a matmul keeps BLAS-sized inner loops, where a strided
    # np.multiply over the pairs runs an inner loop of two doubles per entry.
    np.matmul(B, HAMILTON[2], out=R[:, 1])
    return (Ac @ R.reshape(2 * k, 4 * m).view(np.complex128)).view(np.float64).reshape(n, m, 4)


def eigh(H: np.ndarray, *, vectors: bool = True) -> tuple[np.ndarray, np.ndarray | None]:
    """(eigenvalues ascending, eigenvector columns) of a complex Hermitian matrix.

    With ``vectors=False`` the eigenvectors are not computed: the spectrum
    comes from LAPACK's eigenvalue-only driver (``np.linalg.eigvalsh``) and
    the second item is None.  The caller picks the mode by what it reads.
    LAPACK reads only the lower triangle, so the caller must pass an exactly
    Hermitian matrix.  In both modes, non-finite entries in either triangle,
    and a solver that does not converge, raise ConvergenceFailure instead of
    returning a spectrum.
    """
    H = np.asarray(H, dtype=np.complex128)
    if not np.isfinite(H).all():
        raise ConvergenceFailure("Hermitian eigenproblem has a non-finite entry")
    try:
        if vectors:
            return np.linalg.eigh(H)
        return np.linalg.eigvalsh(H), None
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"LAPACK eigh did not converge: {exc}") from exc
