"""Hot numeric kernels: the Hermitian eigensolver, the matrix product, and
the Hamilton table.

Every Hermitian eigensolve in the package runs through :func:`eigh`, LAPACK's
Hermitian solver as shipped with numpy: its real symmetric driver for float64
input (a matrix over R), its complex Hermitian driver otherwise (over C, and
over H through the complex adjoint chi).  A caller that reads only the
spectrum asks for no eigenvectors (``vectors=False``) and gets LAPACK's
eigenvalue-only driver; the guards are the same in every mode.  Every matrix
product runs through :func:`quat_matmul`, which does the product in the
arithmetic of the operands' algebra, named by its component count: one real
GEMM over R, one complex GEMM over C, and over H one complex GEMM through the
block form of chi.  A real regular-representation block (4n x 4k of A, or
4k x 4m of B) would also make one GEMM over H, but it builds sixteen doubles
per quaternion entry and measured about four times slower than the complex
block at n = 64.  Both kernels need nothing beyond numpy, the one hard
dependency.  :data:`HAMILTON` is the one written-out multiplication table of
the units 1, i, j, k; the pointwise product, the Gram-Schmidt block in
:mod:`gleason_lab.linalg` and the jB block of :func:`quat_matmul` are read
off it.

Quaternion matrices are stored as float64 arrays of shape (n, m, 4) holding
the components of a + bi + cj + dk per entry, and a stack of them as one
array with leading axes, which both kernels take.  Real and complex matrices use
the same storage with the trailing components zero, so every algebra shares
these kernels; the R and C products read only the algebra's components and
return the others zero.
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceFailure, require

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


def quat_matmul(A: np.ndarray, B: np.ndarray, component_count: int = 4) -> np.ndarray:
    """Matrix product (..., n, k, 4) @ (..., k, m, 4) -> (..., n, m, 4) over the
    algebra with ``component_count`` components: 1 for R, 2 for C, 4 for H.
    The H product, the default, is right for operands of every algebra, only
    slower.  Leading axes broadcast as numpy's matmul broadcasts them, and
    each matrix of a stack is the product of its own operands, bit for bit:
    numpy hands BLAS one matrix of the stack at a time, in the layout that a
    lone matrix has.

    Over R and C the operands' entries lie in the algebra, so the product is
    one real GEMM of components 0, or one complex GEMM of components 0-1 read
    as complex numbers (:func:`_own_numbers` copies the operands), and the
    other components of the result are zero.

    Over H it is one complex matrix product through the complex adjoint.
    Read as complex pairs, an entry a0 + a1 i + a2 j + a3 k is
    (A1, A2) = (a0 + a1 i, a2 + a3 i) with a = A1 + A2 j, and a complex scalar
    acts on both halves of a pair.  Then AB = A1 B + A2 (jB), that is

        AB = [A1 A2] @ [[B1, B2], [-conj B2, conj B1]],

    since jB = -conj B2 + conj(B1) j.  The left factor is the storage of A
    viewed as complex, with the columns of A1 and A2 interleaved; the right
    factor interleaves its rows B and jB the same way and is the one block
    built per call.  The product comes out in (..., n, m, 4) storage order.
    """
    n, k = A.shape[-3], A.shape[-2]
    if B.shape[-3] != k:
        raise ValueError(f"cannot multiply {n}x{k} by {B.shape[-3]}x{B.shape[-2]}")
    m = B.shape[-2]
    if component_count < 4:
        prod = _own_numbers(A, component_count) @ _own_numbers(B, component_count)
        out = np.zeros(prod.shape + (4 // component_count,), prod.dtype)
        out[..., 0] = prod
        return out.view(np.float64)
    Ac = np.ascontiguousarray(A, dtype=np.float64).view(np.complex128).reshape(A.shape[:-3] + (n, 2 * k))
    R = np.empty(B.shape[:-3] + (k, 2, m, 4))
    R[..., 0, :, :] = B
    # jB entry by entry: the components of j b are b @ HAMILTON[2].  A signed
    # permutation as a matmul keeps BLAS-sized inner loops, where a strided
    # np.multiply over the pairs runs an inner loop of two doubles per entry.
    np.matmul(B, HAMILTON[2], out=R[..., 1, :, :])
    prod = Ac @ R.reshape(B.shape[:-3] + (2 * k, 4 * m)).view(np.complex128)
    return prod.view(np.float64).reshape(prod.shape[:-2] + (n, m, 4))


def _own_numbers(comps: np.ndarray, component_count: int) -> np.ndarray:
    """The entries of every matrix of a (..., n, m, 4) stack as contiguous
    numbers of the algebra with ``component_count`` components: float64 from
    component 0 over R (1), complex128 from components 0-1 over C (2).

    The C entries are copied as complex numbers, through the complex view of
    the storage, not as two strided doubles each: several times faster from
    32 x 32 on, with the same bits.  The last axis must be contiguous, as in
    every storage the package builds.
    """
    if component_count == 2:
        return np.ascontiguousarray(comps.view(np.complex128)[..., 0])
    return np.ascontiguousarray(comps[..., 0])


def eigh(H: np.ndarray, *, vectors: bool = True) -> tuple[np.ndarray, np.ndarray | None]:
    """(eigenvalues ascending, eigenvector columns) of a Hermitian matrix, or
    of every matrix of a (..., n, n) stack: real symmetric if it is float64,
    complex Hermitian otherwise.

    Float64 input stays real, so LAPACK runs its real symmetric driver and
    the eigenvectors come back real; any other input is solved as complex128.
    With ``vectors=False`` the eigenvectors are not computed: the spectrum
    comes from LAPACK's eigenvalue-only driver (``np.linalg.eigvalsh``) and
    the second item is None.  The caller picks the mode by what it reads.
    LAPACK reads only the lower triangle, so the caller must pass an exactly
    Hermitian matrix.  A stack is solved in one call, matrix by matrix, each
    bit for bit as alone.  In both modes, non-finite entries in either
    triangle, and a solver that does not converge, raise ConvergenceFailure
    instead of returning a spectrum; over a stack the message names the
    lowest matrix with a non-finite entry.
    """
    H = np.asarray(H)
    if H.dtype != np.float64:
        H = H.astype(np.complex128, copy=False)
    require(np.isfinite(H).all(axis=(-2, -1)), ConvergenceFailure, "Hermitian eigenproblem has a non-finite entry")
    try:
        if vectors:
            return np.linalg.eigh(H)
        return np.linalg.eigvalsh(H), None
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"LAPACK eigh did not converge: {exc}") from exc
