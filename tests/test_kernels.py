import numpy as np
import pytest

from gleason_lab import kernels
from gleason_lab.errors import ConvergenceFailure
from gleason_lab.linalg import _mul_comps
from gleason_lab.rng import SplitMix64
from gleason_lab.scalars import Quaternion


def _random_qmat(rng, n, m):
    return rng.gaussian_block(n * m * 4).reshape(n, m, 4)


@pytest.mark.parametrize("shape", [(1, 1, 1), (2, 3, 4), (5, 5, 5), (8, 2, 8)])
def test_quat_matmul_backends_agree(shape):
    # the kernel against the textbook triple loop over Quaternion scalars
    n, k, m = shape
    rng = SplitMix64(5)
    A = _random_qmat(rng, n, k)
    B = _random_qmat(rng, k, m)
    ref = np.zeros((n, m, 4))
    for r in range(n):
        for c in range(m):
            acc = Quaternion.ZERO
            for s in range(k):
                acc = acc + Quaternion.from_array(A[r, s]) * Quaternion.from_array(B[s, c])
            ref[r, c] = acc.to_array()
    assert np.abs(kernels.quat_matmul(A, B) - ref).max() < 1e-12


def test_quat_matmul_identity_and_associativity():
    rng = SplitMix64(6)
    n = 4
    A = _random_qmat(rng, n, n)
    B = _random_qmat(rng, n, n)
    C = _random_qmat(rng, n, n)
    ident = np.zeros((n, n, 4))
    ident[np.arange(n), np.arange(n), 0] = 1.0
    assert np.abs(kernels.quat_matmul(A, ident) - A).max() < 1e-14
    left = kernels.quat_matmul(kernels.quat_matmul(A, B), C)
    right = kernels.quat_matmul(A, kernels.quat_matmul(B, C))
    assert np.abs(left - right).max() < 1e-11


def _triple_loop(A, B):
    ref = np.zeros((A.shape[0], B.shape[1], 4))
    for r in range(A.shape[0]):
        for c in range(B.shape[1]):
            acc = Quaternion.ZERO
            for s in range(A.shape[1]):
                acc = acc + Quaternion.from_array(A[r, s]) * Quaternion.from_array(B[s, c])
            ref[r, c] = acc.to_array()
    return ref


@pytest.mark.parametrize(
    "operands",
    [
        lambda rng: (_random_qmat(rng, 3, 0), _random_qmat(rng, 0, 2)),
        lambda rng: (_random_qmat(rng, 4, 3), _random_qmat(rng, 3, 1)),
        # outer_sum's right factor: the conjugate transpose of a column block
        lambda rng: (
            _random_qmat(rng, 4, 2),
            np.transpose(_random_qmat(rng, 5, 2) * [1.0, -1.0, -1.0, -1.0], (1, 0, 2)),
        ),
        lambda rng: (_random_qmat(rng, 3, 6)[:, 1:5], _random_qmat(rng, 4, 7)[:, ::3]),
    ],
    ids=["k=0", "m=1", "conjugate-transpose", "column-slice"],
)
def test_quat_matmul_edge_shapes_match_triple_loop(operands):
    A, B = operands(SplitMix64(8))
    got = kernels.quat_matmul(A, B)
    assert got.shape == (A.shape[0], B.shape[1], 4)
    assert np.abs(got - _triple_loop(A, B)).max(initial=0.0) < 1e-12
    if A.shape[1] == 0:
        assert np.array_equal(got, np.zeros_like(got))


def _chi(A):
    # the complex adjoint [[A1, A2], [-conj A2, conj A1]] of A = A1 + A2 j
    A1 = A[..., 0] + 1j * A[..., 1]
    A2 = A[..., 2] + 1j * A[..., 3]
    return np.block([[A1, A2], [-A2.conj(), A1.conj()]])


@pytest.mark.parametrize("n", [32, 64])
def test_quat_matmul_is_multiplicative_under_the_complex_adjoint(n):
    rng = SplitMix64(9 + n)
    A = _random_qmat(rng, n, n)
    B = _random_qmat(rng, n, n)
    expect = _chi(A) @ _chi(B)
    got = _chi(kernels.quat_matmul(A, B))
    assert np.abs(got - expect).max() < 1e-10 * np.abs(expect).max()


@pytest.mark.parametrize("n", [1, 3, 8, 32])
@pytest.mark.parametrize("components, zero", [(1, slice(1, 4)), (2, slice(2, 4))], ids=["R", "C"])
def test_quat_matmul_keeps_real_and_complex_products_in_their_algebra(n, components, zero):
    rng = SplitMix64(10 + n)
    A = np.zeros((n, n, 4))
    B = np.zeros((n, n, 4))
    A[..., :components] = _random_qmat(rng, n, n)[..., :components]
    B[..., :components] = _random_qmat(rng, n, n)[..., :components]
    got = kernels.quat_matmul(A, B)
    assert np.array_equal(got[..., zero], np.zeros((n, n, 4))[..., zero])
    assert np.abs(got - _triple_loop(A, B)).max() < 1e-11


def _in_algebra(rng, n, m, components):
    X = np.zeros((n, m, 4))
    X[..., :components] = _random_qmat(rng, n, m)[..., :components]
    return X


@pytest.mark.parametrize("n", [1, 2, 3, 8, 33, 64])
@pytest.mark.parametrize("components", [1, 2], ids=["R", "C"])
def test_real_and_complex_products_match_the_hamilton_reference(n, components):
    # the one-GEMM products over R and C against sum_s A_rs B_sc with every
    # entry product read off the Hamilton table, on contiguous, transposed and
    # column-sliced operands
    rng = SplitMix64(20 + n)
    A = _in_algebra(rng, n, n + 2, components)
    B = _in_algebra(rng, n + 2, n, components)
    U = _in_algebra(rng, n + 2, n + 3, components)
    keep = np.arange(n + 3) % 3 != 1
    cases = [
        (A, B),
        (B.transpose(1, 0, 2), B),
        (A, U[:, keep]),
        (U[:, ::2].transpose(1, 0, 2), A.transpose(1, 0, 2)),
    ]
    for X, Y in cases:
        ref = np.einsum("rsa,scb,abe->rce", X, Y, kernels.HAMILTON, optimize=True)
        got = kernels.quat_matmul(X, Y, components)
        assert got.shape == ref.shape
        assert np.array_equal(got[..., components:], np.zeros_like(got[..., components:]))
        assert np.abs(got - ref).max() <= 1e-13 * max(1.0, np.abs(ref).max())


def _strided_copy_product(A, B, components):
    """Reference: the R or C product with each operand copied as ``components``
    strided doubles per entry before it is read as float64 or complex128."""
    dtype = np.float64 if components == 1 else np.complex128
    prod = (np.ascontiguousarray(A[..., :components]).view(dtype)[..., 0]
            @ np.ascontiguousarray(B[..., :components]).view(dtype)[..., 0])
    out = np.zeros(prod.shape + (4 // components,), dtype)
    out[..., 0] = prod
    return out.view(np.float64)


@pytest.mark.parametrize("n", [1, 3, 8, 64])
@pytest.mark.parametrize("components", [1, 2], ids=["R", "C"])
def test_real_and_complex_operands_copied_as_numbers_keep_the_bits(n, components):
    # stacks, a transposed stack, a column-sliced one and a lone matrix against
    # a stack: the operands copied as numbers give the strided copy's product
    rng = SplitMix64(30 + n)
    A = np.stack([_in_algebra(rng, n, n + 1, components) for _ in range(3)])
    B = np.stack([_in_algebra(rng, n + 1, n, components) for _ in range(3)])
    W = np.stack([_in_algebra(rng, n + 1, 2 * n + 1, components) for _ in range(3)])
    cases = [(A, B), (B.swapaxes(-3, -2), A.swapaxes(-3, -2)), (A, W[:, :, ::2]), (A[1], B), (A, B[2])]
    for X, Y in cases:
        got = kernels.quat_matmul(X, Y, components)
        assert got.tobytes() == _strided_copy_product(X, Y, components).tobytes()


@pytest.mark.parametrize("shapes", [((3, 2), (1, 2)), ((3, 2), (3, 2)), ((2, 1), (3, 1))])
def test_quat_matmul_rejects_mismatched_inner_dimensions(shapes):
    (n, k), (k2, m) = shapes
    with pytest.raises(ValueError, match="cannot multiply"):
        kernels.quat_matmul(np.zeros((n, k, 4)), np.zeros((k2, m, 4)))


def _closed_form_products(p, q):
    # Quaternion.__mul__ entry by entry over the broadcast operands
    bp, bq = np.broadcast_arrays(p, q)
    rows = [(Quaternion.from_array(a) * Quaternion.from_array(b)).to_array()
            for a, b in zip(bp.reshape(-1, 4), bq.reshape(-1, 4))]
    return np.array(rows).reshape(bp.shape)


def test_hamilton_table_matches_quaternion_multiplication_on_units():
    units = np.eye(4)
    for a in range(4):
        for b in range(4):
            expect = (Quaternion.from_array(units[a]) * Quaternion.from_array(units[b])).to_array()
            assert np.array_equal(kernels.HAMILTON[a, b], expect)
            assert np.array_equal(_mul_comps(units[a], units[b]), expect)


@pytest.mark.parametrize("n", [1, 3, 6])
@pytest.mark.parametrize(
    "shapes",
    [((-1, 4), (1, 4)), ((-1, 1, 4), (1, -1, 4)), ((-1, -1, 4), (-1, -1, 4))],
    ids=["(n,4)x(1,4)", "(n,1,4)x(1,n,4)", "(n,n,4)x(n,n,4)"],
)
def test_pointwise_product_matches_quaternion_multiplication(n, shapes):
    rng = SplitMix64(7 + n)
    p_shape, q_shape = (tuple(n if d == -1 else d for d in shape) for shape in shapes)
    p = rng.gaussian_block(int(np.prod(p_shape))).reshape(p_shape)
    q = rng.gaussian_block(int(np.prod(q_shape))).reshape(q_shape)
    got = _mul_comps(p, q)
    expect = _closed_form_products(p, q)
    assert got.shape == expect.shape
    assert np.abs(got - expect).max() < 1e-14


def _random_hermitian_complex(rng, n):
    raw = rng.gaussian_block(2 * n * n)
    G = raw[: n * n].reshape(n, n) + 1j * raw[n * n :].reshape(n, n)
    return (G + G.conj().T) / 2


# Cyclic Jacobi eigensolver for complex Hermitian matrices, the independent
# reference for the LAPACK kernel.  One sweep annihilates every off-diagonal
# pair (p, q) with a unitary plane rotation; sweeps repeat until the largest
# off-diagonal entry falls below tol * max(|diag|, 1).  Returns (eigenvalues,
# eigenvector columns), unsorted.  Quadratic convergence makes ~6-10 sweeps
# enough at n <= 64.

_JACOBI_TOL = 1e-13
_JACOBI_MAX_SWEEPS = 64


def _jacobi_reference(H: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    n = H.shape[0]
    A = H.astype(np.complex128, copy=True)
    V = np.eye(n, dtype=np.complex128)
    if n == 1:
        return A.real.diagonal().copy(), V
    for _ in range(_JACOBI_MAX_SWEEPS):
        strict = np.abs(A - np.diag(np.diag(A)))
        scale = max(np.abs(np.diag(A).real).max(), 1.0)
        if strict.max() <= _JACOBI_TOL * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = A[p, q]
                mag = abs(apq)
                if mag <= 1e-300:
                    continue
                phase = apq / mag
                theta = (A[q, q].real - A[p, p].real) / (2.0 * mag)
                t = np.sign(theta) if theta != 0 else 1.0
                t = t / (abs(theta) + np.sqrt(1.0 + theta * theta))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c * phase
                col_p = A[:, p].copy()
                A[:, p] = c * col_p - np.conj(s) * A[:, q]
                A[:, q] = s * col_p + c * A[:, q]
                row_p = A[p, :].copy()
                A[p, :] = c * row_p - s * A[q, :]
                A[q, :] = np.conj(s) * row_p + c * A[q, :]
                vcol_p = V[:, p].copy()
                V[:, p] = c * vcol_p - np.conj(s) * V[:, q]
                V[:, q] = s * vcol_p + c * V[:, q]
    return A.diagonal().real.copy(), V


@pytest.mark.parametrize("n", [1, 2, 3, 7, 16, 24])
def test_jacobi_eigh_solves_hermitian_problems(n):
    H = _random_hermitian_complex(SplitMix64(n), n)
    vals, vecs = _jacobi_reference(H)
    assert np.abs(H @ vecs - vecs @ np.diag(vals)).max() < 1e-11 * max(1.0, np.abs(vals).max())
    assert np.abs(vecs.conj().T @ vecs - np.eye(n)).max() < 1e-12
    assert np.abs(np.sort(vals) - np.linalg.eigvalsh(H)).max() < 1e-10


def test_jacobi_handles_degenerate_spectra():
    # eigenvalues {2, 2, 2, -1} with an exactly degenerate block
    Q, _ = np.linalg.qr(_random_hermitian_complex(SplitMix64(55), 4) + 0.3)
    H = Q @ np.diag([2.0, 2.0, 2.0, -1.0]) @ Q.conj().T
    H = (H + H.conj().T) / 2
    vals, vecs = _jacobi_reference(H)
    assert np.abs(np.sort(vals) - np.array([-1.0, 2.0, 2.0, 2.0])).max() < 1e-12
    assert np.abs(H @ vecs - vecs @ np.diag(vals)).max() < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 7, 16, 24])
def test_eigh_solves_hermitian_problems(n):
    H = _random_hermitian_complex(SplitMix64(n), n)
    vals, vecs = kernels.eigh(H)
    assert np.abs(H @ vecs - vecs @ np.diag(vals)).max() < 1e-11 * max(1.0, np.abs(vals).max())
    assert np.abs(vecs.conj().T @ vecs - np.eye(n)).max() < 1e-12
    assert np.abs(np.sort(vals) - np.linalg.eigvalsh(H)).max() < 1e-10
    # the in-repo sweep is an independent oracle for the LAPACK spectrum
    ref, _ = _jacobi_reference(H)
    assert np.abs(np.sort(vals) - np.sort(ref)).max() < 1e-10


@pytest.mark.parametrize("vectors", [True, False], ids=["vectors", "values-only"])
@pytest.mark.parametrize("n", [1, 2, 3, 7, 16, 24, 128])
def test_eigh_spectrum_matches_eigvalsh_in_both_modes(n, vectors):
    H = _random_hermitian_complex(SplitMix64(100 + n), n)
    vals, vecs = kernels.eigh(H, vectors=vectors)
    assert vals.shape == (n,)
    scale = max(1.0, np.abs(vals).max())
    assert np.abs(vals - np.linalg.eigvalsh(H)).max() < 1e-12 * scale
    # two invariants that need no eigensolver: tr H and |H|_F^2
    assert abs(vals.sum() - np.trace(H).real) < 1e-12 * n * scale
    assert abs((vals**2).sum() - (np.abs(H) ** 2).sum()) < 1e-12 * n * scale**2
    if vectors:
        assert np.abs(H @ vecs - vecs * vals).max() < 1e-11 * scale
    else:
        assert vecs is None


@pytest.mark.parametrize("vectors", [True, False], ids=["vectors", "values-only"])
@pytest.mark.parametrize("n", [1, 2, 3, 16, 64])
def test_eigh_keeps_real_symmetric_input_real(n, vectors):
    G = _random_qmat(SplitMix64(200 + n), n, n)[..., 0]
    S = G + G.T
    vals, vecs = kernels.eigh(S, vectors=vectors)
    scale = max(1.0, np.abs(vals).max())
    assert np.abs(vals - np.linalg.eigvalsh(S)).max() < 1e-12 * scale
    if vectors:
        assert vecs.dtype == np.float64
        assert np.abs(S @ vecs - vecs * vals).max() < 1e-11 * scale
        assert np.abs(vecs.T @ vecs - np.eye(n)).max() < 1e-12
    else:
        assert vecs is None


def test_eigh_handles_degenerate_spectra():
    Q, _ = np.linalg.qr(_random_hermitian_complex(SplitMix64(55), 4) + 0.3)
    H = Q @ np.diag([2.0, 2.0, 2.0, -1.0]) @ Q.conj().T
    H = (H + H.conj().T) / 2
    vals, vecs = kernels.eigh(H)
    assert np.abs(np.sort(vals) - np.array([-1.0, 2.0, 2.0, 2.0])).max() < 1e-12
    assert np.abs(H @ vecs - vecs @ np.diag(vals)).max() < 1e-12
    assert np.abs(vecs.conj().T @ vecs - np.eye(4)).max() < 1e-12


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
@pytest.mark.parametrize("where", [(0, 1), (1, 0), (2, 2)], ids=["upper", "lower", "diagonal"])
def test_eigh_rejects_non_finite_entries(bad, where):
    # LAPACK reads one triangle only: NaN at (0, 1) of the identity would
    # otherwise come back as the spectrum [1, 1, 1]
    H = np.eye(3, dtype=np.complex128)
    H[where] = bad
    for vectors in (True, False):
        with pytest.raises(ConvergenceFailure):
            kernels.eigh(H, vectors=vectors)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("where", [(0, 1), (1, 0), (2, 2)], ids=["upper", "lower", "diagonal"])
def test_eigh_rejects_non_finite_entries_of_real_input(bad, where):
    # real input goes to the real symmetric driver, which reads one triangle too
    H = np.eye(3)
    H[where] = bad
    for vectors in (True, False):
        with pytest.raises(ConvergenceFailure):
            kernels.eigh(H, vectors=vectors)


def test_eigh_reports_lapack_failure_as_convergence_failure(monkeypatch):
    def no_convergence(H):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    # eigh computes eigenvectors, eigvalsh is the eigenvalue-only driver
    monkeypatch.setattr(np.linalg, "eigh", no_convergence)
    monkeypatch.setattr(np.linalg, "eigvalsh", no_convergence)
    for vectors in (True, False):
        with pytest.raises(ConvergenceFailure, match="did not converge"):
            kernels.eigh(np.eye(2), vectors=vectors)


def test_active_backend_reports_a_known_name():
    assert kernels.active_backend() == "numpy"
