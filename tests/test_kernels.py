import numpy as np
import pytest

from gleason_lab import kernels
from gleason_lab.errors import ConvergenceFailure
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
    with pytest.raises(ConvergenceFailure):
        kernels.eigh(H)


def test_eigh_reports_lapack_failure_as_convergence_failure(monkeypatch):
    def no_convergence(H):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", no_convergence)
    with pytest.raises(ConvergenceFailure, match="did not converge"):
        kernels.eigh(np.eye(2))


def test_active_backend_reports_a_known_name():
    assert kernels.active_backend() == "numpy"
