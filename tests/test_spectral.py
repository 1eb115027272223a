import math
import warnings

import numpy as np
import pytest

from gleason_lab import gleason, kernels, linalg, spectral
from gleason_lab.errors import AlgebraMismatch, ConvergenceFailure, NotHermitian, require
from gleason_lab.gleason import DensityOperator, is_extremal, random_density
from gleason_lab.linalg import (
    Matrix,
    is_positive,
    outer,
    outer_sum,
    random_hermitian,
    random_matrix,
    random_unitary,
)
from gleason_lab.rng import SplitMix64
from gleason_lab.scalars import Algebra, Quaternion
from gleason_lab.spectral import (
    abs_op,
    adapted_basis,
    eig_hermitian,
    eigvals_hermitian,
    make_J,
    op_norm,
    singular_values,
)
from gleason_lab.trace import check_norm_inequalities, trace_norm

from conftest import ALGEBRAS, matrices_close, orthonormality_defect, quaternions_close

I, J, K = Quaternion.I, Quaternion.J, Quaternion.K


def embed(A: Matrix) -> np.ndarray:
    """Complex 2n x 2n image chi(A) of a square quaternionic matrix."""
    if A.algebra is not Algebra.H:
        raise AlgebraMismatch("embedding is defined for quaternionic matrices")
    if not A.is_square:
        raise ValueError("embedding needs a square matrix")
    return spectral._chi(A.comps)


class TestEmbedding:
    def test_identity_maps_to_identity(self):
        X = embed(Matrix.identity(3, Algebra.H))
        assert np.abs(X - np.eye(6)).max() == 0.0

    def test_homomorphism_laws(self):
        rng = SplitMix64(20)
        A = random_matrix(4, 4, Algebra.H, rng)
        B = random_matrix(4, 4, Algebra.H, rng)
        XA, XB = embed(A), embed(B)
        assert np.abs(embed(A @ B) - XA @ XB).max() < 1e-12
        assert np.abs(embed(A.adjoint()) - XA.conj().T).max() < 1e-14

    def test_hermitian_spectrum_has_even_multiplicities(self):
        rng = SplitMix64(21)
        A = random_hermitian(5, Algebra.H, rng)
        w = np.sort(np.linalg.eigvalsh(embed(A)))
        assert np.abs(w[0::2] - w[1::2]).max() < 1e-10

    def test_wrong_algebra_is_rejected(self):
        with pytest.raises(AlgebraMismatch):
            embed(Matrix.identity(2, Algebra.C))


def _degenerate_quaternionic_spectra() -> list[Matrix]:
    """Quaternionic Hermitian matrices with spectra {3, 3, 3, -2, -2} and {2, 2, 2, -1, -1}."""
    U = random_unitary(5, Algebra.H, SplitMix64(22))
    A = Matrix.zeros(5, 5, Algebra.H)
    for s, c in zip([3.0, 3.0, 3.0, -2.0, -2.0], range(5)):
        A = A + outer(U.col(c), U.col(c)) * s
    B = outer_sum(random_unitary(5, Algebra.H, SplitMix64(25)), np.array([2.0, 2.0, 2.0, -1.0, -1.0]))
    return [A, B]


def _unitary_conjugate(spectrum: list[float], seed: int) -> tuple[Matrix, np.ndarray]:
    U = random_unitary(len(spectrum), Algebra.H, SplitMix64(seed))
    return outer_sum(U, np.array(spectrum)), np.array(sorted(spectrum, reverse=True))


_LIFT_CASES = {
    "all simple": lambda: _unitary_conjugate([4.0, 2.0, 1.0, -1.0, -3.0], 1310),
    "all equal": lambda: _unitary_conjugate([2.0] * 4, 1311),
    "zero matrix": lambda: (Matrix.zeros(3, 3, Algebra.H), np.zeros(3)),
    "n = 1": lambda: (Matrix.from_rows([[-2.5]], Algebra.H), np.array([-2.5])),
    "repeated and simple": lambda: _unitary_conjugate([3.0, 3.0, 1.0, 0.0, 0.0], 1312),
}


class TestEigHermitian:
    def test_identity(self):
        dec = eig_hermitian(Matrix.identity(4, Algebra.H))
        assert np.allclose(dec.values, 1.0)
        assert orthonormality_defect(dec.basis) < 1e-12

    @pytest.mark.parametrize("algebra", ALGEBRAS)
    def test_small_spectrum_is_resolved(self, algebra):
        # eigenvalues are grouped relative to the largest one, so a spectrum
        # far below 1 is not merged into one mean value
        A = Matrix.diag([1e-9, 3e-9, 2e-9], algebra)
        dec = eig_hermitian(A)
        assert np.allclose(dec.values, [3e-9, 2e-9, 1e-9], rtol=1e-9, atol=0.0)
        assert dec.residual(A) < 1e-20

    def test_real_diagonal(self):
        dec = eig_hermitian(Matrix.diag([2.0, -1.0], Algebra.R))
        assert np.allclose(dec.values, [2.0, -1.0])
        assert abs(abs(dec.basis.entry(0, 0)) - 1.0) < 1e-12

    def test_quaternionic_pauli_like_matrix(self):
        # A = [[0, j], [-j, 0]] squares to the identity and has zero trace
        A = Matrix.from_rows([[0.0, J], [-J, 0.0]], Algebra.H)
        dec = eig_hermitian(A)
        assert np.allclose(np.sort(dec.values), [-1.0, 1.0], atol=1e-12)
        assert dec.residual(A) < 1e-12
        # quaternionic scalings of eigenvectors are still eigenvectors
        u = dec.basis.col(0).scale_right(Quaternion(0.5, 0.5, 0.5, 0.5))
        resid = (A @ u - u.scale_right(float(dec.values[0]))).norm()
        assert resid < 1e-12

    @pytest.mark.parametrize("algebra", ALGEBRAS)
    @pytest.mark.parametrize("n", [1, 2, 5, 9, 16])
    def test_reconstruction_and_orthonormality(self, algebra, n):
        rng = SplitMix64(1000 + n)
        A = random_hermitian(n, algebra, rng)
        dec = eig_hermitian(A)
        scale = max(1.0, op_norm(A))
        assert dec.residual(A) <= 1e-8 * scale
        assert orthonormality_defect(dec.basis) < 1e-9
        assert list(dec.values) == sorted(dec.values, reverse=True)
        for s, u in zip(dec.values, dec.basis.columns()):
            assert (A @ u - u.scale_right(float(s))).norm() <= 1e-8 * scale

    def test_degenerate_quaternionic_spectrum(self):
        spectrum = [3.0, 3.0, 3.0, -2.0, -2.0]
        A = _degenerate_quaternionic_spectra()[0]
        dec = eig_hermitian(A)
        assert np.allclose(np.sort(dec.values), np.sort(spectrum), atol=1e-9)
        assert dec.residual(A) < 1e-9
        assert orthonormality_defect(dec.basis) < 1e-9

    def test_grouped_quaternionic_eigenvalues_are_exactly_equal(self):
        A = _degenerate_quaternionic_spectra()[1]
        dec = eig_hermitian(A)
        assert dec.values[0] == dec.values[1] == dec.values[2]
        assert dec.values[3] == dec.values[4]
        assert np.abs(dec.values - [2.0, 2.0, 2.0, -1.0, -1.0]).max() <= 1e-10
        assert dec.residual(A) <= 1e-10
        assert orthonormality_defect(dec.basis) <= 1e-10

    @pytest.mark.parametrize("fault", ["unpaired spectrum", "dependent eigenvectors", "zero eigenvectors"])
    def test_quaternionic_lift_rejects_a_broken_eigensolve(self, monkeypatch, fault):
        real_eigh = kernels.eigh

        def broken_eigh(X, **kwargs):
            w, V = real_eigh(X, **kwargs)
            if fault == "unpaired spectrum":
                return np.arange(len(w), dtype=float), V
            if fault == "zero eigenvectors":
                # a doubled spectrum of simple pairs, each lifting to zero
                return np.repeat(np.arange(len(w) // 2, dtype=float), 2), np.zeros_like(V)
            # a doubled spectrum whose eigenvectors all lift to one line
            return np.ones(len(w)), np.repeat(V[:, :1], len(w), axis=1)

        monkeypatch.setattr(kernels, "eigh", broken_eigh)
        with pytest.raises(ConvergenceFailure):
            eig_hermitian(Matrix.identity(2, Algebra.H))

    @pytest.mark.parametrize("case", list(_LIFT_CASES))
    def test_quaternionic_lift_mixes_simple_and_repeated_groups(self, case):
        A, spectrum = _LIFT_CASES[case]()
        dec = eig_hermitian(A)
        assert np.abs(dec.values - spectrum).max(initial=0.0) <= 1e-9
        assert list(dec.values) == sorted(dec.values, reverse=True)
        assert dec.residual(A) <= 1e-9
        assert orthonormality_defect(dec.basis) <= 1e-9
        # each group of equal pairs carries one exactly equal value
        for a, b in spectral._group_indices(dec.values, 1e-7 * max(1.0, np.abs(spectrum).max())):
            assert (dec.values[a:b] == dec.values[a]).all()

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16])
    def test_simple_pairs_lift_as_the_per_group_gram_schmidt_does(self, n, monkeypatch):
        A = random_hermitian(n, Algebra.H, SplitMix64(1300 + n))
        w, V = spectral._solve(A.comps, A.algebra, vectors=True)
        lifted = np.stack([V[:n].real, V[:n].imag, -V[n:].real, V[n:].imag], axis=-1)
        reference = np.concatenate(
            [linalg._orthonormalize(lifted[:, 2 * a : 2 * a + 2], 1e-6, limit=1)[0] for a in range(n)], axis=1
        )
        means = np.array([float(np.mean(w[2 * a : 2 * a + 2])) for a in range(n)])

        def refuse(*args, **kwargs):
            raise AssertionError("a simple spectrum lifts without _orthonormalize")

        monkeypatch.setattr(spectral, "_orthonormalize", refuse)
        dec = eig_hermitian(A)
        # equal values are equal bits, except that a zero may carry either sign:
        # the reference's Hamilton einsum adds +0 terms to a -0 entry
        assert np.array_equal(dec.basis.comps, reference)
        assert dec.values.tobytes() == means.tobytes()

    def test_spectrum_against_embedding_oracle(self):
        # quaternionic eigenvalues equal the embedded complex ones, which come
        # in pairs: compare multisets after collapsing the doubling
        rng = SplitMix64(23)
        A = random_hermitian(6, Algebra.H, rng)
        dec = eig_hermitian(A)
        doubled = np.sort(np.repeat(dec.values, 2))
        reference = np.sort(np.linalg.eigvalsh(embed(A)))
        assert np.abs(doubled - reference).max() < 1e-8

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            eig_hermitian(Matrix.from_rows([[0.0, 1.0], [0.0, 0.0]], Algebra.R))


class TestEigvalsHermitian:
    @pytest.mark.parametrize("algebra", ALGEBRAS)
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 64])
    def test_agrees_with_eig_hermitian(self, algebra, n):
        A = random_hermitian(n, algebra, SplitMix64(1100 + n))
        values = eigvals_hermitian(A)
        reference = eig_hermitian(A).values
        assert values.shape == (n,)
        assert np.abs(values - reference).max() <= 1e-12 * max(1.0, np.abs(reference).max())

    @pytest.mark.parametrize("case", [0, 1])
    def test_agrees_on_degenerate_quaternionic_spectra(self, case):
        A = _degenerate_quaternionic_spectra()[case]
        values = eigvals_hermitian(A)
        reference = eig_hermitian(A).values
        assert np.abs(values - reference).max() <= 1e-12 * max(1.0, np.abs(reference).max())

    def test_builds_no_basis(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("eigvals_hermitian must not orthonormalize")

        monkeypatch.setattr(spectral, "_orthonormalize", refuse)
        A = _degenerate_quaternionic_spectra()[0]
        assert np.allclose(eigvals_hermitian(A), [3.0, 3.0, 3.0, -2.0, -2.0], atol=1e-9)

    @pytest.mark.parametrize("solve", [eig_hermitian, eigvals_hermitian])
    @pytest.mark.parametrize("algebra", ALGEBRAS)
    def test_non_square_input_is_rejected(self, solve, algebra):
        with pytest.raises(ValueError):
            solve(Matrix.zeros(2, 3, algebra))

    @pytest.mark.parametrize("solve", [eig_hermitian, eigvals_hermitian])
    def test_unpaired_spectrum_is_rejected(self, monkeypatch, solve):
        real_eigh = kernels.eigh

        def broken_eigh(X, **kwargs):
            w, V = real_eigh(X, **kwargs)
            return np.arange(len(w), dtype=float), V

        monkeypatch.setattr(kernels, "eigh", broken_eigh)
        with pytest.raises(ConvergenceFailure):
            solve(Matrix.identity(2, Algebra.H))


class TestSpectrumReaders:
    """Norms, positivity and the state check read the spectrum alone: they
    succeed with eig_hermitian and LAPACK's eigenvector driver unavailable,
    each with the solves it needs."""

    @pytest.fixture
    def eigh_calls(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("no eigenbasis may be built here")

        def refuse_vectors(*args, **kwargs):
            raise AssertionError("no eigenvector may be computed here")

        for module in (spectral, gleason):
            monkeypatch.setattr(module, "eig_hermitian", refuse)
        monkeypatch.setattr(np.linalg, "eigh", refuse_vectors)
        real_eigh = kernels.eigh
        calls = []

        def counting_eigh(X, **kwargs):
            calls.append(X.shape[0])
            return real_eigh(X, **kwargs)

        monkeypatch.setattr(kernels, "eigh", counting_eigh)
        return calls

    @pytest.mark.parametrize("algebra", ALGEBRAS)
    def test_norms_and_positivity(self, eigh_calls, algebra):
        rng = SplitMix64(1200)
        A = random_matrix(4, 4, algebra, rng)
        P = A.adjoint() @ A
        # is_positive over C and H also takes the operator norm of the skew part
        for read, solves in [(singular_values, 1), (op_norm, 1), (trace_norm, 1),
                             (is_positive, 1 if algebra is Algebra.R else 2)]:
            eigh_calls.clear()
            read(P)
            assert len(eigh_calls) == solves, read.__name__
        assert is_positive(P)

    @pytest.mark.parametrize("algebra", ALGEBRAS)
    def test_state_check(self, eigh_calls, algebra):
        T = random_density(4, algebra, SplitMix64(1201), rank=2)
        eigh_calls.clear()
        state = DensityOperator(T.matrix)
        assert len(eigh_calls) == 1
        assert state.rank() == 2 and not is_extremal(state)
        assert len(eigh_calls) == 1

    @pytest.mark.parametrize("algebra", ALGEBRAS)
    def test_state_decomposes_once_on_first_use(self, algebra, monkeypatch):
        T = random_density(3, algebra, SplitMix64(1202))
        real_eigh = kernels.eigh
        calls = []

        def counting_eigh(X, **kwargs):
            calls.append(X.shape[0])
            return real_eigh(X, **kwargs)

        monkeypatch.setattr(kernels, "eigh", counting_eigh)
        dec = T.eigen()
        assert len(calls) == 1
        assert T.eigen() is dec
        assert len(calls) == 1
        assert np.abs(dec.values - T.eigenvalues).max() <= 1e-12

    @pytest.mark.parametrize("algebra", ALGEBRAS)
    def test_eig_hermitian_still_computes_eigenvectors(self, algebra, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the eigenbasis needs the eigenvector driver")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        A = random_hermitian(5, algebra, SplitMix64(1203))
        dec = eig_hermitian(A)
        assert dec.residual(A) < 1e-10
        assert orthonormality_defect(dec.basis) < 1e-10

    @pytest.mark.parametrize("n", [32, 64])
    def test_doubled_spectrum_guard_passes_gaussian_product_grams(self, n, monkeypatch):
        # A*A for a product of Gaussian matrices has a wide spectrum, down to
        # tiny eigenvalues: the pairing guard, relative to the largest one,
        # must still pass the eigenvalue-only driver's rounding
        rng = SplitMix64(1204 + n)
        A = random_matrix(n, n, Algebra.H, rng) @ random_matrix(n, n, Algebra.H, rng)
        G = A.adjoint() @ A
        real_eigvalsh = np.linalg.eigvalsh
        orders = []

        def counting_eigvalsh(X):
            orders.append(X.shape[0])
            return real_eigvalsh(X)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
        values = eigvals_hermitian(G)
        assert orders == [2 * n]
        reference = np.sort(real_eigvalsh(embed(G)))[::-1]
        assert np.abs(values - 0.5 * (reference[0::2] + reference[1::2])).max() <= (
            1e-12 * reference[0]
        )


# ---------------------------------------------------------------------------
# the guarded solve in the algebra's own arithmetic, against the component form
# ---------------------------------------------------------------------------

_CONJ = np.array([1.0, -1.0, -1.0, -1.0])


def _reference_solve(c: np.ndarray, algebra: Algebra, vectors: bool):
    """``spectral._solve`` in the component form: A*, the ratio test and the
    symmetrization on all four components of every entry, and the spectrum
    ordered by a stable argsort in both modes."""
    if c.shape[-3] != c.shape[-2]:
        raise ValueError("eigendecomposition needs a square matrix")
    require(np.isfinite(c).all(axis=(-3, -2, -1)), NotHermitian, "matrix has a non-finite entry")
    star = c.swapaxes(-3, -2) * _CONJ
    defect = c - star
    ratio = (np.sqrt((defect * defect).sum(axis=-1).max(axis=(-2, -1)))
             / np.maximum(1.0, np.sqrt((c * c).sum(axis=-1).max(axis=(-2, -1)))))
    require(ratio <= 1e-8, NotHermitian,
            lambda i: f"|A - A*| / max(1, max|A_rc|) = {ratio[i]:.3e} exceeds {1e-8:.1e}")
    sym = (c + star) * 0.5
    if algebra is Algebra.H:
        X = spectral._chi(sym)
    elif algebra is Algebra.C:
        X = sym[..., 0] + 1j * sym[..., 1]
    else:
        X = sym[..., 0]
    w, V = kernels.eigh(X, vectors=vectors)
    order = np.argsort(-w, axis=-1, kind="stable")
    w = np.take_along_axis(w, order, axis=-1)
    if vectors:
        V = np.take_along_axis(V, order[..., None, :], axis=-1)
    if algebra is Algebra.H:
        scale = np.abs(w).max(axis=-1, initial=0.0)
        unpaired = np.abs(w[..., 0::2] - w[..., 1::2]).max(axis=-1, initial=0.0) > 1e-7 * scale
        require(~unpaired, ConvergenceFailure, "eigenvalue pairing failed: chi(A) spectrum is not doubled")
    return w, V


def _reference_gram(c: np.ndarray, algebra: Algebra) -> np.ndarray:
    """``spectral._gram`` in the component form: A* of all four components."""
    require(np.isfinite(c).all(axis=(-3, -2, -1)), NotHermitian, "matrix has a non-finite entry")
    return kernels.quat_matmul(c.swapaxes(-3, -2) * _CONJ, c, algebra.component_count)


def _bits(x: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(x).view(np.uint64)


def _assert_same_bits(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(_bits(got), _bits(want))


def _gaussian(shape: tuple, algebra: Algebra, seed: int) -> np.ndarray:
    c = np.zeros(shape + (4,))
    c[..., : algebra.component_count] = np.random.default_rng(seed).standard_normal(shape + (algebra.component_count,))
    return c


def _hermitian_input(lead: tuple, n: int, algebra: Algebra, seed: int) -> np.ndarray:
    g = _gaussian(lead + (n, n), algebra, seed)
    return (g + g.swapaxes(-3, -2) * _CONJ) * 0.5


def _product_input(lead: tuple, n: int, algebra: Algebra, seed: int) -> np.ndarray:
    k = algebra.component_count
    return kernels.quat_matmul(_gaussian(lead + (n, n), algebra, seed), _gaussian(lead + (n, n), algebra, seed + 1), k)


def _signed_zeros_input(T: int, n: int, algebra: Algebra, seed: int) -> np.ndarray:
    """T Hermitian n x n matrices with entries in {+-0, +-1/2, +-1}, every
    zero of either sign, each pair (A_rc, A_cr) a conjugate pair up to the sign
    of a zero."""
    rng = np.random.default_rng(seed)
    k = algebra.component_count
    c = np.zeros((T, n, n, 4))
    c[..., :k] = rng.choice([-1.0, -0.5, 0.0, 0.0, 0.5, 1.0], (T, n, n, k))
    lower = np.tril_indices(n, -1)
    c[:, lower[0], lower[1]] = c.swapaxes(1, 2)[:, lower[0], lower[1]] * _CONJ
    c[:, np.arange(n), np.arange(n), 1:] = 0.0
    return np.where((c == 0.0) & (rng.random(c.shape) < 0.5), -0.0, c)


def _diagonal(values: list[float]) -> np.ndarray:
    c = np.zeros((len(values), len(values), 4))
    c[np.arange(len(values)), np.arange(len(values)), 0] = values
    return c


def _outcome(solve, c, algebra, vectors):
    """(error type, message) of a solve that raises, else None."""
    with np.errstate(over="ignore"):
        try:
            solve(c, algebra, vectors)
        except Exception as exc:  # the guard under test, whichever it is
            return type(exc), str(exc)
    return None


def _assert_solve_keeps_its_bits(c: np.ndarray, algebra: Algebra) -> None:
    for vectors in (False, True):
        (w, V), (want_w, want_V) = spectral._solve(c, algebra, vectors), _reference_solve(c, algebra, vectors)
        _assert_same_bits(w, want_w)
        if vectors:
            _assert_same_bits(V, want_V)
        else:
            assert V is None


def _broken(algebra: Algebra, lead: tuple, at: tuple, value, base=None) -> np.ndarray:
    """A Gaussian Hermitian 3 x 3 input, or ``base``, alone or as a stack of
    four, with ``value`` at the index ``at`` of the matrix, or of stack
    entries 1 and 2."""
    c = _hermitian_input(lead, 3, algebra, 1700) if base is None else np.broadcast_to(base, lead + base.shape).copy()
    for t in ([()] if not lead else [(1,), (2,)]):
        c[t + at] = value
    return c


# (algebra, input builder over the leading axes, expected error, or None for
# the reference's error): every guard of the solve, in its order
_GUARD_CASES = {
    **{f"{kind} in component {q} over {a.value}": (a, lambda lead, a=a, q=q, v=v: _broken(a, lead, (1, 2, q), v), None)
       for a in (Algebra.R, Algebra.C) for q in range(4) for kind, v in (("NaN", np.nan), ("inf", np.inf))},
    "component 1 of an R matrix": (
        Algebra.R, lambda lead: _broken(Algebra.R, lead, (0, 1, 1), 0.5),
        (AlgebraMismatch, "an entry has components outside R")),
    "component 2 of a C matrix": (
        Algebra.C, lambda lead: _broken(Algebra.C, lead, (2, 2, 2), 1e-300),
        (AlgebraMismatch, "an entry has components outside C")),
    # a Hermitian C matrix stored as R: its ratio over four components passes,
    # and the component form solved it with its i-parts dropped
    "a Hermitian C matrix stored as R": (
        Algebra.R, lambda lead: _broken(Algebra.R, lead, (..., 1), _hermitian_input((), 3, Algebra.C, 1701)[..., 1]),
        (AlgebraMismatch, "an entry has components outside R")),
    **{f"a ratio just above 1e-8 over {a.value}": (
        a, lambda lead, a=a: _broken(a, lead, (0, 1, a.component_count - 1), 1.01e-8, _diagonal([1.0, 0.5, -1.0])), None)
       for a in (Algebra.R, Algebra.C)},
    **{f"a symmetrization that overflows over {a.value}": (
        a, lambda lead, a=a: _broken(a, lead, (0, 0, 0), 1.5e308, _diagonal([1.0, 0.5, -1.0])),
        (ConvergenceFailure, "Hermitian eigenproblem has a non-finite entry")) for a in (Algebra.R, Algebra.C)},
}


class TestNativeSolve:
    """Over R and C, ``_solve`` runs its ratio test and symmetrization on the
    algebra's own components, ``_gram`` forms A* from them, and every
    eigenvalue-only solve reverses LAPACK's ascending spectrum.  Values,
    eigenvectors and Grams keep the bits of the component form.  H shares the
    reversal and the adjoint, and is held to the same bits."""

    @pytest.mark.parametrize("lead", [(), (3,)], ids=["one", "stack"])
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 64])
    @pytest.mark.parametrize("algebra", ALGEBRAS)
    def test_gaussian_hermitian_parts_keep_their_bits(self, algebra, n, lead):
        _assert_solve_keeps_its_bits(_hermitian_input(lead, n, algebra, 1500 + n), algebra)

    @pytest.mark.parametrize("lead", [(), (3,)], ids=["one", "stack"])
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 64])
    @pytest.mark.parametrize("algebra", ALGEBRAS)
    def test_grams_of_gaussian_products_keep_their_bits(self, algebra, n, lead):
        a = _product_input(lead, n, algebra, 1600 + n)
        gram = spectral._gram(a, algebra)
        _assert_same_bits(gram, _reference_gram(a, algebra))
        _assert_solve_keeps_its_bits(gram, algebra)

    @pytest.mark.parametrize("spectrum", [[1.0, 1.0, 1.0], [2.0, 1.0, 1.0]], ids=["I", "diag(2, 1, 1)"])
    @pytest.mark.parametrize("algebra", ALGEBRAS)
    def test_exact_ties_keep_their_bits(self, algebra, spectrum):
        # equal eigenvalues: the reversed spectrum is the stably sorted one
        _assert_solve_keeps_its_bits(_diagonal(spectrum), algebra)
        _assert_solve_keeps_its_bits(np.stack([_diagonal(spectrum), _diagonal(spectrum[::-1])]), algebra)

    @pytest.mark.parametrize("algebra", [Algebra.C, Algebra.H])
    def test_signed_zero_entries_keep_their_bits(self, algebra):
        # LAPACK's reflectors read the sign of a zero entry, so a complex
        # matrix assembled with other zero signs would move the output bits;
        # over R a matrix is its component 0 as it stands, and the one way its
        # bits can move is the swap of the next test
        c = _signed_zeros_input(40, 4, algebra, 1801)
        _assert_solve_keeps_its_bits(c, algebra)
        for one in c[:5]:
            _assert_solve_keeps_its_bits(one, algebra)

    def test_a_spectrum_with_both_zeros_may_swap_them(self):
        # +0 and -0 compare equal, so LAPACK's order of the two is a tie that
        # the reversal lists backwards; the values are equal, and nothing that
        # reads a spectrum tells them apart
        c = _diagonal([1.0, 0.0, -0.0])
        got, want = spectral._solve(c, Algebra.R, False)[0], _reference_solve(c, Algebra.R, False)[0]
        assert np.array_equal(got, want)
        assert sorted(_bits(got).tolist()) == sorted(_bits(want).tolist())

    @pytest.mark.parametrize("lead", [(), (4,)], ids=["one", "stack"])
    @pytest.mark.parametrize("case", sorted(_GUARD_CASES))
    def test_each_guard_rejects_with_its_type_and_message(self, case, lead):
        algebra, build, expected = _GUARD_CASES[case]
        c = build(lead)
        if expected is None:
            expected = _outcome(_reference_solve, c, algebra, False)
            assert expected is not None
        else:
            expected = (expected[0], expected[1] + (" (stack entry 1)" if lead else ""))
        for vectors in (False, True):
            assert _outcome(spectral._solve, c, algebra, vectors) == expected

    @pytest.mark.parametrize("algebra", [Algebra.R, Algebra.C])
    def test_a_ratio_just_below_1e_8_passes_with_its_bits(self, algebra):
        c = _broken(algebra, (), (0, 1, algebra.component_count - 1), 0.99e-8, _diagonal([1.0, 0.5, -1.0]))
        _assert_solve_keeps_its_bits(c, algebra)


def _reference_eig_hermitian(c: np.ndarray, algebra: Algebra) -> tuple[np.ndarray, np.ndarray]:
    """(values, basis) of one (n, n, 4) Hermitian matrix as the one-matrix
    eigendecomposition gave them before the stack lifted grouped pairs: the
    solve of ``_reference_solve``, over H the simple pairs lifted as one block
    and each group of two or more equal pairs lifted alone."""
    w, V = _reference_solve(c, algebra, True)
    if algebra is not Algebra.H:
        basis = np.zeros(V.shape + (4,))
        basis[..., 0], basis[..., 1] = V.real, V.imag
        return w, basis
    n = c.shape[0]
    values, [groups] = spectral._pair_spectra(w)
    basis = np.empty((n, n, 4))
    simple = np.array([a for a, b in groups if b - a == 1], dtype=np.intp)
    basis[:, simple] = spectral._lift(V, simple)
    for a, b in groups:
        want = b - a
        if want == 1:
            continue
        got, _ = linalg._orthonormalize(spectral._lifted(V[:, 2 * a : 2 * b]), 1e-6, limit=want)
        if got.shape[1] != want:
            raise ConvergenceFailure(f"could not lift {want} independent eigenvectors from a group of {2 * want}")
        basis[:, a:b] = got
    return values, basis


def _planted_spectra(n: int, algebra: Algebra, seed: int) -> np.ndarray:
    """Four exactly Hermitian n x n matrices U diag(s) U*: the spaced spectrum
    n, n - 1, ..., 1, a doubled largest eigenvalue, the zero matrix, and the
    spaced spectrum with its two largest eigenvalues a tenth of
    ``_GROUP_TOL`` max|s| apart."""
    rng = SplitMix64(seed)
    spaced = [float(n - k) for k in range(n)]
    doubled = [1.5, 1.5] + [0.25 - 0.75 * k for k in range(n - 2)]
    close = [spaced[0], spaced[0] * (1.0 - 0.1 * spectral._GROUP_TOL)] + spaced[2:]
    spaced, doubled, close = (linalg._hermitian_part(outer_sum(random_unitary(n, algebra, rng), s).comps)
                              for s in (spaced, doubled, close))
    return np.stack([spaced, doubled, np.zeros((n, n, 4)), close])


class TestEigStack:
    """``_eig_stack`` gives every matrix of a stack, at any leading shape, the
    bits of the one-matrix eigendecomposition kept as ``_reference_eig_hermitian``."""

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    @pytest.mark.parametrize("algebra", ALGEBRAS)
    def test_every_basis_is_the_reference_at_every_leading_shape(self, algebra, n):
        c = _planted_spectra(n, algebra, 1900 + n)
        want = [_reference_eig_hermitian(one, algebra) for one in c]
        if algebra is Algebra.H:
            # every matrix but the spaced one has a group of pairs to lift
            w = spectral._solve(c, algebra, False)[0]
            assert [any(b - a > 1 for a, b in g) for g in spectral._pair_spectra(w)[1]] == [False, True, True, True]
        for lead in ((), (1,), (len(c),)):
            parts = [c] if lead == (len(c),) else [one.reshape(lead + one.shape) for one in c]
            got = [spectral._eig_stack(x, algebra) for x in parts]
            assert all(v.shape == x.shape[:-2] and b.shape == x.shape for x, (v, b) in zip(parts, got))
            _assert_same_bits(np.concatenate([v.reshape(-1, n) for v, _ in got]), np.stack([v for v, _ in want]))
            _assert_same_bits(np.concatenate([b.reshape(-1, n, n, 4) for _, b in got]), np.stack([b for _, b in want]))
        for one, (values, basis) in zip(c, want):
            dec = eig_hermitian(Matrix(algebra, one))
            _assert_same_bits(dec.values, values)
            _assert_same_bits(dec.basis.comps, basis)

    def test_a_group_whose_own_sweep_keeps_other_columns_gets_its_own_bits(self):
        # n = 2 with both pairs in one group: the identity's eigenvectors lift
        # to e0, e1, -e0 j and -e1 j, and the sweep keeps columns 0 and 1;
        # with the columns permuted, the second is (0; e0), the partner of
        # (e0; 0), whose lift -e0 j lies on the first one's line, and the
        # sweep keeps columns 0 and 2
        eye = np.eye(4, dtype=np.complex128)
        V = np.stack([eye, eye[:, [0, 2, 1, 3]], eye])
        alone = [linalg._orthonormalize(spectral._lifted(v), 1e-6, limit=2) for v in V]
        assert [(r > 1e-6).tolist() for _, r in alone] == [[True, True], [True, False, True], [True, True]]
        basis = np.full((3, 2, 2, 4), np.nan)
        spectral._lift_groups(V, basis, [[(0, 2)]] * 3)
        _assert_same_bits(basis, np.stack([q for q, _ in alone]))

    @pytest.mark.parametrize("lead", [(), (3,)], ids=["one", "stack"])
    def test_a_group_that_lifts_too_few_columns_names_the_lowest_failing_matrix(self, lead):
        # the four columns lift to one quaternionic line: one kept of two
        eye = np.eye(4, dtype=np.complex128)
        bad = eye[:, [0, 0, 2, 2]]
        V = np.stack([eye, bad, bad]) if lead else bad
        basis = np.empty(lead + (2, 2, 4))
        with pytest.raises(ConvergenceFailure) as caught:
            spectral._lift_groups(V, basis, [[(0, 2)]] * (lead[0] if lead else 1))
        suffix = " (stack entry 1)" if lead else ""
        assert str(caught.value) == f"could not lift 2 independent eigenvectors from a group of 4{suffix}"


class TestAbs:
    @pytest.mark.parametrize("algebra", ALGEBRAS)
    def test_abs_of_identity(self, algebra):
        ident = Matrix.identity(3, algebra)
        assert matrices_close(abs_op(ident), ident, tol=1e-12)

    @pytest.mark.parametrize("algebra", ALGEBRAS)
    def test_abs_of_a_scaled_projector(self, algebra):
        rng = SplitMix64(24)
        U = random_unitary(3, algebra, rng)
        P = outer(U.col(0), U.col(0))
        assert matrices_close(abs_op(P * 2.0), P * 2.0, tol=1e-10)

    @pytest.mark.parametrize("algebra", ALGEBRAS)
    def test_abs_squares_to_the_gram_matrix(self, algebra):
        rng = SplitMix64(25)
        C = random_matrix(4, 4, algebra, rng)
        B = C.adjoint() @ C
        S = abs_op(C)
        assert (S @ S - B).max_abs() <= 1e-8 * max(1.0, op_norm(B))
        assert S.hermitian_defect() < 1e-9

    @pytest.mark.parametrize("algebra", ALGEBRAS)
    def test_small_matrices_keep_their_spectrum(self, algebra):
        # the kernel cut is relative to the largest eigenvalue, not absolute
        # below 1, so a uniformly small matrix is not mistaken for zero
        ident = Matrix.identity(3, algebra)
        tiny = ident * 1e-6
        assert math.isclose(trace_norm(tiny), 3e-6, rel_tol=1e-12)
        rep = check_norm_inequalities(tiny, ident)
        assert rep.slack_ab >= -1e-9 and rep.slack_ba >= -1e-9
        assert abs(rep.adjoint_gap) <= 1e-9 and rep.op_vs_trace_slack >= -1e-9
        assert matrices_close(abs_op(tiny), tiny, tol=1e-18)
        # a small spectrum that is not a multiple of the identity
        D = Matrix.diag([1e-6, 2e-6, 3e-6], algebra)
        assert math.isclose(trace_norm(D), 6e-6, rel_tol=1e-9)
        assert matrices_close(abs_op(D), D, tol=1e-18)

    def test_abs_of_rotation_block_is_identity(self):
        A = Matrix.from_rows([[0.0, -1.0], [1.0, 0.0]], Algebra.R)
        assert matrices_close(abs_op(A), Matrix.identity(2, Algebra.R), tol=1e-12)

    def test_abs_fixes_projectors_and_preserves_vector_norms(self):
        rng = SplitMix64(26)
        U = random_unitary(4, Algebra.H, rng)
        P = outer(U.col(0), U.col(0)) + outer(U.col(1), U.col(1))
        assert matrices_close(abs_op(P), P, tol=1e-9)
        A = random_matrix(4, 4, Algebra.H, rng)
        absA = abs_op(A)
        for _ in range(10):
            x = random_matrix(4, 1, Algebra.H, rng)
            assert abs((absA @ x).norm() - (A @ x).norm()) < 1e-8 * max(1.0, x.norm())

    def test_abs_of_unitary_times_diagonal(self):
        rng = SplitMix64(27)
        U = random_unitary(3, Algebra.C, rng)
        D = Matrix.diag([3.0, 1.0, 0.5], Algebra.C)
        assert matrices_close(abs_op(U @ D), D, tol=1e-9)

    def test_abs_idempotence_on_positives(self):
        rng = SplitMix64(28)
        A = random_matrix(3, 3, Algebra.H, rng)
        assert matrices_close(abs_op(abs_op(A)), abs_op(A), tol=1e-9)


class TestMakeJ:
    def _laws(self, A, J):
        n = A.n
        C = A - A.adjoint()
        ident = Matrix.identity(n, Algebra.H)
        resid = max(
            (J + J.adjoint()).max_abs(),
            (J @ J + ident).max_abs(),
            (J @ abs_op(C) - C).max_abs(),
            (J @ C - C @ J).max_abs(),
            (J @ abs_op(C) - abs_op(C) @ J).max_abs(),
        )
        return resid

    def test_hermitian_input_gets_left_i_extension(self):
        A = random_hermitian(3, Algebra.H, SplitMix64(30))
        Jop = make_J(A)
        ident = Matrix.identity(3, Algebra.H)
        assert (Jop @ Jop + ident).max_abs() < 1e-10
        assert (Jop + Jop.adjoint()).max_abs() < 1e-10

    def test_one_dimensional_pure_j(self):
        A = Matrix.from_rows([[J]], Algebra.H)
        Jop = make_J(A)
        assert quaternions_close(Jop.entry(0, 0), J, tol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 4, 7])
    def test_laws_on_random_matrices(self, n):
        A = random_matrix(n, n, Algebra.H, SplitMix64(31 + n))
        assert self._laws(A, make_J(A)) <= 1e-8 * max(1.0, op_norm(A))

    def test_laws_with_degenerate_skew_part(self):
        A = Matrix.diag([J, 0.0, 0.0], Algebra.H)
        assert self._laws(A, make_J(A)) < 1e-10

    def test_small_skew_part_gets_a_unitary_J(self):
        # the skew part's singular values are 2e-6, 0, 0: the polar factor is
        # i on the first axis and the kernel extension i on the other two
        A = Matrix.diag([I * 1e-6, 0.0, 0.0], Algebra.H)
        Jop = make_J(A)
        assert self._laws(A, Jop) < 1e-10
        assert matrices_close(Jop, Matrix.diag([I, I, I], Algebra.H), tol=1e-10)

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_numerically_hermitian_input_gets_a_unitary_J(self, n):
        # U D U* is Hermitian only up to rounding; J is the polar factor of
        # that rounding-level skew part and must still be a valid J
        rng = SplitMix64(36 + n)
        U = random_unitary(n, Algebra.H, rng)
        A = U @ Matrix.diag(list(rng.gaussian_block(n)), Algebra.H) @ U.adjoint()
        assert (A - A.adjoint()).max_abs() < 1e-14
        assert self._laws(A, make_J(A)) < 1e-10


class TestAdaptedBasis:
    def test_left_i_diagonal_accepts_standard_basis_direction(self):
        n = 3
        Jop = Matrix.diag([I, I, I], Algebra.H)
        basis = adapted_basis(Jop, I)
        for u in basis.columns():
            assert (Jop @ u - u.scale_right(I)).norm() < 1e-9
        assert orthonormality_defect(basis) < 1e-9

    @pytest.mark.parametrize("unit", [I, J, Quaternion(0, 0.6, 0.0, 0.8)])
    def test_defining_property_for_random_J(self, unit):
        A = random_matrix(4, 4, Algebra.H, SplitMix64(40))
        Jop = make_J(A)
        basis = adapted_basis(Jop, unit)
        assert basis.m == 4
        assert orthonormality_defect(basis) < 1e-9
        for u in basis.columns():
            assert (Jop @ u - u.scale_right(unit)).norm() <= 1e-9

    def test_conjugated_unit_shifts_the_basis_by_right_scaling(self):
        A = random_matrix(3, 3, Algebra.H, SplitMix64(41))
        Jop = make_J(A)
        basis = adapted_basis(Jop, I)
        s = Quaternion(0.5, 0.5, 0.5, 0.5)  # unit quaternion
        rotated_unit = s.inverse() * I * s
        for u in basis.columns():
            v = u.scale_right(s)
            assert (Jop @ v - v.scale_right(rotated_unit)).norm() < 1e-9

    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    @pytest.mark.parametrize("kind", ["random", "hermitian", "rank_one_skew"])
    def test_standard_candidates_complete_the_basis(self, n, kind):
        # the projected e_m and e_m t alone span the slice, also when J is the
        # kernel unit on all of the space (hermitian) or on most of it
        rng = SplitMix64(42 + n)
        A = random_matrix(n, n, Algebra.H, rng)
        if kind == "hermitian":
            A = (A + A.adjoint()) * 0.5
        elif kind == "rank_one_skew":
            u = random_matrix(n, 1, Algebra.H, rng)
            A = outer(u, u, I)
        Jop = make_J(A)
        for unit in (I, J, K, Quaternion(0, 0.6, 0.0, 0.8)):
            basis = adapted_basis(Jop, unit)
            assert basis.m == n
            assert orthonormality_defect(basis) < 1e-9
            for u in basis.columns():
                assert (Jop @ u - u.scale_right(unit)).norm() <= 1e-9

    @pytest.mark.parametrize("n", [2, 5])
    def test_candidates_come_from_one_product(self, n, monkeypatch):
        # pi(e_m) and pi(e_m t) come from J Z for all m at once, with no
        # matrix-vector product per candidate
        Jop = make_J(random_matrix(n, n, Algebra.H, SplitMix64(1320 + n)))
        real_matmul = kernels.quat_matmul
        widths = []

        def counting_matmul(A, B, *args):
            widths.append(B.shape[1])
            return real_matmul(A, B, *args)

        monkeypatch.setattr(kernels, "quat_matmul", counting_matmul)
        basis = adapted_basis(Jop, J)
        assert basis.m == n and orthonormality_defect(basis) < 1e-9
        assert 2 * n in widths and 1 not in widths

    def test_rejects_bad_unit(self):
        Jop = Matrix.diag([I, I], Algebra.H)
        with pytest.raises(ValueError):
            adapted_basis(Jop, Quaternion(1.0))
        with pytest.raises(ValueError):
            adapted_basis(Jop, Quaternion(0, 2.0))

    def test_rejects_non_unitary_J(self):
        with pytest.raises(ValueError):
            adapted_basis(Matrix.diag([I, 0.0], Algebra.H), I)


def _skew_polar_reference(C: np.ndarray, kernel_unit: Quaternion) -> np.ndarray:
    """J of one C = A - A* as the live term plus the kernel term, the kernel
    term formed also when it has no column (no shortcut for a full rank)."""
    values, U = spectral._eig_stack(spectral._gram(C, Algebra.H), Algebra.H)
    sigmas = spectral._root_spectrum(values)
    live = int((sigmas > 0.0).sum())
    plus, zero = U[:, :live], U[:, live:]
    units = np.broadcast_to(kernel_unit.to_array(), (zero.shape[1], 4))
    return (linalg._outer_sums(kernels.quat_matmul(C, plus), 4, 1.0 / sigmas[:live], plus)
            + linalg._outer_sums(zero, 4, units))


# no kernel, and the live term of its J has a -0.0 entry, which the kernel
# term's +0.0 turns into +0.0
_SIGNED_ZEROS = [
    [[0.0, 0.0, 1.0, -1.0], [0.0, -1.0, -0.0, 1.0], [0.0, 0.0, 0.0, -0.0]],
    [[0.0, 1.0, -1.0, -0.0], [0.0, 0.0, 0.0, -1.0], [0.0, 0.0, 0.0, 0.0]],
    [[0.0, 0.0, 0.0, 0.0], [0.0, -0.0, -0.0, 0.0], [0.0, 1.0, -0.0, -1.0]],
]


def _skew_inputs() -> dict[str, Matrix]:
    return {
        "generic": random_matrix(3, 3, Algebra.H, SplitMix64(1400)),  # no kernel
        "signed_zeros": Matrix(Algebra.H, np.array(_SIGNED_ZEROS)),
        "j_kernel": Matrix.diag([J, 0.0, 0.0], Algebra.H),
        "small_kernel": Matrix.diag([I * 1e-6, 0.0, 0.0], Algebra.H),
    }


class TestSkewPolars:
    @pytest.mark.parametrize("kernel_unit", [I, J])
    @pytest.mark.parametrize("name", list(_skew_inputs()))
    def test_the_one_matrix_polar_is_the_stack_of_one_byte_for_byte(self, name, kernel_unit):
        A = _skew_inputs()[name]
        C = A.comps - linalg._adjoint_comps(A.comps)
        values, basis = spectral._eig_stack(spectral._gram(C, Algebra.H), Algebra.H)
        J_stack, norms = spectral._skew_polars(C[None], values[None], basis[None], kernel_unit)
        J_alone, norm = spectral._skew_polar(A, kernel_unit)
        assert J_alone.comps.tobytes() == make_J(A, kernel_unit).comps.tobytes() == J_stack[0].tobytes()
        assert norm == float(norms[0])
        # signed zeros included: a stack with no kernel adds 0.0 for its empty kernel term
        reference = _skew_polar_reference(C, kernel_unit)
        assert J_stack[0].tobytes() == reference.tobytes()
        if name == "signed_zeros":
            assert not np.signbit(reference[reference == 0.0]).any()

    def test_a_mixed_stack_gives_each_trial_its_own_polar(self):
        # trials with and without a kernel, in an order that splits the live-column groups
        inputs = list(_skew_inputs().values())
        As = [inputs[i] for i in (2, 0, 3, 1, 0)]
        C = np.stack([A.comps - linalg._adjoint_comps(A.comps) for A in As])
        J_stack, norms = spectral._skew_polars(C, *spectral._eig_stack(spectral._gram(C, Algebra.H), Algebra.H))
        for t, A in enumerate(As):
            J_alone, norm = spectral._skew_polar(A)
            assert J_stack[t].tobytes() == J_alone.comps.tobytes()
            assert norms[t] == norm


def _unitary_but_not_anti_selfadjoint() -> Matrix:
    # J = [[0, 2], [-1/2, 0]] squares to -I, but J + J* = [[0, 3/2], [3/2, 0]]
    return Matrix.from_rows([[0.0, 2.0], [-0.5, 0.0]], Algebra.H)


def _nan_entry() -> Matrix:
    c = Matrix.diag([I, I], Algebra.H).comps.copy()
    c[0, 1, 2] = np.nan
    return Matrix(Algebra.H, c)


def _inf_entry() -> Matrix:
    c = Matrix.diag([I, I], Algebra.H).comps.copy()
    c[1, 0, 0] = np.inf
    return Matrix(Algebra.H, c)


class TestAdaptedGuards:
    @pytest.mark.parametrize("fault", [
        _nan_entry,
        _inf_entry,
        _unitary_but_not_anti_selfadjoint,  # J + J* != 0
        lambda: Matrix.diag([I * 2.0, I * 2.0], Algebra.H),  # anti-selfadjoint, J^2 = -4 I
    ], ids=["nan", "inf", "not_anti_selfadjoint", "not_unitary"])
    @pytest.mark.parametrize("unit", [I, J])
    def test_one_guard_rejects_one_j_and_a_stack_of_it_alike(self, fault, unit):
        Jop = fault()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as alone:
                adapted_basis(Jop, unit)
            with pytest.raises(ValueError) as stacked:
                spectral._adapted_bases(Jop.comps[None], unit.to_array()[None])
        assert type(alone.value) is type(stacked.value) is ValueError
        assert str(alone.value) == "J must be an anti-selfadjoint unitary"
        # the stack names its failing entry after the same message
        assert str(stacked.value) == f"{alone.value} (stack entry 0)"

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_a_kept_trial_gets_the_one_matrix_basis_byte_for_byte(self, n):
        rng = SplitMix64(1410 + n)
        Jop = make_J(random_matrix(n, n, Algebra.H, rng))
        for unit in (I, J, linalg.random_unit_imaginary(Algebra.H, rng)):
            kept, bases = spectral._adapted_bases(Jop.comps[None], unit.to_array()[None])
            assert kept.tolist() == [True]
            assert adapted_basis(Jop, unit).comps.tobytes() == bases[0].tobytes()
