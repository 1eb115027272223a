import math

import numpy as np
import pytest

from gleason_lab import gleason, kernels, linalg, spectral
from gleason_lab.errors import AlgebraMismatch, ConvergenceFailure, NotHermitian
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
    embed,
    make_J,
    op_norm,
    singular_values,
)
from gleason_lab.trace import check_norm_inequalities, trace_norm

from conftest import ALGEBRAS

I, J, K = Quaternion.I, Quaternion.J, Quaternion.K


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
        assert dec.basis.orthonormality_defect() < 1e-12

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
        assert dec.basis.orthonormality_defect() < 1e-9
        assert list(dec.values) == sorted(dec.values, reverse=True)
        for s, u in zip(dec.values, dec.basis.columns()):
            assert (A @ u - u.scale_right(float(s))).norm() <= 1e-8 * scale

    def test_degenerate_quaternionic_spectrum(self):
        spectrum = [3.0, 3.0, 3.0, -2.0, -2.0]
        A = _degenerate_quaternionic_spectra()[0]
        dec = eig_hermitian(A)
        assert np.allclose(np.sort(dec.values), np.sort(spectrum), atol=1e-9)
        assert dec.residual(A) < 1e-9
        assert dec.basis.orthonormality_defect() < 1e-9

    def test_grouped_quaternionic_eigenvalues_are_exactly_equal(self):
        A = _degenerate_quaternionic_spectra()[1]
        dec = eig_hermitian(A)
        assert dec.values[0] == dec.values[1] == dec.values[2]
        assert dec.values[3] == dec.values[4]
        assert np.abs(dec.values - [2.0, 2.0, 2.0, -1.0, -1.0]).max() <= 1e-10
        assert dec.residual(A) <= 1e-10
        assert dec.basis.orthonormality_defect() <= 1e-10

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
        assert dec.basis.orthonormality_defect() <= 1e-9
        # each group of equal pairs carries one exactly equal value
        for a, b in spectral._group_indices(dec.values, 1e-7 * max(1.0, np.abs(spectrum).max())):
            assert (dec.values[a:b] == dec.values[a]).all()

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16])
    def test_simple_pairs_lift_as_the_per_group_gram_schmidt_does(self, n, monkeypatch):
        A = random_hermitian(n, Algebra.H, SplitMix64(1300 + n))
        w, V = spectral._solve(A, vectors=True)
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
        assert dec.basis.orthonormality_defect() < 1e-10

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


class TestAbs:
    @pytest.mark.parametrize("algebra", ALGEBRAS)
    def test_abs_of_identity(self, algebra):
        ident = Matrix.identity(3, algebra)
        assert abs_op(ident).approx_eq(ident, tol=1e-12)

    @pytest.mark.parametrize("algebra", ALGEBRAS)
    def test_abs_of_a_scaled_projector(self, algebra):
        rng = SplitMix64(24)
        U = random_unitary(3, algebra, rng)
        P = outer(U.col(0), U.col(0))
        assert abs_op(P * 2.0).approx_eq(P * 2.0, tol=1e-10)

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
        assert abs_op(tiny).approx_eq(tiny, tol=1e-18)
        # a small spectrum that is not a multiple of the identity
        D = Matrix.diag([1e-6, 2e-6, 3e-6], algebra)
        assert math.isclose(trace_norm(D), 6e-6, rel_tol=1e-9)
        assert abs_op(D).approx_eq(D, tol=1e-18)

    def test_abs_of_rotation_block_is_identity(self):
        A = Matrix.from_rows([[0.0, -1.0], [1.0, 0.0]], Algebra.R)
        assert abs_op(A).approx_eq(Matrix.identity(2, Algebra.R), tol=1e-12)

    def test_abs_fixes_projectors_and_preserves_vector_norms(self):
        rng = SplitMix64(26)
        U = random_unitary(4, Algebra.H, rng)
        P = outer(U.col(0), U.col(0)) + outer(U.col(1), U.col(1))
        assert abs_op(P).approx_eq(P, tol=1e-9)
        A = random_matrix(4, 4, Algebra.H, rng)
        absA = abs_op(A)
        for _ in range(10):
            x = random_matrix(4, 1, Algebra.H, rng)
            assert abs((absA @ x).norm() - (A @ x).norm()) < 1e-8 * max(1.0, x.norm())

    def test_abs_of_unitary_times_diagonal(self):
        rng = SplitMix64(27)
        U = random_unitary(3, Algebra.C, rng)
        D = Matrix.diag([3.0, 1.0, 0.5], Algebra.C)
        assert abs_op(U @ D).approx_eq(D, tol=1e-9)

    def test_abs_idempotence_on_positives(self):
        rng = SplitMix64(28)
        A = random_matrix(3, 3, Algebra.H, rng)
        assert abs_op(abs_op(A)).approx_eq(abs_op(A), tol=1e-9)


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
        assert Jop.entry(0, 0).isclose(J, tol=1e-12)

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
        assert Jop.approx_eq(Matrix.diag([I, I, I], Algebra.H), tol=1e-10)

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
        assert basis.orthonormality_defect() < 1e-9

    @pytest.mark.parametrize("unit", [I, J, Quaternion(0, 0.6, 0.0, 0.8)])
    def test_defining_property_for_random_J(self, unit):
        A = random_matrix(4, 4, Algebra.H, SplitMix64(40))
        Jop = make_J(A)
        basis = adapted_basis(Jop, unit)
        assert basis.m == 4
        assert basis.orthonormality_defect() < 1e-9
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
            assert basis.orthonormality_defect() < 1e-9
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
        assert basis.m == n and basis.orthonormality_defect() < 1e-9
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
