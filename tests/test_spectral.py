import numpy as np
import pytest

from gleason_lab.errors import AlgebraMismatch, NotHermitian, NotPositive
from gleason_lab.linalg import (
    Basis,
    Matrix,
    Vector,
    inner,
    outer,
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
    embed,
    make_J,
    op_norm,
    polar,
    sqrt_positive,
)

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


class TestEigHermitian:
    def test_identity(self):
        dec = eig_hermitian(Matrix.identity(4, Algebra.H))
        assert np.allclose(dec.values, 1.0)
        assert dec.basis.orthonormality_defect() < 1e-12

    def test_real_diagonal(self):
        dec = eig_hermitian(Matrix.diag([2.0, -1.0], Algebra.R))
        assert np.allclose(dec.values, [2.0, -1.0])
        assert abs(abs(dec.basis[0].entry(0)) - 1.0) < 1e-12

    def test_quaternionic_pauli_like_matrix(self):
        # A = [[0, j], [-j, 0]] squares to the identity and has zero trace
        A = Matrix.from_rows([[0.0, J], [-J, 0.0]], Algebra.H)
        dec = eig_hermitian(A)
        assert np.allclose(np.sort(dec.values), [-1.0, 1.0], atol=1e-12)
        assert dec.residual(A) < 1e-12
        # quaternionic scalings of eigenvectors are still eigenvectors
        u = dec.basis[0].scale_right(Quaternion(0.5, 0.5, 0.5, 0.5))
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
        for s, u in zip(dec.values, dec.basis):
            assert (A @ u - u.scale_right(float(s))).norm() <= 1e-8 * scale

    def test_degenerate_quaternionic_spectrum(self):
        rng = SplitMix64(22)
        U = random_unitary(5, Algebra.H, rng)
        spectrum = [3.0, 3.0, 3.0, -2.0, -2.0]
        A = Matrix.zeros(5, 5, Algebra.H)
        for s, c in zip(spectrum, range(5)):
            A = A + outer(U.col(c), U.col(c)) * s
        dec = eig_hermitian(A)
        assert np.allclose(np.sort(dec.values), np.sort(spectrum), atol=1e-9)
        assert dec.residual(A) < 1e-9
        assert dec.basis.orthonormality_defect() < 1e-9

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


class TestSqrtAbsPolar:
    def test_sqrt_of_identity(self):
        S = sqrt_positive(Matrix.identity(3, Algebra.C))
        assert S.approx_eq(Matrix.identity(3, Algebra.C), tol=1e-12)

    def test_sqrt_spectral_mapping_on_projector(self):
        rng = SplitMix64(24)
        U = random_unitary(3, Algebra.H, rng)
        P = outer(U.col(0), U.col(0))
        S = sqrt_positive(P * 4.0)
        assert S.approx_eq(P * 2.0, tol=1e-10)

    @pytest.mark.parametrize("algebra", ALGEBRAS)
    def test_sqrt_squares_back(self, algebra):
        rng = SplitMix64(25)
        C = random_matrix(4, 4, algebra, rng)
        B = C.adjoint() @ C
        S = sqrt_positive(B)
        assert (S @ S - B).max_abs() <= 1e-8 * max(1.0, op_norm(B))
        assert S.hermitian_defect() < 1e-9

    def test_sqrt_rejects_negative_operators(self):
        with pytest.raises(NotPositive):
            sqrt_positive(Matrix.identity(2, Algebra.R) * -1.0)

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
            from gleason_lab.linalg import random_vector

            x = random_vector(4, Algebra.H, rng)
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

    def test_polar_identity_cases(self):
        ident = Matrix.identity(2, Algebra.C)
        dec = polar(ident)
        assert dec.partial_isometry.approx_eq(ident, tol=1e-12)
        assert dec.absolute.approx_eq(ident, tol=1e-12)
        dec_neg = polar(ident * -1.0)
        assert dec_neg.partial_isometry.approx_eq(ident * -1.0, tol=1e-12)
        assert dec_neg.absolute.approx_eq(ident, tol=1e-12)

    def test_polar_of_rotation_block(self):
        A = Matrix.from_rows([[0.0, -1.0], [1.0, 0.0]], Algebra.R)
        dec = polar(A)
        assert dec.absolute.approx_eq(Matrix.identity(2, Algebra.R), tol=1e-12)
        assert dec.partial_isometry.approx_eq(A, tol=1e-12)

    @pytest.mark.parametrize("algebra", ALGEBRAS)
    def test_polar_reconstruction(self, algebra):
        rng = SplitMix64(29)
        A = random_matrix(4, 4, algebra, rng)
        dec = polar(A)
        assert (dec.partial_isometry @ dec.absolute - A).max_abs() <= 1e-8 * max(1.0, op_norm(A))
        assert op_norm(dec.partial_isometry) <= 1.0 + 1e-9


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


class TestAdaptedBasis:
    def test_left_i_diagonal_accepts_standard_basis_direction(self):
        n = 3
        Jop = Matrix.diag([I, I, I], Algebra.H)
        basis = adapted_basis(Jop, I)
        for u in basis:
            assert (Jop @ u - u.scale_right(I)).norm() < 1e-9
        assert basis.orthonormality_defect() < 1e-9

    @pytest.mark.parametrize("unit", [I, J, Quaternion(0, 0.6, 0.0, 0.8)])
    def test_defining_property_for_random_J(self, unit):
        A = random_matrix(4, 4, Algebra.H, SplitMix64(40))
        Jop = make_J(A)
        basis = adapted_basis(Jop, unit)
        assert len(basis) == 4
        assert basis.orthonormality_defect() < 1e-9
        for u in basis:
            assert (Jop @ u - u.scale_right(unit)).norm() <= 1e-9

    def test_conjugated_unit_shifts_the_basis_by_right_scaling(self):
        A = random_matrix(3, 3, Algebra.H, SplitMix64(41))
        Jop = make_J(A)
        basis = adapted_basis(Jop, I)
        s = Quaternion(0.5, 0.5, 0.5, 0.5)  # unit quaternion
        rotated_unit = s.inverse() * I * s
        for u in basis:
            v = u.scale_right(s)
            assert (Jop @ v - v.scale_right(rotated_unit)).norm() < 1e-9

    def test_rejects_bad_unit(self):
        Jop = Matrix.diag([I, I], Algebra.H)
        with pytest.raises(ValueError):
            adapted_basis(Jop, Quaternion(1.0))
        with pytest.raises(ValueError):
            adapted_basis(Jop, Quaternion(0, 2.0))

    def test_rejects_non_unitary_J(self):
        with pytest.raises(ValueError):
            adapted_basis(Matrix.diag([I, 0.0], Algebra.H), I)
