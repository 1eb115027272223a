import math
import warnings

import numpy as np
import pytest

from gleason_lab import kernels, linalg
from gleason_lab.errors import AlgebraMismatch, DegenerateInput
from gleason_lab.linalg import (
    Matrix,
    Projector,
    _certify_projectors,
    gram_schmidt,
    inner,
    is_positive,
    outer,
    outer_sum,
    projector_onto,
    random_matrix,
    random_phase,
    random_phases,
    random_projector,
    random_unit_vector,
    random_unit_vectors,
    random_unitary,
)
from gleason_lab.rng import SplitMix64
from gleason_lab.scalars import Algebra, Quaternion
from gleason_lab.trace import absolute_diagonal_sum, trace_n

from conftest import ALGEBRAS

ONE, I, J, K = Quaternion.ONE, Quaternion.I, Quaternion.J, Quaternion.K


def _e(idx, n, algebra=Algebra.H):
    return Matrix.identity(n, algebra).col(idx)


class TestInner:
    def test_orthonormality_of_standard_basis(self):
        assert inner(_e(0, 2), _e(0, 2)).isclose(ONE)
        assert inner(_e(0, 2), _e(1, 2)).isclose(Quaternion.ZERO)

    def test_orthogonality_survives_right_scaling(self):
        assert inner(_e(0, 2), _e(1, 2).scale_right(J)).isclose(Quaternion.ZERO)

    def test_quaternion_phases_combine_as_conj_i_times_j(self):
        # <e i | e j> = conj(i) j = -ij = -k
        lhs = inner(_e(0, 2).scale_right(I), _e(0, 2).scale_right(J))
        assert lhs.isclose(-K)

    def test_hermitian_symmetry_and_right_linearity(self):
        rng = SplitMix64(1)
        for algebra in ALGEBRAS:
            x = random_matrix(4, 1, algebra, rng)
            y = random_matrix(4, 1, algebra, rng)
            z = random_matrix(4, 1, algebra, rng)
            assert inner(x, y).isclose(inner(y, x).conjugate(), tol=1e-12)
            # q lies in the vectors' algebra: the R draw keeps only its real part
            parts = np.zeros(4)
            parts[: algebra.component_count] = rng.gaussian_block(4 if algebra is Algebra.H else 2)[
                : algebra.component_count
            ]
            q = Quaternion.from_array(parts)
            p = Quaternion(rng.gaussian())
            combo = y.scale_right(q) + z.scale_right(p)
            expect = inner(x, y) * q + inner(x, z) * p
            assert inner(x, combo).isclose(expect, tol=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            inner(_e(0, 2), _e(0, 3))

    def test_non_columns_are_rejected(self):
        A = random_matrix(2, 2, Algebra.H, SplitMix64(1))
        for x, y in ((A, A), (_e(0, 2), A), (A, _e(0, 2))):
            with pytest.raises(ValueError):
                inner(x, y)


def test_the_retired_vector_type_cannot_be_built():
    with pytest.raises(TypeError):
        linalg.Vector(Algebra.R, np.zeros((2, 4)))


class TestColumns:
    def test_columns_are_n_by_1_matrices_that_rebuild_the_matrix(self):
        A = random_matrix(3, 4, Algebra.H, SplitMix64(2))
        cols = A.columns()
        assert [(x.n, x.m) for x in cols] == [(3, 1)] * 4
        assert A.col(-1).comps.tobytes() == cols[3].comps.tobytes()
        assert Matrix.from_columns(cols).comps.tobytes() == A.comps.tobytes()
        assert Matrix.from_columns([A, cols[0]]).comps.tobytes() == np.concatenate(
            [A.comps, cols[0].comps], axis=1).tobytes()

    def test_no_column_blocks_are_rejected(self):
        with pytest.raises(ValueError):
            Matrix.from_columns([])

    def test_norm_is_the_frobenius_norm(self):
        assert Matrix.identity(4, Algebra.C).norm() == 2.0
        x = Matrix.from_rows([[Quaternion(1, 1, 1, 1)], [Quaternion(0, 0, 0, 0)]], Algebra.H)
        assert x.norm() == 2.0


class TestMatrixBasics:
    def test_left_action_commutes_with_right_scalars(self):
        rng = SplitMix64(2)
        A = random_matrix(3, 3, Algebra.H, rng)
        x = random_matrix(3, 1, Algebra.H, rng)
        q = Quaternion(0.3, -1, 2, 0.5)
        assert (A @ x.scale_right(q)).approx_eq((A @ x).scale_right(q), tol=1e-12)

    def test_adjoint_of_identity_and_single_entry(self):
        ident = Matrix.identity(3, Algebra.H)
        assert ident.adjoint().approx_eq(ident)
        one_by_one = Matrix.from_rows([[J]], Algebra.H)
        assert one_by_one.adjoint().entry(0, 0).isclose(-J)

    @pytest.mark.parametrize("shape", [(2, 5), (5, 2), (4, 4)])
    def test_adjoint_is_the_entrywise_conjugate_transpose(self, shape):
        A = random_matrix(*shape, Algebra.H, SplitMix64(4))
        adj = A.adjoint()
        assert (adj.n, adj.m) == (A.m, A.n) and adj.comps.flags.c_contiguous
        for r in range(A.n):
            for c in range(A.m):
                expect = A.entry(r, c).conjugate().to_array()
                assert adj.comps[c, r].tobytes() == expect.tobytes()

    def test_adjoint_antihomomorphism_and_pairing(self):
        rng = SplitMix64(3)
        for algebra in ALGEBRAS:
            A = random_matrix(3, 3, algebra, rng)
            B = random_matrix(3, 3, algebra, rng)
            assert (A @ B).adjoint().approx_eq(B.adjoint() @ A.adjoint(), tol=1e-12)
            x = random_matrix(3, 1, algebra, rng)
            y = random_matrix(3, 1, algebra, rng)
            assert inner(A.adjoint() @ x, y).isclose(inner(x, A @ y), tol=1e-11)

    def test_algebra_mixing_is_rejected(self):
        with pytest.raises(AlgebraMismatch):
            Matrix.identity(2, Algebra.R) @ Matrix.identity(2, Algebra.C)

    @pytest.mark.parametrize(
        "algebra, entry",
        [(Algebra.R, 1j), (Algebra.R, I), (Algebra.R, K), (Algebra.C, J), (Algebra.C, Quaternion(0, 0, 0, 1e-300))],
        ids=["R-i", "R-I", "R-k", "C-j", "C-tiny-k"],
    )
    def test_scalar_constructors_reject_entries_outside_the_algebra(self, algebra, entry):
        with pytest.raises(AlgebraMismatch):
            Matrix.from_rows([[entry, 0], [0, 1]], algebra)
        with pytest.raises(AlgebraMismatch):
            Matrix.diag([1, entry], algebra)

    @pytest.mark.parametrize(
        "algebra, scalar",
        [(Algebra.R, 1j), (Algebra.R, I), (Algebra.C, J), (Algebra.C, Quaternion(0, 0, 0, 1e-300))],
        ids=["R-i", "R-I", "C-j", "C-tiny-k"],
    )
    def test_right_scaling_rejects_a_scalar_outside_the_algebra(self, algebra, scalar):
        # a foreign scalar would leave the algebra, and an R or C product
        # reads only the algebra's components: I @ (e_0 j) gave the zero vector
        with pytest.raises(AlgebraMismatch):
            _e(0, 2, algebra).scale_right(scalar)

    @pytest.mark.parametrize("algebra", ALGEBRAS)
    def test_scalar_constructors_accept_every_entry_of_the_algebra(self, algebra):
        entries = [Quaternion(2.0), *algebra.imaginary_units]
        A = Matrix.from_rows([entries], algebra)
        assert [A.entry(0, c) for c in range(A.m)] == entries
        D = Matrix.diag(entries, algebra)
        assert [D.entry(r, r) for r in range(D.n)] == entries

    def test_comps_are_frozen(self):
        A = Matrix.identity(2, Algebra.C)
        with pytest.raises(ValueError):
            A.comps[0, 0, 0] = 5.0


class TestGramSchmidt:
    def test_standard_basis_is_fixed(self):
        basis = gram_schmidt(Matrix.from_columns([_e(m, 3) for m in range(3)]))
        for m, u in enumerate(basis.columns()):
            assert u.approx_eq(_e(m, 3))

    def test_two_dimensional_real_example(self):
        v1 = _e(0, 2, Algebra.R)
        v2 = Matrix(Algebra.R, [[[1.0, 0, 0, 0]], [[1.0, 0, 0, 0]]])
        basis = gram_schmidt(Matrix.from_columns([v1, v2]))
        assert basis.col(0).approx_eq(v1)
        assert basis.col(1).approx_eq(_e(1, 2, Algebra.R))

    def test_single_quaternion_normalizes(self):
        q = Matrix(Algebra.H, [[[1.0, 1.0, 1.0, 1.0]]])
        basis = gram_schmidt(q)
        assert inner(basis.col(0), basis.col(0)).isclose(ONE, tol=1e-12)
        assert abs(basis.col(0).norm() - 1.0) < 1e-12

    def test_unitary_columns_pass_through_unchanged(self):
        U = random_unitary(4, Algebra.C, SplitMix64(5))
        basis = gram_schmidt(U)
        for m, u in enumerate(basis.columns()):
            assert u.approx_eq(U.col(m), tol=1e-9)

    def test_rank_deficiency_raises_or_drops(self):
        v = Matrix(Algebra.R, [[[1.0, 0, 0, 0]], [[2.0, 0, 0, 0]]])
        with pytest.raises(DegenerateInput):
            gram_schmidt(Matrix.from_columns([v, v.scale_right(3.0)]))
        basis = gram_schmidt(Matrix.from_columns([v, v.scale_right(3.0)]), drop=True)
        assert basis.m == 1

    def test_orthonormality_of_random_output(self):
        rng = SplitMix64(6)
        for algebra in ALGEBRAS:
            basis = gram_schmidt(Matrix.from_columns([random_matrix(5, 1, algebra, rng) for _ in range(5)]))
            assert basis.orthonormality_defect() < 1e-10

    @pytest.mark.parametrize("drop", [False, True])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    @pytest.mark.parametrize("algebra", ALGEBRAS)
    def test_non_finite_input_is_rejected(self, algebra, bad, drop):
        good = random_matrix(3, 1, algebra, SplitMix64(7))
        comps = np.zeros((3, 1, 4))
        comps[1, 0, 0] = bad
        poisoned = Matrix(algebra, comps)
        all_nan = Matrix(algebra, np.full((3, 1, 4), np.nan))
        for vectors in ([poisoned], [good, poisoned], [poisoned, good], [all_nan]):
            W = Matrix.from_columns(vectors)
            with np.errstate(all="ignore"):
                with pytest.raises(DegenerateInput):
                    gram_schmidt(W, drop=drop)
                with pytest.raises(DegenerateInput):
                    projector_onto(W, drop=drop)


class TestPositivity:
    def test_identity_and_negated_identity(self):
        assert is_positive(Matrix.identity(3, Algebra.C))
        assert not is_positive(Matrix.identity(3, Algebra.C) * -1.0)

    def test_real_rotation_block_is_positive_but_not_selfadjoint(self):
        A = Matrix.from_rows([[0.0, -1.0], [1.0, 0.0]], Algebra.R)
        assert is_positive(A)
        assert not A.is_hermitian()

    def test_same_matrix_fails_positivity_over_c_and_h(self):
        for algebra in (Algebra.C, Algebra.H):
            A = Matrix.from_rows([[0.0, -1.0], [1.0, 0.0]], algebra)
            assert not is_positive(A)

    def test_gram_matrices_are_positive(self):
        rng = SplitMix64(7)
        for algebra in ALGEBRAS:
            C = random_matrix(3, 3, algebra, rng)
            assert is_positive(C.adjoint() @ C)


class TestUnitaries:
    @pytest.mark.parametrize("algebra", ALGEBRAS)
    def test_unitarity(self, algebra):
        rng = SplitMix64(8)
        for n in (1, 2, 5):
            U = random_unitary(n, algebra, rng)
            ident = Matrix.identity(n, algebra)
            assert (U.adjoint() @ U - ident).max_abs() < 1e-9
            assert (U @ U.adjoint() - ident).max_abs() < 1e-9

    def test_determinism_per_seed(self):
        U1 = random_unitary(3, Algebra.H, SplitMix64(9))
        U2 = random_unitary(3, Algebra.H, SplitMix64(9))
        assert U1.approx_eq(U2, tol=0.0)

    def test_one_dimensional_quaternionic_unitary_is_a_unit_quaternion(self):
        U = random_unitary(1, Algebra.H, SplitMix64(10))
        assert abs(abs(U.entry(0, 0)) - 1.0) < 1e-12


class TestProjectors:
    def test_full_basis_gives_identity(self):
        basis = [_e(m, 3) for m in range(3)]
        P = projector_onto(Matrix.from_columns(basis))
        assert P.matrix.approx_eq(Matrix.identity(3, Algebra.H))
        assert P.rank == 3

    def test_rank_one_annihilates_orthogonal_vectors(self):
        P = projector_onto(_e(0, 2))
        assert (P.matrix @ _e(1, 2)).norm() < 1e-12

    def test_rank_matches_span_dimension(self):
        rng = SplitMix64(11)
        for algebra in ALGEBRAS:
            vs = [random_matrix(5, 1, algebra, rng) for _ in range(3)]
            P = projector_onto(Matrix.from_columns(vs))
            # numerical-rank oracle: count significant singular values of the
            # component matrix stacked over the quaternion components
            stacked = np.concatenate([v.comps.reshape(-1, 1) for v in vs], axis=1)
            rank = np.linalg.matrix_rank(stacked, tol=1e-8)
            assert P.rank == rank
            assert (P.matrix @ P.matrix - P.matrix).max_abs() < 1e-9
            assert P.matrix.hermitian_defect() < 1e-9

    def test_lattice_order(self):
        # P <= Q (range inclusion) iff QP = P
        rng = SplitMix64(12)
        U = random_unitary(4, Algebra.C, rng)
        small = projector_onto(Matrix(Algebra.C, U.comps[:, :1]))
        big = projector_onto(Matrix(Algebra.C, U.comps[:, :2]))
        assert (big.matrix @ small.matrix - small.matrix).max_abs() < 1e-9
        assert (small.matrix @ big.matrix - big.matrix).max_abs() > 1e-8
        ident = Projector(Matrix.identity(4, Algebra.C))
        assert (ident.matrix @ big.matrix - big.matrix).max_abs() < 1e-9

    def test_complement(self):
        P = random_projector(4, 2, Algebra.H, SplitMix64(13))
        Q = Projector(Matrix.identity(4, Algebra.H) - P.matrix)
        assert (P.matrix @ Q.matrix).max_abs() < 1e-9
        assert (P.matrix + Q.matrix).approx_eq(Matrix.identity(4, Algebra.H))

    def test_invalid_projector_matrix_is_rejected(self):
        with pytest.raises(ValueError):
            Projector(Matrix.from_rows([[2.0]], Algebra.R))


@pytest.mark.parametrize("algebra", ALGEBRAS)
@pytest.mark.parametrize("n", [1, 2, 5])
@pytest.mark.parametrize("phase", [False, True], ids=["x", "xq"])
def test_rank_one_projector_matches_projector_onto(algebra, n, phase):
    rng = SplitMix64(51 + n)
    x = random_matrix(n, 1, algebra, rng)
    if phase:
        # a non-unit scalar: the line, and so the projector, stays the same
        x = x.scale_right(Quaternion.from_array(3.7 * random_phase(algebra, rng).to_array()))
    (comps,) = Projector.rank_ones(x)
    expect = projector_onto(x).matrix
    assert Projector(Matrix(algebra, comps)).rank == 1
    assert np.abs(comps - expect.comps).max() < 1e-12


@pytest.mark.parametrize("algebra", ALGEBRAS)
@pytest.mark.parametrize("n", [1, 3, 8])
def test_rank_ones_match_rank_one_column_by_column(algebra, n):
    X = random_matrix(n, 40, algebra, SplitMix64(55 + n))
    stack = Projector.rank_ones(X)
    assert stack.shape == (40, n, n, 4)
    for p, comps in enumerate(stack):
        column = Matrix(algebra, X.comps[:, p : p + 1])
        assert comps.tobytes() == Projector.rank_ones(column)[0].tobytes()


@pytest.mark.parametrize("algebra", ALGEBRAS)
@pytest.mark.parametrize("n", [1, 3, 8, 16])
def test_rank_ones_match_a_matrix_product_of_each_unit_column_with_its_adjoint(algebra, n):
    X = random_matrix(n, 12, algebra, SplitMix64(57 + n))
    stack = Projector.rank_ones(X)
    for p in range(X.m):
        x = X.comps[:, p, :]
        u = Matrix(algebra, (x / np.sqrt((x**2).sum()))[:, None, :])
        expect = kernels.quat_matmul(u.comps, u.adjoint().comps)
        assert np.abs(stack[p] - expect).max() <= 1e-15
    # the components outside the algebra are exactly zero (either sign)
    assert (stack[..., algebra.component_count :] == 0).all()


def test_rank_ones_certify_the_stack_as_built(monkeypatch):
    build = linalg._line_projectors

    def skewed(U):
        stack = build(U)
        stack[1, 0, 1, 1] += 1e-6  # the second projector is no longer Hermitian
        return stack

    monkeypatch.setattr(linalg, "_line_projectors", skewed)
    with pytest.raises(ValueError, match="hermitian defect"):
        Projector.rank_ones(random_matrix(3, 2, Algebra.H, SplitMix64(58)))


@pytest.mark.parametrize("algebra", ALGEBRAS)
@pytest.mark.parametrize(
    "bad, block",
    [(bad, block) for block in (False, True) for bad in (0.0, np.nan, np.inf, -np.inf)],
    ids=["zero", "nan", "+inf", "-inf", "zero-column", "nan-column", "+inf-column", "-inf-column"],
)
def test_rank_one_projector_rejects_zero_and_non_finite_input(algebra, bad, block):
    if block:
        # one bad column among good ones
        X = random_matrix(3, 5, algebra, SplitMix64(56)).comps.copy()
        X[:, 2] = 0.0
        X[1, 2, 0] = bad
        with pytest.raises(DegenerateInput):
            Projector.rank_ones(Matrix(algebra, X))
        return
    comps = np.zeros((3, 4))
    comps[1, 0] = bad
    with pytest.raises(DegenerateInput):
        Projector.rank_ones(Matrix(algebra, comps[:, None, :]))


def test_projector_certificates_check_every_matrix_of_a_stack():
    stack = Projector.rank_ones(random_matrix(3, 2, Algebra.H, SplitMix64(58)))
    _certify_projectors(stack, np.zeros(2), 1e-8)
    skewed = stack.copy()
    skewed[1, 0, 1, 1] += 1e-6  # the second matrix is no longer Hermitian
    with pytest.raises(ValueError, match="hermitian defect 1.000e-06"):
        _certify_projectors(skewed, np.zeros(2), 1e-8)
    with pytest.raises(ValueError, match="idempotency defect 1.000e-06"):
        _certify_projectors(stack, np.array([0.0, 1e-6]), 1e-8)
    # a non-finite entry, off or on the diagonal, makes a defect ratio NaN
    for bad in (np.nan, np.inf, -np.inf):
        for entry in ((1, 0, 1, 3), (1, 2, 2, 0)):
            broken = stack.copy()
            broken[entry] = bad
            with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="not a projector"):
                _certify_projectors(broken, np.zeros(2), 1e-8)


class ZeroThirdDraw(SplitMix64):
    """A stream whose Gaussians 8..11 are zero."""

    def gaussian_block(self, count):
        g = super().gaussian_block(count)
        g[8:12] = 0.0
        return g


@pytest.mark.parametrize("algebra", ALGEBRAS)
def test_random_phases_are_successive_random_phase_draws(algebra):
    rng, ref = SplitMix64(57), SplitMix64(57)
    Q = random_phases(9, algebra, rng)
    k = algebra.component_count
    for p in range(9):
        # one draw, written out: k Gaussians divided by their norm
        parts = ref.gaussian_block(k)
        expect = np.zeros(4)
        expect[:k] = parts / float(np.sqrt((parts**2).sum()))
        assert Q[p].tobytes() == expect.tobytes()
    assert random_phase(algebra, SplitMix64(57)).to_array().tobytes() == Q[0].tobytes()
    # the block consumed exactly the variates of its draws, Box-Muller spare included
    assert rng.gaussian_block(3).tobytes() == ref.gaussian_block(3).tobytes()
    # a zero draw is 1, as it is for one draw
    k = algebra.component_count
    Q = random_phases(12 // k + 1, algebra, ZeroThirdDraw(5))
    assert Q[8 // k].tobytes() == ONE.to_array().tobytes()


@pytest.mark.parametrize("algebra", ALGEBRAS)
@pytest.mark.parametrize("n", [1, 3, 8])
def test_random_unit_vectors_are_successive_normalized_draws(algebra, n):
    rng, ref = SplitMix64(70 + n), SplitMix64(70 + n)
    X = random_unit_vectors(n, 7, algebra, rng)
    assert X.algebra is algebra and (X.n, X.m) == (n, 7)
    for p in range(7):
        v = random_matrix(n, 1, algebra, ref)
        assert X.comps[:, p].tobytes() == (v.comps * (1.0 / v.norm())).tobytes()
    # the block consumed exactly the variates of its draws, Box-Muller spare included
    assert random_matrix(n, 1, algebra, rng).comps.tobytes() == random_matrix(n, 1, algebra, ref).comps.tobytes()
    first = random_unit_vector(n, algebra, SplitMix64(70 + n))
    assert first.comps.tobytes() == X.comps[:, 0].tobytes()


def test_random_unit_vectors_fall_back_to_e0_on_a_zero_draw():
    class ZeroSecondDraw(SplitMix64):
        def gaussian_block(self, count):
            g = super().gaussian_block(count)
            g[12:24] = 0.0  # the second of three H vectors of dimension 3
            return g

    X = random_unit_vectors(3, 3, Algebra.H, ZeroSecondDraw(5))
    assert X.col(1).comps.tobytes() == Matrix.identity(3, Algebra.H).col(0).comps.tobytes()
    for p in (0, 2):
        assert abs(X.col(p).norm() - 1.0) < 1e-15


class TestPolarizationNondegeneracy:
    def test_nonzero_operators_show_up_in_quadratic_forms_over_c_and_h(self):
        rng = SplitMix64(14)
        for algebra in (Algebra.C, Algebra.H):
            A = random_matrix(4, 4, algebra, rng)
            probes = []
            for _ in range(10):
                U = random_unitary(4, algebra, rng)
                probes.extend(abs(inner(U.col(c), A @ U.col(c))) for c in range(4))
            assert max(probes) > 1e-8

    def test_real_antisymmetric_operator_is_invisible_to_quadratic_forms(self):
        A = Matrix.from_rows([[0.0, -1.0], [1.0, 0.0]], Algebra.R)
        rng = SplitMix64(15)
        worst = 0.0
        for _ in range(40):
            x = random_unit_vector(2, Algebra.R, rng)
            worst = max(worst, abs(inner(x, A @ x)))
        assert worst < 1e-12
        assert A.max_abs() == 1.0


def test_outer_product_matches_componentwise_definition():
    rng = SplitMix64(16)
    u = random_matrix(3, 1, Algebra.H, rng)
    v = random_matrix(3, 1, Algebra.H, rng)
    q = Quaternion(0.5, 1.0, -1.0, 0.25)
    M = outer(u, v, coeff=q)
    for r in range(3):
        for c in range(3):
            expect = u.entry(r, 0) * q * v.entry(c, 0).conjugate()
            assert M.entry(r, c).isclose(expect, tol=1e-12)


def test_basis_matrix_is_unitary_when_complete():
    rng = SplitMix64(17)
    U = gram_schmidt(Matrix.from_columns([random_matrix(4, 1, Algebra.H, rng) for _ in range(4)]))
    assert (U.adjoint() @ U - Matrix.identity(4, Algebra.H)).max_abs() < 1e-10


@pytest.mark.parametrize("algebra", ALGEBRAS)
@pytest.mark.parametrize("kind", ["none", "real", "quaternion"])
@pytest.mark.parametrize("same", [True, False], ids=["V=U", "V!=U"])
def test_outer_sum_is_the_sum_of_column_outer_products(algebra, kind, same):
    rng = SplitMix64(18)
    U = random_matrix(4, 3, algebra, rng)
    V = U if same else random_matrix(4, 3, algebra, rng)
    coeffs, per_column = None, [None] * 3
    if kind == "real":
        coeffs = rng.gaussian_block(3)
        per_column = [float(x) for x in coeffs]
    elif kind == "quaternion":
        k = algebra.component_count
        coeffs = np.zeros((3, 4))
        coeffs[:, :k] = rng.gaussian_block(3 * k).reshape(3, k)
        per_column = [Quaternion.from_array(row) for row in coeffs]
    expect = Matrix.zeros(4, 4, algebra)
    for u, v, coeff in zip(U.columns(), V.columns(), per_column):
        expect = expect + outer(u, v, coeff)
    got = outer_sum(U, coeffs) if same else outer_sum(U, coeffs, V)
    assert got.algebra is algebra
    assert got.approx_eq(expect, tol=1e-12)


@pytest.mark.parametrize("algebra", ALGEBRAS)
def test_outer_sum_of_no_columns_is_zero(algebra):
    U = Matrix.zeros(3, 0, algebra)
    assert outer_sum(U).approx_eq(Matrix.zeros(3, 3, algebra), tol=0.0)
    assert outer_sum(U, np.zeros(0)).approx_eq(Matrix.zeros(3, 3, algebra), tol=0.0)


def test_outer_sum_rejects_mismatched_factors():
    U = Matrix.zeros(3, 2, Algebra.C)
    with pytest.raises(ValueError):
        outer_sum(U, None, Matrix.zeros(3, 1, Algebra.C))
    with pytest.raises(AlgebraMismatch):
        outer_sum(U, None, Matrix.zeros(3, 2, Algebra.H))


# per-vector oracles for the product forms in trace.py and Matrix.orthonormality_defect
def _trace_reference(A: Matrix, basis: Matrix) -> Quaternion:
    total = Quaternion.ZERO
    for u in basis.columns():
        total = total + inner(u, A @ u)
    return total


def _absolute_sum_reference(A: Matrix, basis: Matrix) -> float:
    return float(sum(abs(inner(u, A @ u)) for u in basis.columns()))


def _orthonormality_reference(basis: Matrix) -> float:
    worst = 0.0
    for r, u in enumerate(basis.columns()):
        for c, v in enumerate(basis.columns()):
            target = ONE if r == c else Quaternion.ZERO
            worst = max(worst, abs(inner(u, v) - target))
    return worst


@pytest.mark.parametrize("algebra", ALGEBRAS)
@pytest.mark.parametrize("n", [1, 2, 5])
def test_basis_products_match_per_vector_loops(algebra, n):
    rng = SplitMix64(19)
    A = random_matrix(n, n, algebra, rng)
    bases = [
        Matrix.identity(n, algebra),
        gram_schmidt(Matrix.from_columns([random_matrix(n, 1, algebra, rng) for _ in range(n)])),
        # not orthonormal, so the defect is far from zero
        Matrix.from_columns([random_matrix(n, 1, algebra, rng) for _ in range(n)]),
    ]
    for basis in bases:
        assert trace_n(A, basis).isclose(_trace_reference(A, basis), tol=1e-12)
        assert abs(absolute_diagonal_sum(A, basis) - _absolute_sum_reference(A, basis)) <= 1e-12
        assert abs(basis.orthonormality_defect() - _orthonormality_reference(basis)) <= 1e-12


def _gram_schmidt_reference(vectors: list[Matrix]) -> list[Matrix]:
    """Per-vector modified Gram-Schmidt, two passes, dropping dependent vectors."""
    scale = max(v.norm() for v in vectors)
    out: list[Matrix] = []
    for v in vectors:
        w = v
        for _ in range(2):
            for u in out:
                w = w - u.scale_right(inner(u, w))
        nrm = w.norm()
        if nrm > 1e-10 * scale:
            out.append(w.scale_right(1.0 / nrm))
    return out


@pytest.mark.parametrize("algebra", ALGEBRAS)
@pytest.mark.parametrize("n", [1, 2, 5])
@pytest.mark.parametrize("rank", ["full", "deficient"])
def test_gram_schmidt_matches_per_vector_loop(algebra, n, rank):
    rng = SplitMix64(24)
    vectors = [random_matrix(n, 1, algebra, rng) for _ in range(n)]
    if rank == "deficient":
        # a right multiple of the first vector, a combination and a zero vector
        q = random_phase(algebra, rng)
        dependent = vectors[0].scale_right(q)
        vectors = [vectors[0], dependent, *vectors[1:], dependent - vectors[-1],
                   Matrix.zeros(n, 1, algebra)]
    basis = gram_schmidt(Matrix.from_columns(vectors), drop=rank == "deficient")
    expect = _gram_schmidt_reference(vectors)
    assert basis.m == len(expect) == n
    assert basis.approx_eq(Matrix.from_columns(expect), tol=1e-10)


@pytest.mark.parametrize("offset", [-1, 0, 1], ids=["below", "at", "above"])
def test_squared_moduli_and_max_abs_are_bit_identical_around_the_threshold(offset):
    # either side of the threshold must give numpy's length-4 sum bit for bit;
    # one magnitude per entry, so that the order of the adds shows in the bits
    entries = linalg._SQ_MODULI_MIN_ENTRIES + offset
    rng = np.random.default_rng(entries)
    comps = rng.standard_normal((1, entries, 4)) * 10.0 ** rng.uniform(-150, 150, (1, entries, 1))
    for c in (comps, comps.transpose(1, 0, 2)):
        assert np.array_equal(linalg._sq_moduli(c), (c**2).sum(axis=-1))
        assert Matrix(Algebra.H, c).max_abs() == float(np.sqrt((c**2).sum(axis=2)).max())


@pytest.mark.parametrize("offset", [-1, 0, 1], ids=["below", "at", "above"])
def test_squared_moduli_and_max_abs_propagate_nan_without_a_warning(offset):
    entries = linalg._SQ_MODULI_MIN_ENTRIES + offset
    comps = np.ones((1, entries, 4))
    comps[0, entries // 2, 2] = np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sq = linalg._sq_moduli(comps)
        biggest = Matrix(Algebra.H, comps).max_abs()
    assert np.isnan(sq[0, entries // 2]) and np.isnan(sq).sum() == 1
    assert math.isnan(biggest)
