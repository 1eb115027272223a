import math

import numpy as np
import pytest

from gleason_lab import kernels
from gleason_lab.linalg import (
    Matrix,
    gram_schmidt,
    inner,
    random_hermitian,
    random_matrix,
    random_projector,
    random_unitary,
)
from gleason_lab.rng import SplitMix64
from gleason_lab.scalars import Algebra, Quaternion
from gleason_lab.spectral import eig_hermitian
from gleason_lab.trace import (
    _real_pairings,
    absolute_diagonal_sum,
    check_norm_inequalities,
    full_trace_cyclic_gap,
    quaternionic_trace_formula_check,
    real_pairing,
    real_trace,
    real_trace_cyclic_gap,
    realification_check,
    realify,
    trace_n,
    trace_norm,
)

from conftest import ALGEBRAS, quaternions_close

ONE, I, J, K = Quaternion.ONE, Quaternion.I, Quaternion.J, Quaternion.K


def _random_basis(n, algebra, rng):
    return gram_schmidt(random_matrix(n, n, algebra, rng))


def _antisymmetric_blocks(m):
    comps = np.zeros((2 * m, 2 * m, 4))
    for b in range(m):
        comps[2 * b, 2 * b + 1, 0] = -1.0
        comps[2 * b + 1, 2 * b, 0] = 1.0
    return Matrix(Algebra.R, comps)


@pytest.mark.parametrize("algebra", ALGEBRAS)
@pytest.mark.parametrize("shape", [(1, 1), (4, 4), (2, 5), (5, 2)])
def test_real_pairing_is_the_real_trace_of_the_product(algebra, shape):
    n, m = shape
    rng = SplitMix64(41 + 7 * n + m)
    A = random_matrix(n, m, algebra, rng)
    B = random_matrix(m, n, algebra, rng)
    assert abs(real_pairing(A, B) - real_trace(A @ B)) < 1e-12
    assert abs(real_pairing(B, A) - real_trace(B @ A)) < 1e-12


@pytest.mark.parametrize("shapes", [((2, 3), (2, 3)), ((2, 3), (3, 3)), ((2, 2), (3, 3))])
def test_real_pairing_rejects_mismatched_shapes(shapes):
    rng = SplitMix64(43)
    A, B = (random_matrix(n, m, Algebra.H, rng) for n, m in shapes)
    with pytest.raises(ValueError):
        real_pairing(A, B)


@pytest.mark.parametrize("algebra", ALGEBRAS)
@pytest.mark.parametrize("n", [3, 8, 64])
@pytest.mark.parametrize("k", [1, 7, 300])
def test_stacked_pairing_is_a_loop_of_real_pairing_bit_for_bit(algebra, n, k):
    rng = SplitMix64(44 + n + k)
    stack = np.ascontiguousarray(
        random_matrix(n, k * n, algebra, rng).comps.reshape(n, k, n, 4).transpose(1, 0, 2, 3)
    )
    B = random_matrix(n, n, algebra, rng)
    values = _real_pairings(stack, B.comps, algebra.component_count)
    assert values.shape == (k,)
    assert values.tolist() == [real_pairing(Matrix(algebra, A), B) for A in stack]
    # in the algebra's arithmetic (over R, components 0 alone), the four-component bits
    assert values.tobytes() == _real_pairings(stack, B.comps).tobytes()


@pytest.mark.parametrize("algebra", ALGEBRAS)
@pytest.mark.parametrize("n", [3, 5, 8, 33, 64])
def test_grouped_operands_pair_as_the_operands_repeated_per_group_byte_for_byte(algebra, n):
    # one operand per group of r consecutive entries of a contiguous stack, as
    # the suite passes them: the bytes of the operands repeated r times each
    rng = SplitMix64(46 + n)
    k = algebra.component_count
    for g, r in [(1, 3), (3, 4)] + ([(2, 100)] if n <= 5 else []):
        stack = np.stack([random_matrix(n, n, algebra, rng).comps for _ in range(g * r)])
        B = np.stack([random_matrix(n, n, algebra, rng).comps for _ in range(g)])
        for count in (k, 4):
            got = _real_pairings(stack, B, count)
            assert got.shape == (g * r,)
            assert got.tobytes() == _real_pairings(stack, np.repeat(B, r, axis=0), count).tobytes()
        # a strided stack sums its entries in another order, to rounding
        strided = np.ascontiguousarray(stack.swapaxes(1, 2)).swapaxes(1, 2)
        assert np.allclose(_real_pairings(strided, B, k), got, rtol=1e-13, atol=1e-13 * n)


@pytest.mark.parametrize("groups", [0, 4, 5, 7])
def test_a_group_count_that_does_not_divide_the_stack_raises(groups):
    stack = np.zeros((6, 2, 2, 4))
    with pytest.raises(ValueError, match=f"cannot pair a stack of 6 with {groups} operands"):
        _real_pairings(stack, np.zeros((groups, 2, 2, 4)))


class TestTraceN:
    def test_identity_has_trace_n(self):
        for algebra in ALGEBRAS:
            for n in (1, 3, 5):
                t = trace_n(Matrix.identity(n, algebra), Matrix.identity(n, algebra))
                assert quaternions_close(t, Quaternion(float(n)), tol=1e-14)

    def test_left_multiplication_by_j_is_basis_dependent(self):
        A = Matrix.from_rows([[J]], Algebra.H)
        over_one = trace_n(A, Matrix.from_rows([[ONE]], Algebra.H))
        over_i = trace_n(A, Matrix.from_rows([[I]], Algebra.H))
        assert quaternions_close(over_one, J, tol=1e-14)
        assert quaternions_close(over_i, -J, tol=1e-14)

    def test_hermitian_quaternionic_trace_is_basis_independent(self):
        rng = SplitMix64(50)
        A = random_hermitian(4, Algebra.H, rng)
        values = [trace_n(A, _random_basis(4, Algebra.H, rng)) for _ in range(20)]
        worst = max(abs(v - values[0]) for v in values)
        assert worst < 1e-9

    def test_sum_is_invariant_under_basis_reordering(self):
        rng = SplitMix64(51)
        A = random_matrix(5, 5, Algebra.H, rng)
        basis = _random_basis(5, Algebra.H, rng)
        t0 = trace_n(A, basis)
        for _ in range(5):
            perm = list(range(5))
            for m in range(4, 0, -1):
                k = rng.integer(m + 1)
                perm[m], perm[k] = perm[k], perm[m]
            shuffled = Matrix.from_columns([basis.col(p) for p in perm])
            assert quaternions_close(trace_n(A, shuffled), t0, tol=1e-12)

    def test_incomplete_basis_is_rejected(self):
        A = Matrix.identity(3, Algebra.C)
        with pytest.raises(ValueError):
            trace_n(A, Matrix.identity(3, Algebra.C).col(0))


class TestRealTrace:
    def test_identity(self):
        assert real_trace(Matrix.identity(4, Algebra.H)) == 4.0

    def test_pure_j_has_zero_real_trace(self):
        assert real_trace(Matrix.from_rows([[J]], Algebra.H)) == 0.0

    def test_star_invariance_and_linearity(self):
        rng = SplitMix64(52)
        for algebra in ALGEBRAS:
            A = random_matrix(4, 4, algebra, rng)
            B = random_matrix(4, 4, algebra, rng)
            assert math.isclose(real_trace(A.adjoint()), real_trace(A), abs_tol=1e-10)
            a, b = rng.gaussian(), rng.gaussian()
            assert math.isclose(
                real_trace(A * a + B * b),
                a * real_trace(A) + b * real_trace(B),
                abs_tol=1e-10,
            )

    def test_agrees_with_real_part_of_any_basis_trace(self):
        rng = SplitMix64(53)
        A = random_matrix(4, 4, Algebra.H, rng)
        for _ in range(10):
            basis = _random_basis(4, Algebra.H, rng)
            assert math.isclose(trace_n(A, basis).real, real_trace(A), abs_tol=1e-10)

    def test_positivity_and_monotonicity(self):
        rng = SplitMix64(54)
        for algebra in ALGEBRAS:
            C = random_matrix(4, 4, algebra, rng)
            D = random_matrix(4, 4, algebra, rng)
            B = random_hermitian(4, algebra, rng)
            assert real_trace(C.adjoint() @ C) >= -1e-10
            A = B + D.adjoint() @ D
            assert real_trace(A) >= real_trace(B) - 1e-10


class TestTraceNorm:
    def test_projector_trace_norm_is_its_rank(self):
        rng = SplitMix64(55)
        for algebra in ALGEBRAS:
            P = random_projector(5, 3, algebra, rng)
            assert math.isclose(trace_norm(P.matrix), 3.0, abs_tol=1e-9)

    def test_rotation_block_witness(self):
        A = Matrix.from_rows([[0.0, -1.0], [1.0, 0.0]], Algebra.R)
        assert math.isclose(trace_norm(A), 2.0, abs_tol=1e-12)

    def test_unitary_invariance_and_basis_sums(self):
        rng = SplitMix64(56)
        A = random_matrix(4, 4, Algebra.H, rng)
        U = random_unitary(4, Algebra.H, rng)
        V = random_unitary(4, Algebra.H, rng)
        assert math.isclose(trace_norm(U @ A @ V), trace_norm(A), rel_tol=1e-10)
        # cross-check: sum over any basis of <u| |A| u> equals the trace norm
        from gleason_lab.spectral import abs_op

        absA = abs_op(A)
        for _ in range(2):
            basis = _random_basis(4, Algebra.H, rng)
            total = sum(inner(u, absA @ u).real for u in basis.columns())
            assert math.isclose(total, trace_norm(A), rel_tol=1e-9)

    def test_norm_inequality_reports(self):
        ident = Matrix.identity(3, Algebra.C)
        rep = check_norm_inequalities(ident, ident)
        assert rep.slack_ba >= -1e-9 and rep.op_vs_trace_slack >= -1e-9
        assert abs(rep.adjoint_gap) <= 1e-9
        assert math.isclose(rep.slack_ab, 0.0, abs_tol=1e-12)  # equality case
        rng = SplitMix64(57)
        P = random_projector(4, 1, Algebra.H, rng)
        U = random_unitary(4, Algebra.H, rng)
        assert trace_norm(P.matrix @ U) <= 1.0 + 1e-9
        for algebra in ALGEBRAS:
            for _ in range(25):
                n = 2 + rng.integer(5)
                A = random_matrix(n, n, algebra, rng)
                B = random_matrix(n, n, algebra, rng)
                rep = check_norm_inequalities(A, B)
                assert rep.slack_ab >= -1e-9 and rep.slack_ba >= -1e-9
                assert abs(rep.adjoint_gap) <= 1e-9 and rep.op_vs_trace_slack >= -1e-9


class TestEigensolveCounts:
    @pytest.fixture
    def eigh_calls(self, monkeypatch):
        real_eigh = kernels.eigh
        calls = []

        def counting_eigh(X, **kwargs):
            calls.append(X.shape[0])
            return real_eigh(X, **kwargs)

        monkeypatch.setattr(kernels, "eigh", counting_eigh)
        return calls

    @pytest.mark.parametrize("algebra", ALGEBRAS)
    def test_norm_inequalities_make_five_solves(self, eigh_calls, algebra):
        # ||A*||_1 and ||A|| share the one solve of A A*
        rng = SplitMix64(58)
        check_norm_inequalities(random_matrix(4, 4, algebra, rng), random_matrix(4, 4, algebra, rng))
        assert len(eigh_calls) == 5

    def test_adapted_trace_formula_makes_two_solves(self, eigh_calls):
        # one with vectors for J and tr|A - A*|, one spectrum for the tolerance
        A = random_matrix(4, 4, Algebra.H, SplitMix64(59))
        assert quaternionic_trace_formula_check(A, J).passed
        assert len(eigh_calls) == 2


class TestCyclicity:
    def test_identity_partner_gives_zero_gap(self):
        rng = SplitMix64(58)
        A = random_matrix(3, 3, Algebra.H, rng)
        assert real_trace_cyclic_gap(A, Matrix.identity(3, Algebra.H)) < 1e-12

    def test_quaternionic_witness_full_gap_two_real_gap_zero(self):
        A = Matrix.diag([I, 0.0], Algebra.H)
        B = Matrix.diag([J, 0.0], Algebra.H)
        basis = Matrix.identity(2, Algebra.H)
        assert quaternions_close(trace_n(A @ B, basis), K, tol=1e-14)
        assert quaternions_close(trace_n(B @ A, basis), -K, tol=1e-14)
        assert math.isclose(full_trace_cyclic_gap(A, B), 2.0, abs_tol=1e-13)
        assert real_trace_cyclic_gap(A, B) < 1e-14

    def test_random_quaternionic_pairs(self):
        rng = SplitMix64(59)
        worst = 0.0
        for _ in range(200):
            n = 1 + rng.integer(8)
            A = random_matrix(n, n, Algebra.H, rng)
            B = random_matrix(n, n, Algebra.H, rng)
            worst = max(worst, real_trace_cyclic_gap(A, B))
        assert worst < 1e-10 * 100  # scaled by typical operator size

    def test_diagonal_basis_cyclicity(self):
        rng = SplitMix64(60)
        for algebra in ALGEBRAS:
            A = random_hermitian(4, algebra, rng)
            B = random_matrix(4, 4, algebra, rng)
            basis = eig_hermitian(A).basis
            assert abs(trace_n(A @ B, basis) - trace_n(B @ A, basis)) < 1e-9
            BH = (B + B.adjoint()) * 0.5
            t = trace_n(A @ BH, basis)
            assert abs(t - Quaternion(t.real)) < 1e-9  # value is real

    def test_projector_sandwich(self):
        rng = SplitMix64(61)
        for algebra in ALGEBRAS:
            A = random_hermitian(4, algebra, rng)
            P = random_projector(4, 2, algebra, rng)
            lhs = real_trace(P.matrix @ A)
            mid = P.matrix @ A @ P.matrix
            assert math.isclose(lhs, real_trace(mid), abs_tol=1e-9)
            assert mid.is_hermitian(1e-9)
            t = trace_n(mid, Matrix.identity(4, algebra))
            assert abs(t - Quaternion(t.real)) < 1e-9


class TestAdaptedTraceFormula:
    def test_hermitian_input_gives_real_basis_trace(self):
        A = random_hermitian(3, Algebra.H, SplitMix64(62))
        check = quaternionic_trace_formula_check(A, I)
        assert check.skew_trace_norm < 1e-10
        assert abs(check.basis_trace - Quaternion(check.basis_trace.real)) < 1e-9
        assert check.passed

    def test_one_dimensional_pure_j_with_unit_i(self):
        # J-adapted basis vector solves j u = u i, e.g. (i+j)/sqrt2; the basis
        # trace is then exactly i
        A = Matrix.from_rows([[J]], Algebra.H)
        check = quaternionic_trace_formula_check(A, I)
        assert quaternions_close(check.basis_trace, I, tol=1e-12)
        assert math.isclose(check.skew_trace_norm, 2.0, abs_tol=1e-12)
        assert check.residual < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_random_matrices_two_units(self, n):
        rng = SplitMix64(63 + n)
        for _ in range(5):
            A = random_matrix(n, n, Algebra.H, rng)
            for unit in (I, J):
                check = quaternionic_trace_formula_check(A, unit)
                assert check.residual <= check.tolerance

    def test_small_skew_part(self):
        A = Matrix.diag([I * 1e-6, 0.0, 0.0], Algebra.H)
        for unit in (I, J):
            check = quaternionic_trace_formula_check(A, unit)
            assert math.isclose(check.skew_trace_norm, 2e-6, rel_tol=1e-9)
            assert check.residual <= check.tolerance

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_numerically_hermitian_input(self, n):
        rng = SplitMix64(80 + n)
        U = random_unitary(n, Algebra.H, rng)
        A = U @ Matrix.diag(list(rng.gaussian_block(n)), Algebra.H) @ U.adjoint()
        for unit in (I, J):
            check = quaternionic_trace_formula_check(A, unit)
            assert check.skew_trace_norm < 1e-13
            assert check.residual <= check.tolerance

    def test_imaginary_part_sits_along_the_chosen_unit(self):
        A = random_matrix(3, 3, Algebra.H, SplitMix64(70))
        unit = Quaternion(0, 0.6, 0.8, 0.0)
        check = quaternionic_trace_formula_check(A, unit)
        expected = Quaternion(check.real_part) + unit * (check.skew_trace_norm / 2.0)
        assert quaternions_close(check.basis_trace, expected, tol=check.tolerance)

    def test_identity_survives_changing_J_on_the_kernel(self):
        # the skew part of A vanishes on a 2-dim subspace; two J's that differ
        # only there (left-i vs left-j kernel extensions) both produce adapted
        # bases satisfying the same trace identity
        from gleason_lab.spectral import adapted_basis, make_J
        from gleason_lab.trace import real_trace, trace_norm

        A = Matrix.diag([J, 1.0, 2.0], Algebra.H)
        J1 = make_J(A)
        J2 = make_J(A, kernel_unit=J)
        assert (J1 - J2).max_abs() > 0.5  # genuinely different extensions
        skew = trace_norm(A - A.adjoint())
        for Jop in (J1, J2):
            basis = adapted_basis(Jop, I)
            got = trace_n(A, basis)
            expected = Quaternion(real_trace(A)) + I * (skew / 2.0)
            assert quaternions_close(got, expected, tol=1e-10)


class TestAbsoluteSumDichotomy:
    def test_bounded_by_trace_norm_over_c_and_h(self):
        rng = SplitMix64(71)
        for algebra in (Algebra.C, Algebra.H):
            for _ in range(10):
                A = random_matrix(4, 4, algebra, rng)
                bound = trace_norm(A)
                for _ in range(3):
                    total = absolute_diagonal_sum(A, _random_basis(4, algebra, rng))
                    assert total <= bound + 1e-9 * max(1.0, bound)

    @pytest.mark.parametrize("m", [1, 2, 4, 8])
    def test_real_witness_gap_grows_linearly(self, m):
        A = _antisymmetric_blocks(m)
        rng = SplitMix64(72)
        assert math.isclose(trace_norm(A), 2.0 * m, abs_tol=1e-10)
        for _ in range(5):
            basis = _random_basis(2 * m, Algebra.R, rng)
            assert absolute_diagonal_sum(A, basis) < 1e-10


class TestRealification:
    def test_identity_one_dim(self):
        A = Matrix.identity(1, Algebra.H)
        check = realification_check(A)
        assert math.isclose(check.trace_norm_h, 1.0, abs_tol=1e-12)
        assert math.isclose(check.trace_norm_real, 4.0, abs_tol=1e-12)

    def test_blocks_are_left_multiplication_by_each_entry(self):
        # block (r, c) column f is A_rc e_f, against Quaternion.__mul__
        rng = SplitMix64(76)
        A = random_matrix(2, 3, Algebra.H, rng)
        AR = realify(A)
        assert (AR.n, AR.m) == (8, 12)
        assert not AR.comps[..., 1:].any()
        for r in range(2):
            for c in range(3):
                block = AR.comps[4 * r : 4 * r + 4, 4 * c : 4 * c + 4, 0]
                for f, unit in enumerate((ONE, I, J, K)):
                    assert (block[:, f] == (A.entry(r, c) * unit).to_array()).all()

    def test_pure_j_realifies_to_traceless_rotation(self):
        A = Matrix.from_rows([[J]], Algebra.H)
        AR = realify(A)
        assert AR.algebra is Algebra.R
        assert AR.n == 4
        assert abs(real_trace(AR)) < 1e-14
        # left multiplication by j is an isometry: realified matrix orthogonal
        assert (AR.adjoint() @ AR - Matrix.identity(4, Algebra.R)).max_abs() < 1e-12

    def test_realified_product_structure(self):
        rng = SplitMix64(73)
        A = random_matrix(3, 3, Algebra.H, rng)
        B = random_matrix(3, 3, Algebra.H, rng)
        assert (realify(A @ B) - realify(A) @ realify(B)).max_abs() < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_quarter_identities(self, n):
        rng = SplitMix64(74 + n)
        for _ in range(5):
            A = random_matrix(n, n, Algebra.H, rng)
            check = realification_check(A)
            assert check.trace_norm_gap < 1e-9 * (1.0 + check.trace_norm_h)
            assert check.trace_gap < 1e-9

