import math

import numpy as np
import pytest

from gleason_lab import gleason, kernels, linalg
from gleason_lab.errors import (
    AlgebraMismatch,
    DegenerateInput,
    InvalidWeights,
    NotAFrameFunction,
    NotHermitian,
    NotPositive,
)
from gleason_lab.gleason import (
    DensityOperator,
    FrameFunction,
    convex_mix,
    convex_unit_lemma,
    dim2_counterexample,
    extremal_split,
    is_extremal,
    measure_from_state,
    pure_state,
    random_density,
    random_orthogonal_decomposition,
    reconstruct_state,
    separation_check,
)
from gleason_lab.linalg import (
    Matrix,
    Projector,
    inner,
    projector_onto,
    random_matrix,
    random_phase,
    random_projector,
    random_unit_vector,
    random_unit_vectors,
    random_unitary,
)
from gleason_lab.rng import SplitMix64
from gleason_lab.scalars import Algebra, Quaternion
from gleason_lab.trace import real_trace

from conftest import ALGEBRAS


class TestDensityOperator:
    def test_maximally_mixed_state(self):
        T = DensityOperator(Matrix.identity(4, Algebra.H) * 0.25)
        assert T.rank() == 4
        assert math.isclose(real_trace(T.matrix), 1.0)

    def test_rejects_non_hermitian(self):
        bad = Matrix.from_rows([[0.5, 1.0], [0.0, 0.5]], Algebra.R)
        with pytest.raises(NotHermitian):
            DensityOperator(bad)

    def test_hermitian_ratio_test_is_the_eigensolvers_at_1e_8(self):
        def state(defect: float) -> Matrix:
            comps = np.zeros((3, 3, 4))
            comps[[0, 1, 2], [0, 1, 2], 0] = [0.5, 0.3, 0.2]
            comps[0, 1, 1] = defect  # |A - A*| = defect, max|A_rc| = 0.5: the ratio is the defect
            return Matrix(Algebra.C, comps)

        with pytest.raises(NotHermitian):
            DensityOperator(state(2e-8))
        assert DensityOperator(state(5e-9)).rank() == 3

    def test_rejects_negative_operators(self):
        with pytest.raises(NotPositive):
            DensityOperator(Matrix.diag([1.5, -0.5], Algebra.C))

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError):
            DensityOperator(Matrix.identity(2, Algebra.C))


class TestLatticeJoin:
    # the join P v Q projects onto the span of both ranges; the columns of a
    # projector span its range, so it is projector_onto of all their columns,
    # with the dependent (and zero) ones dropped

    def test_join_with_zero_projector(self):
        P = random_projector(3, 1, Algebra.H, SplitMix64(81))
        zero = Matrix.zeros(3, 3, Algebra.H)
        joined = projector_onto(Matrix.from_columns([P.matrix, zero]), drop=True)
        assert joined.matrix.approx_eq(P.matrix, tol=1e-9)

    def test_join_with_complement_is_identity(self):
        P = random_projector(4, 2, Algebra.C, SplitMix64(82))
        complement = Projector(Matrix.identity(4, Algebra.C) - P.matrix)
        joined = projector_onto(Matrix.from_columns([P.matrix, complement.matrix]), drop=True)
        assert joined.matrix.approx_eq(Matrix.identity(4, Algebra.C), tol=1e-9)

    def test_join_of_overlapping_lines(self):
        e1 = Matrix.identity(3, Algebra.R).col(0)
        e2 = Matrix.identity(3, Algebra.R).col(1)
        P = projector_onto(e1)
        Q = projector_onto(e1 + e2)
        joined = projector_onto(Matrix.from_columns([P.matrix, Q.matrix]), drop=True)
        assert joined.rank == 2
        assert joined.matrix.approx_eq(Matrix.diag([1.0, 1.0, 0.0], Algebra.R), tol=1e-9)

    def test_orthogonal_join_equals_sum(self):
        rng = SplitMix64(83)
        parts = random_orthogonal_decomposition(5, Algebra.H, rng)
        total = Matrix.zeros(5, 5, Algebra.H)
        for P in parts:
            total = total + P.matrix
        joined = projector_onto(Matrix.from_columns([P.matrix for P in parts]), drop=True)
        assert joined.matrix.approx_eq(total, tol=1e-9)


class TestMeasureFromState:
    def test_uniform_state_scores_rank_over_n(self):
        rng = SplitMix64(84)
        for algebra in ALGEBRAS:
            T = DensityOperator(Matrix.identity(4, algebra) * 0.25)
            mu = measure_from_state(T)
            for rank in (1, 2, 3):
                P = random_projector(4, rank, algebra, rng)
                assert math.isclose(mu(P), rank / 4.0, abs_tol=1e-10)

    def test_pure_state_scores_one_on_its_own_line(self):
        psi = random_unit_vector(3, Algebra.H, SplitMix64(85))
        mu = measure_from_state(pure_state(psi))
        assert math.isclose(mu(projector_onto(psi)), 1.0, abs_tol=1e-10)

    def test_equivalent_trace_forms(self):
        from gleason_lab.linalg import gram_schmidt, random_matrix
        from gleason_lab.scalars import Quaternion
        from gleason_lab.trace import trace_n

        rng = SplitMix64(86)
        for algebra in ALGEBRAS:
            T = random_density(4, algebra, rng)
            P = random_projector(4, 2, algebra, rng)
            a = real_trace(P.matrix @ T.matrix)
            b = real_trace(T.matrix @ P.matrix)
            sandwiched = P.matrix @ T.matrix @ P.matrix
            c = real_trace(sandwiched)
            assert math.isclose(a, b, abs_tol=1e-10)
            assert math.isclose(a, c, abs_tol=1e-10)
            assert sandwiched.is_hermitian(1e-9)
            # the sandwiched trace is basis independent and already real
            basis = gram_schmidt(random_matrix(4, 4, algebra, rng))
            assert abs(trace_n(sandwiched, basis) - Quaternion(a)) < 1e-10

    def test_sigma_additivity_over_random_decompositions(self):
        rng = SplitMix64(87)
        for algebra in ALGEBRAS:
            for _ in range(10):
                mu = measure_from_state(random_density(5, algebra, rng))
                parts = random_orthogonal_decomposition(5, algebra, rng)
                assert abs(sum(mu(P) for P in parts) - 1.0) < 1e-9

    def test_values_stay_in_unit_interval(self):
        rng = SplitMix64(88)
        for algebra in ALGEBRAS:
            mu = measure_from_state(random_density(4, algebra, rng))
            for rank in (1, 2, 3):
                v = mu(random_projector(4, rank, algebra, rng))
                assert -1e-10 <= v <= 1.0 + 1e-10


class TestBlockMeasure:
    @pytest.mark.parametrize("algebra", ALGEBRAS)
    @pytest.mark.parametrize("n", [3, 8])
    def test_trace_backed_stack_matches_one_projector_at_a_time(self, algebra, n):
        rng = SplitMix64(940 + n)
        T = random_density(n, algebra, rng)
        mu = measure_from_state(T)
        stack = Projector.rank_ones(random_matrix(n, 30, algebra, rng))
        values = mu.evaluate(algebra, stack)
        projectors = [Projector(Matrix(algebra, comps)) for comps in stack]
        assert values.tolist() == [mu(P) for P in projectors]
        expect = [real_trace(P.matrix @ T.matrix) for P in projectors]
        assert np.abs(values - expect).max() < 1e-12

    @pytest.mark.parametrize("algebra", ALGEBRAS)
    def test_a_stack_of_the_wrong_dimension_is_rejected(self, algebra):
        mu = measure_from_state(random_density(3, algebra, SplitMix64(944)))
        stack = Projector.rank_ones(random_matrix(4, 5, algebra, SplitMix64(945)))
        with pytest.raises(ValueError, match="cannot pair 4x4 with 3x3"):
            mu.evaluate(algebra, stack)
        with pytest.raises(ValueError, match="cannot pair"):
            mu(Projector(Matrix.identity(4, algebra)))

    @pytest.mark.parametrize("algebra", ALGEBRAS)
    def test_every_probe_chunk_is_certified_once(self, algebra, monkeypatch):
        n = 5
        T = random_density(n, algebra, SplitMix64(946))
        f = FrameFunction.from_measure(measure_from_state(T))
        certified = []
        certify = linalg._certify_projectors

        def spy(stack, idem, tol):
            certified.append(stack.shape[0])
            return certify(stack, idem, tol)

        monkeypatch.setattr(linalg, "_certify_projectors", spy)
        reconstruct_state(f, n, algebra)
        assert len(certified) == 4  # one per probe block, each one chunk
        certified.clear()
        monkeypatch.setattr(gleason, "_PROBE_CHUNK_ENTRIES", 7 * 4 * n * n)  # 7 columns
        f.evaluate(random_matrix(n, 40, algebra, SplitMix64(947)))
        assert certified == [7] * 5 + [5]

    @pytest.mark.parametrize("algebra", ALGEBRAS)
    def test_no_probe_builds_a_matrix(self, algebra, monkeypatch):
        """A reconstruction at n = 8 makes more than twice the probes of one at
        n = 5, but builds the same number of matrices."""

        def matrices_built(n: int) -> int:
            T = random_density(n, algebra, SplitMix64(948))
            f = FrameFunction.from_measure(measure_from_state(T))
            count = 0
            init = Matrix.__init__

            def counting(self, *args):
                nonlocal count
                count += 1
                init(self, *args)

            with monkeypatch.context() as patch:
                patch.setattr(Matrix, "__init__", counting)
                reconstruct_state(f, n, algebra)
            return count

        assert matrices_built(5) == matrices_built(8)


class TestReconstruction:
    @pytest.mark.parametrize("algebra", ALGEBRAS)
    @pytest.mark.parametrize("n", [3, 4, 16])
    def test_round_trip(self, algebra, n):
        rng = SplitMix64(900 + n)
        T = random_density(n, algebra, rng)
        f = FrameFunction.from_measure(measure_from_state(T))
        rebuilt = reconstruct_state(f, n, algebra, rng=rng)
        assert (rebuilt.matrix - T.matrix).max_abs() < 1e-9

    @pytest.mark.parametrize("algebra", ALGEBRAS)
    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_block_probes_match_pointwise_probes_bit_for_bit(self, algebra, n):
        T = random_density(n, algebra, SplitMix64(910 + n))
        f = FrameFunction.from_measure(measure_from_state(T))
        block = reconstruct_state(f, n, algebra).matrix.comps
        pointwise = reconstruct_state(FrameFunction.pointwise(f), n, algebra).matrix.comps
        assert np.array_equal(block, pointwise)

    @staticmethod
    def _spy_rank_ones(monkeypatch) -> list[int]:
        """Record the column count of every Projector.rank_ones call."""
        widths = []
        rank_ones = Projector.rank_ones

        def spy(X):
            widths.append(X.m)
            return rank_ones(X)

        monkeypatch.setattr(Projector, "rank_ones", staticmethod(spy))
        return widths

    @pytest.mark.parametrize("algebra", ALGEBRAS)
    def test_probe_blocks_wider_than_one_chunk_match_pointwise_probes_bit_for_bit(
        self, algebra, monkeypatch
    ):
        n = 5
        T = random_density(n, algebra, SplitMix64(930))
        f = FrameFunction.from_measure(measure_from_state(T))
        X = random_matrix(n, 40, algebra, SplitMix64(931))
        one_by_one = [f(x) for x in X.columns()]
        monkeypatch.setattr(gleason, "_PROBE_CHUNK_ENTRIES", 7 * 4 * n * n)  # 7 columns
        widths = self._spy_rank_ones(monkeypatch)
        assert f.evaluate(X) == one_by_one
        assert widths == [7] * 5 + [5]
        widths.clear()
        block = reconstruct_state(f, n, algebra).matrix.comps
        assert max(widths) == 7 and len(widths) > 4  # four blocks, cut into chunks
        pointwise = reconstruct_state(FrameFunction.pointwise(f), n, algebra).matrix.comps
        assert np.array_equal(block, pointwise)

    @pytest.mark.parametrize("algebra", ALGEBRAS)
    def test_probe_blocks_stay_one_chunk_up_to_n_8(self, algebra, monkeypatch):
        T = random_density(8, algebra, SplitMix64(932))
        widths = self._spy_rank_ones(monkeypatch)
        reconstruct_state(FrameFunction.from_measure(measure_from_state(T)), 8, algebra)
        assert len(widths) == 4

    @pytest.mark.parametrize("algebra", ALGEBRAS)
    def test_frame_function_probe_builds_no_matrix_product(self, algebra, monkeypatch):
        rng = SplitMix64(61)
        T = random_density(4, algebra, rng)
        x = random_matrix(4, 1, algebra, rng)
        expect = inner(x, T.matrix @ x).real / x.norm() ** 2
        X = random_matrix(4, 50, algebra, rng)
        expect_block = [inner(u, T.matrix @ u).real / u.norm() ** 2 for u in X.columns()]
        f = FrameFunction.from_measure(measure_from_state(T))
        calls = []
        product = kernels.quat_matmul

        def counting(A, B):
            calls.append(A.shape)
            return product(A, B)

        monkeypatch.setattr(kernels, "quat_matmul", counting)
        value = f(x)
        values = f.evaluate(X)
        assert calls == []
        assert abs(value - expect) < 1e-12
        assert len(values) == 50 and np.abs(np.subtract(values, expect_block)).max() < 1e-12

    @pytest.mark.parametrize("algebra", ALGEBRAS)
    def test_every_verification_probe_calls_the_oracle_once(self, algebra):
        T = random_density(3, algebra, SplitMix64(62))
        f = FrameFunction.from_measure(measure_from_state(T))

        def calls_with(probes: int) -> int:
            calls = 0

            def ev(x: Matrix) -> float:
                nonlocal calls
                calls += 1
                return f(x)

            rebuilt = reconstruct_state(FrameFunction.pointwise(ev), 3, algebra,
                                        rng=SplitMix64(63), verification_probes=probes)
            assert (rebuilt.matrix - T.matrix).max_abs() < 1e-9
            return calls

        assert calls_with(100) - calls_with(0) == 100

    @pytest.mark.parametrize("error, message", [(1e-3, "1.000e-03"), (np.nan, "nan")])
    def test_first_failing_verification_probe_is_reported(self, error, message):
        T = random_density(3, Algebra.C, SplitMix64(64))
        f = FrameFunction.from_measure(measure_from_state(T))
        calls = 0

        def ev(x: Matrix) -> float:
            nonlocal calls
            calls += 1
            return f(x)

        reconstruct_state(FrameFunction.pointwise(ev), 3, Algebra.C)
        # the 100 verification probes come last: the third of them, then the fifth
        third, fifth, calls = calls - 97, calls - 95, 0

        def failing(x: Matrix) -> float:
            nonlocal calls
            calls += 1
            off = {third: error, fifth: 2e-3}.get(calls, 0.0)
            return f(x) + off

        with pytest.raises(NotAFrameFunction, match=f"probe error {message}$"):
            reconstruct_state(FrameFunction.pointwise(failing), 3, Algebra.C)

    def test_block_oracle_with_the_wrong_number_of_values_is_rejected(self):
        f = FrameFunction(evaluate=lambda X: [1.0 / 3.0])
        with pytest.raises(NotAFrameFunction, match="values for 55 probes"):
            reconstruct_state(f, 3, Algebra.C)

    def test_constant_frame_function_gives_uniform_state(self):
        f = FrameFunction.pointwise(lambda x: x.norm() ** 2 / 3.0)
        T = reconstruct_state(f, 3, Algebra.C)
        assert T.matrix.approx_eq(Matrix.identity(3, Algebra.C) * (1.0 / 3.0), tol=1e-10)

    def test_quaternionic_three_dim_many_seeds(self):
        worst = 0.0
        for seed in range(10):
            rng = SplitMix64(seed)
            T = random_density(3, Algebra.H, rng)
            f = FrameFunction.from_measure(measure_from_state(T))
            rebuilt = reconstruct_state(f, 3, Algebra.H, rng=rng)
            worst = max(worst, (rebuilt.matrix - T.matrix).max_abs())
        assert worst < 1e-8

    def test_frame_function_weight_one_on_every_basis(self):
        rng = SplitMix64(89)
        T = random_density(4, Algebra.H, rng)
        f = FrameFunction.from_measure(measure_from_state(T))
        from gleason_lab.linalg import gram_schmidt, random_matrix

        for _ in range(5):
            basis = gram_schmidt(random_matrix(4, 4, Algebra.H, rng))
            assert math.isclose(sum(f.evaluate(basis)), 1.0, abs_tol=1e-9)

    def test_phase_dependent_oracle_is_rejected(self):
        def ev(x: Matrix) -> float:
            # depends on the representative, not the line: not a frame function
            return max(x.comps[0, 0, 0], 0.0)

        with pytest.raises(NotAFrameFunction):
            reconstruct_state(FrameFunction.pointwise(ev), 3, Algebra.C)

    def test_non_quadratic_oracle_is_rejected(self):
        def ev(x: Matrix) -> float:
            p = inner(x, x).real
            return abs(x.entry(0, 0) * x.entry(0, 0).conjugate()).real ** 2 / max(p, 1e-12)

        with pytest.raises(NotAFrameFunction):
            reconstruct_state(FrameFunction.pointwise(ev), 3, Algebra.C)

    def test_indefinite_quadratic_form_is_rejected_as_not_positive(self):
        T0 = Matrix.diag([1.5, -0.5, 0.0], Algebra.C)

        def ev(x: Matrix) -> float:
            return inner(x, T0 @ x).real

        with pytest.raises(NotPositive):
            reconstruct_state(FrameFunction.pointwise(ev), 3, Algebra.C)


class TestExtremality:
    def test_pure_states_are_extremal(self):
        rng = SplitMix64(90)
        for algebra in ALGEBRAS:
            psi = random_unit_vector(4, algebra, rng)
            assert is_extremal(pure_state(psi))

    def test_uniform_state_is_not_extremal(self):
        for n in (2, 3):
            T = DensityOperator(Matrix.identity(n, Algebra.C) * (1.0 / n))
            assert not is_extremal(T)

    def test_split_reproduces_the_state(self):
        rng = SplitMix64(91)
        for algebra in ALGEBRAS:
            T = random_density(4, algebra, rng, rank=3)
            assert not is_extremal(T)
            w, T1, T2 = extremal_split(T)
            assert 0.0 < w < 1.0
            assert is_extremal(T1)
            mixed = convex_mix([T1, T2], [w, 1.0 - w])
            assert (mixed.matrix - T.matrix).max_abs() < 1e-9

    def test_split_refuses_pure_states(self):
        psi = random_unit_vector(3, Algebra.R, SplitMix64(92))
        with pytest.raises(ValueError):
            extremal_split(pure_state(psi))


class TestConvexMix:
    def test_single_state_identity_mix(self):
        T = random_density(3, Algebra.H, SplitMix64(93))
        assert convex_mix([T], [1.0]).matrix.approx_eq(T.matrix, tol=0.0)

    def test_equal_mix_of_orthogonal_pure_states(self):
        U = random_unitary(3, Algebra.C, SplitMix64(94))
        T = convex_mix([pure_state(U.col(0)), pure_state(U.col(1))], [0.5, 0.5])
        values = sorted(T.eigen().values, reverse=True)
        assert np.allclose(values[:2], [0.5, 0.5], atol=1e-10)

    def test_spectral_resolution_remixes_to_the_state(self):
        rng = SplitMix64(95)
        T = random_density(4, Algebra.H, rng)
        dec = T.eigen()
        parts = [pure_state(u) for u in dec.basis.columns()]
        weights = [max(float(s), 0.0) for s in dec.values]
        weights = [w / sum(weights) for w in weights]
        remixed = convex_mix(parts, weights)
        assert (remixed.matrix - T.matrix).max_abs() < 1e-9

    def test_measures_mix_affinely(self):
        rng = SplitMix64(96)
        t1, t2 = (random_density(3, Algebra.C, rng) for _ in range(2))
        mixed = convex_mix([t1, t2], [0.3, 0.7])
        P = random_projector(3, 2, Algebra.C, rng)
        lhs = measure_from_state(mixed)(P)
        rhs = 0.3 * measure_from_state(t1)(P) + 0.7 * measure_from_state(t2)(P)
        assert math.isclose(lhs, rhs, abs_tol=1e-12)

    def test_invalid_weights(self):
        T = random_density(2, Algebra.R, SplitMix64(97))
        with pytest.raises(InvalidWeights):
            convex_mix([T, T], [0.7, 0.7])
        with pytest.raises(InvalidWeights):
            convex_mix([T, T], [1.5, -0.5])

    @pytest.mark.parametrize("weights", [[math.nan, 0.5], [0.5, math.nan], [math.nan, math.nan]])
    def test_nan_weights_are_invalid(self, weights):
        # the weight check answers, not the state check on the NaN mixture
        T = random_density(2, Algebra.R, SplitMix64(97))
        with pytest.raises(InvalidWeights):
            convex_mix([T, T], weights)


class TestPhaseClasses:
    def test_quaternionic_phases_leave_pure_states_fixed(self):
        rng = SplitMix64(98)
        psi = random_unit_vector(3, Algebra.H, rng)
        for _ in range(10):
            q = random_phase(Algebra.H, rng)
            assert pure_state(psi.scale_right(q)).matrix.approx_eq(pure_state(psi).matrix, tol=1e-10)

    def test_real_case_is_up_to_sign(self):
        psi = random_unit_vector(3, Algebra.R, SplitMix64(99))
        assert pure_state(psi.scale_right(-1.0)).matrix.approx_eq(pure_state(psi).matrix, tol=1e-12)

    @pytest.mark.parametrize("entry", [0.0, math.nan, math.inf, -math.inf], ids=["zero", "nan", "+inf", "-inf"])
    def test_pure_state_of_a_zero_or_non_finite_vector_is_degenerate(self, entry):
        comps = np.zeros((3, 1, 4))
        comps[1, 0, 0] = entry
        with pytest.raises(DegenerateInput):
            pure_state(Matrix(Algebra.C, comps))

    def test_pure_state_of_more_than_one_column_is_rejected(self):
        # the sum over two orthonormal columns would be the mixed state of rank 2
        with pytest.raises(ValueError):
            pure_state(Matrix(Algebra.C, random_unitary(3, Algebra.C, SplitMix64(99)).comps[:, :2]))


class TestSeparation:
    def test_equal_projectors_are_not_separated(self):
        P = random_projector(3, 1, Algebra.H, SplitMix64(100))
        assert not separation_check(P, P)

    def test_standard_lines_are_separated(self):
        P = projector_onto(Matrix.identity(3, Algebra.C).col(0))
        Q = projector_onto(Matrix.identity(3, Algebra.C).col(1))
        assert separation_check(P, Q)
        # the e1 witness itself distinguishes them maximally
        mu = measure_from_state(pure_state(Matrix.identity(3, Algebra.C).col(0)))
        assert math.isclose(mu(P) - mu(Q), 1.0, abs_tol=1e-12)

    def test_random_distinct_projectors_are_separated(self):
        rng = SplitMix64(101)
        for algebra in ALGEBRAS:
            P = random_projector(4, 2, algebra, rng)
            Q = random_projector(4, 2, algebra, rng)
            if (P.matrix - Q.matrix).max_abs() > 1e-6:
                assert separation_check(P, Q)


class TestConvexUnitLemma:
    def test_textbook_case(self):
        assert convex_unit_lemma([0.5, 0.5], [1.0, 1.0])

    def test_out_of_range_q_is_flagged(self):
        with pytest.raises(ValueError):
            convex_unit_lemma([0.5, 0.5], [0.9, 1.1])
        with pytest.raises(ValueError):
            convex_unit_lemma([0.5, 0.5, 0.0], [1.0, 1.0, 1.0])

    @pytest.mark.parametrize(
        "ps, qs",
        [([math.nan, 0.5], [1.0, 1.0]), ([0.5, 0.5], [math.nan, 1.0]), ([0.5, 0.5], [1.0, math.nan])],
        ids=["nan p", "nan first q", "nan last q"],
    )
    def test_nan_inputs_are_rejected(self, ps, qs):
        with pytest.raises(ValueError):
            convex_unit_lemma(ps, qs)

    def test_sampler_finds_no_violations(self):
        rng = SplitMix64(102)
        checked = 0
        for _ in range(10_000):
            count = 2 + rng.integer(6)
            raw = rng.uniform_block(count)
            ps = raw / raw.sum()
            if ps.min() <= 0.0 or ps.max() >= 1.0:
                continue
            qs = np.ones(count) if rng.uniform() < 0.5 else 1.0 - rng.uniform_block(count)
            assert convex_unit_lemma(list(ps), list(qs))
            checked += 1
        assert checked > 9000


class TestDim2Counterexample:
    def test_poles_and_additivity(self):
        mu, cert = dim2_counterexample()
        north = projector_onto(Matrix.identity(2, Algebra.C).col(0))
        assert math.isclose(mu(north), 1.0, abs_tol=1e-12)
        south = projector_onto(Matrix.identity(2, Algebra.C).col(1))
        assert math.isclose(mu(south), 0.0, abs_tol=1e-12)
        assert cert.additivity_gap < 1e-12
        assert math.isclose(cert.identity_value, 1.0, abs_tol=1e-12)

    def test_antipodal_pairs_sum_to_one(self):
        mu, _ = dim2_counterexample()
        rng = SplitMix64(103)
        for _ in range(100):
            P = projector_onto(random_unit_vector(2, Algebra.C, rng))
            complement = Projector(Matrix.identity(2, Algebra.C) - P.matrix)
            assert math.isclose(mu(P) + mu(complement), 1.0, abs_tol=1e-12)

    def test_a_stack_reads_as_its_projectors_one_at_a_time(self):
        mu, _ = dim2_counterexample()
        lines = Projector.rank_ones(random_matrix(2, 6, Algebra.C, SplitMix64(104)))
        ends = np.stack([np.zeros((2, 2, 4)), Matrix.identity(2, Algebra.C).comps])
        stack = np.concatenate([lines[:3], ends, lines[3:]])
        values = mu.evaluate(Algebra.C, stack)
        assert values.tolist() == [mu(Projector(Matrix(Algebra.C, comps))) for comps in stack]
        assert values[3:5].tolist() == [0.0, 1.0]

    def test_the_measure_rejects_projectors_off_c2(self):
        mu, _ = dim2_counterexample()
        for algebra in (Algebra.R, Algebra.H):
            with pytest.raises(AlgebraMismatch):
                mu(Projector(Matrix.identity(2, algebra)))
        for n in (1, 3):
            with pytest.raises(ValueError, match=r"\(k, 2, 2, 4\)"):
                mu(Projector(Matrix.identity(n, Algebra.C)))
        with pytest.raises(ValueError, match=r"\(k, 2, 2, 4\)"):
            mu.evaluate(Algebra.C, Matrix.identity(2, Algebra.C).comps)

    def test_no_trace_form_fits(self):
        _, cert = dim2_counterexample()
        assert cert.best_fit_max_error > 0.05
        assert cert.best_fit.is_hermitian(1e-9)

    @staticmethod
    def _per_projector_certificate(mu, probes):
        """(additivity gap, mu(I), best-fit error) built one Projector at a time:
        a validated projector per line and per complement, one measure read
        each, and Re tr(P T) from the product P T."""
        algebra = Algebra.C
        X = random_unit_vectors(2, probes, algebra, SplitMix64(0xB10C))
        ident = Matrix.identity(2, algebra)
        lines = [projector_onto(Matrix(algebra, X.comps[:, p : p + 1])) for p in range(probes)]
        gap = max(abs(mu(P) + mu(Projector(ident - P.matrix)) - 1.0) for P in lines)
        poles = [projector_onto(Matrix(algebra, ident.comps[:, k : k + 1])) for k in (0, 1)]
        rows, targets = [], []
        for P in poles + lines:
            nz = P.matrix.entry(0, 0).a - P.matrix.entry(1, 1).a
            off = P.matrix.entry(0, 1)
            rows.append([0.5, 0.5 * (2.0 * off.a), 0.5 * (-2.0 * off.b), 0.5 * nz])
            targets.append(mu(P))
        w0, vx, vy, vz = np.linalg.lstsq(np.array(rows), np.array(targets), rcond=None)[0]
        T = Matrix.from_rows(
            [[Quaternion((w0 + vz) / 2.0), Quaternion(vx / 2.0, -vy / 2.0)],
             [Quaternion(vx / 2.0, vy / 2.0), Quaternion((w0 - vz) / 2.0)]],
            algebra,
        )
        error = max(abs(real_trace(P.matrix @ T) - mu(P)) for P in poles + lines)
        return gap, mu(Projector(ident)), error

    @pytest.mark.parametrize("probes", [1, 7, 100, 150, 1000])
    def test_the_stacked_certificate_matches_the_per_projector_one(self, probes):
        mu, cert = dim2_counterexample(probes)
        gap, identity_value, error = self._per_projector_certificate(mu, probes)
        assert cert.additivity_gap.hex() == gap.hex()
        assert cert.identity_value.hex() == identity_value.hex()
        # the pairing sums Re(P_rc T_cr) in another order than the product P T
        assert abs(cert.best_fit_max_error - error) <= 1e-15

    def test_builds_no_projector_object_and_no_quaternion_product(self, monkeypatch):
        calls = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(linalg.Projector, "__init__", counted("Projector", linalg.Projector.__init__))
        monkeypatch.setattr(linalg, "projector_onto", counted("projector_onto", linalg.projector_onto))
        monkeypatch.setattr(gleason, "projector_onto", counted("projector_onto", gleason.projector_onto))
        monkeypatch.setattr(kernels, "quat_matmul", counted("quat_matmul", kernels.quat_matmul))
        dim2_counterexample()
        assert calls == []
        # the counters see the per-projector route
        gleason.projector_onto(Matrix.identity(2, Algebra.C))
        assert {"Projector", "projector_onto", "quat_matmul"} <= set(calls)

