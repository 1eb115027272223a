import math
import random
import tracemalloc
from fractions import Fraction

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

from conftest import ALGEBRAS, matrices_close


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
        assert matrices_close(joined.matrix, P.matrix, tol=1e-9)

    def test_join_with_complement_is_identity(self):
        P = random_projector(4, 2, Algebra.C, SplitMix64(82))
        complement = Projector(Matrix.identity(4, Algebra.C) - P.matrix)
        joined = projector_onto(Matrix.from_columns([P.matrix, complement.matrix]), drop=True)
        assert matrices_close(joined.matrix, Matrix.identity(4, Algebra.C), tol=1e-9)

    def test_join_of_overlapping_lines(self):
        e1 = Matrix.identity(3, Algebra.R).col(0)
        e2 = Matrix.identity(3, Algebra.R).col(1)
        P = projector_onto(e1)
        Q = projector_onto(e1 + e2)
        joined = projector_onto(Matrix.from_columns([P.matrix, Q.matrix]), drop=True)
        assert joined.rank == 2
        assert matrices_close(joined.matrix, Matrix.diag([1.0, 1.0, 0.0], Algebra.R), tol=1e-9)

    def test_orthogonal_join_equals_sum(self):
        rng = SplitMix64(83)
        parts = random_orthogonal_decomposition(5, Algebra.H, rng)
        total = Matrix.zeros(5, 5, Algebra.H)
        for P in parts:
            total = total + P.matrix
        joined = projector_onto(Matrix.from_columns([P.matrix for P in parts]), drop=True)
        assert matrices_close(joined.matrix, total, tol=1e-9)


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
    def test_every_probe_chunk_of_an_opaque_measure_is_certified_once(self, algebra, monkeypatch):
        n = 5
        T = random_density(n, algebra, SplitMix64(946))
        f = FrameFunction.from_measure(_opaque(measure_from_state(T)))
        certified = []
        certify = linalg._certify_projectors

        def spy(stack, idem, tol):
            certified.append(stack.shape[0])
            return certify(stack, idem, tol)

        monkeypatch.setattr(linalg, "_certify_projectors", spy)
        reconstruct_state(f, n, algebra)
        assert len(certified) == 1  # one probe call, whose four blocks make one chunk at n = 5
        certified.clear()
        monkeypatch.setattr(gleason, "_PROBE_CHUNK_ENTRIES", 7 * 4 * n * n)  # 7 columns
        f.evaluate(random_matrix(n, 40, algebra, SplitMix64(947)))
        assert certified == [7] * 5 + [5]

    @pytest.mark.parametrize("algebra", ALGEBRAS)
    @pytest.mark.parametrize("opaque", [False, True], ids=["lines", "opaque"])
    def test_no_probe_builds_a_matrix(self, algebra, opaque, monkeypatch):
        """A reconstruction at n = 8 makes 2.8 times the polarization probes of
        one at n = 5.  Through a state's line reading it builds no more
        matrices and no line projector; through an opaque measure it builds
        only one more matrix per probe chunk."""

        def matrices_built(n: int) -> tuple[int, int, int]:
            """(matrices built, probe chunks, probes) of one reconstruction."""
            T = random_density(n, algebra, SplitMix64(948))
            mu = measure_from_state(T)
            f = FrameFunction.from_measure(_opaque(mu) if opaque else mu)
            count, widths = 0, []
            init, rank_ones = Matrix.__init__, Projector.rank_ones

            def counting(self, *args):
                nonlocal count
                count += 1
                init(self, *args)

            def spy(X):
                widths.append(X.m)
                return rank_ones(X)

            with monkeypatch.context() as patch:
                patch.setattr(Matrix, "__init__", counting)
                patch.setattr(Projector, "rank_ones", staticmethod(spy))
                reconstruct_state(f, n, algebra)
            return count, len(widths), sum(widths)

        built5, chunks5, probes5 = matrices_built(5)
        built8, chunks8, probes8 = matrices_built(8)
        if opaque:
            assert probes8 > probes5 and chunks5 == 1
        else:
            assert chunks5 == chunks8 == 0
        assert built8 - chunks8 == built5 - chunks5


def _opaque(mu):
    """The measure ``mu`` without its line reading, as an oracle that reads only
    projector stacks: its frame function hands it certified line projectors,
    in chunks."""
    return gleason.LatticeMeasure(evaluate=mu.evaluate)


def _integer_hermitian(n, algebra, draw):
    """An n x n Hermitian matrix of the algebra with small-integer components."""
    k = algebra.component_count
    comps = np.zeros((n, n, 4))
    for r in range(n):
        comps[r, r, 0] = draw()
        for c in range(r + 1, n):
            comps[r, c, :k] = [draw() for _ in range(k)]
            comps[c, r] = linalg._conj_comps(comps[r, c])
    return comps


def _exact_line_value(T, x):
    """Re<x|Tx> / <x|x> in exact rational arithmetic, from the Hamilton table,
    for integer components T (n, n, 4) and x (n, 4)."""
    table = kernels.HAMILTON.astype(int)

    def product(p, q):
        return [sum(int(table[a, b, e]) * p[a] * q[b] for a in range(4) for b in range(4)) for e in range(4)]

    t = [[[int(v) for v in entry] for entry in row] for row in T]
    u = [[int(v) for v in entry] for entry in x]
    conj = [[e[0], -e[1], -e[2], -e[3]] for e in u]
    n = len(u)
    numerator = sum(product(product(conj[r], t[r][c]), u[c])[0] for r in range(n) for c in range(n))
    return Fraction(numerator, sum(v * v for e in u for v in e))


class TestLineReading:
    """A state's frame function read as Re<x|Tx> / <x|x> (LatticeMeasure.lines)."""

    @pytest.mark.parametrize("algebra", ALGEBRAS)
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 33, 64])
    @pytest.mark.parametrize("e", [-20, 0, 20])
    def test_the_reading_agrees_with_the_certified_lattice_reading(self, algebra, n, e):
        rng = SplitMix64(1700 + n)
        mu = measure_from_state(random_density(n, algebra, rng))
        X = random_matrix(n, 12, algebra, rng).comps
        scaled = Matrix(algebra, X * 2.0**e)
        lines = mu.lines(algebra, scaled.comps)
        lattice = mu.evaluate(algebra, Projector.rank_ones(scaled))
        assert np.abs(lines - lattice).max() <= 1e-15
        # x -> 2^e x scales <x|Tx> and <x|x> exactly alike
        assert lines.tobytes() == mu.lines(algebra, X).tobytes()
        assert FrameFunction.from_measure(mu).evaluate(scaled) == lines.tolist()

    @pytest.mark.parametrize("algebra", ALGEBRAS)
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_the_reading_of_integer_data_is_the_exact_ratio_rounded_once(self, algebra, n):
        # small integers keep every product and sum exact, so the one rounding
        # left is the division's
        draw = random.Random(1800 + n).randint
        T = _integer_hermitian(n, algebra, lambda: draw(-3, 3))
        X = np.zeros((n, 9, 4))
        X[..., :algebra.component_count] = [[[draw(-3, 3) for _ in range(algebra.component_count)]
                                             for _ in range(9)] for _ in range(n)]
        X[0, :, 0] = [draw(1, 3) for _ in range(9)]  # no zero column
        exact = [float(_exact_line_value(T, X[:, p])) for p in range(9)]
        assert gleason._line_values(T, X, algebra).tolist() == exact

    @pytest.mark.parametrize("algebra", ALGEBRAS)
    @pytest.mark.parametrize("n", [3, 5, 8, 17, 33, 64])
    def test_each_column_keeps_its_bits_alone_and_over_a_stack_of_states(self, algebra, n):
        rng = SplitMix64(1850 + n)
        states = np.stack([random_density(n, algebra, rng).matrix.comps for _ in range(3)])
        X = np.stack([random_unit_vectors(n, 10, algebra, rng).comps for _ in range(3)])
        stacked = gleason._line_values(states, X, algebra)
        for s in range(3):
            alone = gleason._line_values(states[s], X[s], algebra)
            assert alone.tobytes() == stacked[s].tobytes()
            assert alone[3:4].tobytes() == gleason._line_values(states[s], X[s, :, 3:4], algebra).tobytes()

    @pytest.mark.parametrize("algebra", [Algebra.C, Algebra.H])
    @pytest.mark.parametrize("n", [33, 53, 64])
    def test_the_reading_keeps_its_bits_under_every_ufunc_buffer_size(self, algebra, n):
        rng = SplitMix64(1870 + n)
        mu = measure_from_state(random_density(n, algebra, rng))
        X = random_unit_vectors(n, 20, algebra, rng).comps
        default, read = np.getbufsize(), []
        try:
            for size in (1024, 8192, 65536):
                np.setbufsize(size)
                read.append(mu.lines(algebra, X).tobytes())
        finally:
            np.setbufsize(default)
        assert read[0] == read[1] == read[2]

    @pytest.mark.parametrize("algebra", ALGEBRAS)
    @pytest.mark.parametrize("fault, message", [
        ("zero", "zero input vector"),
        ("nan", "input vector has a non-finite norm"),
        ("inf", "input vector has a non-finite norm"),
    ])
    def test_a_degenerate_column_raises_what_rank_ones_raises(self, algebra, fault, message):
        f = FrameFunction.from_measure(measure_from_state(random_density(3, algebra, SplitMix64(1890))))
        comps = random_matrix(3, 6, algebra, SplitMix64(1891)).comps.copy()
        if fault == "zero":
            comps[:, 4] = 0.0
        else:
            comps[1, 4, 0] = np.nan if fault == "nan" else np.inf
        X = Matrix(algebra, comps)
        for read in (f.evaluate, Projector.rank_ones):
            with pytest.raises(DegenerateInput) as raised:
                read(X)
            assert str(raised.value) == message

    @pytest.mark.parametrize("algebra", [Algebra.R, Algebra.C])
    def test_a_column_outside_the_algebra_is_refused_by_its_matrix(self, algebra):
        f = FrameFunction.from_measure(measure_from_state(random_density(3, algebra, SplitMix64(1892))))
        comps = random_matrix(3, 6, algebra, SplitMix64(1893)).comps.copy()
        comps[1, 4, algebra.component_count] = 0.5
        for read in (f.evaluate, Projector.rank_ones):
            with pytest.raises(AlgebraMismatch) as raised:
                read(Matrix(algebra, comps))
            assert str(raised.value) == f"an entry has components outside {algebra.value}"

    @pytest.mark.parametrize("state, probes", [("C", "R"), ("H", "C"), ("R", "H")])
    def test_probes_of_another_algebra_raise_mixed_algebras(self, state, probes):
        state, probes = Algebra.from_letter(state), Algebra.from_letter(probes)
        mu = measure_from_state(random_density(3, state, SplitMix64(1894)))
        X = random_matrix(3, 4, probes, SplitMix64(1895))
        for read in (FrameFunction.from_measure(mu).evaluate, lambda X: mu.evaluate(probes, Projector.rank_ones(X))):
            with pytest.raises(AlgebraMismatch) as raised:
                read(X)
            assert str(raised.value) == f"mixed algebras {probes.value} and {state.value}"


def _four_block_reconstruction(f, n, algebra, rng=None, verification_probes=100):
    """Reference: the reconstruction with one probe call per block (phase
    invariance, basis, polarization, verification), each check run before the
    next block is probed.  Returns the comps of the rebuilt T."""
    rng = rng or SplitMix64(0x51EA).derive("reconstruct", algebra.value, n)
    units = np.array([q.to_array() for q in (Quaternion.ONE,) + algebra.imaginary_units])

    def probe(X):
        values = np.asarray(f.evaluate(X), dtype=np.float64)
        if values.shape != (X.m,):
            raise NotAFrameFunction(f"oracle returned {values.shape} values for {X.m} probes")
        return values

    m = min(n, 4)
    phase_probes = np.zeros((n, m + 2, 1, 4))
    phase_probes[np.arange(m), np.arange(m), 0, 0] = 1.0
    phase_probes[:, m:, 0] = random_unit_vectors(n, 2, algebra, rng).comps
    phases = linalg.random_phases(10 * (m + 2), algebra, rng).reshape(m + 2, 10, 4)
    turns = linalg._mul_comps(phase_probes, phases)
    block = np.concatenate([phase_probes, turns], axis=2).reshape(n, 11 * (m + 2), 4)
    fx = probe(Matrix(algebra, block)).reshape(m + 2, 11)
    if not (np.abs(fx[:, 1:] - fx[:, :1]) <= 1e-7).all():
        raise NotAFrameFunction("oracle is not phase invariant: |f(xq) - f(x)| > 1e-07")

    diag = probe(Matrix.identity(n, algebra))
    weight = float(diag.sum())
    if not abs(weight - 1.0) <= 1e-7 * n:
        raise NotAFrameFunction(f"basis weight {weight} differs from 1")

    k, l = np.triu_indices(n, 1)
    pairs = np.arange(len(k))
    polar = np.zeros((n, len(k), len(units), 4))
    polar[k, pairs, :, 0] = 1.0
    polar[l, pairs] = units
    polar /= np.sqrt(2.0)
    r = probe(Matrix(algebra, polar.reshape(n, -1, 4))).reshape(len(k), len(units))
    r = r - ((diag[k] + diag[l]) / 2.0)[:, None]
    entries = np.zeros((len(k), 4))
    for u, q in enumerate(units):
        entries = entries + linalg._conj_comps(q) * r[:, u, None]
    comps = np.zeros((n, n, 4))
    comps[np.arange(n), np.arange(n), 0] = diag
    comps[k, l] = entries
    comps[l, k] = linalg._conj_comps(entries)
    T = Matrix(algebra, comps)

    X = random_unit_vectors(n, verification_probes, algebra, rng)
    predicted = (X.comps * (T @ X).comps).sum(axis=(0, 2))
    errors = np.abs(predicted - probe(X))
    failed = np.flatnonzero(~(errors <= 1e-8))
    if failed.size:
        raise NotAFrameFunction(f"oracle is not a quadratic form: probe error {errors[failed[0]]:.3e}")
    return DensityOperator(T).matrix.comps


def _phase_dependent(x: Matrix) -> float:
    return max(x.comps[0, 0, 0], 0.0)


def _weight_two(x: Matrix) -> float:
    return 2.0 * (x.comps[0, 0] ** 2).sum() / (x.comps**2).sum()


def _quartic(x: Matrix) -> float:
    return float(((x.comps[0, 0] ** 2).sum() / (x.comps**2).sum()) ** 2)


class TestReconstruction:
    @pytest.mark.parametrize("algebra", ALGEBRAS)
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16])
    def test_one_probe_call_matches_the_four_block_reference_bit_for_bit(self, algebra, n):
        T = random_density(n, algebra, SplitMix64(960 + n))
        f = FrameFunction.from_measure(measure_from_state(T))
        rng, ref = SplitMix64(970 + n), SplitMix64(970 + n)
        rebuilt = reconstruct_state(f, n, algebra, rng=rng).matrix.comps
        assert rebuilt.tobytes() == _four_block_reconstruction(f, n, algebra, rng=ref).tobytes()
        default = reconstruct_state(f, n, algebra).matrix.comps
        assert default.tobytes() == _four_block_reconstruction(f, n, algebra).tobytes()
        # both streams are left at the same point
        assert rng.gaussian_block(3).tobytes() == ref.gaussian_block(3).tobytes()
        # and the oracle sees the same probes, in the same order
        seen, ref_seen = [], []

        def recording(log):
            return FrameFunction.pointwise(lambda x: log.append(x.comps.tobytes()) or f(x))

        reconstruct_state(recording(seen), n, algebra)
        _four_block_reconstruction(recording(ref_seen), n, algebra)
        assert seen == ref_seen

    @pytest.mark.parametrize("n, probes, name", [
        (0, 100, "n"), (-2, 100, "n"), (3.0, 100, "n"), (True, 100, "n"),
        (3, -1, "verification_probes"), (3, 2.5, "verification_probes"), (3, None, "verification_probes"),
    ])
    def test_a_bad_size_raises_before_anything_is_drawn(self, n, probes, name):
        f = FrameFunction.from_measure(measure_from_state(random_density(3, Algebra.C, SplitMix64(975))))
        rng = SplitMix64(976)
        rng.gaussian_block(1)  # a spare is held
        before = (rng._pos, rng._spare_gauss)
        with pytest.raises(ValueError, match=f"^{name} must be an integer >= "):
            reconstruct_state(f, n, Algebra.C, rng=rng, verification_probes=probes)
        assert (rng._pos, rng._spare_gauss) == before

    def test_an_h_reconstruction_at_n_64_peaks_below_55_mib(self):
        f = FrameFunction.from_measure(measure_from_state(random_density(64, Algebra.H, SplitMix64(979))))
        tracemalloc.start()
        try:
            reconstruct_state(f, 64, Algebra.H)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 55 * 2**20, f"peak {peak / 2**20:.1f} MiB"

    @pytest.mark.parametrize("algebra", ALGEBRAS)
    @pytest.mark.parametrize(
        "oracle, message",
        [(_phase_dependent, "phase invariant"), (_weight_two, "basis weight"), (_quartic, "quadratic form")],
        ids=["phase", "weight", "verification"],
    )
    def test_failing_oracles_raise_the_four_block_reference_message(self, algebra, oracle, message):
        f = FrameFunction.pointwise(oracle)
        with pytest.raises(NotAFrameFunction, match=message) as expected:
            _four_block_reconstruction(f, 3, algebra)
        with pytest.raises(NotAFrameFunction) as raised:
            reconstruct_state(f, 3, algebra)
        assert str(raised.value) == str(expected.value)

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
    def test_opaque_probe_blocks_wider_than_one_chunk_match_pointwise_probes_bit_for_bit(
        self, algebra, monkeypatch
    ):
        n = 5
        T = random_density(n, algebra, SplitMix64(930))
        f = FrameFunction.from_measure(_opaque(measure_from_state(T)))
        X = random_matrix(n, 40, algebra, SplitMix64(931))
        one_by_one = [f(x) for x in X.columns()]
        monkeypatch.setattr(gleason, "_PROBE_CHUNK_ENTRIES", 7 * 4 * n * n)  # 7 columns
        widths = self._spy_rank_ones(monkeypatch)
        assert f.evaluate(X) == one_by_one
        assert widths == [7] * 5 + [5]
        widths.clear()
        block = reconstruct_state(f, n, algebra).matrix.comps
        assert max(widths) == 7 and len(widths) > 4  # the one probe block, cut into chunks
        pointwise = reconstruct_state(FrameFunction.pointwise(f), n, algebra).matrix.comps
        assert np.array_equal(block, pointwise)

    @pytest.mark.parametrize("algebra", ALGEBRAS)
    @pytest.mark.parametrize("n", [3, 4, 5, 8, 16])
    def test_opaque_probe_chunks_stay_within_the_entry_budget_and_one_chunk_up_to_n_5(
        self, algebra, n, monkeypatch
    ):
        T = random_density(n, algebra, SplitMix64(932))
        entries = []
        certify = linalg._certify_projectors

        def spy(stack, idem, tol):
            entries.append(stack.size)
            return certify(stack, idem, tol)

        monkeypatch.setattr(linalg, "_certify_projectors", spy)
        reconstruct_state(FrameFunction.from_measure(_opaque(measure_from_state(T))), n, algebra)
        assert max(entries) <= gleason._PROBE_CHUNK_ENTRIES
        if n <= 5:
            assert len(entries) == 1

    @pytest.mark.parametrize("algebra", ALGEBRAS)
    @pytest.mark.parametrize("opaque", [False, True], ids=["lines", "opaque"])
    def test_frame_function_probe_makes_one_product_per_block(self, algebra, opaque, monkeypatch):
        """A state's line reading makes one product x* T per probe block, with
        every column of the block in one stack; an opaque measure makes none."""
        rng = SplitMix64(61)
        T = random_density(4, algebra, rng)
        x = random_matrix(4, 1, algebra, rng)
        expect = inner(x, T.matrix @ x).real / x.norm() ** 2
        X = random_matrix(4, 50, algebra, rng)
        expect_block = [inner(u, T.matrix @ u).real / u.norm() ** 2 for u in X.columns()]
        mu = measure_from_state(T)
        f = FrameFunction.from_measure(_opaque(mu) if opaque else mu)
        calls = []
        product = kernels.quat_matmul

        def counting(A, B, component_count=4):
            calls.append(A.shape)
            return product(A, B, component_count)

        monkeypatch.setattr(kernels, "quat_matmul", counting)
        value = f(x)
        values = f.evaluate(X)
        assert calls == ([] if opaque else [(1, 1, 4, 4), (50, 1, 4, 4)])
        assert abs(value - expect) < 1e-12
        assert len(values) == 50 and np.abs(np.subtract(values, expect_block)).max() < 1e-12

    @pytest.mark.parametrize("algebra", ALGEBRAS)
    @pytest.mark.parametrize("m", [0, 2, 3])
    def test_f_of_x_needs_one_column(self, algebra, m):
        T = random_density(3, algebra, SplitMix64(65))
        X = random_matrix(3, m, algebra, SplitMix64(66))
        for f in (FrameFunction.from_measure(measure_from_state(T)), FrameFunction.pointwise(lambda x: 0.5)):
            with pytest.raises(ValueError, match=f"n x 1 column, got 3x{m}"):
                f(X)

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
        # 55 phase probes, 3 basis vectors, 3 pairs x 2 units and 100 verification probes
        with pytest.raises(NotAFrameFunction, match="values for 164 probes"):
            reconstruct_state(f, 3, Algebra.C)

    def test_constant_frame_function_gives_uniform_state(self):
        f = FrameFunction.pointwise(lambda x: x.norm() ** 2 / 3.0)
        T = reconstruct_state(f, 3, Algebra.C)
        assert matrices_close(T.matrix, Matrix.identity(3, Algebra.C) * (1.0 / 3.0), tol=1e-10)

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
        assert matrices_close(convex_mix([T], [1.0]).matrix, T.matrix, tol=0.0)

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
            assert matrices_close(pure_state(psi.scale_right(q)).matrix, pure_state(psi).matrix, tol=1e-10)

    def test_real_case_is_up_to_sign(self):
        psi = random_unit_vector(3, Algebra.R, SplitMix64(99))
        assert matrices_close(pure_state(psi.scale_right(-1.0)).matrix, pure_state(psi).matrix, tol=1e-12)

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
        monkeypatch.setattr(kernels, "quat_matmul", counted("quat_matmul", kernels.quat_matmul))
        dim2_counterexample()
        assert calls == []
        # the counters see the per-projector route
        linalg.projector_onto(Matrix.identity(2, Algebra.C))
        assert {"Projector", "projector_onto", "quat_matmul"} <= set(calls)

