import math
import tracemalloc
import warnings

import numpy as np
import pytest

from gleason_lab import quantum
from gleason_lab.errors import AlgebraMismatch, DegenerateInput, NotHermitian, NotUnitary
from gleason_lab.gleason import DensityOperator, pure_state, random_density
from gleason_lab.linalg import (
    Matrix,
    Projector,
    inner,
    is_positive,
    random_hermitian,
    random_matrix,
    random_unit_vector,
    random_unitary,
)
from gleason_lab.quantum import (
    Observable,
    OutcomeMeasure,
    SymmetryOp,
    apply_function,
    continuity_scan,
    expectation,
    outcome_measure,
    pvm_of,
    rotation_group_from_hermitian,
    rotation_group_from_skew,
    std_deviation,
    symmetry_duality_gap,
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
from gleason_lab.trace import (
    check_norm_inequalities,
    quaternionic_trace_formula_check,
    real_pairing,
    real_trace,
    realification_check,
    trace_norm,
)

from conftest import ALGEBRAS, conjugate_state, matrices_close

I, J = Quaternion.I, Quaternion.J


class TestPVM:
    def test_identity_has_one_atom(self):
        pvm = pvm_of(Observable(Matrix.identity(3, Algebra.H)))
        assert len(pvm.atoms) == 1
        value, proj = pvm.atoms[0]
        assert math.isclose(value, 1.0)
        assert proj.rank == 3

    def test_two_point_spectrum(self):
        pvm = pvm_of(Observable(Matrix.diag([1.0, -1.0], Algebra.C)))
        assert sorted(pvm.eigenvalues) == [-1.0, 1.0]
        for _, proj in pvm.atoms:
            assert proj.rank == 1

    def test_borel_sets_as_atom_unions(self):
        # P_E for a Borel set E is the sum of the atoms whose eigenvalue lies in E
        A = Observable(Matrix.diag([2.0, 2.0, -1.0, 5.0], Algebra.C))
        pvm = pvm_of(A)
        positive = Projector(sum((P.matrix for s, P in pvm.atoms if s > 0), Matrix.zeros(4, 4, Algebra.C)))
        assert positive.rank == 3
        assert matrices_close(positive.matrix, Matrix.diag([1.0, 1.0, 0.0, 1.0], Algebra.C), tol=1e-10)
        assert matrices_close(pvm.total(), Matrix.identity(4, Algebra.C), tol=1e-10)

    @pytest.mark.parametrize("algebra", ALGEBRAS)
    def test_small_spectrum_keeps_its_atoms(self, algebra):
        # atoms are merged relative to the largest eigenvalue, so a spectrum
        # far below 1 is not collapsed into one atom
        pvm = pvm_of(Observable(Matrix.diag([1e-9, 2e-9, 3e-9], algebra)))
        assert np.allclose(sorted(pvm.eigenvalues), [1e-9, 2e-9, 3e-9], rtol=1e-9, atol=0.0)
        assert [proj.rank for _, proj in pvm.atoms] == [1, 1, 1]

    @pytest.mark.parametrize("algebra", ALGEBRAS)
    def test_partition_laws(self, algebra):
        rng = SplitMix64(110)
        A = Observable(random_hermitian(5, algebra, rng))
        pvm = pvm_of(A)
        ident = Matrix.identity(5, algebra)
        assert (pvm.total() - ident).max_abs() < 1e-8
        for s1, P1 in pvm.atoms:
            for s2, P2 in pvm.atoms:
                expected = P1.matrix if s1 == s2 else Matrix.zeros(5, 5, algebra)
                assert (P1.matrix @ P2.matrix - expected).max_abs() < 1e-8

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            Observable(Matrix.from_rows([[0.0, 1.0], [0.0, 0.0]], Algebra.R))

    @pytest.mark.parametrize("algebra, component", [(Algebra.R, 1), (Algebra.C, 2)])
    def test_rejects_a_hermitian_matrix_stored_outside_its_algebra_at_construction(self, algebra, component):
        # Hermitian over the next algebra up (i or j in the off-diagonal
        # entries), so the ratio test passes it; the Matrix constructor refuses
        # it, and the stacked guard refuses it as a raw stack entry
        comps = np.zeros((2, 2, 4))
        comps[0, 0, 0], comps[1, 1, 0] = 1.0, -1.0
        comps[0, 1, component], comps[1, 0, component] = 0.5, -0.5
        assert Matrix(Algebra.H, comps).is_hermitian()
        with pytest.raises(AlgebraMismatch, match=f"outside {algebra.value}"):
            Observable(Matrix(algebra, comps))
        stack = np.stack([np.eye(2)[..., None] * [1.0, 0.0, 0.0, 0.0]] * 2 + [comps])
        with pytest.raises(AlgebraMismatch, match=r"\(stack entry 2\)"):
            quantum._check_observables(stack, algebra)


class TestFunctionalCalculus:
    def test_identity_function(self):
        rng = SplitMix64(111)
        A = Observable(random_hermitian(4, Algebra.H, rng))
        assert (apply_function(A, lambda t: t).matrix - A.matrix).max_abs() < 1e-9

    def test_constant_one_gives_identity(self):
        rng = SplitMix64(112)
        A = Observable(random_hermitian(3, Algebra.C, rng))
        assert matrices_close(apply_function(A, lambda t: 1.0).matrix, Matrix.identity(3, Algebra.C), tol=1e-9)

    @pytest.mark.parametrize("algebra", ALGEBRAS)
    def test_square_matches_matrix_product(self, algebra):
        rng = SplitMix64(113)
        A = Observable(random_hermitian(4, algebra, rng))
        square = apply_function(A, lambda t: t * t).matrix
        assert (square - A.matrix @ A.matrix).max_abs() <= 1e-8 * max(1.0, A.matrix.max_abs() ** 2)

    def test_quadratic_form_matches_spectral_sum(self):
        rng = SplitMix64(114)
        A = Observable(random_hermitian(4, Algebra.H, rng))
        x = random_unit_vector(4, Algebra.H, rng)
        f = lambda t: t * t * t - 2.0 * t
        fA = apply_function(A, f)
        total = sum(
            f(s) * (P.matrix @ x).norm() ** 2 for s, P in pvm_of(A).atoms
        )
        assert math.isclose(inner(x, fA.matrix @ x).real, total, abs_tol=1e-9)


class TestOutcomeStatistics:
    def test_uniform_state_weights_by_rank(self):
        A = Observable(Matrix.diag([3.0, 3.0, -1.0], Algebra.C))
        T = DensityOperator(Matrix.identity(3, Algebra.C) * (1.0 / 3.0))
        dist = outcome_measure(A, T)
        probs = dict((round(s, 9), p) for s, p in dist.support)
        assert math.isclose(probs[3.0], 2.0 / 3.0, abs_tol=1e-10)
        assert math.isclose(probs[-1.0], 1.0 / 3.0, abs_tol=1e-10)

    def test_point_mass_at_an_eigenvector(self):
        rng = SplitMix64(115)
        A = Observable(random_hermitian(4, Algebra.H, rng))
        dec = A.decomposition
        T = pure_state(dec.basis.col(0))
        dist = outcome_measure(A, T)
        top = max(dist.support, key=lambda sp: sp[1])
        assert math.isclose(top[1], 1.0, abs_tol=1e-9)
        assert abs(top[0] - float(dec.values[0])) < 1e-7 * max(1.0, abs(dec.values[0]))

    @pytest.mark.parametrize("algebra", ALGEBRAS)
    def test_probabilities_sum_to_one(self, algebra):
        rng = SplitMix64(116)
        for _ in range(10):
            A = Observable(random_hermitian(4, algebra, rng))
            T = random_density(4, algebra, rng)
            dist = outcome_measure(A, T)
            assert math.isclose(dist.total(), 1.0, abs_tol=1e-9)
            assert all(-1e-10 <= p <= 1.0 + 1e-10 for _, p in dist.support)

    @pytest.mark.parametrize("algebra", ALGEBRAS)
    def test_atom_probabilities_are_the_real_pairings_bit_for_bit(self, algebra):
        rng = SplitMix64(118)
        A = Observable(random_hermitian(5, algebra, rng))
        T = random_density(5, algebra, rng)
        expect = sorted((s, real_pairing(P.matrix, T.matrix)) for s, P in pvm_of(A).atoms)
        assert outcome_measure(A, T).support == tuple(expect)

    @pytest.mark.parametrize("p", [math.nan, -0.5, 1.5])
    def test_a_probability_outside_the_unit_interval_is_rejected(self, p):
        with pytest.raises(ValueError):
            OutcomeMeasure(((1.0, 0.5), (2.0, p)))

    def test_support_is_sorted_by_eigenvalue(self):
        rng = SplitMix64(117)
        A = Observable(random_hermitian(4, Algebra.C, rng))
        T = random_density(4, Algebra.C, rng)
        values = [s for s, _ in outcome_measure(A, T).support]
        assert values == sorted(values)


class TestExpectationAndDeviation:
    def test_identity_observable(self):
        T = random_density(3, Algebra.H, SplitMix64(118))
        assert math.isclose(expectation(Observable(Matrix.identity(3, Algebra.H)), T), 1.0, abs_tol=1e-10)

    def test_eigenvector_state_gives_eigenvalue_and_zero_deviation(self):
        rng = SplitMix64(119)
        A = Observable(random_hermitian(4, Algebra.C, rng))
        dec = A.decomposition
        T = pure_state(dec.basis.col(1))
        assert math.isclose(expectation(A, T), float(dec.values[1]), abs_tol=1e-8)
        assert std_deviation(A, T) < 1e-6

    def test_fair_coin_deviation(self):
        A = Observable(Matrix.diag([1.0, -1.0], Algebra.C))
        T = DensityOperator(Matrix.identity(2, Algebra.C) * 0.5)
        assert math.isclose(std_deviation(A, T), 1.0, abs_tol=1e-10)

    @pytest.mark.parametrize("algebra", ALGEBRAS)
    def test_trace_and_moment_formulas_agree(self, algebra):
        rng = SplitMix64(120)
        for _ in range(20):
            A = Observable(random_hermitian(4, algebra, rng))
            T = random_density(4, algebra, rng)
            dist = outcome_measure(A, T)
            assert math.isclose(expectation(A, T), dist.mean(), abs_tol=1e-8)
            moment_dev = math.sqrt(max(dist.second_moment() - dist.mean() ** 2, 0.0))
            assert math.isclose(std_deviation(A, T), moment_dev, abs_tol=1e-8)

    def test_pure_state_formulas(self):
        rng = SplitMix64(121)
        for algebra in ALGEBRAS:
            A = Observable(random_hermitian(4, algebra, rng))
            psi = random_unit_vector(4, algebra, rng)
            T = pure_state(psi)
            direct = inner(psi, A.matrix @ psi).real
            assert math.isclose(expectation(A, T), direct, abs_tol=1e-9)
            second = inner(psi, (A.matrix @ A.matrix) @ psi).real
            assert math.isclose(
                std_deviation(A, T), math.sqrt(max(second - direct**2, 0.0)), abs_tol=1e-9
            )


class TestSymmetries:
    def test_identity_symmetry_has_zero_gap(self):
        rng = SplitMix64(122)
        A = random_matrix(3, 3, Algebra.H, rng)
        B = random_matrix(3, 3, Algebra.H, rng)
        assert symmetry_duality_gap(A, B, SymmetryOp(Matrix.identity(3, Algebra.H))) < 1e-12

    @pytest.mark.parametrize("algebra", ALGEBRAS)
    def test_schroedinger_heisenberg_agreement(self, algebra):
        rng = SplitMix64(123)
        for _ in range(20):
            P = random_matrix(4, 4, algebra, rng)
            T = random_density(4, algebra, rng)
            U = random_unitary(4, algebra, rng)
            assert symmetry_duality_gap(P, T.matrix, SymmetryOp(U)) < 1e-9

    def test_antiunitary_symmetries_over_c(self):
        rng = SplitMix64(124)
        for _ in range(20):
            A = random_matrix(3, 3, Algebra.C, rng)
            B = random_matrix(3, 3, Algebra.C, rng)
            sym = SymmetryOp(random_unitary(3, Algebra.C, rng), antiunitary=True)
            assert symmetry_duality_gap(A, B, sym) < 1e-9

    @pytest.mark.parametrize("algebra, anti", [(Algebra.R, False), (Algebra.C, False), (Algebra.C, True),
                                               (Algebra.H, False)], ids=["R", "C", "C-anti", "H"])
    def test_dual_transform_is_the_real_trace_adjoint_of_transform_state(self, algebra, anti):
        # Re tr(A U B U^-1) = Re tr(U^-1 A U B), each side through the public methods
        rng = SplitMix64(121)
        for _ in range(10):
            A = random_matrix(4, 4, algebra, rng)
            B = random_matrix(4, 4, algebra, rng)
            sym = SymmetryOp(random_unitary(4, algebra, rng), antiunitary=anti)
            lhs = real_trace(A @ sym.transform_state(B))
            rhs = real_trace(sym.dual_transform(A) @ B)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))
            if not anti:
                U = sym.unitary
                assert matrices_close(sym.dual_transform(A), U.adjoint() @ A @ U, 1e-12)

    def test_antiunitary_rejected_outside_c(self):
        with pytest.raises(ValueError):
            SymmetryOp(Matrix.identity(2, Algebra.H), antiunitary=True)

    def test_non_unitary_rejected(self):
        with pytest.raises(NotUnitary):
            SymmetryOp(Matrix.diag([2.0, 1.0], Algebra.C))

    def test_isometry_that_is_not_square_is_rejected(self):
        # orthonormal columns pass U*U = I, but a symmetry must be square
        U = random_unitary(3, Algebra.C, SplitMix64(126))
        with pytest.raises(NotUnitary):
            SymmetryOp(Matrix(Algebra.C, U.comps[:, :2]))

    def test_conjugated_states_remain_states(self):
        rng = SplitMix64(125)
        for algebra in ALGEBRAS:
            T = random_density(4, algebra, rng)
            U = random_unitary(4, algebra, rng)
            moved = conjugate_state(SymmetryOp(U), T)
            assert math.isclose(real_trace(moved.matrix), 1.0, abs_tol=1e-9)


def _random_group_path(n, algebra, rng):
    if algebra is Algebra.R:
        G = random_matrix(n, n, algebra, rng)
        return rotation_group_from_skew((G - G.adjoint()) * 0.5)
    unit = I if algebra is Algebra.C else Quaternion(0, 0.6, 0.0, 0.8)
    return rotation_group_from_hermitian(random_hermitian(n, algebra, rng), unit)


class TestGroupPathsAndContinuity:
    def test_group_law_complex(self):
        rng = SplitMix64(126)
        H = random_hermitian(3, Algebra.C, rng)
        path = rotation_group_from_hermitian(H, I)
        for (s, t) in ((0.2, 0.5), (0.3, 0.9)):
            assert (path(s) @ path(t) - path(s + t)).max_abs() < 1e-9
        ident = Matrix.identity(3, Algebra.C)
        assert (path(0.0) - ident).max_abs() < 1e-12
        assert (path(0.4).adjoint() @ path(0.4) - ident).max_abs() < 1e-9

    @pytest.mark.parametrize("unit", [Quaternion.J, Quaternion(0, 0.6, 0.0, 0.8)], ids=["j", "i-and-k"])
    def test_complex_path_rejects_a_unit_outside_c(self, unit):
        # the C product reads components 0-1 only, so a j or k phase would be lost
        H = random_hermitian(3, Algebra.C, SplitMix64(126))
        with pytest.raises(AlgebraMismatch):
            rotation_group_from_hermitian(H, unit)

    @pytest.mark.parametrize("unit", [Quaternion(0, 2), Quaternion(1), Quaternion(0.5, 0.5, 0.5, 0.5)],
                             ids=["2i", "1", "(1+i+j+k)/2"])
    @pytest.mark.parametrize("algebra", [Algebra.C, Algebra.H])
    def test_path_rejects_a_unit_that_is_not_a_unit_imaginary(self, algebra, unit):
        # exp(u x) = cos x + u sin x is unitary, and splits T~ by its slice, only where u^2 = -1
        H = random_hermitian(3, algebra, SplitMix64(126))
        with pytest.raises(ValueError, match="imag_unit must be a unit imaginary quaternion"):
            rotation_group_from_hermitian(H, unit)

    def test_group_law_quaternionic(self):
        rng = SplitMix64(127)
        H = random_hermitian(3, Algebra.H, rng)
        path = rotation_group_from_hermitian(H, Quaternion(0, 0.6, 0.0, 0.8))
        assert (path(0.25) @ path(0.5) - path(0.75)).max_abs() < 1e-9

    def test_group_law_real_skew(self):
        rng = SplitMix64(128)
        G = random_matrix(4, 4, Algebra.R, rng)
        W = (G - G.adjoint()) * 0.5
        path = rotation_group_from_skew(W)
        ident = Matrix.identity(4, Algebra.R)
        assert (path(0.0) - ident).max_abs() < 1e-10
        assert (path(0.3) @ path(0.4) - path(0.7)).max_abs() < 1e-9
        assert (path(0.5).adjoint() @ path(0.5) - ident).max_abs() < 1e-9

    def test_constant_path_has_zero_variation(self):
        # a zero generator has every phase exactly 1, so every U_t has the same bits
        rng = SplitMix64(129)
        A = random_matrix(3, 3, Algebra.C, rng)
        T = random_density(3, Algebra.C, rng)
        path = rotation_group_from_hermitian(Matrix.zeros(3, 3, Algebra.C), I)
        report = continuity_scan(A, T, path, 50)
        assert report.max_jump == 0.0

    @pytest.mark.parametrize("n", [1, 3, 8])
    @pytest.mark.parametrize("algebra", ALGEBRAS)
    def test_stack_entries_equal_the_one_time_path(self, algebra, n):
        rng = SplitMix64(133)
        path = _random_group_path(n, algebra, rng)
        ts = np.linspace(-0.5, 1.5, 37)
        stack = path.stack(ts)
        assert stack.shape == (ts.size, n, n, 4)
        for p, t in enumerate(ts):
            assert np.array_equal(stack[p], path(float(t)).comps)

    @pytest.mark.parametrize("n", [1, 3, 8, 33])
    @pytest.mark.parametrize("algebra", ALGEBRAS)
    def test_scan_values_match_a_per_sample_reference(self, algebra, n):
        # the closed form in the eigenbasis rounds like the per-sample products
        # only up to the order of additions, so the bound is relative, at 1e-14
        rng = SplitMix64(134)
        A = random_matrix(n, n, algebra, rng)
        T = random_density(n, algebra, rng)
        path = _random_group_path(n, algebra, rng)
        ts = np.linspace(-1.5, 2.5, 65)
        reference = []
        for t in ts:
            U = path(float(t))
            reference.append(real_pairing(A @ U @ T.matrix, U.adjoint()))
        reference = np.array(reference)
        values = quantum._orbit_values(A, T, path, ts)
        assert np.abs(values - reference).max() <= 1e-14 * max(1.0, np.abs(reference).max())

    @pytest.mark.parametrize("n", [1, 3, 8])
    @pytest.mark.parametrize("algebra", ALGEBRAS)
    def test_scan_wider_than_one_chunk_keeps_every_value(self, algebra, n):
        # each value reads only its own time, so a scan cut into chunks of
        # 7 samples keeps every value of the whole scan bit for bit
        rng = SplitMix64(135)
        A = random_matrix(n, n, algebra, rng)
        T = random_density(n, algebra, rng)
        path = _random_group_path(n, algebra, rng)
        ts = np.linspace(0.0, 1.0, 101)
        whole = quantum._orbit_values(A, T, path, ts)
        chunks = [quantum._orbit_values(A, T, path, ts[i : i + 7]) for i in range(0, ts.size, 7)]
        assert len(chunks) > 1
        assert np.array_equal(np.concatenate(chunks), whole)

    @pytest.mark.parametrize("n", [1, 3, 8])
    @pytest.mark.parametrize("algebra", ALGEBRAS)
    def test_scans_of_64_128_and_256_steps_are_read_off_one_orbit(self, algebra, n):
        # linspace(0, 1, 65) and linspace(0, 1, 129) are every 4th and every
        # 2nd time of linspace(0, 1, 257), bit for bit, and each value reads
        # only its own time: the continuity trend's three scans are one orbit
        rng = SplitMix64(137)
        A = random_matrix(n, n, algebra, rng)
        T = random_density(n, algebra, rng)
        path = _random_group_path(n, algebra, rng)
        times = np.linspace(0.0, 1.0, 257)
        orbit = quantum._orbit_values(A, T, path, times)
        for step, samples in ((4, 64), (2, 128), (1, 256)):
            ts = np.linspace(0.0, 1.0, samples + 1)
            assert np.array_equal(times[::step], ts)
            assert np.array_equal(orbit[::step], quantum._orbit_values(A, T, path, ts))
            jump = float(np.abs(np.diff(orbit[::step])).max(initial=0.0))
            assert jump == continuity_scan(A, T, path, samples).max_jump

    @pytest.mark.parametrize("algebra", ALGEBRAS)
    def test_scan_forms_no_stack_of_u_t(self, algebra):
        # one n = 64 scan of 257 samples: a stack of its U_t alone would hold 64 MiB
        rng = SplitMix64(136)
        A = random_matrix(64, 64, algebra, rng)
        T = random_density(64, algebra, rng)
        path = _random_group_path(64, algebra, rng)
        ts = np.linspace(0.0, 1.0, 257)
        tracemalloc.start()
        try:
            quantum._orbit_values(A, T, path, ts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20

    def test_commuting_generator_freezes_the_orbit(self):
        # a state built from the generator's own eigenprojectors commutes with
        # every U_t, so the sampled orbit map is constant
        rng = SplitMix64(130)
        H = random_hermitian(3, Algebra.C, rng)
        path = rotation_group_from_hermitian(H, I)
        atoms = pvm_of(Observable(H)).atoms
        weights = np.array([0.5, 0.3, 0.2])[: len(atoms)]
        weights = weights / weights.sum()
        diag = Matrix.zeros(3, 3, Algebra.C)
        for w, (_, P) in zip(weights, atoms):
            diag = diag + P.matrix * (float(w) / P.rank)
        T = DensityOperator(diag)
        report = continuity_scan(H, T, path, 40)
        assert report.max_jump < 1e-12

    @pytest.mark.parametrize("algebra, unit", [(Algebra.C, I), (Algebra.H, Quaternion(0, 0.6, 0.0, 0.8))])
    def test_scan_matches_a_real_trace_reference(self, algebra, unit):
        rng = SplitMix64(132)
        A = random_matrix(3, 3, algebra, rng)
        T = random_density(3, algebra, rng)
        path = rotation_group_from_hermitian(random_hermitian(3, algebra, rng), unit)
        samples = 60
        values = []
        for t in np.linspace(0.0, 1.0, samples + 1):
            U = path(float(t))
            values.append(real_trace(A @ U @ T.matrix @ U.adjoint()))
        report = continuity_scan(A, T, path, samples)
        assert abs(report.max_jump - np.abs(np.diff(values)).max()) < 1e-12
        assert abs(report.value_range[0] - min(values)) < 1e-12
        assert abs(report.value_range[1] - max(values)) < 1e-12

    def test_refinement_halves_the_jumps(self):
        rng = SplitMix64(131)
        A = random_matrix(3, 3, Algebra.C, rng)
        T = random_density(3, Algebra.C, rng)
        H = random_hermitian(3, Algebra.C, rng)
        path = rotation_group_from_hermitian(H, I)
        jumps = [continuity_scan(A, T, path, 100 * 2**k).max_jump for k in range(3)]
        assert jumps[1] < 0.75 * jumps[0]
        assert jumps[2] < 0.75 * jumps[1]


@pytest.mark.parametrize(
    "make, error",
    [
        (Projector, ValueError),
        (Observable, NotHermitian),
        (SymmetryOp, NotUnitary),
        (DensityOperator, NotHermitian),
        (eig_hermitian, NotHermitian),
        (eigvals_hermitian, NotHermitian),
        (Matrix.is_hermitian, None),
        (is_positive, None),
        (Projector.rank_ones, DegenerateInput),
        (trace_norm, NotHermitian),
        (op_norm, NotHermitian),
        (singular_values, NotHermitian),
        (abs_op, NotHermitian),
        (lambda A: check_norm_inequalities(A, Matrix.identity(3, A.algebra)), NotHermitian),
        (lambda B: check_norm_inequalities(Matrix.identity(3, B.algebra), B), NotHermitian),
    ],
    ids=["Projector", "Observable", "SymmetryOp", "DensityOperator", "eig_hermitian",
         "eigvals_hermitian", "is_hermitian", "is_positive", "rank_ones", "trace_norm", "op_norm",
         "singular_values", "abs_op", "norm_inequalities_A", "norm_inequalities_B"],
)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("where", ["every entry", "one off-diagonal entry"])
@pytest.mark.parametrize("algebra", ALGEBRAS)
def test_validators_reject_non_finite_entries(make, error, bad, where, algebra):
    comps = np.zeros((3, 3, 4))
    if where == "every entry":
        comps[..., 0] = bad
    else:
        comps[0, 1, 0] = bad
    if error is None:  # a predicate: it must answer False, not raise
        assert make(Matrix(algebra, comps)) is False
    else:
        with pytest.raises(error):
            make(Matrix(algebra, comps))


@pytest.mark.parametrize(
    "make, algebra, error",
    [
        (realification_check, Algebra.H, NotHermitian),
        (make_J, Algebra.H, NotHermitian),
        (lambda A: quaternionic_trace_formula_check(A, I), Algebra.H, NotHermitian),
        (lambda J_: adapted_basis(J_, I), Algebra.H, ValueError),
        (rotation_group_from_skew, Algebra.R, ValueError),
    ],
    ids=["realification_check", "make_J", "quaternionic_trace_formula_check", "adapted_basis",
         "rotation_group_from_skew"],
)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("where", ["every entry", "one off-diagonal entry"])
def test_single_algebra_entry_points_reject_non_finite_entries(make, algebra, error, bad, where):
    # a typed error before any arithmetic; tier-1 turns a numpy warning into a failure
    comps = np.zeros((3, 3, 4))
    if where == "every entry":
        comps[..., 0] = bad
    else:
        comps[0, 1, 0] = bad
    with pytest.raises(error):
        make(Matrix(algebra, comps))


@pytest.mark.parametrize(
    "make, error",
    [
        (Projector, ValueError),
        (Observable, NotHermitian),
        (SymmetryOp, NotUnitary),
        (DensityOperator, NotHermitian),
        (eig_hermitian, NotHermitian),
        (eigvals_hermitian, NotHermitian),
        (Matrix.is_hermitian, None),
        (Projector.rank_ones, DegenerateInput),
    ],
    ids=["Projector", "Observable", "SymmetryOp", "DensityOperator", "eig_hermitian",
         "eigvals_hermitian", "is_hermitian", "rank_ones"],
)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("where", ["every entry", "one off-diagonal entry", "one diagonal entry"])
@pytest.mark.parametrize("algebra", ALGEBRAS)
def test_validators_reject_non_finite_entries_without_a_numpy_warning(make, error, bad, where, algebra):
    # the rejection comes from a finiteness check before any arithmetic, so
    # the caller gets the typed error and no warning about the internals
    comps = np.zeros((3, 3, 4))
    if where == "every entry":
        comps[..., 0] = bad
    elif where == "one off-diagonal entry":
        comps[0, 1, 0] = bad
    else:
        comps[1, 1, 0] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if error is None:  # a predicate: it must answer False, not raise
            assert make(Matrix(algebra, comps)) is False
        else:
            with pytest.raises(error):
                make(Matrix(algebra, comps))
