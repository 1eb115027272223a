"""Acceptance suite: the numbered exit criteria for the whole package.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all)
and enforces its stated tolerance and, where given, its runtime budget.
"""

import math
import time

import numpy as np

from gleason_lab.gleason import (
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
)
from gleason_lab.linalg import (
    Matrix,
    gram_schmidt,
    random_hermitian,
    random_matrix,
    random_projector,
    random_unit_vector,
    random_unitary,
)
from gleason_lab.quantum import (
    Observable,
    SymmetryOp,
    continuity_scan,
    expectation,
    outcome_measure,
    rotation_group_from_hermitian,
    rotation_group_from_skew,
    std_deviation,
    symmetry_duality_gap,
)
from gleason_lab.rng import SplitMix64
from gleason_lab.scalars import Algebra, Quaternion
from gleason_lab.spectral import abs_op
from gleason_lab.trace import (
    absolute_diagonal_sum,
    check_norm_inequalities,
    full_trace_cyclic_gap,
    quaternionic_trace_formula_check,
    real_trace_cyclic_gap,
    realification_check,
    trace_n,
    trace_norm,
)

ALGEBRAS = (Algebra.R, Algebra.C, Algebra.H)
I, J = Quaternion.I, Quaternion.J


def _report(number: int, label: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:02d} {label}: {status} ({detail})", flush=True)
    assert ok, f"criterion {number} failed: {detail}"


def _random_basis(n, algebra, rng):
    return gram_schmidt(random_matrix(n, n, algebra, rng))


def test_criterion_01_one_dim_trace_witness():
    A = Matrix.from_rows([[J]], Algebra.H)
    basis_one = Matrix.from_rows([[Quaternion.ONE]], Algebra.H)
    basis_i = Matrix.from_rows([[I]], Algebra.H)

    def run():
        return trace_n(A, basis_one), trace_n(A, basis_i)

    run()  # warm the kernels before timing
    elapsed = []
    for _ in range(5):
        t0 = time.perf_counter()
        over_one, over_i = run()
        elapsed.append(time.perf_counter() - t0)
    err = max(abs(over_one - J), abs(over_i - (-J)))
    best = min(elapsed)
    ok = err <= 1e-14 and best < 1e-3
    _report(1, "1-dim trace witness j vs -j", ok, f"error {err:.1e}, {best * 1e6:.0f} us")


def test_criterion_02_antisymmetric_witness_all_sizes():
    rng = SplitMix64(2025)
    worst = 0.0
    for n in (2, 4, 8, 16):
        comps = np.zeros((n, n, 4))
        for b in range(n // 2):
            comps[2 * b, 2 * b + 1, 0] = -1.0
            comps[2 * b + 1, 2 * b, 0] = 1.0
        A = Matrix(Algebra.R, comps)
        worst = max(worst, (abs_op(A) - Matrix.identity(n, Algebra.R)).max_abs())
        worst = max(worst, abs(trace_norm(A) - n))
        for _ in range(20):
            worst = max(worst, absolute_diagonal_sum(A, _random_basis(n, Algebra.R, rng)))
    _report(2, "real antisymmetric witness |A|=I with zero sums", worst <= 1e-10,
            f"max residual {worst:.2e}")


def test_criterion_03_adapted_basis_trace_identity():
    rng = SplitMix64(3)
    t0 = time.perf_counter()
    worst = 0.0
    for n in (2, 3, 5, 8):
        for _ in range(50):
            A = random_matrix(n, n, Algebra.H, rng)
            for unit in (I, J):
                check = quaternionic_trace_formula_check(A, unit)
                worst = max(worst, check.residual / (1.0 + trace_norm(A)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 10.0
    _report(3, "adapted-basis trace identity, 200 matrices x 2 units", ok,
            f"max scaled residual {worst:.2e}, {elapsed:.1f} s")


def test_criterion_04_real_cyclicity_with_honest_full_gaps():
    rng = SplitMix64(4)
    worst_real = 0.0
    big_full_gaps = 0
    for _ in range(1000):
        n = 1 + rng.integer(8)
        A = random_matrix(n, n, Algebra.H, rng)
        B = random_matrix(n, n, Algebra.H, rng)
        worst_real = max(worst_real, real_trace_cyclic_gap(A, B))
        if full_trace_cyclic_gap(A, B) > 1e-3:
            big_full_gaps += 1
    ok = worst_real < 1e-10 and big_full_gaps >= 900
    _report(4, "real-trace cyclicity over 1000 quaternionic pairs", ok,
            f"max real gap {worst_real:.2e}, full gap large in {big_full_gaps / 10:.1f}%")


def test_criterion_05_gleason_round_trip_matrix():
    rng = SplitMix64(5)
    t0 = time.perf_counter()
    worst_err = 0.0
    worst_add = 0.0
    worst_range = 0.0
    for algebra in ALGEBRAS:
        for n in (3, 4, 5, 8):
            for _ in range(50):
                T = random_density(n, algebra, rng)
                mu = measure_from_state(T)
                rebuilt = reconstruct_state(FrameFunction.from_measure(mu), n, algebra, rng=rng)
                worst_err = max(worst_err, (rebuilt.matrix - T.matrix).max_abs())
            for _ in range(10):
                mu = measure_from_state(random_density(n, algebra, rng))
                parts = random_orthogonal_decomposition(n, algebra, rng)
                worst_add = max(worst_add, abs(sum(mu(P) for P in parts) - 1.0))
                value = mu(random_projector(n, 1 + rng.integer(n), algebra, rng))
                worst_range = max(worst_range, -value, value - 1.0)
    elapsed = time.perf_counter() - t0
    ok = worst_err <= 1e-8 and worst_add <= 1e-9 and worst_range <= 1e-10 and elapsed < 60.0
    _report(5, "measure/state round trip over 3 algebras x 4 dims x 50 states", ok,
            f"entry {worst_err:.2e}, additivity {worst_add:.2e}, range {worst_range:.2e}, {elapsed:.1f} s")


def test_criterion_06_extremality_dichotomy_and_lemma():
    rng = SplitMix64(6)
    ok_pure = 0
    for _ in range(100):
        n = 3 + rng.integer(4)
        algebra = ALGEBRAS[rng.integer(3)]
        if is_extremal(pure_state(random_unit_vector(n, algebra, rng))):
            ok_pure += 1
    ok_mixed = 0
    worst_split = 0.0
    for _ in range(100):
        n = 3 + rng.integer(4)
        algebra = ALGEBRAS[rng.integer(3)]
        rank = 2 + rng.integer(n - 1)
        T = random_density(n, algebra, rng, rank=rank)
        if not is_extremal(T):
            ok_mixed += 1
            w, T1, T2 = extremal_split(T)
            mixed = convex_mix([T1, T2], [w, 1.0 - w])
            worst_split = max(worst_split, (mixed.matrix - T.matrix).max_abs())
    violations = 0
    checked = 0
    for _ in range(10_000):
        count = 2 + rng.integer(6)
        raw = rng.uniform_block(count)
        ps = raw / raw.sum()
        if ps.min() <= 0.0 or ps.max() >= 1.0:
            continue
        qs = np.ones(count) if rng.uniform() < 0.5 else 1.0 - rng.uniform_block(count)
        checked += 1
        if not convex_unit_lemma(list(ps), list(qs)):
            violations += 1
    ok = ok_pure == 100 and ok_mixed == 100 and worst_split <= 1e-8 and violations == 0
    _report(6, "extremality dichotomy and convex unit lemma", ok,
            f"pure {ok_pure}/100, mixed {ok_mixed}/100, split {worst_split:.2e}, "
            f"lemma violations {violations}/{checked}")


def test_criterion_07_dim2_measure_not_trace_backed():
    mu, cert = dim2_counterexample(probes=100)
    ok = cert.additivity_gap <= 1e-12 and abs(cert.identity_value - 1.0) <= 1e-12 \
        and cert.best_fit_max_error > 0.05
    _report(7, "dim-2 additive measure defeats every trace form", ok,
            f"additivity {cert.additivity_gap:.1e}, best-fit error {cert.best_fit_max_error:.3f}")


def test_criterion_08_quantum_layer_identities():
    rng = SplitMix64(8)
    worst_dual = 0.0
    for algebra in ALGEBRAS:
        for _ in range(200):
            n = 2 + rng.integer(4)
            A = Observable(random_hermitian(n, algebra, rng))
            T = random_density(n, algebra, rng)
            dist = outcome_measure(A, T)
            worst_dual = max(worst_dual, abs(expectation(A, T) - dist.mean()))
            moment_dev = math.sqrt(max(dist.second_moment() - dist.mean() ** 2, 0.0))
            worst_dual = max(worst_dual, abs(std_deviation(A, T) - moment_dev))
    worst_sym = 0.0
    for algebra in ALGEBRAS:
        for trial in range(200):
            n = 2 + rng.integer(4)
            A = random_matrix(n, n, algebra, rng)
            B = random_matrix(n, n, algebra, rng)
            anti = algebra is Algebra.C and trial % 2 == 1
            sym = SymmetryOp(random_unitary(n, algebra, rng), antiunitary=anti)
            worst_sym = max(worst_sym, symmetry_duality_gap(A, B, sym))
    trend_ok = True
    jump_text = []
    for algebra in ALGEBRAS:
        A = random_matrix(3, 3, algebra, rng)
        T = random_density(3, algebra, rng)
        if algebra is Algebra.R:
            G = random_matrix(3, 3, algebra, rng)
            path = rotation_group_from_skew((G - G.adjoint()) * 0.5)
        else:
            unit = I if algebra is Algebra.C else Quaternion(0, 0.6, 0.0, 0.8)
            path = rotation_group_from_hermitian(random_hermitian(3, algebra, rng), unit)
        jumps = [continuity_scan(A, T, path, 1000 * 2**k).max_jump for k in range(3)]
        jump_text.append("/".join(f"{j:.1e}" for j in jumps))
        trend_ok = trend_ok and jumps[1] <= 0.75 * jumps[0] and jumps[2] <= 0.75 * jumps[1]
    ok = worst_dual <= 1e-8 and worst_sym <= 1e-9 and trend_ok
    _report(8, "quantum layer: duals, symmetries, continuity", ok,
            f"moments {worst_dual:.2e}, symmetry {worst_sym:.2e}, jumps {'; '.join(jump_text)}")


def test_criterion_09_norm_inequalities_bulk():
    rng = SplitMix64(9)
    worst = 0.0
    for algebra in ALGEBRAS:
        for _ in range(1000):
            n = 2 + rng.integer(7)
            A = random_matrix(n, n, algebra, rng)
            B = random_matrix(n, n, algebra, rng)
            rep = check_norm_inequalities(A, B)
            worst = max(
                worst,
                -min(rep.slack_ab, 0.0),
                -min(rep.slack_ba, 0.0),
                abs(rep.adjoint_gap),
                -min(rep.op_vs_trace_slack, 0.0),
            )
    _report(9, "trace-norm inequalities, 1000 pairs per algebra", worst <= 1e-9,
            f"worst violation {worst:.2e}")


def test_criterion_10_realification_quarter_rule():
    rng = SplitMix64(10)
    worst = 0.0
    for _ in range(200):
        n = 1 + rng.integer(6)
        A = random_matrix(n, n, Algebra.H, rng)
        check = realification_check(A)
        worst = max(worst, check.trace_norm_gap, check.trace_gap)
    _report(10, "realified trace norm is four times the quaternionic one", worst <= 1e-9,
            f"max gap {worst:.2e}")
