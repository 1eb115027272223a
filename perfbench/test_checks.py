"""Tests of the benchmark itself: each checker accepts the program's real
output and rejects a deliberately wrong one, the tracer reaches every binding
and leaves the program as it found it, and BENCHMARK.json names exactly the
metrics the benchmark prints.

    python3 -m pytest perfbench -q
"""

import contextlib
import io
import json

import numpy as np
import pytest

import run  # puts src/ on the path and pins BLAS before numpy work starts
import checks
import tracer
import workloads
from gleason_lab import cli, gleason, linalg, spectral, suite, trace
from gleason_lab.linalg import Matrix
from gleason_lab.rng import SplitMix64
from gleason_lab.scalars import Algebra, Quaternion


def test_round_trip_checker_rejects_a_perturbed_entry():
    state = gleason.random_density(3, Algebra.H, SplitMix64(5))
    f = gleason.FrameFunction.from_measure(gleason.measure_from_state(state))
    rebuilt = gleason.reconstruct_state(f, 3, Algebra.H).matrix.comps
    assert checks.check_round_trip(state.matrix.comps, rebuilt, "H") == []

    wrong = rebuilt.copy()
    wrong[0, 1, 2] += 1e-6
    wrong[1, 0, 2] -= 1e-6  # still Hermitian: only the entry check can see it
    problems = checks.check_round_trip(state.matrix.comps, wrong, "H")
    assert len(problems) == 1 and problems[0].startswith("entry error")


def test_round_trip_checker_rejects_a_state_with_the_wrong_trace():
    state = gleason.random_density(4, Algebra.C, SplitMix64(6))
    wrong = state.matrix.comps * 1.5
    problems = checks.check_round_trip(state.matrix.comps, wrong, "C")
    assert any(p.startswith("real trace") for p in problems)


@pytest.mark.parametrize("unit", [Quaternion.I, Quaternion.J])
def test_adapted_checker_rejects_a_flipped_sign_on_the_half_skew_term(unit):
    A = Matrix(Algebra.H, np.random.default_rng(3).standard_normal((4, 4, 4)))
    result = trace.quaternionic_trace_formula_check(A, unit)
    basis_trace = result.basis_trace.to_array()
    u = unit.to_array()
    residual, tolerance = result.residual, result.tolerance
    assert checks.check_adapted_identity(A.comps, u, basis_trace, residual, tolerance) == []

    flipped = basis_trace.copy()
    flipped[1:] *= -1.0  # Re tr(A) - (u/2) tr|A - A*|
    problems = checks.check_adapted_identity(A.comps, u, flipped, residual, tolerance)
    assert len(problems) == 1 and problems[0].startswith("basis trace misses")

    problems = checks.check_adapted_identity(A.comps, u, basis_trace, 2 * tolerance, tolerance)
    assert len(problems) == 1 and problems[0].startswith("program residual")


@pytest.mark.parametrize("letter", ["R", "C", "H"])
def test_norms_checker_rejects_a_doubled_trace_norm(letter, monkeypatch):
    (case,) = [c for c in workloads.NormsLarge(4).cases if c[0].value == letter][:1]
    algebra, A, B = case
    good = trace.check_norm_inequalities(A, B)
    reported = {k: getattr(good, k) for k in workloads.NORM_KEYS}
    assert checks.check_norms(A.comps, B.comps, letter, reported) == []

    honest = trace.trace_norm
    monkeypatch.setattr(trace, "trace_norm", lambda M: 2.0 * honest(M))
    bad = trace.check_norm_inequalities(A, B)
    reported = {k: getattr(bad, k) for k in workloads.NORM_KEYS}
    problems = checks.check_norms(A.comps, B.comps, letter, reported)
    # the product slacks are ratios of trace norms; ||A|| against ||A||_1 is not
    assert any(p.startswith("op_vs_trace_slack") for p in problems)


@pytest.fixture(scope="module")
def suite_run():
    """A real report of the suite workload's grid (one trial per cell), its exit
    code, and a checker bound to that grid."""
    seed = 2
    argv = ["run", "--algebra", *workloads.Suite.LETTERS, "--dim", *map(str, workloads.Suite.DIMS),
            "--trials", "1", "--format", "json", "--seed", str(seed)]
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    out.flush()
    claims, rules = workloads.claim_names(), workloads.registry_rules()

    def check(report, exit_code):
        return checks.check_suite(report, exit_code, claims, rules,
                                  workloads.Suite.LETTERS, workloads.Suite.DIMS, seed)

    return json.loads(out.buffer.getvalue()), code, check


def test_suite_checker_accepts_a_real_report(suite_run):
    report, code, check = suite_run
    attempted, failed, problems = check(report, code)
    assert (failed, problems) == (0, [])
    assert attempted == sum(r["passed"] is not None for r in report["records"]) > 100


def test_suite_checker_rejects_a_missing_claim(suite_run):
    report, code, check = suite_run
    missing = "gleason.round_trip"
    cut = dict(report, records=[r for r in report["records"] if r["name"] != missing])
    _, _, problems = check(cut, code)
    assert any(missing in p and p.startswith("claims without") for p in problems)


def test_suite_checker_counts_failed_records_and_checks_the_skips(suite_run):
    report, code, check = suite_run
    records = [dict(r) for r in report["records"]]
    next(r for r in records if r["name"] == "trace.real_cyclicity")["passed"] = False
    _, failed, problems = check(dict(report, records=records), 1)
    assert failed == 1 and problems == []
    _, _, problems = check(dict(report, records=records), 0)
    assert problems == ["exit code 0 despite failed records"]

    records = [dict(r) for r in report["records"]]
    skipped = next(r for r in records
                   if r["name"] == "gleason.dim2_obstruction" and r["passed"] is None)
    skipped["passed"], skipped["max_residual"] = True, 0.0
    _, _, problems = check(dict(report, records=records), code)
    assert any(p.startswith("skipped cells differ") for p in problems)


def test_tracer_wraps_every_binding_and_restores_the_originals():
    def bindings():
        return (linalg.inner, spectral.inner, gleason.inner, linalg.Matrix.__init__,
                suite.REGISTRY)

    originals = bindings()
    tr = tracer.Tracer()
    with tr.installed():
        assert spectral.inner is linalg.inner is gleason.inner is not originals[0]
        A = Matrix(Algebra.H, np.random.default_rng(1).standard_normal((3, 3, 4)))
        trace.quaternionic_trace_formula_check(A, Quaternion.I)
    assert all(now is before for now, before in zip(bindings(), originals))
    values = tr.metrics(1, [], 0.0)
    assert values["trace.quaternionic_trace_formula_check.calls"] == 1
    assert values["spectral.adapted_basis.calls"] == 1
    assert values["linalg.inner.calls"] > 0 and values["linalg.Matrix.new.calls"] > 0
    assert values["trace.quaternionic_trace_formula_check.eigh_per_call"] == 2
    assert values["trace.quaternionic_trace_formula_check.self_s"] >= 0.0


def test_benchmark_json_names_exactly_the_printed_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    names = [p.name for p in suite.REGISTRY]
    listed = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert listed == tracer.per_layer_metrics(names)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
