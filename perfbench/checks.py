"""Independent checkers for the benchmark's workloads.

Every checker recomputes the expected answer with numpy alone, from the raw
(n, m, 4) component arrays the program stores, and never calls the program's
own spectral code.  A quaternionic matrix A = A1 + A2 j is checked through its
complex form

    chi(A) = [[ A1,        A2       ],
              [ -conj(A2), conj(A1) ]],

a *-homomorphism that doubles every eigenvalue and every singular value, so
traces, trace norms and spectra over H are halved after they are computed on
chi(A).  Real and complex matrices use A1 alone.

Each checker returns a list of problems; an empty list means the output is
correct.
"""

from __future__ import annotations

import numpy as np

ROUND_TRIP_TOL = 1e-8
STATE_TOL = 1e-8
ADAPTED_TOL = 1e-8
NORMS_REL_TOL = 1e-9
NORMS_HOLD_TOL = 1e-9


def complex_form(comps: np.ndarray, letter: str) -> tuple[np.ndarray, float]:
    """(chi(A) or A1, factor that undoes the doubling) for (n, m, 4) components."""
    c = np.asarray(comps, dtype=np.float64)
    a1 = c[..., 0] + 1j * c[..., 1]
    if letter != "H":
        return a1, 1.0
    a2 = c[..., 2] + 1j * c[..., 3]
    return np.block([[a1, a2], [-a2.conj(), a1.conj()]]), 0.5


def _svals(X: np.ndarray) -> np.ndarray:
    return np.linalg.svd(X, compute_uv=False)


def check_round_trip(source: np.ndarray, rebuilt: np.ndarray, letter: str) -> list[str]:
    """Rebuilt state equals its source entrywise and is a certified state."""
    problems = []
    entry_err = float(np.sqrt(((rebuilt - source) ** 2).sum(axis=-1)).max())
    if not entry_err <= ROUND_TRIP_TOL:
        problems.append(f"entry error {entry_err:.3e} > {ROUND_TRIP_TOL}")
    X, factor = complex_form(rebuilt, letter)
    herm = float(np.abs(X - X.conj().T).max())
    if not herm <= STATE_TOL:
        problems.append(f"hermitian defect {herm:.3e} > {STATE_TOL}")
    evals = np.linalg.eigvalsh((X + X.conj().T) / 2)
    if not evals.min() >= -STATE_TOL:
        problems.append(f"eigenvalue {evals.min():.3e} < -{STATE_TOL}")
    trace = float(evals.sum()) * factor
    if not abs(trace - 1.0) <= STATE_TOL:
        problems.append(f"real trace {trace!r} differs from 1")
    return problems


def _adjoint(A: np.ndarray) -> np.ndarray:
    out = np.transpose(A, (1, 0, 2)).copy()
    out[..., 1:] *= -1.0
    return out


def check_adapted_identity(A: np.ndarray, unit: np.ndarray, basis_trace: np.ndarray,
                           residual: float, tolerance: float) -> list[str]:
    """tr_N(A) = Re tr(A) + (u/2) tr|A - A*| on the program's adapted basis."""
    problems = []
    if not residual <= tolerance:
        problems.append(f"program residual {residual:.3e} > tolerance {tolerance:.3e}")
    n = A.shape[0]
    real_trace = float(A[np.arange(n), np.arange(n), 0].sum())
    Xs, half = complex_form(A - _adjoint(A), "H")
    skew_norm = float(_svals(Xs).sum()) * half
    XA, _ = complex_form(A, "H")
    a_norm = float(_svals(XA).sum()) * half
    expected = np.asarray(unit, dtype=np.float64) * (skew_norm / 2.0)
    expected[0] += real_trace
    err = float(np.linalg.norm(np.asarray(basis_trace, dtype=np.float64) - expected))
    bound = ADAPTED_TOL * (1.0 + a_norm)
    if not err <= bound:
        problems.append(
            f"basis trace misses Re tr(A) + (u/2) tr|A - A*| by {err:.3e} > {bound:.3e}")
    return problems


def norm_slacks(A: np.ndarray, B: np.ndarray, letter: str) -> dict[str, float]:
    """The four normalised slacks of check_norm_inequalities, from numpy SVDs."""
    XA, factor = complex_form(A, letter)
    XB, _ = complex_form(B, letter)

    def trace_norm(X):
        return float(_svals(X).sum()) * factor

    a1 = trace_norm(XA)
    b_op = float(_svals(XB).max())
    a_op = float(_svals(XA).max())
    scale = max(1.0, a1 * max(1.0, b_op))
    return {
        "slack_ab": (a1 * b_op - trace_norm(XA @ XB)) / scale,
        "slack_ba": (a1 * b_op - trace_norm(XB @ XA)) / scale,
        "adjoint_gap": (trace_norm(XA.conj().T) - a1) / max(1.0, a1),
        "op_vs_trace_slack": (a1 - a_op) / max(1.0, a1),
    }


def check_norms(A: np.ndarray, B: np.ndarray, letter: str, reported: dict[str, float]) -> list[str]:
    """Reported slacks match numpy's within 1e-9 relative, and all four inequalities hold."""
    problems = []
    expected = norm_slacks(A, B, letter)
    for key, want in expected.items():
        got = float(reported[key])
        if not abs(got - want) <= NORMS_REL_TOL * max(1.0, abs(want)):
            problems.append(f"{key} = {got!r}, numpy gives {want!r}")
    holds = (
        expected["slack_ab"] >= -NORMS_HOLD_TOL
        and expected["slack_ba"] >= -NORMS_HOLD_TOL
        and abs(expected["adjoint_gap"]) <= NORMS_HOLD_TOL
        and expected["op_vs_trace_slack"] >= -NORMS_HOLD_TOL
    )
    if not holds:
        problems.append(f"a trace-norm inequality fails: {expected}")
    return problems


def expected_skips(properties: list[dict], letters: list[str], dims: list[int]) -> set[tuple]:
    """(name, algebra, dim) cells that the registry's applicability rules skip."""
    skipped = set()
    for prop in properties:
        for letter in letters:
            for dim in dims:
                only = prop["only_dims"]
                if (letter not in prop["algebras"]
                        or (only is not None and dim not in only)
                        or dim < prop["min_dim"]):
                    skipped.add((prop["name"], letter, dim))
    return skipped


def check_suite(report: dict, exit_code: int, claims: list[str], properties: list[dict],
                letters: list[str], dims: list[int], seed: int) -> tuple[int, int, list[str]]:
    """(cells attempted, cells failed, problems) for one `gleason-lab run` report."""
    problems = []
    records = report["records"]
    ran = [r for r in records if r["passed"] is not None]
    failed = [r for r in ran if r["passed"] is not True]
    if failed and exit_code == 0:
        problems.append("exit code 0 despite failed records")
    if not failed and exit_code != 0:
        problems.append(f"exit code {exit_code} without failed records")
    grid = {(p["name"], letter, dim) for p in properties for letter in letters for dim in dims}
    seen = [(r["name"], r["algebra"], r["dim"]) for r in records]
    if len(seen) != len(set(seen)) or set(seen) != grid or any(r["seed"] != seed for r in records):
        problems.append("records do not cover the (property, algebra, dim) grid exactly once")
    skipped = {(r["name"], r["algebra"], r["dim"]) for r in records if r["passed"] is None}
    want = expected_skips(properties, letters, dims)
    if skipped != want:
        problems.append(f"skipped cells differ from the registry's rules: "
                        f"extra {sorted(skipped - want)}, missing {sorted(want - skipped)}")
    passed_names = {r["name"] for r in ran if r["passed"] is True}
    missing = sorted(set(claims) - passed_names)
    if missing:
        problems.append(f"claims without a passed record: {missing}")
    return len(ran), len(failed), problems
