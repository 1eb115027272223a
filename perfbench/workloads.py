"""The benchmark's four workloads.

A workload is built from the benchmark seed during set-up; the program then
receives only the generated inputs.  One round is the workload's fixed job,
run as a closed loop with one caller: each check starts when the previous one
has returned.  Program calls go through module attributes, so that the
tracer's wrappers see them.  ``run_round`` returns the round's CheckTimer and
the raw outputs, which ``verify`` hands to the independent checkers in
``checks`` and counts into a Tally.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
from pathlib import Path

import numpy as np

import gleason_lab
from gleason_lab import cli, gleason, suite, trace
from gleason_lab.linalg import Matrix
from gleason_lab.rng import SplitMix64
from gleason_lab.scalars import Algebra, Quaternion

import checks
from speed import CheckTimer

ALGEBRAS = (Algebra.R, Algebra.C, Algebra.H)
NORM_KEYS = ("slack_ab", "slack_ba", "adjoint_gap", "op_vs_trace_slack")


@dataclasses.dataclass
class Tally:
    """Checks attempted and failed; a failed check either raised (errors) or
    returned an output the independent checker rejected (wrong)."""

    attempted: int = 0
    failed: int = 0
    errors: list = dataclasses.field(default_factory=list)
    wrong: list = dataclasses.field(default_factory=list)

    def add(self, result, check) -> None:
        """Count one check whose program result is `result`; `check()` lists its problems."""
        self.attempted += 1
        if isinstance(result, Exception):
            self.failed += 1
            self.errors.append(f"{type(result).__name__}: {result}")
            return
        problems = check()
        if problems:
            self.failed += 1
            self.wrong += problems


def claim_names() -> list[str]:
    """Names of the claims shipped in claims.json."""
    path = Path(gleason_lab.__file__).with_name("claims.json")
    return [c["name"] for c in json.loads(path.read_text())]


def registry_rules() -> list[dict]:
    """Each registered property's name and applicability rules."""
    return [{"name": p.name, "algebras": p.algebras, "min_dim": p.min_dim, "only_dims": p.only_dims}
            for p in suite.REGISTRY]


class Suite:
    """`gleason-lab run --algebra R C H --dim 2 3 --trials 10 --format json`.

    The smallest configuration that gives every claim in claims.json a cell;
    the dimension-2 obstruction runs only at dim 2.  One check is one
    non-skipped property cell, timed by a wrapper around its runner.
    """

    LETTERS = ["R", "C", "H"]
    DIMS = [2, 3]
    BLAS_WEIGHT = 0.0  # object-heavy: small matrices, Python-bound

    def __init__(self, seed: int):
        self.seed = seed
        self.argv = ["run", "--algebra", *self.LETTERS, "--dim", *map(str, self.DIMS),
                     "--trials", "10", "--format", "json", "--seed", str(seed)]
        self.claims = claim_names()
        self.properties = registry_rules()
        self._timer = CheckTimer(self.BLAS_WEIGHT)
        suite.REGISTRY = tuple(
            dataclasses.replace(p, runner=self._timed(p.runner)) for p in suite.REGISTRY
        )

    def _timed(self, runner):
        def timed(cell):
            return self._timer.run(runner, cell)

        return timed

    def run_round(self):
        self._timer = CheckTimer(self.BLAS_WEIGHT)
        out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
        with contextlib.redirect_stdout(out):
            code = cli.main(self.argv)
        out.flush()
        return self._timer, (code, out.buffer.getvalue())

    def verify(self, outputs, tally: Tally) -> None:
        code, blob = outputs
        attempted, failed, wrong = checks.check_suite(json.loads(blob), code, self.claims,
                                                      self.properties, self.LETTERS, self.DIMS,
                                                      self.seed)
        tally.attempted += attempted
        tally.failed += failed
        tally.wrong += wrong


class RoundTrip:
    """Criterion 5: state -> lattice measure -> frame function -> rebuilt state.

    One source state per (algebra, n), drawn with random_density in set-up.
    """

    DIMS = (3, 4, 5, 8)
    BLAS_WEIGHT = 0.0  # object-heavy: small matrices, Python-bound

    def __init__(self, seed: int):
        rng = SplitMix64(seed)
        self.cases = [(a, n, gleason.random_density(n, a, rng))
                      for a in ALGEBRAS for n in self.DIMS]

    @staticmethod
    def _round_trip(state, n, algebra):
        f = gleason.FrameFunction.from_measure(gleason.measure_from_state(state))
        return gleason.reconstruct_state(f, n, algebra)

    def run_round(self):
        timer, outputs = CheckTimer(self.BLAS_WEIGHT), []
        for algebra, n, state in self.cases:
            try:
                rebuilt = timer.run(self._round_trip, state, n, algebra)
            except Exception as exc:  # an operation failure, counted and reported
                rebuilt = exc
            outputs.append((algebra, state, rebuilt))
        return timer, outputs

    def verify(self, outputs, tally: Tally) -> None:
        for algebra, state, rebuilt in outputs:
            tally.add(rebuilt, lambda: checks.check_round_trip(
                state.matrix.comps, rebuilt.matrix.comps, algebra.value))


class AdaptedIdentity:
    """Criterion 3: tr_N(A) = Re tr(A) + (u/2) tr|A - A*| on an adapted basis.

    Gaussian quaternionic matrices, PER_SIZE at each n, with the units i and j.
    n = 4 joins criterion 3's sizes so that there are five equal groups of
    checks: with four, the median fell between the n = 3 and n = 5 groups and
    jumped between them from run to run.
    """

    DIMS = (2, 3, 4, 5, 8)
    PER_SIZE = 3
    UNITS = (Quaternion.I, Quaternion.J)
    BLAS_WEIGHT = 0.0  # object-heavy: small matrices, Python-bound

    def __init__(self, seed: int):
        g = np.random.default_rng(seed % 2**63)
        self.cases = [Matrix(Algebra.H, g.standard_normal((n, n, 4)))
                      for n in self.DIMS for _ in range(self.PER_SIZE)]

    def run_round(self):
        timer, outputs = CheckTimer(self.BLAS_WEIGHT), []
        for A in self.cases:
            for unit in self.UNITS:
                try:
                    result = timer.run(trace.quaternionic_trace_formula_check, A, unit)
                except Exception as exc:  # an operation failure, counted and reported
                    result = exc
                outputs.append((A, unit, result))
        return timer, outputs

    def verify(self, outputs, tally: Tally) -> None:
        for A, unit, result in outputs:
            tally.add(result, lambda: checks.check_adapted_identity(
                A.comps, unit.to_array(), result.basis_trace.to_array(),
                result.residual, result.tolerance))


class NormsLarge:
    """check_norm_inequalities(A, B) over R, C and H at n in {32, 64}.

    A and B are Gaussian matrices shifted by 3 sqrt(n k) I, where k is the
    number of real components per entry, so every singular value of A, B, AB
    and BA lies within a factor of about 25 of the largest.  Unshifted Gaussian
    products are not used: their smallest singular values fall below the
    program's trace-norm clamp on some seeds (see CHANGES.md, FOUND).
    """

    DIMS = (32, 64)
    PER_SIZE = 2
    BLAS_WEIGHT = 0.5  # LAPACK eigh and quat_matmul take about half its time

    def __init__(self, seed: int):
        g = np.random.default_rng(seed % 2**63)
        self.cases = []
        for algebra in ALGEBRAS:
            k = algebra.component_count
            for n in self.DIMS:
                for _ in range(self.PER_SIZE):
                    pair = []
                    for _ in range(2):
                        comps = np.zeros((n, n, 4))
                        comps[..., :k] = g.standard_normal((n, n, k))
                        comps[np.arange(n), np.arange(n), 0] += 3.0 * np.sqrt(n * k)
                        pair.append(Matrix(algebra, comps))
                    self.cases.append((algebra, *pair))

    def run_round(self):
        timer, outputs = CheckTimer(self.BLAS_WEIGHT), []
        for algebra, A, B in self.cases:
            try:
                report = timer.run(trace.check_norm_inequalities, A, B)
            except Exception as exc:  # an operation failure, counted and reported
                report = exc
            outputs.append((algebra, A, B, report))
        return timer, outputs

    def verify(self, outputs, tally: Tally) -> None:
        for algebra, A, B, report in outputs:
            tally.add(report, lambda: checks.check_norms(
                A.comps, B.comps, algebra.value, {key: getattr(report, key) for key in NORM_KEYS}))


WORKLOADS = {
    "suite": Suite,
    "round_trip": RoundTrip,
    "adapted_identity": AdaptedIdentity,
    "norms_large": NormsLarge,
}
