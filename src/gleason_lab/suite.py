"""Batch verification harness.

Every mathematical claim the package implements is registered here as a
named property with a one-line statement of the law it checks, a runner that
returns a worst-case residual for a given (algebra, dimension, seed) cell,
and a tolerance.  ``run_suite`` executes the whole matrix deterministically;
``emit_report`` serializes the outcome.  The registry doubles as the coverage
manifest shipped in ``claims.json``.

Most runners are written per trial: ``trial(cell, t)`` draws trial ``t`` from
``cell.rng`` and returns its residual terms (possibly none), and
``_per_trial`` turns it into the cell runner, which runs the trials in order
on the one stream.  The residual of a cell is the worst of its terms,
``max(0.0, *terms)`` taken in order by ``_worst``, so a term <= 0 counts for
nothing.  A NaN term makes the residual NaN, and ``run_suite`` records any
non-finite residual as a failure with no residual.
"""

from __future__ import annotations

import fnmatch
import json
import math
from collections.abc import Callable, Iterable
from dataclasses import asdict, dataclass, field, fields
from importlib import resources

import numpy as np

from . import __version__ as _version
from . import gleason as gl
from . import quantum as qm
from . import spectral as sp
from . import trace as tr
from .linalg import (
    Matrix,
    inner,
    random_hermitian,
    random_matrix,
    random_phase,
    random_projector,
    random_unit_imaginary,
    random_unit_vector,
    random_unitary,
)
from .rng import SplitMix64
from .scalars import Algebra, Quaternion


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_int_list(v) -> bool:
    return isinstance(v, list) and all(_is_int(x) for x in v)


# the JSON type that RunConfig.from_json requires of each value, and how it names it
_JSON_TYPES = {
    "algebras": (lambda v: isinstance(v, list), "a list"),
    "dims": (_is_int_list, "a list of integers"),
    "seeds": (_is_int_list, "a list of integers"),
    "trials": (_is_int, "an integer"),
    "tolerances": (lambda v: isinstance(v, dict)
                   and all(_is_int(x) or isinstance(x, float) for x in v.values()),
                   "an object of numbers"),
    "only": (lambda v: v is None or isinstance(v, str), "a string or null"),
}


@dataclass(frozen=True)
class RunConfig:
    algebras: tuple[str, ...] = ("R", "C", "H")
    dims: tuple[int, ...] = (3,)
    seeds: tuple[int, ...] = (0,)
    trials: int = 10
    tolerances: dict = field(default_factory=dict)
    only: str | None = None

    def __post_init__(self):
        if any(d < 1 for d in self.dims):
            raise ValueError("dimensions must be >= 1")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        for letter in self.algebras:
            if letter not in ("R", "C", "H"):
                raise ValueError(f"unknown algebra {letter!r}, expected R, C or H")
        for name in ("algebras", "dims", "seeds"):
            values = getattr(self, name)
            if len(set(values)) != len(values):
                raise ValueError(f"duplicate {name}: {list(values)}")
        known = {prop.name for prop in REGISTRY}
        unknown = sorted(set(self.tolerances) - known)
        if unknown:
            raise ValueError(f"tolerances name no registered property: {', '.join(unknown)}")
        non_finite = sorted(k for k, v in self.tolerances.items() if not math.isfinite(float(v)))
        if non_finite:
            raise ValueError(f"tolerances must be finite: {', '.join(non_finite)}")

    def to_json(self) -> dict:
        return {
            "algebras": list(self.algebras),
            "dims": list(self.dims),
            "seeds": list(self.seeds),
            "trials": self.trials,
            "tolerances": dict(self.tolerances),
            "only": self.only,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "RunConfig":
        """The config of a ``to_json`` object; absent keys keep the field defaults.

        Each value must have its JSON type (``_JSON_TYPES``), and a boolean is
        not a number; lists become tuples.
        """
        if not isinstance(obj, dict):
            raise ValueError(f"config must be a JSON object, got {obj!r}")
        unknown = sorted(set(obj) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        for key, value in obj.items():
            valid, kind = _JSON_TYPES[key]
            if not valid(value):
                raise ValueError(f"config {key} must be {kind}, got {value!r}")
        return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in obj.items()})


@dataclass
class Cell:
    """One (algebra, dim, seed) execution context handed to a property runner."""

    algebra: Algebra
    dim: int
    rng: SplitMix64
    trials: int


@dataclass(frozen=True)
class PropertyDef:
    name: str
    law: str
    runner: object
    algebras: tuple[str, ...] = ("R", "C", "H")
    min_dim: int = 1
    only_dims: tuple[int, ...] | None = None
    tol: float = 1e-9


@dataclass(frozen=True)
class PropertyRecord:
    name: str
    law: str
    algebra: str
    dim: int
    seed: int
    trials: int
    max_residual: float | None
    tolerance: float
    passed: bool | None
    skip_reason: str | None = None
    error: str | None = None

    def to_json(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class SuiteReport:
    records: tuple[PropertyRecord, ...]
    config: dict
    version: str

    @property
    def counts(self) -> dict:
        passed = sum(1 for r in self.records if r.passed is True)
        failed = sum(1 for r in self.records if r.passed is False)
        skipped = sum(1 for r in self.records if r.passed is None)
        return {"passed": passed, "failed": failed, "skipped": skipped, "total": len(self.records)}

    @property
    def all_passed(self) -> bool:
        return not any(r.passed is False for r in self.records)

    def to_json(self) -> dict:
        return {
            "version": self.version,
            "config": self.config,
            "summary": self.counts,
            "records": [r.to_json() for r in self.records],
        }


# ---------------------------------------------------------------------------
# property runners; each returns a worst-case residual (smaller is better)
# ---------------------------------------------------------------------------

Terms = Iterable[float]


def _worst(terms: Terms) -> float:
    """max(0.0, *terms), taken in order, or NaN as soon as a term is NaN (Python's
    max drops a NaN that is not its first argument)."""
    peak = 0.0
    for term in terms:
        if math.isnan(term):
            return math.nan
        peak = max(peak, term)
    return peak


def _per_trial(trial: Callable[[Cell, int], Terms]) -> Callable[[Cell], float]:
    """The cell runner of ``trial(cell, t)``: trials t = 0 .. cell.trials - 1 run
    in order on ``cell.rng``, and the residual is the worst of all their terms."""

    def runner(cell: Cell) -> float:
        return _worst(term for t in range(cell.trials) for term in trial(cell, t))

    return runner


def _basis_gap(A: Matrix, cell: Cell) -> float:
    """|tr_N(A) in one random orthonormal basis - tr_N(A) in the next one drawn|."""
    t0 = tr.trace_n(A, random_unitary(cell.dim, cell.algebra, cell.rng))
    t1 = tr.trace_n(A, random_unitary(cell.dim, cell.algebra, cell.rng))
    return abs(t0 - t1)


def _basis_invariance(draw: Callable[[Cell], Matrix]) -> Callable[[Cell], float]:
    """Per trial, the basis-trace gap of one operator from ``draw``."""
    return _per_trial(lambda cell, t: (_basis_gap(draw(cell), cell),))


_run_basis_invariance_rc = _basis_invariance(lambda c: random_matrix(c.dim, c.dim, c.algebra, c.rng))
_run_hermitian_invariance_h = _basis_invariance(lambda c: random_hermitian(c.dim, c.algebra, c.rng))


@_per_trial
def _run_nonhermitian_dependence_h(cell: Cell, t: int) -> Terms:
    # A failing-to-be-invariant witness must exist: the term is the shortfall
    # of the best basis-trace gap found below the 1e-3 detection threshold.
    A = random_matrix(cell.dim, cell.dim, cell.algebra, cell.rng)
    if (A - A.adjoint()).max_abs() < 0.1:
        return ()
    return (1e-3 - _worst(_basis_gap(A, cell) for _ in range(6)),)


@_per_trial
def _run_real_trace_invariance(cell: Cell, t: int) -> Terms:
    A = random_matrix(cell.dim, cell.dim, cell.algebra, cell.rng)
    base = tr.real_trace(A)
    bases = (random_unitary(cell.dim, cell.algebra, cell.rng) for _ in range(3))
    return [abs(tr.trace_n(A, U).real - base) for U in bases]


@_per_trial
def _run_real_cyclicity(cell: Cell, t: int) -> Terms:
    A = random_matrix(cell.dim, cell.dim, cell.algebra, cell.rng)
    B = random_matrix(cell.dim, cell.dim, cell.algebra, cell.rng)
    return (tr.real_trace_cyclic_gap(A, B) / (1.0 + tr.trace_norm(A) * sp.op_norm(B)),)


@_per_trial
def _run_norm_inequalities(cell: Cell, t: int) -> Terms:
    A = random_matrix(cell.dim, cell.dim, cell.algebra, cell.rng)
    B = random_matrix(cell.dim, cell.dim, cell.algebra, cell.rng)
    rep = tr.check_norm_inequalities(A, B)
    return -rep.slack_ab, -rep.slack_ba, abs(rep.adjoint_gap), -rep.op_vs_trace_slack


@_per_trial
def _run_adapted_trace_formula(cell: Cell, t: int) -> Terms:
    A = random_matrix(cell.dim, cell.dim, cell.algebra, cell.rng)
    scale = 1.0 + tr.trace_norm(A)
    units = (Quaternion.I, random_unit_imaginary(cell.algebra, cell.rng))
    return [tr.quaternionic_trace_formula_check(A, unit).residual / scale for unit in units]


@_per_trial
def _run_diagonal_basis_cyclicity(cell: Cell, t: int) -> Terms:
    A = random_hermitian(cell.dim, cell.algebra, cell.rng)
    B = random_matrix(cell.dim, cell.dim, cell.algebra, cell.rng)
    basis = sp.eig_hermitian(A).basis
    gap = tr.full_trace_cyclic_gap(A, B, basis)
    BH = (B + B.adjoint()) * 0.5
    full = tr.trace_n(A @ BH, basis)
    return gap, abs(full - Quaternion(full.real))


@_per_trial
def _run_projector_sandwich(cell: Cell, t: int) -> Terms:
    A = random_hermitian(cell.dim, cell.algebra, cell.rng)
    rank = 1 + cell.rng.integer(cell.dim)
    P = random_projector(cell.dim, rank, cell.algebra, cell.rng)
    lhs = tr.real_trace(P.matrix @ A)
    sandwiched = P.matrix @ A @ P.matrix
    full = tr.trace_n(sandwiched, Matrix.identity(cell.dim, cell.algebra))
    return abs(lhs - tr.real_trace(sandwiched)), abs(full - Quaternion(full.real))


@_per_trial
def _run_linearity_star(cell: Cell, t: int) -> Terms:
    A = random_matrix(cell.dim, cell.dim, cell.algebra, cell.rng)
    B = random_matrix(cell.dim, cell.dim, cell.algebra, cell.rng)
    a = cell.rng.gaussian()
    b = cell.rng.gaussian()
    lin = tr.real_trace(A * a + B * b) - a * tr.real_trace(A) - b * tr.real_trace(B)
    star = tr.real_trace(A.adjoint()) - tr.real_trace(A)
    return abs(lin), abs(star)


@_per_trial
def _run_positivity_monotonicity(cell: Cell, t: int) -> Terms:
    C = random_matrix(cell.dim, cell.dim, cell.algebra, cell.rng)
    D = random_matrix(cell.dim, cell.dim, cell.algebra, cell.rng)
    B = random_hermitian(cell.dim, cell.algebra, cell.rng)
    A = B + D.adjoint() @ D  # A >= B by construction
    return -tr.real_trace(C.adjoint() @ C), tr.real_trace(B) - tr.real_trace(A)


@_per_trial
def _run_absolute_sum_bound(cell: Cell, t: int) -> Terms:
    A = random_matrix(cell.dim, cell.dim, cell.algebra, cell.rng)
    bound = tr.trace_norm(A)
    bases = (random_unitary(cell.dim, cell.algebra, cell.rng) for _ in range(3))
    return [(tr.absolute_diagonal_sum(A, U) - bound) / max(1.0, bound) for U in bases]


@_per_trial
def _run_realification_quarter(cell: Cell, t: int) -> Terms:
    check = tr.realification_check(random_matrix(cell.dim, cell.dim, cell.algebra, cell.rng))
    scale = 1.0 + check.trace_norm_h
    return check.trace_norm_gap / scale, check.trace_gap / scale


def _j_on_h1() -> list[Matrix]:
    """Left multiplication by j on H^1, with the bases {1} and {i}."""
    return [Matrix.from_rows([[q]], Algebra.H) for q in (Quaternion.J, Quaternion.ONE, Quaternion.I)]


def _cyclicity_witness(n: int) -> list[Matrix]:
    """diag(i, 0, ..., 0) and diag(j, 0, ..., 0) on H^n."""
    return [Matrix.diag([q] + [0.0] * (n - 1), Algebra.H) for q in (Quaternion.I, Quaternion.J)]


def _run_witness_basis_dependent_trace(cell: Cell) -> float:
    # the trace is +j in the basis {1} and -j in the basis {i}
    A, one, i_basis = _j_on_h1()
    return _worst((abs(tr.trace_n(A, one) - Quaternion.J), abs(tr.trace_n(A, i_basis) + Quaternion.J)))


def _run_witness_cyclicity_failure(cell: Cell) -> float:
    n = max(cell.dim, 2)
    A, B = _cyclicity_witness(n)
    return _worst((tr.real_trace_cyclic_gap(A, B), abs(tr.full_trace_cyclic_gap(A, B) - 2.0)))


def _antisymmetric_witness(m: int) -> Matrix:
    comps = np.zeros((2 * m, 2 * m, 4))
    for b in range(m):
        comps[2 * b, 2 * b + 1, 0] = -1.0
        comps[2 * b + 1, 2 * b, 0] = 1.0
    return Matrix(Algebra.R, comps)


def _run_witness_antisymmetric(cell: Cell) -> float:
    m = max(cell.dim // 2, 1)
    A = _antisymmetric_witness(m)
    n = 2 * m
    terms = [(sp.abs_op(A) - Matrix.identity(n, Algebra.R)).max_abs(), abs(tr.trace_norm(A) - n)]
    bases = (random_unitary(n, Algebra.R, cell.rng) for _ in range(min(cell.trials, 20)))
    return _worst(terms + [tr.absolute_diagonal_sum(A, U) for U in bases])


@_per_trial
def _run_gleason_round_trip(cell: Cell, t: int) -> Terms:
    T = gl.random_density(cell.dim, cell.algebra, cell.rng)
    f = gl.FrameFunction.from_measure(gl.measure_from_state(T))
    rebuilt = gl.reconstruct_state(f, cell.dim, cell.algebra, rng=cell.rng)
    return ((rebuilt.matrix - T.matrix).max_abs(),)


@_per_trial
def _run_sigma_additivity(cell: Cell, t: int) -> Terms:
    mu = gl.measure_from_state(gl.random_density(cell.dim, cell.algebra, cell.rng))
    parts = gl.random_orthogonal_decomposition(cell.dim, cell.algebra, cell.rng)
    return (abs(sum(mu(P) for P in parts) - 1.0),)


@_per_trial
def _run_measure_range(cell: Cell, t: int) -> Terms:
    mu = gl.measure_from_state(gl.random_density(cell.dim, cell.algebra, cell.rng))
    rank = 1 + cell.rng.integer(cell.dim)
    value = mu(random_projector(cell.dim, rank, cell.algebra, cell.rng))
    return -value, value - 1.0


@_per_trial
def _run_extremality(cell: Cell, t: int) -> Terms:
    psi = random_unit_vector(cell.dim, cell.algebra, cell.rng)
    pure_failed = float(not gl.is_extremal(gl.pure_state(psi)))
    rank = 2 + cell.rng.integer(cell.dim - 1) if cell.dim > 2 else 2
    mixed = gl.random_density(cell.dim, cell.algebra, cell.rng, rank=min(rank, cell.dim))
    if gl.is_extremal(mixed):
        return pure_failed, 1.0
    w1, T1, T2 = gl.extremal_split(mixed)
    recombined = gl.convex_mix([T1, T2], [w1, 1.0 - w1])
    return pure_failed, (recombined.matrix - mixed.matrix).max_abs()


@_per_trial
def _run_separation(cell: Cell, t: int) -> Terms:
    rank_p = 1 + cell.rng.integer(cell.dim)
    rank_q = 1 + cell.rng.integer(cell.dim)
    P = random_projector(cell.dim, rank_p, cell.algebra, cell.rng)
    Q = random_projector(cell.dim, rank_q, cell.algebra, cell.rng)
    distinct = (P.matrix - Q.matrix).max_abs() > 1e-6
    return float(distinct != gl.separation_check(P, Q)), float(gl.separation_check(P, P))


def _run_unit_lemma(cell: Cell) -> float:
    violations = 0
    for _ in range(cell.trials * 10):
        count = 2 + cell.rng.integer(6)
        raw = cell.rng.uniform_block(count)
        ps = raw / raw.sum()
        if ps.min() <= 0.0 or ps.max() >= 1.0:
            continue
        if cell.rng.uniform() < 0.5:
            qs = np.ones(count)
        else:
            qs = 1.0 - cell.rng.uniform_block(count) * 0.5
        if not gl.convex_unit_lemma(list(ps), list(qs)):
            violations += 1
    return float(violations)


@_per_trial
def _run_mix_linearity(cell: Cell, t: int) -> Terms:
    t1 = gl.random_density(cell.dim, cell.algebra, cell.rng)
    t2 = gl.random_density(cell.dim, cell.algebra, cell.rng)
    w = cell.rng.uniform()
    mixed = gl.convex_mix([t1, t2], [w, 1.0 - w])
    P = random_projector(cell.dim, 1 + cell.rng.integer(cell.dim), cell.algebra, cell.rng)
    lhs = gl.measure_from_state(mixed)(P)
    rhs = w * gl.measure_from_state(t1)(P) + (1.0 - w) * gl.measure_from_state(t2)(P)
    return (abs(lhs - rhs),)


@_per_trial
def _run_pure_phase_classes(cell: Cell, t: int) -> Terms:
    psi = random_unit_vector(cell.dim, cell.algebra, cell.rng)
    q = random_phase(cell.algebra, cell.rng)
    T0 = gl.pure_state(psi)
    T1 = gl.pure_state(psi.scale_right(q))
    return ((T0.matrix - T1.matrix).max_abs(),)


def _run_dim2_obstruction(cell: Cell) -> float:
    mu, cert = gl.dim2_counterexample(probes=max(cell.trials * 10, 100))
    # additivity must hold tightly AND the best trace fit must miss badly
    fit_shortfall = 0.05 - cert.best_fit_max_error
    return _worst((cert.additivity_gap + abs(cert.identity_value - 1.0), fit_shortfall))


@_per_trial
def _run_pvm_partition(cell: Cell, t: int) -> Terms:
    pvm = qm.pvm_of(qm.Observable(random_hermitian(cell.dim, cell.algebra, cell.rng)))
    return [(pvm.total() - Matrix.identity(cell.dim, cell.algebra)).max_abs()] + [
        (P1.matrix @ P2.matrix).max_abs() for s1, P1 in pvm.atoms for s2, P2 in pvm.atoms if s1 != s2
    ]


@_per_trial
def _run_functional_calculus(cell: Cell, t: int) -> Terms:
    A = qm.Observable(random_hermitian(cell.dim, cell.algebra, cell.rng))
    scale = max(1.0, A.matrix.max_abs() ** 2)
    identity_gap = (qm.apply_function(A, lambda x: x).matrix - A.matrix).max_abs()
    square = qm.apply_function(A, lambda x: x * x).matrix
    return identity_gap, (square - A.matrix @ A.matrix).max_abs() / scale


@_per_trial
def _run_expectation_duality(cell: Cell, t: int) -> Terms:
    A = qm.Observable(random_hermitian(cell.dim, cell.algebra, cell.rng))
    T = gl.random_density(cell.dim, cell.algebra, cell.rng)
    dist = qm.outcome_measure(A, T)
    via_moments = np.sqrt(max(dist.second_moment() - dist.mean() ** 2, 0.0))
    return (abs(dist.total() - 1.0), abs(qm.expectation(A, T) - dist.mean()),
            abs(qm.std_deviation(A, T) - via_moments))


@_per_trial
def _run_pure_state_reduction(cell: Cell, t: int) -> Terms:
    A = qm.Observable(random_hermitian(cell.dim, cell.algebra, cell.rng))
    psi = random_unit_vector(cell.dim, cell.algebra, cell.rng)
    T = gl.pure_state(psi)
    atoms = qm.pvm_of(A).atoms
    terms = [abs(tr.real_trace(P.matrix @ T.matrix) - (P.matrix @ psi).norm() ** 2) for _, P in atoms]
    return terms + [abs(qm.expectation(A, T) - inner(psi, A.matrix @ psi).real)]


@_per_trial
def _run_symmetry_duality(cell: Cell, t: int) -> Terms:
    A = random_matrix(cell.dim, cell.dim, cell.algebra, cell.rng)
    B = random_matrix(cell.dim, cell.dim, cell.algebra, cell.rng)
    U = random_unitary(cell.dim, cell.algebra, cell.rng)
    sym = qm.SymmetryOp(U, antiunitary=cell.algebra is Algebra.C and t % 2 == 1)
    return (qm.symmetry_duality_gap(A, B, sym) / (1.0 + tr.trace_norm(A) * sp.op_norm(B)),)


@_per_trial
def _run_state_conjugation(cell: Cell, t: int) -> Terms:
    T = gl.random_density(cell.dim, cell.algebra, cell.rng)
    U = random_unitary(cell.dim, cell.algebra, cell.rng)
    return (abs(tr.real_trace(qm.conjugate_state(qm.SymmetryOp(U), T).matrix) - 1.0),)


def _make_group_path(cell: Cell):
    if cell.algebra is Algebra.R:
        G = random_matrix(cell.dim, cell.dim, Algebra.R, cell.rng)
        W = (G - G.adjoint()) * 0.5
        return qm.rotation_group_from_skew(W)
    H = random_hermitian(cell.dim, cell.algebra, cell.rng)
    unit = Quaternion.I if cell.algebra is Algebra.C else random_unit_imaginary(cell.algebra, cell.rng)
    return qm.rotation_group_from_hermitian(H, unit)


def _run_continuity_trend(cell: Cell) -> float:
    A = random_matrix(cell.dim, cell.dim, cell.algebra, cell.rng)
    T = gl.random_density(cell.dim, cell.algebra, cell.rng)
    path = _make_group_path(cell)
    base = 64
    jumps = [qm.continuity_scan(A, T, path, base * (2**k)).max_jump for k in range(3)]
    U_a, U_b, U_ab = (Matrix(cell.algebra, U) for U in path.stack(np.array([0.3, 0.4, 0.7])))
    group_defect = (U_a @ U_b - U_ab).max_abs()
    return _worst([nxt - 0.7 * prev for prev, nxt in zip(jumps, jumps[1:])] + [group_defect])


REGISTRY: tuple[PropertyDef, ...] = (
    PropertyDef(
        "trace.basis_invariance_rc",
        "basis trace is basis independent for every operator over R and C",
        _run_basis_invariance_rc,
        algebras=("R", "C"),
        tol=1e-9,
    ),
    PropertyDef(
        "trace.hermitian_basis_invariance_h",
        "quaternionic basis trace is basis independent exactly on Hermitian operators",
        _run_hermitian_invariance_h,
        algebras=("H",),
        tol=1e-9,
    ),
    PropertyDef(
        "trace.nonhermitian_basis_dependence_h",
        "a non-Hermitian quaternionic operator shows basis-dependent traces",
        _run_nonhermitian_dependence_h,
        algebras=("H",),
        min_dim=1,
        tol=0.0,
    ),
    PropertyDef(
        "trace.real_basis_invariance",
        "the real part of the basis trace never depends on the basis",
        _run_real_trace_invariance,
        tol=1e-9,
    ),
    PropertyDef(
        "trace.real_cyclicity",
        "Re tr(AB) = Re tr(BA) in all three algebras",
        _run_real_cyclicity,
        tol=1e-9,
    ),
    PropertyDef(
        "trace.norm_inequalities",
        "||AB||_1 <= ||A||_1 ||B||, ||BA||_1 <= ||A||_1 ||B||, ||A*||_1 = ||A||_1, ||A|| <= ||A||_1",
        _run_norm_inequalities,
        tol=1e-9,
    ),
    PropertyDef(
        "trace.adapted_basis_formula",
        "tr_N(A) = Re tr(A) + (unit/2) tr|A - A*| on bases adapted to the skew polar direction",
        _run_adapted_trace_formula,
        algebras=("H",),
        tol=1e-8,
    ),
    PropertyDef(
        "trace.diagonal_basis_cyclicity",
        "on an eigenbasis of Hermitian A, tr_N(AB) = tr_N(BA), real when B is Hermitian too",
        _run_diagonal_basis_cyclicity,
        tol=1e-8,
    ),
    PropertyDef(
        "trace.projector_sandwich",
        "Re tr(PA) = Re tr(PAP) = tr(PAP) for projectors P and Hermitian A",
        _run_projector_sandwich,
        tol=1e-9,
    ),
    PropertyDef(
        "trace.linearity_star",
        "the real trace is R-linear and adjoint invariant",
        _run_linearity_star,
        tol=1e-10,
    ),
    PropertyDef(
        "trace.positivity_monotonicity",
        "positive operators have nonnegative real trace, and A >= B implies Re tr A >= Re tr B",
        _run_positivity_monotonicity,
        tol=1e-10,
    ),
    PropertyDef(
        "trace.absolute_sum_bound",
        "sum over a basis of |<u|Au>| is bounded by the trace norm over C and H",
        _run_absolute_sum_bound,
        algebras=("C", "H"),
        tol=1e-9,
    ),
    PropertyDef(
        "trace.realification_quarter",
        "quaternionic trace norm and real trace are one quarter of their realified values",
        _run_realification_quarter,
        algebras=("H",),
        tol=1e-9,
    ),
    PropertyDef(
        "witness.basis_dependent_trace",
        "left multiplication by j on H^1 has trace +j in basis {1} and -j in basis {i}",
        _run_witness_basis_dependent_trace,
        algebras=("H",),
        tol=1e-14,
    ),
    PropertyDef(
        "witness.cyclicity_failure",
        "diag(i,0..) and diag(j,0..) give tr(AB) = k = -tr(BA) while the real parts agree",
        _run_witness_cyclicity_failure,
        algebras=("H",),
        tol=1e-12,
    ),
    PropertyDef(
        "witness.antisymmetric_absolute_sum",
        "the real rotation-block matrix has |A| = I yet zero absolute diagonal sums",
        _run_witness_antisymmetric,
        algebras=("R",),
        min_dim=2,
        tol=1e-10,
    ),
    PropertyDef(
        "gleason.round_trip",
        "measure -> frame function -> state reconstruction recovers the density operator",
        _run_gleason_round_trip,
        min_dim=3,
        tol=1e-8,
    ),
    PropertyDef(
        "gleason.sigma_additivity",
        "trace-backed measures are additive over orthogonal decompositions of the identity",
        _run_sigma_additivity,
        tol=1e-9,
    ),
    PropertyDef(
        "gleason.measure_range",
        "trace-backed measures take values inside [0, 1]",
        _run_measure_range,
        tol=1e-10,
    ),
    PropertyDef(
        "gleason.extremality",
        "pure states are extremal; mixed states split into a verified convex combination",
        _run_extremality,
        min_dim=2,
        tol=1e-8,
    ),
    PropertyDef(
        "gleason.separation",
        "pure states separate distinct projectors",
        _run_separation,
        tol=1e-9,
    ),
    PropertyDef(
        "gleason.unit_lemma",
        "convex weights in (0,1) with unit weighted q-sum force every q to equal 1",
        _run_unit_lemma,
        tol=0.0,
    ),
    PropertyDef(
        "gleason.mix_linearity",
        "the measure of a convex mixture is the mixture of the measures",
        _run_mix_linearity,
        tol=1e-10,
    ),
    PropertyDef(
        "gleason.pure_phase_classes",
        "unit vectors equal up to a unit scalar give the same pure state",
        _run_pure_phase_classes,
        tol=1e-10,
    ),
    PropertyDef(
        "gleason.dim2_obstruction",
        "over C^2 an additive Bloch-cubic measure admits no trace-form representation",
        _run_dim2_obstruction,
        algebras=("C",),
        only_dims=(2,),
        tol=1e-9,
    ),
    PropertyDef(
        "quantum.pvm_partition",
        "spectral atoms are orthogonal projectors summing to the identity",
        _run_pvm_partition,
        tol=1e-8,
    ),
    PropertyDef(
        "quantum.functional_calculus",
        "the atomwise functional calculus matches matrix identity and square",
        _run_functional_calculus,
        tol=1e-8,
    ),
    PropertyDef(
        "quantum.expectation_duality",
        "moment formulas and real-trace formulas agree for expectation and deviation",
        _run_expectation_duality,
        tol=1e-8,
    ),
    PropertyDef(
        "quantum.pure_state_reduction",
        "for pure states, outcome probabilities reduce to squared projections of the vector",
        _run_pure_state_reduction,
        tol=1e-9,
    ),
    PropertyDef(
        "quantum.symmetry_duality",
        "Re tr(A U B U^-1) = Re tr(U^-1 A U B) for unitary and anti-unitary symmetries",
        _run_symmetry_duality,
        tol=1e-9,
    ),
    PropertyDef(
        "quantum.state_conjugation",
        "U T U^-1 of a state is again a certified state",
        _run_state_conjugation,
        tol=1e-9,
    ),
    PropertyDef(
        "quantum.continuity_trend",
        "sampled symmetry-orbit probabilities have jumps shrinking under refinement",
        _run_continuity_trend,
        tol=1e-9,
    ),
)


def claims_manifest() -> list[dict]:
    return [{"name": prop.name, "law": prop.law} for prop in REGISTRY]


def load_shipped_manifest() -> list[dict]:
    text = resources.files("gleason_lab").joinpath("claims.json").read_text()
    return json.loads(text)


def _skip_reason(prop: PropertyDef, letter: str, dim: int) -> str | None:
    """Why ``prop`` does not run on the (algebra, dim) cell, or None if it runs."""
    if letter not in prop.algebras:
        return f"not applicable over {letter}"
    if prop.only_dims is not None and dim not in prop.only_dims:
        return f"only meaningful at dim in {list(prop.only_dims)}"
    if dim < prop.min_dim:
        return f"dim>{prop.min_dim - 1} required"
    return None


def run_suite(cfg: RunConfig) -> SuiteReport:
    records: list[PropertyRecord] = []
    for prop in REGISTRY:
        if cfg.only and not fnmatch.fnmatch(prop.name, cfg.only):
            continue
        tol = float(cfg.tolerances.get(prop.name, prop.tol))
        for letter in cfg.algebras:
            algebra = Algebra.from_letter(letter)
            for dim in cfg.dims:
                for seed in cfg.seeds:
                    base = dict(
                        name=prop.name,
                        law=prop.law,
                        algebra=letter,
                        dim=dim,
                        seed=seed,
                        trials=cfg.trials,
                        tolerance=tol,
                    )
                    skip = _skip_reason(prop, letter, dim)
                    if skip is not None:
                        records.append(PropertyRecord(
                            **base, max_residual=None, passed=None, skip_reason=skip,
                        ))
                        continue
                    rng = SplitMix64(seed).derive(prop.name, letter, dim)
                    cell = Cell(algebra=algebra, dim=dim, rng=rng, trials=cfg.trials)
                    try:
                        residual = float(prop.runner(cell))
                        error = None if math.isfinite(residual) else f"non-finite residual: {residual}"
                    except Exception as exc:  # recorded, not raised
                        error = f"{type(exc).__name__}: {exc}"
                    if error is not None:
                        records.append(PropertyRecord(
                            **base, max_residual=None, passed=False, error=error,
                        ))
                        continue
                    records.append(PropertyRecord(
                        **base, max_residual=residual, passed=residual <= tol,
                    ))
    records.sort(key=lambda r: (r.name, r.algebra, r.dim, r.seed))
    return SuiteReport(records=tuple(records), config=cfg.to_json(), version=_version)


def emit_report(report: SuiteReport, fmt: str = "json") -> bytes:
    if fmt == "json":
        return json.dumps(report.to_json(), indent=2, sort_keys=True, allow_nan=False).encode()
    if fmt == "text":
        lines = []
        for r in report.records:
            if r.passed is None:
                status, detail = "SKIP", r.skip_reason or ""
            elif r.passed:
                status, detail = "PASS", f"resid={r.max_residual:.3e} tol={r.tolerance:.1e}"
            else:
                status = "FAIL"
                detail = r.error or f"resid={r.max_residual:.3e} tol={r.tolerance:.1e}"
            lines.append(f"{status:4s} {r.name:40s} algebra={r.algebra} dim={r.dim} seed={r.seed} {detail}")
        counts = report.counts
        lines.append(
            f"summary: {counts['passed']} passed, {counts['failed']} failed, "
            f"{counts['skipped']} skipped (version {report.version})"
        )
        return ("\n".join(lines) + "\n").encode()
    raise ValueError(f"unknown format {fmt!r}")


# ---------------------------------------------------------------------------
# counterexample transcript
# ---------------------------------------------------------------------------

def demo_counterexamples() -> str:
    lines: list[str] = []

    def say(text: str = "") -> None:
        lines.append(text)

    say("Counterexample transcript: why quaternionic traces need care")
    say("=" * 64)
    say()
    say("(1) Basis dependence of the trace over H")
    A, one, i_basis = _j_on_h1()
    say("    operator: left multiplication by j on the 1-dim quaternionic space")
    say(f"    trace over basis {{1}}: {tr.trace_n(A, one)}")
    say(f"    trace over basis {{i}}: {tr.trace_n(A, i_basis)}")
    say("    the two values differ, so 'the' trace is ill defined unless A = A*")
    say()
    say("(2) Failure of cyclicity over H")
    A2, B2 = _cyclicity_witness(2)
    basis2 = Matrix.identity(2, Algebra.H)
    say("    A = diag(i, 0), B = diag(j, 0)")
    say(f"    tr(AB) = {tr.trace_n(A2 @ B2, basis2)}")
    say(f"    tr(BA) = {tr.trace_n(B2 @ A2, basis2)}")
    say(f"    real parts: {tr.real_trace(A2 @ B2):+.3e} vs {tr.real_trace(B2 @ A2):+.3e}")
    say("    the full traces disagree; their real parts agree")
    say()
    say("(3) Absolute diagonal sums do not control the trace norm over R")
    rng = SplitMix64(0xC0DE)
    say("    A_m = m rotation blocks [[0,-1],[1,0]]: |A| = I, <u|Au> = 0 always")
    for m in (1, 2, 4, 8):
        A3 = _antisymmetric_witness(m)
        basis = random_unitary(2 * m, Algebra.R, rng)
        say(
            f"    m={m}: trace norm = {tr.trace_norm(A3):5.1f}, "
            f"random-basis absolute sum = {tr.absolute_diagonal_sum(A3, basis):.2e}"
        )
    say("    the absolute sums stay at zero while the trace norm grows without bound")
    say()
    say("(4) The dimension-2 obstruction to the measure/state bijection")
    mu, cert = gl.dim2_counterexample()
    say("    Bloch-cubic measure mu(P) = (1 + nz^3)/2 on rank-1 projectors of C^2")
    say(f"    worst additivity gap over antipodal pairs: {cert.additivity_gap:.2e}")
    say(f"    mu(I) = {cert.identity_value}")
    say(f"    best least-squares trace-form fit misses by {cert.best_fit_max_error:.3f} (> 0.05)")
    say("    additive yet not trace-backed: the bijection genuinely needs dim > 2")
    return "\n".join(lines) + "\n"
