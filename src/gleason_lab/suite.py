"""Batch verification harness.

Every mathematical claim the package implements is registered here as a
named property with a one-line statement of the law it checks, a runner that
returns a worst-case residual for a given (algebra, dimension, seed) cell,
and a tolerance.  ``run_suite`` executes the whole matrix deterministically;
``emit_report`` serializes the outcome.  The registry doubles as the coverage
manifest shipped in ``claims.json``.

Every runner but the five cell-level ones (the three fixed witnesses, the
dimension-2 obstruction and the continuity trend) runs a cell's trials as
one stack: those of the real-trace calculus and the adapted-basis formula,
the state and projector runners (``projector_sandwich``, ``measure_range``,
``mix_linearity``, ``pure_phase_classes``, ``state_conjugation``,
``separation`` and ``round_trip``), ``symmetry_duality``, the five that
decompose observables (``pvm_partition``, ``functional_calculus``,
``expectation_duality``, ``pure_state_reduction`` and
``diagonal_basis_cyclicity``), and the four whose draws depend on earlier
draws (``extremality``, ``sigma_additivity``, ``unit_lemma`` and
``nonhermitian_basis_dependence_h``).  ``block(cell, ts)`` draws the trials
``ts`` ahead from ``cell.rng`` (``_draw``).  A trial's draws are a list of
Gaussian, uniform and integer draws whose counts are fixed or follow from the
trial's earlier draws: a drawn rank, a drawn block count, or a branch taken
on a uniform or on a nearly Hermitian matrix.  Every stream position is a
function of the draws before it, so one planned block
(:meth:`SplitMix64.recipe_block`) holds the draws that one trial after
another would make.  The block then runs every kernel once over the
(trials, n, n, 4) stacks, the state and projector certificates included, and
returns the trials' terms (``_rows``).  Matrices whose shape follows a draw
(projectors of a drawn rank, mixtures of a drawn rank, the parts of a drawn
decomposition, the kept columns of a split, the weights of a drawn count) are
built in one stack per shape (``_groups``), so every product and sum keeps
the shape it has alone.  ``_stacked`` turns the block into the cell runner,
which runs the trial axis in chunks when a stack would pass
``_STACK_CHUNK_ENTRIES`` entries.  Each matrix of a stack is computed
as a lone matrix is, so a stacked runner reports the bits that its per-trial
form would.  The one exception is a Gaussian matrix that Gram-Schmidt
rejects: the stack redraws it after the block, where the per-trial form would
redraw at once, which happens with probability near zero.

The runners that decompose observables, ``extremality`` for its mixed
states, ``separation`` for P - Q and the adapted-basis formula for the skew
polar read every trial's eigenbasis from one stacked eigendecomposition
(:func:`~gleason_lab.spectral._eig_stack`), the bits that
:func:`~gleason_lab.spectral.eig_hermitian` gives each matrix.  The runners
that build atoms group each trial's spectrum as
:func:`~gleason_lab.quantum.pvm_of` does; the trials with one block layout
build and certify their atoms as one stack (``_atom_projectors``), and a
trial's terms are as many as its atoms.  An adapted basis that drops one of
its first n candidates, which no Gaussian draw was seen to do, runs the
one-matrix sweep on that trial, with the same bits.

The residual of a cell is the worst of its terms, trial-major, ``max(0.0,
*terms)`` taken in order by ``_worst``, so a term <= 0 counts for nothing.  A
NaN term makes the residual NaN, and ``run_suite`` records any non-finite
residual as a failure with no residual.
"""

from __future__ import annotations

import fnmatch
import json
import math
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field, fields
from importlib import resources

import numpy as np

from . import __version__ as _version
from . import gleason as gl
from . import kernels
from . import quantum as qm
from . import spectral as sp
from . import trace as tr
from .linalg import (
    Matrix,
    Projector,
    _adjoint_comps,
    _block_projectors,
    _check_projectors,
    _conj_comps,
    _groups,
    _hermitian_part,
    _layout,
    _max_abs,
    _mul_comps,
    _norms,
    _outer_sums,
    _random_projectors,
    _sq_moduli,
    _unit_imaginaries,
    _unit_rows,
    _unit_scalars,
    _unitaries,
    random_hermitian,
    random_matrix,
    random_unit_imaginary,
    random_unitaries,
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
        # every field is a scalar, so the copy that asdict makes is not needed
        return {f.name: getattr(self, f.name) for f in fields(self)}


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

# entries of the largest stack that a chunk of a cell's trials builds (16 MB):
# _stacked sets the chunk width by it, and _pair_products caps its boxes at it
_STACK_CHUNK_ENTRIES = 1 << 21

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


def _stacked(block: Callable[[Cell, np.ndarray], np.ndarray],
             matrices: Callable[[int], int] = lambda n: 1) -> Callable[[Cell], float]:
    """The cell runner of ``block(cell, ts)``, which draws the trials ``ts``
    from ``cell.rng`` and returns their terms (:func:`_rows`).

    The trials run in order, in chunks whose largest stack, ``matrices(n)``
    n x n matrices per trial, holds at most ``_STACK_CHUNK_ENTRIES``
    entries, one trial at least.  The residual is the worst of all the terms,
    as :func:`_worst` takes them, with one max per chunk: NaN as soon as a
    chunk has a NaN term, and no later chunk is drawn.  The runner
    keeps ``block`` as its ``block`` attribute.
    """

    def runner(cell: Cell) -> float:
        width = max(1, _STACK_CHUNK_ENTRIES // (4 * cell.dim**2 * matrices(cell.dim)))
        peak = 0.0
        for a in range(0, cell.trials, width):
            # numpy's max is NaN where a term is, and 0.0 over no terms
            top = float(block(cell, np.arange(a, min(a + width, cell.trials))).max(initial=0.0))
            if math.isnan(top):
                return math.nan
            peak = max(peak, top)
        return peak

    runner.block = block
    return runner


def _rows(terms: list) -> np.ndarray:
    """The terms of a chunk's trials, one sequence per trial: a (trials, terms)
    array where every trial has as many terms, else one flat array, trial-major."""
    rows = [np.asarray(row, dtype=np.float64) for row in terms]
    return np.stack(rows) if len({row.size for row in rows}) == 1 else np.concatenate(rows)


_MATRIX = "matrix"


def _draw(cell: Cell, count: int, *items) -> list:
    """``count`` trials of draws from ``cell.rng``, served from one planned
    block (:meth:`SplitMix64.recipe_block`): per trial, the ``items`` in order.
    An item is ``_MATRIX``, an n x n Gaussian matrix as :func:`random_matrix`
    draws it, returned as a (count, n, n, 4) component stack, or an item of the
    recipe, ``("gaussian", k)``, ``("uniform", k)``, ``("integer", bound)`` or
    ``("integer", bound, k)``, where k may be a function of the trial's
    earlier draws, returned as the plan returns it.  Bit for bit what the
    draws one after another give."""
    n = cell.dim
    recipe = [("gaussian", n * n * cell.algebra.component_count) if item == _MATRIX else item for item in items]
    out = cell.rng.recipe_block(count, recipe)
    return [_layout(x, (count, n, n), cell.algebra) if item == _MATRIX else x for x, item in zip(out, items)]


def _identities(count: int, n: int) -> np.ndarray:
    """A (count, n, n, 4) stack of identity matrices, one per trial."""
    comps = np.zeros((count, n, n, 4))
    comps[:, np.arange(n), np.arange(n), 0] = 1.0
    return comps


def _moduli(q: np.ndarray) -> np.ndarray:
    """|q| of every row of a (..., 4) component array, bit for bit as
    ``abs(Quaternion)`` gives it."""
    return np.sqrt(_sq_moduli(q))


def _basis_invariance(hermitian: bool) -> Callable[[Cell], float]:
    """Per trial, the basis-trace gap of one operator, Gaussian or its
    Hermitian part, between two random bases drawn after it."""

    def block(cell: Cell, ts: np.ndarray) -> np.ndarray:
        A, G0, G1 = _draw(cell, ts.size, _MATRIX, _MATRIX, _MATRIX)
        if hermitian:
            A = _hermitian_part(A)
        U0, U1 = (_unitaries(G, cell.algebra, cell.rng) for G in (G0, G1))
        return _moduli(tr._traces(A, U0, cell.algebra) - tr._traces(A, U1, cell.algebra))[:, None]

    return _stacked(block)


_run_basis_invariance_rc = _basis_invariance(hermitian=False)
_run_hermitian_invariance_h = _basis_invariance(hermitian=True)


def _nonhermitian_dependence(cell: Cell, ts: np.ndarray) -> np.ndarray:
    # A failing-to-be-invariant witness must exist: the term is the shortfall
    # of the best of six basis-trace gaps, each between two random bases,
    # below the 1e-3 detection threshold.  A nearly Hermitian draw ends its
    # trial, with no term, before any basis is drawn.
    n, algebra = cell.dim, cell.algebra
    bases = 12 * n * n * algebra.component_count

    def count(prior) -> int:
        A = _layout(prior[0], (n, n), algebra)
        return 0 if _max_abs(A - _adjoint_comps(A)) < 0.1 else bases

    A, G = _draw(cell, ts.size, _MATRIX, ("gaussian", count))
    far = G.counts > 0
    U = _unitaries(_layout(G.values[far], (int(far.sum()), 12, n, n), algebra), algebra, cell.rng)
    traces = tr._traces(A[far][:, None], U, algebra)
    # the worst gap, max(0.0, *gaps), NaN if a gap is
    worst = np.maximum(0.0, _moduli(traces[:, 0::2] - traces[:, 1::2]).max(axis=-1))
    terms = iter(1e-3 - worst)
    return _rows([[next(terms)] if flag else [] for flag in far])


_run_nonhermitian_dependence_h = _stacked(_nonhermitian_dependence, matrices=lambda n: 12)  # 12 bases per trial


@_stacked
def _run_real_trace_invariance(cell: Cell, ts: np.ndarray) -> np.ndarray:
    A, *G = _draw(cell, ts.size, *4 * [_MATRIX])
    base = tr._real_traces(A)
    bases = (_unitaries(g, cell.algebra, cell.rng) for g in G)
    return np.stack([np.abs(tr._traces(A, U, cell.algebra)[:, 0] - base) for U in bases], axis=-1)


@_stacked
def _run_real_cyclicity(cell: Cell, ts: np.ndarray) -> np.ndarray:
    A, B = _draw(cell, ts.size, _MATRIX, _MATRIX)
    gap = tr._cyclic_gaps(A, B, cell.algebra)
    return (gap / (1.0 + tr._trace_norms(A, cell.algebra) * sp._op_norms(B, cell.algebra)))[:, None]


@_stacked
def _run_norm_inequalities(cell: Cell, ts: np.ndarray) -> np.ndarray:
    rep = tr._norm_inequalities(*_draw(cell, ts.size, _MATRIX, _MATRIX), cell.algebra)
    return np.stack([-rep.slack_ab, -rep.slack_ba, np.abs(rep.adjoint_gap), -rep.op_vs_trace_slack], axis=-1)


def _adapted_trace_formula(cell: Cell, ts: np.ndarray) -> np.ndarray:
    # per trial, the residual of quaternionic_trace_formula_check for the
    # units i and a drawn one, over 1 + ||A||_1, from one trace norm and one
    # skew polar (J, tr|A - A*|)
    A, parts = _draw(cell, ts.size, _MATRIX, ("gaussian", 3))
    H = Algebra.H
    scale = 1.0 + tr._trace_norms(A, H)
    C = A - _adjoint_comps(A)
    gram = sp._gram(C, H)
    J, skew = sp._skew_polars(C, *sp._eig_stack(gram, H))
    real = tr._real_traces(A)
    terms = []
    for units in (np.tile(Quaternion.I.to_array(), (ts.size, 1)), _unit_imaginaries(parts)):
        kept, bases = sp._adapted_bases(J, units)
        for t in np.flatnonzero(~kept):
            bases[t] = sp.adapted_basis(Matrix(H, J[t]), Quaternion.from_array(units[t])).comps
        # tr_N(A) less Re tr(A) + unit (tr|A - A*| / 2), as Quaternion arithmetic forms it
        rhs = units * (skew / 2.0)[:, None]
        rhs[:, 0] = real
        terms.append(_moduli(tr._traces(A, bases, H) - rhs) / scale)
    return np.stack(terms, axis=-1)


_run_adapted_trace_formula = _stacked(_adapted_trace_formula, matrices=lambda n: 2)  # 2n candidates per trial


@_stacked
def _run_diagonal_basis_cyclicity(cell: Cell, ts: np.ndarray) -> np.ndarray:
    G, B = _draw(cell, ts.size, _MATRIX, _MATRIX)
    A = _hermitian_part(G)
    _, bases = sp._eig_stack(A, cell.algebra)
    count = cell.algebra.component_count
    ab, ba, full = (tr._traces(kernels.quat_matmul(x, y, count), bases, cell.algebra)
                    for x, y in ((A, B), (B, A), (A, _hermitian_part(B))))
    # tr_N(A B_H) less its real part, as Quaternion subtraction forms it
    skew = full.copy()
    skew[:, 0] -= full[:, 0]
    return np.stack([_moduli(ab - ba), _moduli(skew)], axis=-1)


def _projectors(cell: Cell, G: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    """The certified projectors that :func:`random_projector` builds from the
    Gaussian draws ``G`` at the drawn ranks 1 + ``ranks``, one per trial."""
    P = _random_projectors(_unitaries(G, cell.algebra, cell.rng), (1 + ranks).tolist(), cell.algebra)
    _check_projectors(P, cell.algebra)
    return P


def _states(cell: Cell, G: np.ndarray, raw: np.ndarray) -> np.ndarray:
    """The certified states that :func:`~gleason_lab.gleason.random_density` builds from the
    Gaussian draws ``G`` and the uniforms ``raw``, one per trial."""
    T = gl._mixtures(_unitaries(G, cell.algebra, cell.rng), raw, cell.algebra.component_count)
    gl._state_spectra(T, cell.algebra)
    return T


@_stacked
def _run_projector_sandwich(cell: Cell, ts: np.ndarray) -> np.ndarray:
    A, ranks, G = _draw(cell, ts.size, _MATRIX, ("integer", cell.dim), _MATRIX)
    A = _hermitian_part(A)
    P = _projectors(cell, G, ranks)
    count = cell.algebra.component_count
    PA = kernels.quat_matmul(P, A, count)
    sandwiched = kernels.quat_matmul(PA, P, count)
    full = tr._traces(sandwiched, _identities(ts.size, cell.dim), cell.algebra)
    # tr_N(PAP) less its real part, as Quaternion subtraction forms it
    skew = full.copy()
    skew[:, 0] -= full[:, 0]
    return np.stack([np.abs(tr._real_traces(PA) - tr._real_traces(sandwiched)), _moduli(skew)], axis=-1)


@_stacked
def _run_linearity_star(cell: Cell, ts: np.ndarray) -> np.ndarray:
    A, B, a, b = _draw(cell, ts.size, _MATRIX, _MATRIX, ("gaussian", 1), ("gaussian", 1))
    rt = tr._real_traces
    lin = rt(A * a[..., None, None] + B * b[..., None, None]) - a[:, 0] * rt(A) - b[:, 0] * rt(B)
    star = rt(_adjoint_comps(A)) - rt(A)
    return np.stack([np.abs(lin), np.abs(star)], axis=-1)


@_stacked
def _run_positivity_monotonicity(cell: Cell, ts: np.ndarray) -> np.ndarray:
    C, D, G = _draw(cell, ts.size, _MATRIX, _MATRIX, _MATRIX)
    count = cell.algebra.component_count
    B = _hermitian_part(G)
    A = B + kernels.quat_matmul(_adjoint_comps(D), D, count)  # A >= B by construction
    rt = tr._real_traces
    return np.stack([-rt(kernels.quat_matmul(_adjoint_comps(C), C, count)), rt(B) - rt(A)], axis=-1)


@_stacked
def _run_absolute_sum_bound(cell: Cell, ts: np.ndarray) -> np.ndarray:
    A, *G = _draw(cell, ts.size, *4 * [_MATRIX])
    bound = tr._trace_norms(A, cell.algebra)
    bases = (_unitaries(g, cell.algebra, cell.rng) for g in G)
    sums = [tr._absolute_diagonal_sums(A, U, cell.algebra) for U in bases]
    return np.stack([(s - bound) / np.maximum(1.0, bound) for s in sums], axis=-1)


def _realification_quarter(cell: Cell, ts: np.ndarray) -> np.ndarray:
    (A,) = _draw(cell, ts.size, _MATRIX)
    check = tr._realification_checks(A)
    scale = 1.0 + check.trace_norm_h
    return np.stack([check.trace_norm_gap / scale, check.trace_gap / scale], axis=-1)


# the realified matrices are 4n x 4n, sixteen n x n matrices' worth
_run_realification_quarter = _stacked(_realification_quarter, matrices=lambda n: 16)


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
    bases = random_unitaries(n, min(cell.trials, 20), Algebra.R, cell.rng)
    return _worst(terms + list(tr._absolute_diagonal_sums(A.comps, bases, Algebra.R)))


_VERIFICATION_PROBES = 100  # reconstruct_state's default


def _round_trip(cell: Cell, ts: np.ndarray) -> np.ndarray:
    # state -> lattice measure -> frame function -> reconstruct_state, one
    # state per trial with reconstruct_state's draws after it
    n, algebra, k = cell.dim, cell.algebra, cell.algebra.component_count
    G, raw, draws = _draw(cell, ts.size, _MATRIX, ("uniform", n),
                          ("gaussian", gl._probe_draw_count(n, algebra, _VERIFICATION_PROBES)))
    T = _states(cell, G, raw)
    values = []

    def read(probes: np.ndarray) -> np.ndarray:  # the frame functions, keeping what they return
        values.append(gl._line_values(T, probes, algebra))
        return values[-1]

    pairs, phases, X = gl._probe_draws(draws, n, algebra)
    rebuilt = gl._reconstructions(read, algebra, pairs, phases, X)
    gl._state_spectra(rebuilt, algebra)
    # the lattice in the round trip: mu(P_x) = Re tr(P_x T) on the certified line projectors
    # of the verification probes, which come last, against the frame functions' Re<x|Tx>/<x|x>
    lines = Projector.rank_ones(Matrix(algebra, X.swapaxes(0, 1).reshape(n, -1, 4)))
    mu = tr._real_pairings(lines, T, k).reshape(ts.size, -1)
    lattice = np.abs(mu - values[0][:, -_VERIFICATION_PROBES:]).max(axis=-1)
    return np.stack([_max_abs(rebuilt - T), lattice], axis=1)


# a trial's n x P probe columns, or its line projectors of the verification
# probes, as n x n matrices
_run_gleason_round_trip = _stacked(
    _round_trip,
    matrices=lambda n: max(-(-gl._probe_count(n, Algebra.H, _VERIFICATION_PROBES) // n), _VERIFICATION_PROBES))


def _sigma_additivity(cell: Cell, ts: np.ndarray) -> np.ndarray:
    n = cell.dim
    G, raw, H, *_, cuts = _draw(cell, ts.size, _MATRIX, ("uniform", n), _MATRIX, *gl._cut_recipe(n))
    T = _states(cell, G, raw)
    U = _unitaries(H, cell.algebra, cell.rng)
    terms = np.empty(ts.size)
    for at, parts in gl._decompositions(U, gl._decomposition_bounds(cuts, n), cell.algebra):
        _check_projectors(parts, cell.algebra)
        k = parts.shape[1]
        mu = tr._real_pairings(parts.reshape(-1, n, n, 4), T[at], cell.algebra.component_count).reshape(-1, k)
        # sum(mu(P) for P in parts): the parts' measures added in part order
        total = mu[:, 0]
        for c in range(1, k):
            total = total + mu[:, c]
        terms[at] = np.abs(total - 1.0)
    return terms[:, None]


_run_sigma_additivity = _stacked(_sigma_additivity, matrices=lambda n: n)  # up to n parts per trial


@_stacked
def _run_measure_range(cell: Cell, ts: np.ndarray) -> np.ndarray:
    n = cell.dim
    G, raw, ranks, H = _draw(cell, ts.size, _MATRIX, ("uniform", n), ("integer", n), _MATRIX)
    T = _states(cell, G, raw)
    value = tr._real_pairings(_projectors(cell, H, ranks), T, cell.algebra.component_count)
    return np.stack([-value, value - 1.0], axis=-1)


def _extremality(cell: Cell, ts: np.ndarray) -> np.ndarray:
    n, k, algebra = cell.dim, cell.algebra.component_count, cell.algebra
    ranks = [("integer", n - 1)] if n > 2 else []

    def rank(prior) -> int:
        return min(2 + prior[1] if n > 2 else 2, n)

    X, *_, G, raw = _draw(cell, ts.size, ("gaussian", n * k), *ranks, _MATRIX, ("uniform", rank))
    psi = _unit_rows(_layout(X, (ts.size, n), algebra))[:, :, None, :]
    pure_failed = ~gl._extremal(gl._state_spectra(gl._pure_states(psi, k), algebra))
    U = _unitaries(G, algebra, cell.rng)
    # the mixed states of one drawn rank as one stack
    mixed = np.empty(U.shape)
    for r, at in _groups(raw.counts.tolist()):
        mixed[at] = gl._mixtures(U[at], raw.values[at, :r], k)
    split = np.flatnonzero(~gl._extremal(gl._state_spectra(mixed, algebra)))
    terms = np.ones(ts.size)  # 1.0 for a mixed state that is extremal
    if split.size:
        S = mixed[split]
        w1, T1, T2 = gl._extremal_splits(*sp._eig_stack(S, algebra), algebra)
        gl._state_spectra(T1, algebra)
        gl._state_spectra(T2, algebra)
        recombined = gl._convex_mixes([T1, T2], np.stack([w1, 1.0 - w1]))
        gl._state_spectra(recombined, algebra)
        terms[split] = _max_abs(recombined - S)
    return np.stack([pure_failed.astype(np.float64), terms], axis=-1)


_run_extremality = _stacked(_extremality)


def _separation(cell: Cell, ts: np.ndarray) -> np.ndarray:
    # 1.0 where the check disagrees with max|P - Q| > 1e-6, and where it
    # separates P from itself; both pairs of every trial in one stack
    n = cell.dim
    rank_p, rank_q, G, H = _draw(cell, ts.size, ("integer", n), ("integer", n), _MATRIX, _MATRIX)
    P, Q = _projectors(cell, G, rank_p), _projectors(cell, H, rank_q)
    distinct = _max_abs(P - Q) > 1e-6
    separated = gl._separations(np.concatenate([P, P]), np.concatenate([Q, P]), cell.algebra)
    return np.stack([distinct != separated[:ts.size], separated[ts.size:]], axis=-1).astype(np.float64)


_run_separation = _stacked(_separation, matrices=lambda n: 2)  # the pairs (P, Q) and (P, P) per trial


def _lemma_checkable(raw: np.ndarray) -> int:
    """1 if every weight raw / sum(raw) of one draw's uniforms lies strictly
    inside (0, 1), else 0: division by the sum is monotone, so the smallest
    and largest weights are those of the smallest and largest uniform.  The
    sum is taken in order, as numpy sums the fewer than 8 values of a draw."""
    values = raw.tolist()
    total = 0.0
    for value in values:
        total += value
    return int(min(values) / total > 0.0 and max(values) / total < 1.0)


# one draw of the lemma's inputs: m = 2 + integer(6) uniforms for the weights,
# then, if every weight lies inside (0, 1), one branch uniform, and below 0.5
# q = 1 throughout, else m more uniforms for q
_LEMMA_DRAW = (
    ("integer", 6),
    ("uniform", lambda prior: 2 + prior[0]),
    ("uniform", lambda prior: _lemma_checkable(prior[1])),
    ("uniform", lambda prior: prior[1].size if prior[2].size and prior[2][0] >= 0.5 else 0),
)
_LEMMA_DRAWS_PER_TRIAL = 10


@_stacked
def _run_unit_lemma(cell: Cell, ts: np.ndarray) -> np.ndarray:
    # per draw, 1.0 if the lemma fails on it; a draw whose weights leave
    # (0, 1) checks nothing
    draws = _LEMMA_DRAWS_PER_TRIAL * ts.size
    _, raw, branch, fresh = _draw(cell, draws, *_LEMMA_DRAW)
    failed = np.zeros(draws)
    checked = branch.counts > 0
    for m, at in _groups(raw.counts[checked].tolist()):
        at = np.flatnonzero(checked)[at]
        q = np.ones((at.size, m))
        drawn = fresh.counts[at] > 0  # the branch uniform was at least 0.5
        if drawn.any():
            q[drawn] = 1.0 - fresh.values[at[drawn], :m] * 0.5
        ps = raw.values[at, :m]
        failed[at] = ~gl._convex_unit_lemmas(ps / ps.sum(axis=-1, keepdims=True), q)
    return failed.reshape(ts.size, _LEMMA_DRAWS_PER_TRIAL)


@_stacked
def _run_mix_linearity(cell: Cell, ts: np.ndarray) -> np.ndarray:
    n = cell.dim
    G1, raw1, G2, raw2, w, ranks, H = _draw(
        cell, ts.size, _MATRIX, ("uniform", n), _MATRIX, ("uniform", n), ("uniform", 1), ("integer", n), _MATRIX)
    t1, t2 = _states(cell, G1, raw1), _states(cell, G2, raw2)
    w = w[:, 0]
    mixed = gl._convex_mixes([t1, t2], np.stack([w, 1.0 - w]))
    gl._state_spectra(mixed, cell.algebra)
    P = _projectors(cell, H, ranks)
    mu_mixed, mu1, mu2 = (tr._real_pairings(P, T, cell.algebra.component_count) for T in (mixed, t1, t2))
    return np.abs(mu_mixed - (w * mu1 + (1.0 - w) * mu2))[:, None]


@_stacked
def _run_pure_phase_classes(cell: Cell, ts: np.ndarray) -> np.ndarray:
    n, k = cell.dim, cell.algebra.component_count
    X, parts = _draw(cell, ts.size, ("gaussian", n * k), ("gaussian", k))
    psi = _unit_rows(_layout(X, (ts.size, n), cell.algebra))[:, :, None, :]
    q = _unit_scalars(parts)
    T0 = gl._pure_states(psi, k)
    T1 = gl._pure_states(_mul_comps(psi, q[:, None, None, :]), k)
    gl._state_spectra(T0, cell.algebra)
    gl._state_spectra(T1, cell.algebra)
    return _max_abs(T0 - T1)[:, None]


def _run_dim2_obstruction(cell: Cell) -> float:
    mu, cert = gl.dim2_counterexample(probes=max(cell.trials * 10, 100))
    # additivity must hold tightly AND the best trace fit must miss badly
    fit_shortfall = 0.05 - cert.best_fit_max_error
    return _worst((cert.additivity_gap + abs(cert.identity_value - 1.0), fit_shortfall))


def _atom_projectors(A: np.ndarray, algebra: Algebra) -> list:
    """(trials, means, P) for each block layout of the atoms of the
    observables of a (T, n, n, 4) stack, from one stacked eigendecomposition
    (:func:`~gleason_lab.spectral._eig_stack`), each trial's spectrum grouped
    as :func:`~gleason_lab.quantum.pvm_of` groups it
    (:func:`~gleason_lab.quantum._atoms`): the trials that share the layout,
    their (t, k) atom means and the certified (t, k, n, n, 4) stack of their
    atoms, built and certified as :func:`~gleason_lab.quantum.pvm_of` builds
    and certifies them: the projectors onto the column blocks
    (:func:`_block_projectors`), one stack per layout (:func:`_groups`)."""
    values, basis = sp._eig_stack(A, algebra)
    atoms = [qm._atoms(row) for row in values]
    out = []
    for blocks, at in _groups([tuple((a, b) for a, b, _ in row) for row in atoms]):
        P = _block_projectors(basis[at], blocks, algebra)
        _check_projectors(P, algebra)
        out.append((at, np.array([[s for _, _, s in atoms[t]] for t in at.tolist()]), P))
    return out


def _trial_rows(count: int, parts: Iterable) -> list:
    """The terms of ``count`` trials, in trial order, from (trials, rows) parts."""
    rows: list = [None] * count
    for at, part in parts:
        for t, row in zip(at.tolist(), part):
            rows[t] = row
    return rows


def _pair_products(atoms: np.ndarray, algebra: Algebra) -> np.ndarray:
    """max|P_a P_b| for every ordered pair a != b of the atoms of each trial of
    an (S, k, n, n, 4) stack, row-major in (a, b), as an (S, k (k - 1)) array.

    The products run in boxes of trials x rows a x partners b, each operand a
    view of the stack, with at most ``gleason._PROBE_CHUNK_ENTRIES`` entries of
    products per box (and never more than the trial budget): cache-sized, and
    each product as it runs alone.  The k products P_a P_a come along and are
    dropped."""
    S, k, n = atoms.shape[:3]
    width = max(1, min(gl._PROBE_CHUNK_ENTRIES, _STACK_CHUNK_ENTRIES) // (4 * n * n))
    trials, rows, partners = max(1, width // (k * k)), min(k, max(1, width // k)), min(k, width)
    out = np.empty((S, k, k))
    for t in range(0, S, trials):
        for a in range(0, k, rows):
            for b in range(0, k, partners):
                box = np.s_[t:t + trials, a:a + rows, b:b + partners]
                out[box] = _max_abs(kernels.quat_matmul(atoms[t:t + trials, a:a + rows, None],
                                                        atoms[t:t + trials, None, b:b + partners],
                                                        algebra.component_count))
    return out[:, ~np.eye(k, dtype=bool)]


def _observables(G: np.ndarray, algebra: Algebra) -> np.ndarray:
    """The Hermitian parts of the Gaussian draws ``G``, certified as
    :class:`~gleason_lab.quantum.Observable` certifies one."""
    A = _hermitian_part(G)
    qm._check_observables(A, algebra)
    return A


def _pvm_partition(cell: Cell, ts: np.ndarray) -> np.ndarray:
    A = _observables(*_draw(cell, ts.size, _MATRIX), cell.algebra)
    n = cell.dim

    def terms(P: np.ndarray) -> np.ndarray:
        # PVMap.total(): the atoms added in order from zero, less the identity
        total = np.zeros(P.shape[:1] + P.shape[2:])
        for c in range(P.shape[1]):
            total = total + P[:, c]
        total[..., np.arange(n), np.arange(n), 0] -= 1.0
        return np.concatenate([_max_abs(total)[:, None], _pair_products(P, cell.algebra)], axis=1)

    layouts = _atom_projectors(A, cell.algebra)
    return _rows(_trial_rows(ts.size, ((at, terms(P)) for at, _, P in layouts)))


_run_pvm_partition = _stacked(_pvm_partition, matrices=lambda n: n)  # n atoms per trial


@_stacked
def _run_functional_calculus(cell: Cell, ts: np.ndarray) -> np.ndarray:
    A = _observables(*_draw(cell, ts.size, _MATRIX), cell.algebra)
    count = cell.algebra.component_count
    # max|A|^2 by Python's power, as the one-matrix form takes it
    scale = np.array([max(1.0, peak**2) for peak in _max_abs(A).tolist()])
    values, basis = sp._eig_stack(A, cell.algebra)
    # f(A) = U diag(f(s)) U* for f(x) = x and x * x, each atom's columns
    # weighted by f(mean) (quantum._atoms), built and certified as apply_function does
    means = np.empty(values.shape)
    for row, spectrum in zip(means, values):
        for a, b, s in qm._atoms(spectrum):
            row[a:b] = s
    identity, square = (_outer_sums(basis, count, f) for f in (means, means * means))
    for F in (identity, square):
        qm._check_observables(F, cell.algebra)
    return np.stack([_max_abs(identity - A), _max_abs(square - kernels.quat_matmul(A, A, count)) / scale], axis=-1)


def _duality_terms(dist: qm.OutcomeMeasure, expectation: float, std: float) -> Terms:
    via_moments = np.sqrt(max(dist.second_moment() - dist.mean() ** 2, 0.0))
    return abs(dist.total() - 1.0), abs(expectation - dist.mean()), abs(std - via_moments)


def _expectation_duality(cell: Cell, ts: np.ndarray) -> np.ndarray:
    n, algebra = cell.dim, cell.algebra
    G, H, raw = _draw(cell, ts.size, _MATRIX, _MATRIX, ("uniform", n))
    A = _observables(G, algebra)
    T = _states(cell, H, raw)
    count = algebra.component_count
    expectation, std = tr._real_pairings(A, T, count), qm._std_deviations(A, T, algebra)

    def dists(at: np.ndarray, means: np.ndarray, P: np.ndarray) -> list[qm.OutcomeMeasure]:
        # Re tr(P_s T) of each atom, as the state's lattice measure reads a stack
        k = P.shape[1]
        probs = tr._real_pairings(P.reshape(-1, n, n, 4), T[at], count).reshape(-1, k)
        qm._check_probabilities(probs)
        return [qm.OutcomeMeasure(tuple(sorted(zip(s, p)))) for s, p in zip(means.tolist(), probs.tolist())]

    layouts = _atom_projectors(A, algebra)
    measures = _trial_rows(ts.size, ((at, dists(at, means, P)) for at, means, P in layouts))
    return np.array([_duality_terms(*row) for row in zip(measures, expectation, std)])


_run_expectation_duality = _stacked(_expectation_duality, matrices=lambda n: n)


def _pure_state_reduction(cell: Cell, ts: np.ndarray) -> np.ndarray:
    n, k, algebra = cell.dim, cell.algebra.component_count, cell.algebra
    G, X = _draw(cell, ts.size, _MATRIX, ("gaussian", n * k))
    A = _observables(G, algebra)
    psi = _unit_rows(_layout(X, (ts.size, n), algebra))[:, :, None, :]
    T = gl._pure_states(psi, k)
    gl._state_spectra(T, algebra)
    # |Re tr(A T) - Re <psi|A psi>|, with <psi|A psi> summed as inner sums it
    A_psi = kernels.quat_matmul(A, psi, k)
    bracket = _mul_comps(_conj_comps(psi[..., 0, :]), A_psi[..., 0, :]).sum(axis=-2)[:, 0]
    last = np.abs(tr._real_pairings(A, T, k) - bracket)

    def terms(at: np.ndarray, P: np.ndarray) -> np.ndarray:
        traces = tr._real_traces(kernels.quat_matmul(P, T[at][:, None], k))
        # |P psi|^2 by Python's power, as the one-matrix form takes it
        lengths = [x**2 for x in _norms(kernels.quat_matmul(P, psi[at][:, None], k)).ravel().tolist()]
        return np.abs(traces - np.reshape(lengths, traces.shape))

    layouts = _atom_projectors(A, algebra)
    served = _trial_rows(ts.size, ((at, terms(at, P)) for at, _, P in layouts))
    return _rows([[*row, x] for row, x in zip(served, last)])


_run_pure_state_reduction = _stacked(_pure_state_reduction, matrices=lambda n: n)


@_stacked
def _run_symmetry_duality(cell: Cell, ts: np.ndarray) -> np.ndarray:
    # over C the odd trials are anti-unitary
    A, B, G = _draw(cell, ts.size, _MATRIX, _MATRIX, _MATRIX)
    U = _unitaries(G, cell.algebra, cell.rng)
    qm._check_unitaries(U, cell.algebra)
    anti = (cell.algebra is Algebra.C) & (ts % 2 == 1)
    gap = qm._duality_gaps(A, B, U, anti, cell.algebra)
    return (gap / (1.0 + tr._trace_norms(A, cell.algebra) * sp._op_norms(B, cell.algebra)))[:, None]


@_stacked
def _run_state_conjugation(cell: Cell, ts: np.ndarray) -> np.ndarray:
    G, raw, H = _draw(cell, ts.size, _MATRIX, ("uniform", cell.dim), _MATRIX)
    T = _states(cell, G, raw)
    U = _unitaries(H, cell.algebra, cell.rng)
    qm._check_unitaries(U, cell.algebra)
    conjugated = qm._transform_states(U, T, False, cell.algebra)
    gl._state_spectra(conjugated, cell.algebra)
    return np.abs(tr._real_traces(conjugated) - 1.0)[:, None]


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
