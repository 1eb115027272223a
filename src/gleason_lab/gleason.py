"""States as probability measures on the projector lattice.

A state is a sigma-additive probability measure on the lattice of orthogonal
projectors.  For dimension at least 3 these measures are exactly the maps
P -> Re tr(P T) for a unique density operator T (Hermitian, positive, unit
real trace); this module provides both directions of that correspondence
constructively, the extremal/pure classification, and the dimension-2
counterexample showing why the bijection needs dim > 2.

Measures are represented by oracles, not tables: even at n = 3 the lattice is
infinite, so every check samples projectors.  Both oracles are block-shaped.
A frame function takes the probe vectors as the columns of one matrix (a
single vector, as everywhere in the package, is an n x 1 Matrix), and a
lattice measure takes the certified (k, n, n, 4) stack of their line
projectors from :meth:`Projector.rank_ones`.  The measure of a state reads
Re tr(P T) for the whole stack in one contraction
(:func:`gleason_lab.trace._real_pairings`), so :func:`reconstruct_state` makes
four block calls and builds no object per probe.  Its verification step
predicts each probe value as Re<x|Tx> from the vectors, not from the projector
stack, so it checks the probe path rather than repeating it.  The dimension-2
Bloch-cubic measure reads its stack projector by projector, and its
certificate works on stacks too: the probe lines, their certified complements
I - P and the fit error Re tr(P T) - mu(P), with no Projector object.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import AlgebraMismatch, DegenerateInput, InvalidWeights, NotAFrameFunction, NotPositive
from .linalg import (
    _PROJECTOR_TOL,
    Matrix,
    Projector,
    _certify_projectors,
    _conj_comps,
    _mul_comps,
    inner,  # re-exported: perfbench's tracer test checks this binding
    outer,
    outer_sum,
    projector_onto,
    random_phases,
    random_unit_vectors,
    random_unitary,
)
from .rng import SplitMix64
from .scalars import Algebra, Quaternion
from .spectral import EigenDecomposition, eig_hermitian, eigvals_hermitian
from .trace import _real_pairings, real_trace

_STATE_TOL = 1e-8
# entries of the (k, n, n, 4) stack of line projectors that FrameFunction.from_measure
# builds at once; a wider probe block is read in column chunks of this many entries.
# quantum.continuity_scan bounds its stacks of U_t by the same count
_PROBE_CHUNK_ENTRIES = 1 << 21


class DensityOperator:
    """Hermitian positive operator with unit real trace (a quantum state).

    1e-8 bounds the negative eigenvalues and the trace error.  The Hermitian
    test is the eigensolver's own (:func:`eigvals_hermitian`: the ratio test of
    :meth:`Matrix.is_hermitian` at 1e-8), which raises NotHermitian.
    """

    __slots__ = ("matrix", "eigenvalues", "_eigen")

    def __init__(self, matrix: Matrix):
        if not matrix.is_square:
            raise ValueError("state matrix must be square")
        values = eigvals_hermitian(matrix)
        low = float(values.min())
        if low < -_STATE_TOL:
            raise NotPositive(f"state has eigenvalue {low:.3e}")
        tr = real_trace(matrix)
        # NaN fails every comparison
        if not (abs(tr - 1.0) <= _STATE_TOL):
            raise ValueError(f"state trace {tr} differs from 1 beyond {_STATE_TOL}")
        self.matrix = matrix
        #: spectrum, sorted descending
        self.eigenvalues = values
        self._eigen = None

    @property
    def algebra(self) -> Algebra:
        return self.matrix.algebra

    @property
    def n(self) -> int:
        return self.matrix.n

    def eigen(self) -> EigenDecomposition:
        """Eigendecomposition, computed on first use."""
        if self._eigen is None:
            self._eigen = eig_hermitian(self.matrix)
        return self._eigen

    def rank(self) -> int:
        return int((self.eigenvalues > _STATE_TOL).sum())

    def __repr__(self) -> str:
        return f"DensityOperator({self.algebra.value}, n={self.n}, rank={self.rank()})"


def pure_state(psi: Matrix) -> DensityOperator:
    """The rank-one state psi <psi|.> for a unit vector psi, an n x 1 column.

    Any other shape raises ValueError: the same sum over n columns would be a
    mixed state.
    """
    if psi.m != 1:
        raise ValueError(f"a pure state needs an n x 1 column, got {psi.n}x{psi.m}")
    nrm = psi.norm()
    if not 0.0 < nrm < math.inf:
        raise DegenerateInput(f"a pure state needs a nonzero finite vector, got norm {nrm}")
    if abs(nrm - 1.0) > 1e-9:
        psi = psi.scale_right(1.0 / nrm)
    return DensityOperator(outer(psi, psi))


def random_density(n: int, algebra: Algebra, rng: SplitMix64, rank: int | None = None) -> DensityOperator:
    """Random mixture of `rank` orthonormal pure states with uniform-simplex weights."""
    rank = n if rank is None else rank
    if not 1 <= rank <= n:
        raise ValueError(f"rank must lie in 1..{n}")
    U = random_unitary(n, algebra, rng)
    raw = rng.uniform_block(rank)
    weights = raw / raw.sum()
    return DensityOperator(outer_sum(Matrix(algebra, U.comps[:, :rank]), weights))


# ---------------------------------------------------------------------------
# measures and frame functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LatticeMeasure:
    """Probability assignment on projectors.

    ``evaluate`` is block-shaped: it takes the algebra and a certified (k, n, n, 4)
    stack of projectors, as :meth:`Projector.rank_ones` returns it, and gives
    their k values in stack order; ``mu(P)`` is its one-projector case.
    """

    evaluate: Callable[[Algebra, np.ndarray], np.ndarray]

    def __call__(self, P: Projector) -> float:
        return float(self.evaluate(P.algebra, P.matrix.comps[None])[0])


def measure_from_state(state: DensityOperator) -> LatticeMeasure:
    """mu(P) = Re tr(P T); sigma-additive with values in [0, 1].

    Reads the whole stack in one contraction, with no product PT.
    """

    def ev(algebra: Algebra, stack: np.ndarray) -> np.ndarray:
        if algebra is not state.algebra:
            raise AlgebraMismatch(f"mixed algebras {algebra.value} and {state.algebra.value}")
        return _real_pairings(stack, state.matrix.comps)

    return LatticeMeasure(evaluate=ev)


@dataclass(frozen=True)
class FrameFunction:
    """Unit-vector oracle; the restriction of a measure to rank-one projectors.

    ``evaluate`` is block-shaped: it takes an n x k :class:`Matrix` of probe
    columns and returns their k values, in column order, and ``f(x)`` is its
    one-column case.  :meth:`from_measure` hands the measure the stack of line
    projectors of :meth:`Projector.rank_ones`, one column chunk of at most
    ``_PROBE_CHUNK_ENTRIES`` stack entries at a time, whatever kind of measure
    it is; :meth:`pointwise` wraps an opaque per-vector oracle.
    """

    evaluate: Callable[[Matrix], Sequence[float]]

    def __call__(self, x: Matrix) -> float:
        return float(self.evaluate(x)[0])

    @classmethod
    def from_measure(cls, mu: LatticeMeasure) -> "FrameFunction":
        def ev(X: Matrix) -> list[float]:
            width = max(1, _PROBE_CHUNK_ENTRIES // (4 * X.n * X.n))
            values: list[float] = []
            for c in range(0, X.m, width):
                stack = Projector.rank_ones(Matrix(X.algebra, X.comps[:, c:c + width]))
                values += mu.evaluate(X.algebra, stack).tolist()
            return values

        return cls(evaluate=ev)

    @classmethod
    def pointwise(cls, fn: Callable[[Matrix], float]) -> "FrameFunction":
        """The frame function of a per-vector oracle, called once per column, in
        order, on that column as an n x 1 matrix."""

        def ev(X: Matrix) -> list[float]:
            return [float(fn(x)) for x in X.columns()]

        return cls(evaluate=ev)

# ---------------------------------------------------------------------------
# reconstruction: measure -> density operator
# ---------------------------------------------------------------------------

def reconstruct_state(
    f: FrameFunction,
    n: int,
    algebra: Algebra,
    *,
    rng: SplitMix64 | None = None,
    verification_probes: int = 100,
) -> DensityOperator:
    """Rebuild the unique density operator whose quadratic form matches f.

    Diagonal entries are f(e_k); off-diagonal entries come from polarization
    probes f((e_k + e_l q)/sqrt2) = (T_kk + T_ll)/2 + Re(T_kl q) with q running
    over 1 and the imaginary units of the algebra.  f is evaluated on four
    blocks, in this order: phase invariance (up to four basis vectors and two
    random unit vectors, each followed by its turns x q for 10 random phases
    q), the standard basis, every polarization probe, and ``verification_probes``
    random unit vectors drawn by :func:`random_unit_vectors`.  Re<x|Tx> comes
    for all verification probes from the one product T X.  An opaque oracle
    wrapped by :meth:`FrameFunction.pointwise` is still called once per probe,
    in this order.  Phase invariance is checked to 1e-7, the basis weight to
    1e-7 n and every verification probe to 1e-8.  The verified matrix is
    certified as a state.
    """
    rng = rng or SplitMix64(0x51EA).derive("reconstruct", algebra.value, n)
    units = np.array([q.to_array() for q in (Quaternion.ONE,) + algebra.imaginary_units])

    def probe(X: Matrix) -> np.ndarray:
        values = np.asarray(f.evaluate(X), dtype=np.float64)
        if values.shape != (X.m,):
            raise NotAFrameFunction(f"oracle returned {values.shape} values for {X.m} probes")
        return values

    m = min(n, 4)
    phase_probes = np.zeros((n, m + 2, 1, 4))
    phase_probes[np.arange(m), np.arange(m), 0, 0] = 1.0
    phase_probes[:, m:, 0] = random_unit_vectors(n, 2, algebra, rng).comps
    phases = random_phases(10 * (m + 2), algebra, rng).reshape(m + 2, 10, 4)
    turns = _mul_comps(phase_probes, phases)  # x q, column by column
    block = np.concatenate([phase_probes, turns], axis=2).reshape(n, 11 * (m + 2), 4)
    fx = probe(Matrix(algebra, block)).reshape(m + 2, 11)
    # NaN fails every comparison
    if not (np.abs(fx[:, 1:] - fx[:, :1]) <= 10.0 * _STATE_TOL).all():
        raise NotAFrameFunction(f"oracle is not phase invariant: |f(xq) - f(x)| > {10.0 * _STATE_TOL}")

    diag = probe(Matrix.identity(n, algebra))
    weight = float(diag.sum())
    if not abs(weight - 1.0) <= 10.0 * _STATE_TOL * n:
        raise NotAFrameFunction(f"basis weight {weight} differs from 1")

    # column (pair, q) of the polarization block is (e_k + e_l q)/sqrt2, pairs k < l in row order
    k, l = np.triu_indices(n, 1)
    pairs = np.arange(len(k))
    polar = np.zeros((n, len(k), len(units), 4))
    polar[k, pairs, :, 0] = 1.0
    polar[l, pairs] = units
    polar /= np.sqrt(2.0)
    r = probe(Matrix(algebra, polar.reshape(n, -1, 4))).reshape(len(k), len(units))
    r = r - ((diag[k] + diag[l]) / 2.0)[:, None]
    # T_kl = sum_q conj(q) Re(T_kl q), summed from zero in the order of the units
    entries = np.zeros((len(k), 4))
    for u, q in enumerate(units):
        entries = entries + _conj_comps(q) * r[:, u, None]
    comps = np.zeros((n, n, 4))
    comps[np.arange(n), np.arange(n), 0] = diag
    comps[k, l] = entries
    comps[l, k] = _conj_comps(entries)
    T = Matrix(algebra, comps)

    X = random_unit_vectors(n, verification_probes, algebra, rng)
    # Re<x|Tx> = sum_m Re(conj(x_m) (Tx)_m), the componentwise dot product
    predicted = (X.comps * (T @ X).comps).sum(axis=(0, 2))
    errors = np.abs(predicted - probe(X))
    failed = np.flatnonzero(~(errors <= _STATE_TOL))
    if failed.size:
        error = errors[failed[0]]
        raise NotAFrameFunction(f"oracle is not a quadratic form: probe error {error:.3e}")
    return DensityOperator(T)


# ---------------------------------------------------------------------------
# convexity and extremality
# ---------------------------------------------------------------------------

def convex_mix(states: list[DensityOperator], weights: list[float]) -> DensityOperator:
    if len(states) != len(weights) or not states:
        raise InvalidWeights("need one weight per state")
    w = np.asarray(weights, dtype=np.float64)
    # NaN fails every comparison
    if not (-1e-12 <= w.min() and abs(w.sum() - 1.0) <= 1e-12):
        raise InvalidWeights(f"weights must be nonnegative and sum to 1, got sum {w.sum()}")
    acc = Matrix.zeros(states[0].n, states[0].n, states[0].algebra)
    for state, wt in zip(states, w):
        acc = acc + state.matrix * float(wt)
    return DensityOperator(acc)


def is_extremal(state: DensityOperator) -> bool:
    """True iff the state is a rank-one projector (a pure state), its second
    eigenvalue at most 1e-8."""
    values = state.eigenvalues
    return len(values) == 1 or float(values[1]) <= _STATE_TOL


def extremal_split(state: DensityOperator) -> tuple[float, DensityOperator, DensityOperator]:
    """Nontrivial convex split T = w T1 + (1-w) T2 of a non-extremal state.

    T1 is the pure state at the top eigenvector, T2 the renormalized rest.
    """
    dec = state.eigen()
    w1 = float(dec.values[0])
    if 1.0 - w1 <= _STATE_TOL:
        raise ValueError("state is extremal (rank one); no nontrivial split exists")
    T1 = DensityOperator(outer_sum(Matrix(state.algebra, dec.basis.comps[:, :1])))
    keep = np.flatnonzero(dec.values[1:] > 0.0) + 1
    rest = Matrix(state.algebra, dec.basis.comps[:, keep])
    T2 = DensityOperator(outer_sum(rest, dec.values[keep] / (1.0 - w1)))
    return w1, T1, T2


def convex_unit_lemma(ps: list[float], qs: list[float]) -> bool:
    """Whether sum(p) = sum(p q) = 1 (to 1e-12) forces every q to lie within
    1e-9 of 1.  Inputs must satisfy p in (0,1), q in [0,1]."""
    p = np.asarray(ps, dtype=np.float64)
    q = np.asarray(qs, dtype=np.float64)
    if len(p) != len(q) or len(p) < 2:
        raise ValueError("need matching lists of length >= 2")
    if not (0.0 < p.min() and p.max() < 1.0):
        raise ValueError("every p must lie strictly inside (0, 1)")
    if not (-1e-12 <= q.min() and q.max() <= 1.0 + 1e-12):
        raise ValueError("every q must lie in [0, 1]")
    hypothesis = abs(p.sum() - 1.0) <= 1e-12 and abs((p * q).sum() - 1.0) <= 1e-12
    if not hypothesis:
        return True
    return bool(np.abs(q - 1.0).max() <= 1e-9)


# ---------------------------------------------------------------------------
# separation
# ---------------------------------------------------------------------------

def separating_state(P: Projector, Q: Projector) -> DensityOperator | None:
    """A pure state distinguishing P from Q, or None if none is found.

    The top eigenvector psi of the Hermitian difference P - Q maximizes
    |mu_psi(P) - mu_psi(Q)|, which equals the corresponding eigenvalue.
    """
    diff = P.matrix - Q.matrix
    dec = eig_hermitian(diff)
    idx = int(np.argmax(np.abs(dec.values)))
    if abs(float(dec.values[idx])) <= 1e-8:
        return None
    return pure_state(dec.basis.col(idx))


def separation_check(P: Projector, Q: Projector) -> bool:
    """True iff some pure state assigns the two projectors different probabilities."""
    if P.n != Q.n:
        raise ValueError("projectors act on different spaces")
    witness = separating_state(P, Q)
    if witness is None:
        return False
    mu = measure_from_state(witness)
    return abs(mu(P) - mu(Q)) > 1e-8


# ---------------------------------------------------------------------------
# sigma-additivity probes
# ---------------------------------------------------------------------------

def random_orthogonal_decomposition(n: int, algebra: Algebra, rng: SplitMix64) -> list[Projector]:
    """Pairwise-orthogonal projectors summing to the identity, spanned by
    consecutive column blocks of a random unitary."""
    U = random_unitary(n, algebra, rng)
    blocks = min(2 + rng.integer(n - 1) if n > 2 else 2, n)
    cuts = sorted(rng.integer(n - 1) + 1 for _ in range(blocks - 1))
    bounds = [0] + sorted(set(cuts)) + [n]
    out = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if hi > lo:
            out.append(projector_onto(Matrix(algebra, U.comps[:, lo:hi])))
    return out


# ---------------------------------------------------------------------------
# the dimension-2 obstruction
# ---------------------------------------------------------------------------

def _bloch_z(comps: np.ndarray) -> np.ndarray:
    """n_z = P_00 - P_11 of a 2 x 2 projector P = (I + n.sigma)/2, or of every
    projector of a stack, from the components."""
    return comps[..., 0, 0, 0] - comps[..., 1, 1, 0]


@dataclass(frozen=True)
class Dim2Certificate:
    """Evidence that the Bloch-cubic measure is additive yet not trace-backed."""

    additivity_gap: float
    identity_value: float
    best_fit: Matrix
    best_fit_max_error: float


def dim2_counterexample(probes: int = 100) -> tuple[LatticeMeasure, Dim2Certificate]:
    """A sigma-additive measure on the C^2 lattice reproduced by no state.

    Rank-one projectors on C^2 are P = (I + n.sigma)/2 for a Bloch vector n on
    the unit sphere; orthogonal rank-one pairs have antipodal Bloch vectors.
    The cubic map mu(P) = (1 + n_z^3)/2 therefore satisfies every additivity
    constraint, but it is not linear in P, and the best least-squares
    trace-form fit misses it by a fixed margin near the poles.  The measure
    is 0 on the zero projector and 1 on the identity; the ``probes`` random
    lines come from one fixed stream.  It is defined on C^2 alone: another
    algebra raises AlgebraMismatch, and a stack not of 2 x 2 matrices
    ValueError.
    """
    algebra = Algebra.C

    def ev(stack_algebra: Algebra, stack: np.ndarray) -> np.ndarray:
        if stack_algebra is not algebra:
            raise AlgebraMismatch(f"the Bloch-cubic measure lives on C^2, not {stack_algebra.value}")
        if stack.ndim != 4 or stack.shape[1:] != (2, 2, 4):
            raise ValueError(f"need a (k, 2, 2, 4) stack, got shape {stack.shape}")
        values = []
        for P in stack:
            rank = round(np.trace(P[..., 0]))
            # the cube in Python floats, projector by projector: numpy's
            # vectorized power does not always round as it does
            values.append(0.0 if rank == 0 else 1.0 if rank == 2 else (1.0 + float(_bloch_z(P)) ** 3) / 2.0)
        return np.array(values)

    mu = LatticeMeasure(evaluate=ev)

    # one certified stack of the two poles, then the probe lines
    X = random_unit_vectors(2, probes, algebra, SplitMix64(0xB10C))
    ident = Matrix.identity(2, algebra).comps
    fit_stack = Projector.rank_ones(Matrix(algebra, np.concatenate([ident, X.comps], axis=1)))
    # the complements I - P, certified as the constructor would: idempotency
    # from one batched complex product, the Hermitian defect from the stack
    complements = ident - fit_stack[2:]
    Z = complements.view(np.complex128)[..., 0]
    _certify_projectors(complements, np.abs(np.matmul(Z, Z) - Z).max(axis=(1, 2)), _PROJECTOR_TOL)
    values = mu.evaluate(algebra, fit_stack)
    additivity_gap = float(np.abs(values[2:] + mu.evaluate(algebra, complements) - 1.0).max())

    # least-squares fit of a Hermitian T = (w I + v . sigma)/2 to the probes:
    # P = (I + n . sigma)/2 has n_x = 2 Re P_01, n_y = -2 Im P_01 and n_z = P_00 - P_11
    nx = 2.0 * fit_stack[:, 0, 1, 0]
    ny = -2.0 * fit_stack[:, 0, 1, 1]
    nz = _bloch_z(fit_stack)
    rows = np.stack([np.full(len(fit_stack), 0.5), 0.5 * nx, 0.5 * ny, 0.5 * nz], axis=1)
    coeff, *_ = np.linalg.lstsq(rows, values, rcond=None)
    w0, vx, vy, vz = (float(x) for x in coeff)
    best_fit = Matrix.from_rows(
        [
            [Quaternion((w0 + vz) / 2.0), Quaternion((vx) / 2.0, -vy / 2.0)],
            [Quaternion((vx) / 2.0, vy / 2.0), Quaternion((w0 - vz) / 2.0)],
        ],
        algebra,
    )
    fit_error = float(np.abs(_real_pairings(fit_stack, best_fit.comps) - values).max())
    certificate = Dim2Certificate(
        additivity_gap=additivity_gap,
        identity_value=float(mu.evaluate(algebra, ident[None])[0]),
        best_fit=best_fit,
        best_fit_max_error=fit_error,
    )
    return mu, certificate
