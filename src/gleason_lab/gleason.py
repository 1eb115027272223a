"""States as probability measures on the projector lattice.

A state is a sigma-additive probability measure on the lattice of orthogonal
projectors.  For dimension at least 3 these measures are exactly the maps
P -> Re tr(P T) for a unique density operator T (Hermitian, positive, unit
real trace); this module provides both directions of that correspondence
constructively, the extremal/pure classification, and the dimension-2
counterexample showing why the bijection needs dim > 2.

Measures are represented by oracles, not tables: even at n = 3 the lattice is
infinite, so every check samples projectors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import InvalidWeights, NotAFrameFunction, NotHermitian, NotPositive
from .linalg import (
    Basis,
    Matrix,
    Projector,
    Vector,
    gram_schmidt,
    inner,
    outer,
    projector_onto,
    random_phase,
    random_projector,
    random_unit_vector,
    random_unitary,
)
from .rng import SplitMix64
from .scalars import Algebra, Quaternion
from .spectral import EigenDecomposition, eig_hermitian
from .trace import real_trace

_STATE_TOL = 1e-8


class DensityOperator:
    """Hermitian positive operator with unit real trace (a quantum state)."""

    __slots__ = ("matrix", "_eigen")

    def __init__(self, matrix: Matrix, *, tol: float = _STATE_TOL):
        if not matrix.is_square:
            raise ValueError("state matrix must be square")
        defect = matrix.hermitian_defect()
        # a NaN or inf entry makes the ratio NaN, and NaN fails every comparison
        if not (defect / max(1.0, matrix.max_abs()) <= tol):
            raise NotHermitian(f"state is not Hermitian: defect {defect:.3e}")
        dec = eig_hermitian(matrix)
        low = float(dec.values.min())
        if low < -tol:
            raise NotPositive(f"state has eigenvalue {low:.3e}")
        tr = real_trace(matrix)
        # NaN fails every comparison
        if not (abs(tr - 1.0) <= tol):
            raise ValueError(f"state trace {tr} differs from 1 beyond {tol}")
        self.matrix = matrix
        self._eigen = dec

    @property
    def algebra(self) -> Algebra:
        return self.matrix.algebra

    @property
    def n(self) -> int:
        return self.matrix.n

    def eigen(self) -> EigenDecomposition:
        return self._eigen

    def rank(self, tol: float = _STATE_TOL) -> int:
        return int((self._eigen.values > tol).sum())

    def to_json(self) -> dict:
        payload = self.matrix.to_json()
        payload["certified"] = True
        return payload

    def __repr__(self) -> str:
        return f"DensityOperator({self.algebra.value}, n={self.n}, rank={self.rank()})"


def pure_state(psi: Vector) -> DensityOperator:
    """The rank-one state psi <psi|.> for a unit vector psi."""
    nrm = psi.norm()
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
    acc = Matrix.zeros(n, n, algebra)
    for m in range(rank):
        u = U.col(m)
        acc = acc + outer(u, u) * float(weights[m])
    return DensityOperator(acc)


# ---------------------------------------------------------------------------
# measures and frame functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LatticeMeasure:
    """Probability assignment on projectors, trace-backed or a raw oracle."""

    evaluate: Callable[[Projector], float]
    state: DensityOperator | None = None

    def __call__(self, P: Projector) -> float:
        return float(self.evaluate(P))

    @classmethod
    def trace_backed(cls, state: DensityOperator) -> "LatticeMeasure":
        def ev(P: Projector) -> float:
            return real_trace(P.matrix @ state.matrix)

        return cls(evaluate=ev, state=state)

    @classmethod
    def oracle_backed(cls, fn: Callable[[Projector], float]) -> "LatticeMeasure":
        return cls(evaluate=fn)


def measure_from_state(state: DensityOperator) -> LatticeMeasure:
    """mu(P) = Re tr(P T); sigma-additive with values in [0, 1]."""
    return LatticeMeasure.trace_backed(state)


@dataclass(frozen=True)
class FrameFunction:
    """Unit-vector oracle; the restriction of a measure to rank-one projectors."""

    evaluate: Callable[[Vector], float]

    def __call__(self, x: Vector) -> float:
        return float(self.evaluate(x))

    @classmethod
    def from_measure(cls, mu: LatticeMeasure) -> "FrameFunction":
        def ev(x: Vector) -> float:
            return mu(projector_onto([x]))

        return cls(evaluate=ev)

    @classmethod
    def from_state(cls, state: DensityOperator) -> "FrameFunction":
        def ev(x: Vector) -> float:
            return inner(x, state.matrix @ x).real

        return cls(evaluate=ev)

    def basis_weight(self, basis: Basis) -> float:
        return float(sum(self(u) for u in basis))


def lattice_join(projectors: list[Projector]) -> Projector:
    """Projector onto the closed span of the union of ranges.

    For pairwise-orthogonal families this equals the plain sum of the
    projectors.
    """
    if not projectors:
        raise ValueError("join of an empty family is undefined without a dimension")
    n = projectors[0].n
    algebra = projectors[0].algebra
    spanning: list[Vector] = []
    for P in projectors:
        dec = eig_hermitian(P.matrix)
        for s, u in zip(dec.values, dec.basis):
            if s > 0.5:
                spanning.append(u)
    if not spanning:
        return Projector.zero(n, algebra)
    return projector_onto(spanning, drop=True)


# ---------------------------------------------------------------------------
# reconstruction: measure -> density operator
# ---------------------------------------------------------------------------

def _polarization_vector(k: int, l: int, q: Quaternion, n: int, algebra: Algebra) -> Vector:
    comps = np.zeros((n, 4))
    comps[k, 0] = 1.0
    comps[l] = q.to_array()
    comps /= np.sqrt(2.0)
    return Vector(algebra, comps)


def _check_phase_invariance(f: FrameFunction, probes: list[Vector], algebra: Algebra,
                            rng: SplitMix64, tol: float) -> None:
    for x in probes:
        fx = f(x)
        for _ in range(10):
            q = random_phase(algebra, rng)
            if abs(f(x.scale_right(q)) - fx) > tol:
                raise NotAFrameFunction(
                    f"oracle is not phase invariant: |f(xq) - f(x)| > {tol}"
                )


def reconstruct_state(
    f: FrameFunction,
    n: int,
    algebra: Algebra,
    *,
    rng: SplitMix64 | None = None,
    verification_probes: int = 100,
    tol: float = _STATE_TOL,
) -> DensityOperator:
    """Rebuild the unique density operator whose quadratic form matches f.

    Diagonal entries are f(e_k); off-diagonal entries come from polarization
    probes f((e_k + e_l q)/sqrt2) = (T_kk + T_ll)/2 + Re(T_kl q) with q running
    over 1 and the imaginary units of the algebra.  The result is verified
    against random probes and certified as a state.
    """
    rng = rng or SplitMix64(0x51EA).derive("reconstruct", algebra.value, n)
    ident_units = (Quaternion.ONE,) + algebra.imaginary_units
    basis_vectors = [Vector.basis_vector(m, n, algebra) for m in range(n)]

    phase_probes = basis_vectors[: min(n, 4)] + [
        random_unit_vector(n, algebra, rng) for _ in range(2)
    ]
    _check_phase_invariance(f, phase_probes, algebra, rng, 10.0 * tol)

    diag = np.array([f(e) for e in basis_vectors])
    weight = float(diag.sum())
    if abs(weight - 1.0) > 10.0 * tol * n:
        raise NotAFrameFunction(f"basis weight {weight} differs from 1")

    comps = np.zeros((n, n, 4))
    comps[np.arange(n), np.arange(n), 0] = diag
    for k in range(n):
        for l in range(k + 1, n):
            entry = Quaternion.ZERO
            for q in ident_units:
                r_q = f(_polarization_vector(k, l, q, n, algebra)) - (diag[k] + diag[l]) / 2.0
                entry = entry + q.conjugate() * r_q
            comps[k, l] = entry.to_array()
            comps[l, k] = entry.conjugate().to_array()
    T = Matrix(algebra, comps)

    for _ in range(verification_probes):
        x = random_unit_vector(n, algebra, rng)
        predicted = inner(x, T @ x).real
        if abs(predicted - f(x)) > tol:
            raise NotAFrameFunction(
                f"oracle is not a quadratic form: probe error {abs(predicted - f(x)):.3e}"
            )
    return DensityOperator(T)


# ---------------------------------------------------------------------------
# convexity and extremality
# ---------------------------------------------------------------------------

def convex_mix(states: list[DensityOperator], weights: list[float]) -> DensityOperator:
    if len(states) != len(weights) or not states:
        raise InvalidWeights("need one weight per state")
    w = np.asarray(weights, dtype=np.float64)
    if w.min() < -1e-12 or abs(w.sum() - 1.0) > 1e-12:
        raise InvalidWeights(f"weights must be nonnegative and sum to 1, got sum {w.sum()}")
    acc = Matrix.zeros(states[0].n, states[0].n, states[0].algebra)
    for state, wt in zip(states, w):
        acc = acc + state.matrix * float(wt)
    return DensityOperator(acc)


def is_extremal(state: DensityOperator, tol: float = _STATE_TOL) -> bool:
    """True iff the state is a rank-one projector (a pure state)."""
    values = state.eigen().values
    return len(values) == 1 or float(values[1]) <= tol


def extremal_split(state: DensityOperator) -> tuple[float, DensityOperator, DensityOperator]:
    """Nontrivial convex split T = w T1 + (1-w) T2 of a non-extremal state.

    T1 is the pure state at the top eigenvector, T2 the renormalized rest.
    """
    dec = state.eigen()
    w1 = float(dec.values[0])
    if 1.0 - w1 <= _STATE_TOL:
        raise ValueError("state is extremal (rank one); no nontrivial split exists")
    top = dec.basis[0]
    T1 = DensityOperator(outer(top, top))
    rest = Matrix.zeros(state.n, state.n, state.algebra)
    for s, u in zip(dec.values[1:], list(dec.basis)[1:]):
        if s > 0.0:
            rest = rest + outer(u, u) * (float(s) / (1.0 - w1))
    T2 = DensityOperator(rest)
    return w1, T1, T2


def convex_unit_lemma(ps: list[float], qs: list[float]) -> bool:
    """Whether sum(p) = sum(p q) = 1 (to 1e-12) forces every q to lie within
    1e-9 of 1.  Inputs must satisfy p in (0,1), q in [0,1]."""
    p = np.asarray(ps, dtype=np.float64)
    q = np.asarray(qs, dtype=np.float64)
    if len(p) != len(q) or len(p) < 2:
        raise ValueError("need matching lists of length >= 2")
    if p.min() <= 0.0 or p.max() >= 1.0:
        raise ValueError("every p must lie strictly inside (0, 1)")
    if q.min() < -1e-12 or q.max() > 1.0 + 1e-12:
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
    return pure_state(dec.basis[idx])


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

def random_orthogonal_decomposition(
    n: int, algebra: Algebra, rng: SplitMix64, blocks: int | None = None
) -> list[Projector]:
    """Pairwise-orthogonal projectors summing to the identity."""
    U = random_unitary(n, algebra, rng)
    blocks = blocks or (2 + rng.integer(n - 1) if n > 2 else 2)
    blocks = min(blocks, n)
    cuts = sorted(rng.integer(n - 1) + 1 for _ in range(blocks - 1))
    bounds = [0] + sorted(set(cuts)) + [n]
    out = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if hi > lo:
            out.append(projector_onto([U.col(c) for c in range(lo, hi)]))
    return out


def sigma_additivity_gap(mu: LatticeMeasure, decomposition: list[Projector]) -> float:
    """|sum_k mu(P_k) - mu(sum_k P_k)| for a pairwise-orthogonal family."""
    total = sum(mu(P) for P in decomposition)
    joined = lattice_join(decomposition)
    return abs(total - mu(joined))


def measure_transcript(mu: LatticeMeasure, probes: list[Projector]) -> list[dict]:
    """Probe transcript rows {projector_rank, value} for report generation."""
    return [{"projector_rank": P.rank, "value": mu(P)} for P in probes]


def probe_measure(
    mu: LatticeMeasure,
    n: int,
    algebra: Algebra,
    rng: SplitMix64,
    probes: int = 200,
    ranks: tuple[int, ...] | None = None,
) -> list[dict]:
    """Sample a measure oracle on random projectors and return the transcript.

    The lattice is infinite even at n = 3, so sampling is the only finite
    check; the defaults draw 200 projectors with ranks cycling through
    1..n-1.  Values escaping [0, 1] beyond 1e-10 raise ValueError.
    """
    ranks = ranks or tuple(range(1, n)) or (n,)
    rows = []
    for t in range(probes):
        P = random_projector(n, ranks[t % len(ranks)], algebra, rng)
        value = mu(P)
        if value < -1e-10 or value > 1.0 + 1e-10:
            raise ValueError(f"measure value {value} escapes [0, 1]")
        rows.append({"projector_rank": P.rank, "value": value})
    return rows


# ---------------------------------------------------------------------------
# the dimension-2 obstruction
# ---------------------------------------------------------------------------

def _bloch_z(P: Projector) -> float:
    return P.matrix.entry(0, 0).a - P.matrix.entry(1, 1).a


@dataclass(frozen=True)
class Dim2Certificate:
    """Evidence that the Bloch-cubic measure is additive yet not trace-backed."""

    additivity_gap: float
    identity_value: float
    best_fit: Matrix
    best_fit_max_error: float
    transcript: list[dict] = field(default_factory=list)


def dim2_counterexample(probes: int = 100, seed: int = 0xB10C) -> tuple[LatticeMeasure, Dim2Certificate]:
    """A sigma-additive measure on the C^2 lattice reproduced by no state.

    Rank-one projectors on C^2 are P = (I + n.sigma)/2 for a Bloch vector n on
    the unit sphere; orthogonal rank-one pairs have antipodal Bloch vectors.
    The cubic map mu(P) = (1 + n_z^3)/2 therefore satisfies every additivity
    constraint, but it is not linear in P, and the best least-squares
    trace-form fit misses it by a fixed margin near the poles.
    """
    algebra = Algebra.C

    def ev(P: Projector) -> float:
        rank = P.rank
        if rank == 0:
            return 0.0
        if rank == 2:
            return 1.0
        return (1.0 + _bloch_z(P) ** 3) / 2.0

    mu = LatticeMeasure.oracle_backed(ev)

    rng = SplitMix64(seed)
    pairs = []
    for _ in range(probes):
        P = projector_onto([random_unit_vector(2, algebra, rng)])
        pairs.append((P, P.complement()))
    additivity_gap = max(abs(mu(P) + mu(Pc) - 1.0) for P, Pc in pairs)

    # least-squares fit of a Hermitian T = (w I + v . sigma)/2 to the probes
    pole_up = projector_onto([Vector.basis_vector(0, 2, algebra)])
    pole_down = projector_onto([Vector.basis_vector(1, 2, algebra)])
    fit_probes = [pole_up, pole_down] + [P for P, _ in pairs]
    rows, targets = [], []
    for P in fit_probes:
        nz = _bloch_z(P)
        nx = 2.0 * P.matrix.entry(0, 1).a
        ny = -2.0 * P.matrix.entry(0, 1).b
        rows.append([0.5, 0.5 * nx, 0.5 * ny, 0.5 * nz])
        targets.append(mu(P))
    coeff, *_ = np.linalg.lstsq(np.array(rows), np.array(targets), rcond=None)
    w0, vx, vy, vz = (float(x) for x in coeff)
    best_fit = Matrix.from_rows(
        [
            [Quaternion((w0 + vz) / 2.0), Quaternion((vx) / 2.0, -vy / 2.0)],
            [Quaternion((vx) / 2.0, vy / 2.0), Quaternion((w0 - vz) / 2.0)],
        ],
        algebra,
    )
    fit_error = max(
        abs(real_trace(P.matrix @ best_fit) - mu(P)) for P in fit_probes
    )
    certificate = Dim2Certificate(
        additivity_gap=additivity_gap,
        identity_value=mu(Projector.identity(2, algebra)),
        best_fit=best_fit,
        best_fit_max_error=fit_error,
        transcript=measure_transcript(mu, [pole_up, pole_down] + [p for p, _ in pairs[:10]]),
    )
    return mu, certificate
