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
lattice measure takes the certified (k, n, n, 4) stack of line projectors from
:meth:`Projector.rank_ones`.  The measure of a state reads Re tr(P T) for the
whole stack in one contraction (:func:`gleason_lab.trace._real_pairings`).  On
the line of a vector x it is the frame function f(x) = Re<x|Tx> / <x|x>, and
the measure carries that reading of probe columns (``LatticeMeasure.lines``,
:func:`_line_values`): one product x* T per column, with no line projector.
So :func:`reconstruct_state` makes one draw, a Gaussian block split into its
random pair, its phases and its verification probes in that order
(:func:`_probe_draws`), and one block call, on one probe array with its four
probe blocks written side by side in place; it builds no object and no
projector per probe.  Its verification step predicts each probe value as
Re<x|Tx> from the rebuilt matrix, so it checks the probe path rather than
repeating it.  A measure with no line reading, such as the dimension-2
Bloch-cubic one, which reads its stack projector by projector, is handed
certified line projectors in chunks of ``_PROBE_CHUNK_ENTRIES`` stack
entries.  The Bloch-cubic certificate works on stacks too: the probe lines,
their certified complements I - P and the fit error Re tr(P T) - mu(P), with
no Projector object.

States have stack forms with leading axes, and each public function is the
one-matrix or one-draw case of its stack form: the state certificate
:func:`_state_spectra` (:class:`DensityOperator`), the random mixtures
:func:`_mixtures` (:func:`random_density`), the pure states
:func:`_pure_states` (:func:`pure_state`) and the convex mixtures
:func:`_convex_mixes` (:func:`convex_mix`).  So do the extremality test
:func:`_extremal` (:func:`is_extremal`), the convex splits
:func:`_extremal_splits` (:func:`extremal_split`), the unit lemma
:func:`_convex_unit_lemmas` (:func:`convex_unit_lemma`) and the orthogonal
decompositions :func:`_decompositions` (:func:`random_orthogonal_decomposition`,
whose cut draws are the recipe :func:`_cut_recipe`).  So do the separation
check :func:`_separations` (:func:`separation_check`), whose witnesses are
the top eigenvectors of P - Q, and the reconstruction :func:`_reconstructions`
(:func:`reconstruct_state`), whose stacked frame functions read the probe
columns of every state in one product (:func:`_line_values`).  The suite
builds and certifies a cell's states with them at once.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import kernels
from .errors import AlgebraMismatch, DegenerateInput, InvalidWeights, NotAFrameFunction, NotPositive, require
from .linalg import (
    _CONJ,
    _PROJECTOR_TOL,
    Matrix,
    Projector,
    _block_projectors,
    _certify_projectors,
    _check_same_algebra,
    _conj_comps,
    _groups,
    _layout,
    _mul_comps,
    _outer_sums,
    _unit_rows,
    _unit_scalars,
    inner,  # re-exported: perfbench's tracer test checks this binding
    random_unit_vectors,
    random_unitary,
)
from .rng import Ragged, SplitMix64
from .scalars import Algebra, Quaternion
from .spectral import EigenDecomposition, _eig_stack, _eigvals, eig_hermitian
from .trace import _real_pairings, _real_traces

_STATE_TOL = 1e-8
# f((e_k + e_l q)/sqrt2) = (T_kk + T_ll) * _POLAR_WEIGHT + Re(T_kl q): the squared
# modulus 1/2 of each of the probe's two nonzero entries
_POLAR_WEIGHT = 0.5
# entries of the (k, n, n, 4) stack of line projectors that FrameFunction.from_measure
# builds at once for a measure with no line reading (the dimension-2 Bloch cubic),
# and of the products in each box of suite._pair_products; a wider probe block is
# read in column chunks of this many entries, or of one column where one column
# alone holds more (n > 90).  1 << 15 entries is a 256 KB stack, which stays in a
# 2 MB L2 cache with the temporaries of its certificate and pairing.
_PROBE_CHUNK_ENTRIES = 1 << 15


def _state_spectra(comps: np.ndarray, algebra: Algebra) -> np.ndarray:
    """The spectra, sorted descending, of every matrix of a (..., n, n, 4) stack
    after the state certificate: square, Hermitian (the eigensolver's own test,
    :func:`~gleason_lab.spectral._eigvals`, which raises NotHermitian), no
    eigenvalue below -1e-8 (NotPositive) and the real trace within 1e-8 of 1
    (ValueError).  Over a stack each guard rejects the lowest matrix that fails
    it, by the one-matrix message (:func:`gleason_lab.errors.require`)."""
    if comps.shape[-3] != comps.shape[-2]:
        raise ValueError("state matrix must be square")
    values = _eigvals(comps, algebra)
    low = values.min(axis=-1)
    require(~(low < -_STATE_TOL), NotPositive, lambda i: f"state has eigenvalue {low[i]:.3e}")
    tr = _real_traces(comps)
    # NaN fails every comparison
    require(np.abs(tr - 1.0) <= _STATE_TOL, ValueError,
            lambda i: f"state trace {float(tr[i])} differs from 1 beyond {_STATE_TOL}")
    return values


class DensityOperator:
    """Hermitian positive operator with unit real trace (a quantum state).

    1e-8 bounds the negative eigenvalues and the trace error.  The Hermitian
    test is the eigensolver's own (:func:`eigvals_hermitian`: the ratio test of
    :meth:`Matrix.is_hermitian` at 1e-8), which raises NotHermitian.  The
    one-matrix case of the stacked certificate :func:`_state_spectra`.
    """

    __slots__ = ("matrix", "eigenvalues", "_eigen")

    def __init__(self, matrix: Matrix):
        #: spectrum, sorted descending
        self.eigenvalues = _state_spectra(matrix.comps, matrix.algebra)
        self.matrix = matrix
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


def _pure_states(psi: np.ndarray, count: int) -> np.ndarray:
    """The matrices psi <psi|.> of every n x 1 column of a (..., n, 1, 4) stack,
    each rescaled by its reciprocal norm when that is more than 1e-9 from 1; a
    zero or non-finite column raises DegenerateInput, over a stack for the
    lowest failing column.  The caller certifies the states."""
    nrm = np.sqrt((psi**2).sum(axis=(-3, -2, -1)))
    require((0.0 < nrm) & (nrm < math.inf), DegenerateInput,
            lambda i: f"a pure state needs a nonzero finite vector, got norm {float(nrm[i])}")
    off = np.abs(nrm - 1.0) > 1e-9
    if off.any():
        psi = np.where(off[..., None, None, None], psi * (1.0 / nrm)[..., None, None, None], psi)
    return _outer_sums(psi, count)


def pure_state(psi: Matrix) -> DensityOperator:
    """The rank-one state psi <psi|.> for a unit vector psi, an n x 1 column.

    Any other shape raises ValueError: the same sum over n columns would be a
    mixed state.  The one-column case of :func:`_pure_states`.
    """
    if psi.m != 1:
        raise ValueError(f"a pure state needs an n x 1 column, got {psi.n}x{psi.m}")
    return DensityOperator(Matrix(psi.algebra, _pure_states(psi.comps, psi.algebra.component_count)))


def _mixtures(U: np.ndarray, raw: np.ndarray, count: int) -> np.ndarray:
    """sum_m w_m u_m u_m* over the first ``rank`` columns u_m of every unitary of a
    (..., n, n, 4) stack, with the weights w = raw / sum(raw) of its row of
    ``rank`` uniforms in ``raw`` (..., rank).  The caller certifies the states."""
    rank = raw.shape[-1]
    return _outer_sums(U[..., :rank, :], count, raw / raw.sum(axis=-1, keepdims=True))


def random_density(n: int, algebra: Algebra, rng: SplitMix64, rank: int | None = None) -> DensityOperator:
    """Random mixture of `rank` orthonormal pure states with uniform-simplex
    weights: a :func:`random_unitary`, then ``rank`` uniforms.  The one-draw
    case of :func:`_mixtures`."""
    rank = n if rank is None else rank
    if not 1 <= rank <= n:
        raise ValueError(f"rank must lie in 1..{n}")
    U = random_unitary(n, algebra, rng)
    return DensityOperator(Matrix(algebra, _mixtures(U.comps, rng.uniform_block(rank), algebra.component_count)))


# ---------------------------------------------------------------------------
# measures and frame functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LatticeMeasure:
    """Probability assignment on projectors.

    ``evaluate`` is block-shaped: it takes the algebra and a certified (k, n, n, 4)
    stack of projectors, as :meth:`Projector.rank_ones` returns it, and gives
    their k values in stack order; ``mu(P)`` is its one-projector case.
    ``lines``, where the measure has it, takes the algebra and the (n, k, 4)
    components of k probe columns x and gives mu(P_x) of their lines, with no
    projector built; :meth:`FrameFunction.from_measure` reads it in place of
    ``evaluate``.
    """

    evaluate: Callable[[Algebra, np.ndarray], np.ndarray]
    lines: Callable[[Algebra, np.ndarray], np.ndarray] | None = None

    def __call__(self, P: Projector) -> float:
        return float(self.evaluate(P.algebra, P.matrix.comps[None])[0])


def measure_from_state(state: DensityOperator) -> LatticeMeasure:
    """mu(P) = Re tr(P T); sigma-additive with values in [0, 1].

    Reads the whole stack in one contraction, with no product PT, and the line
    of a probe column x as Re<x|Tx> / <x|x> (:func:`_line_values`).  Projectors
    or probes of another algebra raise AlgebraMismatch.
    """

    def check(algebra: Algebra) -> None:
        if algebra is not state.algebra:
            raise AlgebraMismatch(f"mixed algebras {algebra.value} and {state.algebra.value}")

    def ev(algebra: Algebra, stack: np.ndarray) -> np.ndarray:
        check(algebra)
        return _real_pairings(stack, state.matrix.comps, algebra.component_count)

    def lines(algebra: Algebra, X: np.ndarray) -> np.ndarray:
        check(algebra)
        return _line_values(state.matrix.comps, X, algebra)

    return LatticeMeasure(evaluate=ev, lines=lines)


def _line_values(states: np.ndarray, X: np.ndarray, algebra: Algebra) -> np.ndarray:
    """Re<x|Tx> / <x|x> = Re tr(P_x T) for every column x of the (..., n, k, 4)
    probes ``X``, each with the state T of its stack entry in ``states``
    (..., n, n, 4): the (..., k) values of the frame functions, with no line
    projector.

    Each column is read as the row x*, one vector-matrix product x* T per
    column over the whole stack (:func:`gleason_lab.kernels.quat_matmul`), and
    Re sum_c (x* T)_c x_c is the componentwise dot product of x* T with x*,
    summed over the column's 4n contiguous components, as <x|x> is.  So a
    column has the same bits in a block of any width, alone and over a stack
    of states: one GEMM over the block would round each column by the width.
    A zero or non-finite column raises DegenerateInput with the messages of
    :meth:`Projector.rank_ones`; the caller keeps the columns in the algebra.
    """
    rows = np.empty(X.shape[:-3] + (X.shape[-2], 1, X.shape[-3], 4))
    np.multiply(X.swapaxes(-3, -2)[..., None, :, :], _CONJ, out=rows)  # x*, a contiguous 1 x n row each
    sq = (rows * rows).sum(axis=(-3, -2, -1))
    # NaN would slip through the zero test, and an inf column would read as NaN
    if not np.isfinite(sq).all():
        raise DegenerateInput("input vector has a non-finite norm")
    if (sq == 0.0).any():
        raise DegenerateInput("zero input vector")
    xT = kernels.quat_matmul(rows, states[..., None, :, :, :], algebra.component_count)
    return np.multiply(rows, xT, out=xT).sum(axis=(-3, -2, -1)) / sq


@dataclass(frozen=True)
class FrameFunction:
    """Unit-vector oracle; the restriction of a measure to rank-one projectors.

    ``evaluate`` is block-shaped: it takes an n x k :class:`Matrix` of probe
    columns and returns their k values, in column order, and ``f(x)`` is its
    one-column case.  :meth:`from_measure` reads the measure's ``lines`` where
    it has them, the whole block at once; any other measure is handed the
    stack of line projectors of :meth:`Projector.rank_ones`, one column chunk
    of at most ``_PROBE_CHUNK_ENTRIES`` stack entries at a time (one column at
    n > 90, where a column alone holds more).  :meth:`pointwise` wraps an
    opaque per-vector oracle.
    """

    evaluate: Callable[[Matrix], Sequence[float]]

    def __call__(self, x: Matrix) -> float:
        """f(x) of one n x 1 column; any other shape raises ValueError."""
        if x.m != 1:
            raise ValueError(f"f(x) needs an n x 1 column, got {x.n}x{x.m}")
        return float(self.evaluate(x)[0])

    @classmethod
    def from_measure(cls, mu: LatticeMeasure) -> "FrameFunction":
        if mu.lines is not None:
            return cls(evaluate=lambda X: mu.lines(X.algebra, X.comps).tolist())

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
    over 1 and the imaginary units of the algebra.  Every draw comes first, as
    one Gaussian block (:func:`_probe_draws`): two random unit vectors, 10
    (min(n, 4) + 2) random phases and ``verification_probes`` random unit
    vectors, bit for bit what :func:`random_unit_vectors`,
    :func:`random_phases` and :func:`random_unit_vectors` give one after
    another, with the stream left where they leave it.  f is then evaluated
    once, on one probe array holding four blocks side by side, in this order:
    phase invariance (up to four basis vectors and the two random unit
    vectors, each followed by its turns x q for 10 phases q), the standard
    basis, every polarization probe, and the verification probes.  An opaque
    oracle wrapped by :meth:`FrameFunction.pointwise` is called once per probe,
    in this order.  The checks then read their blocks' values in the same
    order: phase invariance to 1e-7, the basis weight to 1e-7 n and every
    verification probe to 1e-8, its Re<x|Tx> for all probes from the one
    product T X.  The verified matrix is certified as a state.  An n below 1
    or a ``verification_probes`` that is not a nonnegative integer raises
    ValueError before anything is drawn.  The one-state case of
    :func:`_reconstructions`.
    """
    for name, value, low in (("n", n, 1), ("verification_probes", verification_probes, 0)):
        if not (isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= low):
            raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
    rng = rng or SplitMix64(0x51EA).derive("reconstruct", algebra.value, n)
    draws = rng.gaussian_block(_probe_draw_count(n, algebra, verification_probes))

    def evaluate(probes: np.ndarray) -> np.ndarray:
        values = np.asarray(f.evaluate(Matrix(algebra, probes)), dtype=np.float64)
        if values.shape != probes.shape[1:2]:
            raise NotAFrameFunction(f"oracle returned {values.shape} values for {probes.shape[1]} probes")
        return values

    return DensityOperator(Matrix(algebra, _reconstructions(evaluate, algebra, *_probe_draws(draws, n, algebra))))


def _phase_count(n: int) -> int:
    """The random phases of one reconstruction: 10 per phase-invariance probe."""
    return 10 * (min(n, 4) + 2)


def _probe_draw_count(n: int, algebra: Algebra, verification_probes: int) -> int:
    """The Gaussians that one reconstruction draws (:func:`_probe_draws`)."""
    return (2 * n + _phase_count(n) + verification_probes * n) * algebra.component_count


def _probe_draws(gaussians: np.ndarray, n: int, algebra: Algebra) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(pairs, phases, X) of :func:`_reconstructions` from the Gaussians that
    one reconstruction draws, or from a (..., G) stack of them: in this order,
    the two unit vectors (..., n, 2, 4) of the phase block, the
    :func:`_phase_count` phases (..., ., 4) and the verification probes
    (..., n, v, 4), v taken from the length.  Each is formed as its public
    generator forms it, :func:`random_unit_vectors` (:func:`_unit_rows`) and
    :func:`random_phases` (:func:`_unit_scalars`), so one block is bit for bit
    what the three draws one after another give."""
    k, lead = algebra.component_count, gaussians.shape[:-1]
    at = 2 * n * k
    to = at + _phase_count(n) * k
    v = (gaussians.shape[-1] - to) // (n * k)
    pairs = _unit_rows(_layout(gaussians[..., :at], lead + (2, n), algebra)).swapaxes(-3, -2)
    phases = _unit_scalars(gaussians[..., at:to].reshape(lead + (_phase_count(n), k)))
    X = _unit_rows(_layout(gaussians[..., to:], lead + (v, n), algebra)).swapaxes(-3, -2)
    return pairs, phases, X


def _probe_count(n: int, algebra: Algebra, verification_probes: int) -> int:
    """The probe columns of one reconstruction (:func:`reconstruct_state`)."""
    return 11 * (min(n, 4) + 2) + n + n * (n - 1) // 2 * algebra.component_count + verification_probes


def _reconstructions(evaluate: Callable[[np.ndarray], np.ndarray], algebra: Algebra, pairs: np.ndarray,
                     phases: np.ndarray, X: np.ndarray) -> np.ndarray:
    """The (..., n, n, 4) matrices that :func:`reconstruct_state` rebuilds, for
    one frame function or a stack of them, from their draws
    (:func:`_probe_draws`): the two unit vectors ``pairs`` (..., n, 2, 4) of
    the phase block, the 10 (min(n, 4) + 2) ``phases`` (..., ., 4) and the
    verification probes ``X`` (..., n, v, 4).  The (..., n, P, 4) probe
    columns, in :func:`reconstruct_state`'s order, are one zero array with
    each block written in place; ``evaluate`` takes them and returns their
    (..., P) values, which the checks read by slices at the block offsets.
    Over a stack each check rejects the lowest failing state by the one-state
    message (:func:`gleason_lab.errors.require`).  The caller certifies the
    states."""
    lead, n, v = X.shape[:-3], X.shape[-3], X.shape[-2]
    count = algebra.component_count
    units = np.eye(4)[:count]  # 1 and the imaginary units of the algebra
    # the pairs k < l in row order
    k, l = np.nonzero(np.arange(n)[:, None] < np.arange(n))
    m = min(n, 4)
    basis = 11 * (m + 2)
    polar = basis + n
    verify = polar + len(k) * count
    probes = np.zeros(lead + (n, verify + v, 4))

    # up to four basis vectors and the two unit vectors, each followed by its turns x q
    phase_block = probes[..., :basis, :].reshape(lead + (n, m + 2, 11, 4))
    phase_block[..., np.arange(m), np.arange(m), 0, 0] = 1.0
    phase_block[..., m:, 0, :] = pairs
    phase_block[..., 1:, :] = _mul_comps(phase_block[..., :1, :], phases.reshape(lead + (1, m + 2, 10, 4)))
    probes[..., np.arange(n), basis + np.arange(n), 0] = 1.0
    # column (pair, q) of the polarization block is (e_k + e_l q)/sqrt2
    pair_index = np.arange(len(k))
    polar_block = probes[..., polar:verify, :].reshape(lead + (n, len(k), count, 4))
    polar_block[..., k, pair_index, :, 0] = 1.0 / np.sqrt(2.0)
    polar_block[..., l, pair_index, :, :] = units / np.sqrt(2.0)
    probes[..., verify:, :] = X
    values = evaluate(probes)

    fx = values[..., :basis].reshape(lead + (m + 2, 11))
    # NaN fails every comparison
    require((np.abs(fx[..., 1:] - fx[..., :1]) <= 10.0 * _STATE_TOL).all(axis=(-2, -1)), NotAFrameFunction,
            f"oracle is not phase invariant: |f(xq) - f(x)| > {10.0 * _STATE_TOL}")

    diag = values[..., basis:polar]
    weight = diag.sum(axis=-1)
    require(np.abs(weight - 1.0) <= 10.0 * _STATE_TOL * n, NotAFrameFunction,
            lambda t: f"basis weight {float(weight[t])} differs from 1")

    r = values[..., polar:verify].reshape(lead + (len(k), count))
    r = r - ((diag[..., k] + diag[..., l]) * _POLAR_WEIGHT)[..., None]
    # T_kl = sum_q conj(q) Re(T_kl q), summed from zero in the order of the units
    entries = np.zeros(lead + (len(k), 4))
    for u, q in enumerate(units):
        entries = entries + _conj_comps(q) * r[..., u, None]
    comps = _hermitian_fill(diag, entries, k, l)

    # Re<x|Tx> = sum_m Re(conj(x_m) (Tx)_m), the componentwise dot product
    predicted = (X * kernels.quat_matmul(comps, X, count)).sum(axis=(-3, -1))
    errors = np.abs(predicted - values[..., verify:])
    passed = errors <= _STATE_TOL
    require(passed.all(axis=-1), NotAFrameFunction,
            lambda t: f"oracle is not a quadratic form: probe error {errors[t][~passed[t]][0]:.3e}")
    return comps


def _hermitian_fill(diag: np.ndarray, entries: np.ndarray, k: np.ndarray, l: np.ndarray) -> np.ndarray:
    """The (..., n, n, 4) matrices with the real diagonals ``diag`` (..., n),
    the ``entries`` (..., pairs, 4) at the pairs (k, l) above the diagonal,
    and their conjugates at (l, k)."""
    n = diag.shape[-1]
    comps = np.zeros(diag.shape + (n, 4))
    comps[..., np.arange(n), np.arange(n), 0] = diag
    comps[..., k, l, :] = entries
    comps[..., l, k, :] = _conj_comps(entries)
    return comps


# ---------------------------------------------------------------------------
# convexity and extremality
# ---------------------------------------------------------------------------

def _convex_mixes(states: list[np.ndarray], weights) -> np.ndarray:
    """sum_s w_s T_s, summed from zero in the order of s, for the S component
    stacks T_s of shape (..., n, n, 4) and the (S, ...) weights.  The weights
    of each mixture must be nonnegative (to -1e-12) and sum to 1 (to 1e-12),
    else InvalidWeights, over a stack for the lowest failing mixture.  The
    caller certifies the mixtures."""
    w = np.asarray(weights, dtype=np.float64)
    total = w.sum(axis=0)
    # NaN fails every comparison
    require((-1e-12 <= w.min(axis=0)) & (np.abs(total - 1.0) <= 1e-12), InvalidWeights,
            lambda i: f"weights must be nonnegative and sum to 1, got sum {total[i]}")
    acc = np.zeros(states[0].shape)
    for state, wt in zip(states, w):
        acc = acc + state * wt[..., None, None, None]
    return acc


def convex_mix(states: list[DensityOperator], weights: list[float]) -> DensityOperator:
    """The certified mixture sum_s w_s T_s; the one-mixture case of :func:`_convex_mixes`."""
    if len(states) != len(weights) or not states:
        raise InvalidWeights("need one weight per state")
    algebra = states[0].algebra
    for state in states:
        _check_same_algebra(states[0].matrix, state.matrix)
    mixed = _convex_mixes([state.matrix.comps for state in states], weights)
    return DensityOperator(Matrix(algebra, mixed))


def _extremal(values: np.ndarray) -> np.ndarray:
    """Whether each state of a stack, by its spectrum (..., n) sorted
    descending, is extremal: its second eigenvalue at most 1e-8."""
    if values.shape[-1] == 1:
        return np.ones(values.shape[:-1], dtype=bool)
    return values[..., 1] <= _STATE_TOL


def is_extremal(state: DensityOperator) -> bool:
    """True iff the state is a rank-one projector (a pure state), its second
    eigenvalue at most 1e-8.  The one-state case of :func:`_extremal`."""
    return bool(_extremal(state.eigenvalues))


def _extremal_splits(values: np.ndarray, basis: np.ndarray,
                     algebra: Algebra) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(w1, T1, T2) of :func:`extremal_split` for the eigendecomposition of a
    state, values (n,) descending and basis (n, n, 4), or of every state of a
    stack (S, n) and (S, n, n, 4).  T2 sums the columns of positive
    eigenvalue after the first, and the states that keep the same columns
    form one stack, so that every product has the shape it has alone.  A
    state whose top eigenvalue lies within 1e-8 of 1 raises ValueError, over
    a stack the lowest.  The caller certifies T1 and T2."""
    w1 = values[..., 0]
    require(~(1.0 - w1 <= _STATE_TOL), ValueError, "state is extremal (rank one); no nontrivial split exists")
    count = algebra.component_count
    T1 = _outer_sums(basis[..., :1, :], count)
    n = values.shape[-1]
    values, stack = values.reshape(-1, n), basis.reshape((-1,) + basis.shape[-3:])
    weights = values / (1.0 - values[:, :1])
    T2 = np.empty(stack.shape)
    for keep, at in _groups([tuple(np.flatnonzero(row[1:] > 0.0) + 1) for row in values]):
        keep = list(keep)
        T2[at] = _outer_sums(stack[at][..., keep, :], count, weights[at][:, keep])
    return w1, T1, T2.reshape(basis.shape)


def extremal_split(state: DensityOperator) -> tuple[float, DensityOperator, DensityOperator]:
    """Nontrivial convex split T = w T1 + (1-w) T2 of a non-extremal state.

    T1 is the pure state at the top eigenvector, T2 the renormalized rest.
    The one-state case of :func:`_extremal_splits`.
    """
    dec = state.eigen()
    w1, T1, T2 = _extremal_splits(dec.values, dec.basis.comps, state.algebra)
    return float(w1), DensityOperator(Matrix(state.algebra, T1)), DensityOperator(Matrix(state.algebra, T2))


def _convex_unit_lemmas(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """:func:`convex_unit_lemma` of the rows p and q of two (..., m) arrays:
    whether sum(p) = sum(p q) = 1 (to 1e-12) forces every q within 1e-9 of 1.
    A p outside (0, 1) or a q outside [0, 1] (to 1e-12) raises ValueError,
    over a stack for the lowest failing row.  Each row sum runs as a lone
    row's does."""
    require((0.0 < p.min(axis=-1)) & (p.max(axis=-1) < 1.0), ValueError, "every p must lie strictly inside (0, 1)")
    require((-1e-12 <= q.min(axis=-1)) & (q.max(axis=-1) <= 1.0 + 1e-12), ValueError,
            "every q must lie in [0, 1]")
    hypothesis = (np.abs(p.sum(axis=-1) - 1.0) <= 1e-12) & (np.abs((p * q).sum(axis=-1) - 1.0) <= 1e-12)
    return ~hypothesis | (np.abs(q - 1.0).max(axis=-1) <= 1e-9)


def convex_unit_lemma(ps: list[float], qs: list[float]) -> bool:
    """Whether sum(p) = sum(p q) = 1 (to 1e-12) forces every q to lie within
    1e-9 of 1.  Inputs must satisfy p in (0,1), q in [0,1].  The one-row case
    of :func:`_convex_unit_lemmas`."""
    p = np.asarray(ps, dtype=np.float64)
    q = np.asarray(qs, dtype=np.float64)
    if len(p) != len(q) or len(p) < 2:
        raise ValueError("need matching lists of length >= 2")
    return bool(_convex_unit_lemmas(p, q))


# ---------------------------------------------------------------------------
# separation
# ---------------------------------------------------------------------------

def _witnesses(diff: np.ndarray, algebra: Algebra) -> tuple[np.ndarray, np.ndarray]:
    """(found, psi) for every Hermitian difference P - Q of a (T, n, n, 4)
    stack: whether its largest |eigenvalue| exceeds 1e-8, and the (F, n, 1, 4)
    eigenvectors of the F found ones at the first such eigenvalue, in the
    order of :func:`eig_hermitian`, read from one stacked eigendecomposition
    (:func:`~gleason_lab.spectral._eig_stack`).  A difference whose largest
    |eigenvalue| is at most 1e-8, such as P - P = 0, has no witness."""
    values, basis = _eig_stack(diff, algebra)
    magnitudes = np.abs(values)
    top, found = magnitudes.argmax(axis=-1), magnitudes.max(axis=-1) > 1e-8
    return found, basis[found, :, top[found]][:, :, None, :]


def _separations(P: np.ndarray, Q: np.ndarray, algebra: Algebra) -> np.ndarray:
    """:func:`separation_check` of every pair of two (T, n, n, 4) stacks of
    projectors.  The pure state at the top eigenvector psi of P - Q
    (:func:`_witnesses`) maximizes |mu_psi(P) - mu_psi(Q)|, which equals its
    eigenvalue; certified, it must give P and Q measures more than 1e-8
    apart."""
    found, psi = _witnesses(P - Q, algebra)
    witness = _pure_states(psi, algebra.component_count)
    _state_spectra(witness, algebra)
    count = algebra.component_count
    gaps = np.abs(_real_pairings(P[found], witness, count) - _real_pairings(Q[found], witness, count))
    separated = np.zeros(found.shape, dtype=bool)
    separated[found] = gaps > 1e-8
    return separated


def separation_check(P: Projector, Q: Projector) -> bool:
    """True iff some pure state assigns the two projectors different
    probabilities; the one-pair case of :func:`_separations`."""
    if P.n != Q.n:
        raise ValueError("projectors act on different spaces")
    algebra = _check_same_algebra(P.matrix, Q.matrix)
    return bool(_separations(P.matrix.comps[None], Q.matrix.comps[None], algebra)[0])


# ---------------------------------------------------------------------------
# sigma-additivity probes
# ---------------------------------------------------------------------------

def _cut_recipe(n: int) -> list:
    """The draws that an orthogonal decomposition of n-space makes after its
    unitary, as recipe items (:meth:`SplitMix64.recipe_block`): for n > 2 the
    block count 2 + integer(n - 1), then one cut integer(n - 1) per block but
    one, the last item; n = 2 makes one cut of two blocks, and n = 1 none
    (its bound of 1 is never drawn)."""
    if n > 2:
        return [("integer", n - 1), ("integer", n - 1, lambda prior: min(2 + prior[-1], n) - 1)]
    return [("integer", 1, lambda prior: min(2, n) - 1)]


def _decomposition_bounds(cuts: Ragged, n: int) -> list[tuple[int, ...]]:
    """Each trial's block bounds from its drawn cuts, the last item of
    :func:`_cut_recipe`: 0, every distinct cut + 1 in order, and n."""
    return [(0, *sorted(set((row[:size] + 1).tolist())), n) for row, size in zip(cuts.values, cuts.counts)]


def _decompositions(U: np.ndarray, bounds: list[tuple[int, ...]], algebra: Algebra) -> list:
    """(trials, parts) for the decompositions of a (T, n, n, 4) stack of
    unitaries at each trial's block ``bounds``: the (t, k, n, n, 4) stack of
    the projectors onto the column blocks (:func:`_block_projectors`) of the
    t trials with the same bounds, so every product has the shape it has
    alone.  The caller certifies each stack."""
    return [(at, _block_projectors(U[at], list(zip(b[:-1], b[1:])), algebra)) for b, at in _groups(bounds)]


def random_orthogonal_decomposition(n: int, algebra: Algebra, rng: SplitMix64) -> list[Projector]:
    """Pairwise-orthogonal projectors summing to the identity, onto consecutive
    column blocks of a random unitary, split at drawn cuts (:func:`_cut_recipe`).
    The one-draw case of :func:`_decompositions`."""
    U = random_unitary(n, algebra, rng)
    bounds = _decomposition_bounds(rng.recipe_block(1, _cut_recipe(n))[-1], n)
    [(_, parts)] = _decompositions(U.comps[None], bounds, algebra)
    return Projector.of_stack(algebra, parts[0])


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
