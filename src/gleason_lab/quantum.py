"""Observables, projector-valued measures, outcome statistics and symmetries.

At finite dimension an observable's spectrum is a finite set, every Borel set
collapses to a union of spectral atoms, and the functional calculus is the
finite sum over atoms.  All probability formulas go through the real trace,
which keeps one code path for R, C and H.

A one-parameter group is a :class:`GroupPath`, block-shaped like the projector
stacks: it maps k times to the (k, n, n, 4) stack of the U_t.
:func:`continuity_scan` reads a sampled orbit from such stacks, in chunks of
at most ``gleason._PROBE_CHUNK_ENTRIES`` entries, two products per chunk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import kernels
from .errors import NotHermitian, NotUnitary
from .gleason import _PROBE_CHUNK_ENTRIES, DensityOperator, measure_from_state
from .linalg import (
    Matrix, Projector, _check_same_algebra, _conj_comps, _in_algebra, _mul_comps, outer_sum,
)
from .scalars import Algebra, Quaternion
from .spectral import _HERMITIAN_TOL, EigenDecomposition, _group_indices, eig_hermitian
from .trace import _real_sums, real_pairing, real_trace

_ATOM_REL_TOL = 1e-7


class Observable:
    """Hermitian operator, to the eigensolver's 1e-8 ratio test, with a
    lazily computed eigendecomposition."""

    __slots__ = ("matrix", "_dec")

    def __init__(self, matrix: Matrix):
        # rejected before any arithmetic, which would make numpy warn
        if not np.isfinite(matrix.comps).all():
            raise NotHermitian("observable has a non-finite entry")
        if not matrix.is_hermitian(_HERMITIAN_TOL):
            raise NotHermitian(f"observable must be Hermitian, defect {matrix.hermitian_defect():.3e}")
        self.matrix = matrix
        self._dec = None

    @property
    def algebra(self) -> Algebra:
        return self.matrix.algebra

    @property
    def n(self) -> int:
        return self.matrix.n

    @property
    def decomposition(self) -> EigenDecomposition:
        if self._dec is None:
            self._dec = eig_hermitian(self.matrix)
        return self._dec


@dataclass(frozen=True)
class PVMap:
    """Finite projector-valued measure: one orthogonal atom per eigenvalue."""

    atoms: tuple[tuple[float, Projector], ...]

    @property
    def eigenvalues(self) -> tuple[float, ...]:
        return tuple(s for s, _ in self.atoms)

    def total(self) -> Matrix:
        acc = Matrix.zeros(self.atoms[0][1].n, self.atoms[0][1].n, self.atoms[0][1].algebra)
        for _, P in self.atoms:
            acc = acc + P.matrix
        return acc


def pvm_of(A: Observable) -> PVMap:
    """Group the eigendecomposition into distinct-eigenvalue atoms."""
    dec = A.decomposition
    scale = float(np.abs(dec.values).max(initial=0.0))
    U = dec.basis.comps
    return PVMap(tuple(
        (float(np.mean(dec.values[a:b])), Projector(outer_sum(Matrix(A.algebra, U[:, a:b]))))
        for a, b in _group_indices(dec.values, _ATOM_REL_TOL * scale)
    ))


def apply_function(A: Observable, f: Callable[[float], float]) -> Observable:
    """f(A) = sum_s f(s) P_s over the spectral atoms."""
    pvm = pvm_of(A)
    acc = Matrix.zeros(A.n, A.n, A.algebra)
    for s, P in pvm.atoms:
        acc = acc + P.matrix * float(f(s))
    return Observable(acc)


@dataclass(frozen=True)
class OutcomeMeasure:
    """Finite outcome distribution of a measurement, sorted by eigenvalue."""

    support: tuple[tuple[float, float], ...]

    def __post_init__(self):
        probs = np.array([p for _, p in self.support])
        if probs.size and not (-1e-8 <= probs.min() and probs.max() <= 1.0 + 1e-8):
            raise ValueError("probabilities escape [0, 1] beyond tolerance")

    def total(self) -> float:
        return float(sum(p for _, p in self.support))

    def mean(self) -> float:
        return float(sum(s * p for s, p in self.support))

    def second_moment(self) -> float:
        return float(sum(s * s * p for s, p in self.support))


def outcome_measure(A: Observable, T: DensityOperator) -> OutcomeMeasure:
    """Per-eigenvalue probabilities Re tr(P_s T), read by the state's lattice
    measure on the stack of the atoms."""
    pvm = pvm_of(A)
    stack = np.stack([P.matrix.comps for _, P in pvm.atoms])
    probs = measure_from_state(T).evaluate(A.algebra, stack)
    return OutcomeMeasure(tuple(sorted(zip(pvm.eigenvalues, probs.tolist()))))


def expectation(A: Observable, T: DensityOperator) -> float:
    """<A>_T = Re tr(A T); agrees with the first moment of the outcome measure."""
    return real_pairing(A.matrix, T.matrix)


def std_deviation(A: Observable, T: DensityOperator) -> float:
    """sqrt(Re tr(A^2 T) - Re tr(A T)^2), clamping radicands in [-1e-10, 0)."""
    mean = expectation(A, T)
    radicand = real_pairing(A.matrix @ A.matrix, T.matrix) - mean * mean
    if radicand < -1e-10:
        raise ValueError(f"variance radicand {radicand:.3e} below clamp window")
    return math.sqrt(max(radicand, 0.0))


# ---------------------------------------------------------------------------
# symmetries
# ---------------------------------------------------------------------------

def _complex_conj_matrix(M: Matrix) -> Matrix:
    """Entrywise complex conjugation (C matrices only)."""
    comps = M.comps.copy()
    comps[..., 1] *= -1.0
    return Matrix(M.algebra, comps)


@dataclass(frozen=True)
class SymmetryOp:
    """Unitary, or (over C) anti-unitary, symmetry transformation.

    An anti-unitary operator is stored as a unitary factor composed with
    componentwise conjugation: U x = V conj(x).
    """

    unitary: Matrix
    antiunitary: bool = False

    def __post_init__(self):
        V = self.unitary
        if self.antiunitary and V.algebra is not Algebra.C:
            raise ValueError("anti-unitary symmetries exist only over C")
        if not V.is_square:
            raise NotUnitary(f"a {V.n}x{V.m} matrix is not unitary")
        # rejected before any arithmetic, which would make numpy warn
        if not np.isfinite(V.comps).all():
            raise NotUnitary("unitary factor has a non-finite entry")
        defect = V.orthonormality_defect()
        # NaN fails every comparison
        if not (defect <= 1e-8):
            raise NotUnitary(f"U*U - I has magnitude {defect:.3e}")

    @property
    def algebra(self) -> Algebra:
        return self.unitary.algebra

    def transform_state(self, B: Matrix) -> Matrix:
        """B -> U B U^{-1}."""
        V = self.unitary
        if self.antiunitary:
            return V @ _complex_conj_matrix(B) @ V.adjoint()
        return V @ B @ V.adjoint()

    def dual_transform(self, A: Matrix) -> Matrix:
        """A -> U^{-1} A U, the dual action on observables."""
        V = self.unitary
        if self.antiunitary:
            return _complex_conj_matrix(V.adjoint() @ A @ V)
        return V.adjoint() @ A @ V


def symmetry_duality_gap(A: Matrix, B: Matrix, sym: SymmetryOp) -> float:
    """|Re tr(A U B U^{-1}) - Re tr(U^{-1} A U B)|; zero for every symmetry."""
    lhs = real_trace(A @ sym.transform_state(B))
    rhs = real_trace(sym.dual_transform(A) @ B)
    return abs(lhs - rhs)


def conjugate_state(sym: SymmetryOp, T: DensityOperator) -> DensityOperator:
    """U T U^{-1}, certified to still be a state."""
    return DensityOperator(sym.transform_state(T.matrix))


# ---------------------------------------------------------------------------
# one-parameter groups and continuity
# ---------------------------------------------------------------------------

class GroupPath:
    """A one-parameter group t -> U_t, read block-shaped.

    :meth:`stack` maps a 1-D array of k times to the (k, n, n, 4) component
    stack of the U_t.  Calling the path with one time gives the Matrix U_t,
    entry 0 of a one-time stack, as a one-column :meth:`Projector.rank_ones`
    stack holds the projector onto the line of one vector.
    """

    __slots__ = ("algebra", "stack")

    def __init__(self, algebra: Algebra, stack: Callable[[np.ndarray], np.ndarray]):
        self.algebra = algebra
        self.stack = stack

    def __call__(self, t: float) -> Matrix:
        return Matrix(self.algebra, self.stack(np.array([t], dtype=np.float64))[0])


def rotation_group_from_hermitian(H: Matrix, imag_unit: Quaternion) -> GroupPath:
    """t -> sum_u u exp(imag_unit t s(u)) <u|.> built on the eigenbasis of H.

    Over C with imag_unit = i this is exp(itH); over H it rotates each
    eigenvector by left multiplication with the fixed unit imaginary.  The
    group law U_{t+s} = U_t U_s holds because all phases share one slice.
    A unit outside the algebra raises AlgebraMismatch.
    A stack of k times is the eigenbasis U times its phases, broadcast over
    the times, then one product of that (k n, n) column of blocks with U*.
    """
    if H.algebra is Algebra.R:
        raise ValueError("use rotation_group_from_skew over R")
    unit = _in_algebra(imag_unit.to_array(), H.algebra)
    dec = eig_hermitian(H)
    U = dec.basis.comps
    U_star = np.transpose(_conj_comps(U), (1, 0, 2))
    count = H.algebra.component_count
    n = H.n

    def stack(ts: np.ndarray) -> np.ndarray:
        angles = ts[:, None] * dec.values
        phases = np.sin(angles)[..., None] * unit
        phases[..., 0] += np.cos(angles)
        scaled = _mul_comps(U, phases[:, None]).reshape(ts.size * n, n, 4)
        return kernels.quat_matmul(scaled, U_star, count).reshape(ts.size, n, n, 4)

    return GroupPath(H.algebra, stack)


def rotation_group_from_skew(W: Matrix) -> GroupPath:
    """t -> exp(tW) for a real antisymmetric generator W.

    Diagonalizes the complex Hermitian iW; the assembled exponential is real
    because the spectrum pairs up, and the tiny imaginary residue is dropped.
    A stack of k times is one complex product of the (k n, n) block of the
    phased eigenvectors with V*.
    """
    if W.algebra is not Algebra.R:
        raise ValueError("skew generator path is the real-algebra route")
    W0 = W.comps[..., 0]
    # checked first: NaN would pass the antisymmetry test, and inf would make numpy warn
    if not np.isfinite(W0).all() or np.abs(W0 + W0.T).max() > 1e-9 * max(1.0, np.abs(W0).max()):
        raise ValueError("generator must be antisymmetric")
    # the solver reads one triangle, so hand it the exactly Hermitian part
    vals, vecs = kernels.eigh(1j * (W0 - W0.T) / 2)
    vecs_star = vecs.conj().T
    n = W.n

    def stack(ts: np.ndarray) -> np.ndarray:
        phases = np.exp(-1j * ts[:, None] * vals)
        U = (vecs * phases[:, None, :]).reshape(ts.size * n, n) @ vecs_star
        comps = np.zeros((ts.size, n, n, 4))
        comps[..., 0] = U.real.reshape(ts.size, n, n)
        return comps

    return GroupPath(Algebra.R, stack)


@dataclass(frozen=True)
class ContinuityReport:
    max_jump: float
    value_range: tuple[float, float]


def _orbit_values(A: Matrix, T: DensityOperator, group_path: GroupPath, ts: np.ndarray) -> np.ndarray:
    """Re tr(A U_t T U_t^{-1}) for every time t of ``ts``, read block-shaped.

    The times go in chunks whose stack of U_t has at most
    ``_PROBE_CHUNK_ENTRIES`` entries.  Per chunk: one product of A with the
    stack laid side by side, [A U_1 ... A U_k] = A [U_1 ... U_k]; one product
    of the column [A U_1; ...; A U_k] with T, which gives Y_t = A U_t T; and
    Re tr(Y_t U_t*) = sum_rc Re(Y_rc conj(U_rc)), read entrywise with the
    sums of :func:`_real_sums`, with no adjoint and no product formed.
    """
    _check_same_algebra(A, T.matrix)
    _check_same_algebra(A, group_path)
    if not A.is_square:
        raise ValueError(f"cannot scan a {A.n}x{A.m} observable")
    n = A.n
    count = A.algebra.component_count
    # a power of two, so that every full chunk meets the GEMM kernels' tiles the
    # way one long scan does, and a value does not depend on where a chunk ends
    width = 1 << (max(1, _PROBE_CHUNK_ENTRIES // (4 * n * n)).bit_length() - 1)
    values = np.empty(ts.size)
    for a in range(0, ts.size, width):
        U = group_path.stack(ts[a:a + width])
        k = U.shape[0]
        AU = kernels.quat_matmul(A.comps, U.transpose(1, 0, 2, 3).reshape(n, k * n, 4), count)
        column = AU.reshape(n, k, n, 4).transpose(1, 0, 2, 3).reshape(k * n, n, 4)
        del AU  # free each stack-sized intermediate once the next one is built
        Y = kernels.quat_matmul(column, T.matrix.comps, count).reshape(k, n, n, 4)
        del column
        Y *= _conj_comps(U)
        values[a:a + k] = _real_sums(Y)
    return values


def continuity_scan(
    A: Matrix,
    T: DensityOperator,
    group_path: GroupPath,
    samples: int,
) -> ContinuityReport:
    """Sample t -> Re tr(A U_t T U_t^{-1}) at ``samples + 1`` evenly spaced
    times over [0, 1] and report the largest adjacent jump.

    Every value is read (:func:`_orbit_values`) before any difference is
    taken, so the chunking of the samples cannot change a jump.
    """
    arr = _orbit_values(A, T, group_path, np.linspace(0.0, 1.0, samples + 1))
    jumps = np.abs(np.diff(arr))
    return ContinuityReport(
        max_jump=float(jumps.max(initial=0.0)),
        value_range=(float(arr.min()), float(arr.max())),
    )
