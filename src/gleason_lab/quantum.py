"""Observables, projector-valued measures, outcome statistics and symmetries.

At finite dimension an observable's spectrum is a finite set, every Borel set
collapses to a union of spectral atoms, and the functional calculus is the
finite sum over atoms.  All probability formulas go through the real trace,
which keeps one code path for R, C and H.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NotHermitian, NotUnitary
from .gleason import DensityOperator, measure_from_state
from .linalg import Matrix, Projector, outer_sum
from .scalars import Algebra, Quaternion
from .spectral import EigenDecomposition, _group_indices, eig_hermitian
from .trace import real_pairing, real_trace

_ATOM_REL_TOL = 1e-7


class Observable:
    """Hermitian operator with a lazily computed eigendecomposition."""

    __slots__ = ("matrix", "_dec")

    def __init__(self, matrix: Matrix, tol: float = 1e-8):
        # rejected before any arithmetic, which would make numpy warn
        if not np.isfinite(matrix.comps).all():
            raise NotHermitian("observable has a non-finite entry")
        if not matrix.is_hermitian(tol):
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

    def projector_for(self, member: Callable[[float], bool]) -> Projector:
        """P_E for the Borel set E given by a membership predicate on outcomes."""
        n = self.atoms[0][1].n
        algebra = self.atoms[0][1].algebra
        acc = Matrix.zeros(n, n, algebra)
        for s, P in self.atoms:
            if member(s):
                acc = acc + P.matrix
        return Projector(acc)

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
        if probs.size and (probs.min() < -1e-8 or probs.max() > 1.0 + 1e-8):
            raise ValueError("probabilities escape [0, 1] beyond tolerance")

    def total(self) -> float:
        return float(sum(p for _, p in self.support))

    def mean(self) -> float:
        return float(sum(s * p for s, p in self.support))

    def second_moment(self) -> float:
        return float(sum(s * s * p for s, p in self.support))

    def to_json(self) -> list[dict]:
        return [{"eigenvalue": s, "probability": p} for s, p in self.support]


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


def symmetry_duality_gap(A: Matrix, B: Matrix, U: Matrix | SymmetryOp) -> float:
    """|Re tr(A U B U^{-1}) - Re tr(U^{-1} A U B)|; zero for every symmetry."""
    sym = U if isinstance(U, SymmetryOp) else SymmetryOp(U)
    lhs = real_trace(A @ sym.transform_state(B))
    rhs = real_trace(sym.dual_transform(A) @ B)
    return abs(lhs - rhs)


def conjugate_state(U: Matrix | SymmetryOp, T: DensityOperator) -> DensityOperator:
    """U T U^{-1}, certified to still be a state."""
    sym = U if isinstance(U, SymmetryOp) else SymmetryOp(U)
    return DensityOperator(sym.transform_state(T.matrix))


# ---------------------------------------------------------------------------
# one-parameter groups and continuity
# ---------------------------------------------------------------------------

def rotation_group_from_hermitian(H: Matrix, imag_unit: Quaternion) -> Callable[[float], Matrix]:
    """t -> sum_u u exp(imag_unit t s(u)) <u|.> built on the eigenbasis of H.

    Over C with imag_unit = i this is exp(itH); over H it rotates each
    eigenvector by left multiplication with the fixed unit imaginary.  The
    group law U_{t+s} = U_t U_s holds because all phases share one slice.
    """
    if H.algebra is Algebra.R:
        raise ValueError("use rotation_group_from_skew over R")
    dec = eig_hermitian(H)
    U = dec.basis
    unit = imag_unit.to_array()

    def path(t: float) -> Matrix:
        phases = np.sin(t * dec.values)[:, None] * unit
        phases[:, 0] += np.cos(t * dec.values)
        return outer_sum(U, phases)

    return path


def rotation_group_from_skew(W: Matrix) -> Callable[[float], Matrix]:
    """t -> exp(tW) for a real antisymmetric generator W.

    Diagonalizes the complex Hermitian iW; the assembled exponential is real
    because the spectrum pairs up, and the tiny imaginary residue is dropped.
    """
    if W.algebra is not Algebra.R:
        raise ValueError("skew generator path is the real-algebra route")
    W0 = W.comps[..., 0]
    if np.abs(W0 + W0.T).max() > 1e-9 * max(1.0, np.abs(W0).max()):
        raise ValueError("generator must be antisymmetric")
    from . import kernels

    # the solver reads one triangle, so hand it the exactly Hermitian part
    vals, vecs = kernels.eigh(1j * (W0 - W0.T) / 2)

    def path(t: float) -> Matrix:
        phases = np.exp(-1j * t * vals)
        U = (vecs * phases[None, :]) @ vecs.conj().T
        comps = np.zeros(U.shape + (4,))
        comps[..., 0] = U.real
        return Matrix(Algebra.R, comps)

    return path


@dataclass(frozen=True)
class ContinuityReport:
    samples: int
    max_jump: float
    value_range: tuple[float, float]


def continuity_scan(
    A: Matrix,
    T: DensityOperator,
    group_path: Callable[[float], Matrix],
    samples: int,
    t_span: tuple[float, float] = (0.0, 1.0),
) -> ContinuityReport:
    """Sample t -> Re tr(A U_t T U_t^{-1}) and report the largest adjacent jump."""
    ts = np.linspace(t_span[0], t_span[1], samples + 1)
    values = []
    for t in ts:
        U = group_path(float(t))
        values.append(real_pairing(A @ U @ T.matrix, U.adjoint()))
    arr = np.array(values)
    jumps = np.abs(np.diff(arr))
    return ContinuityReport(
        samples=samples,
        max_jump=float(jumps.max(initial=0.0)),
        value_range=(float(arr.min()), float(arr.max())),
    )
