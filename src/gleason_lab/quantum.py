"""Observables, projector-valued measures, outcome statistics and symmetries.

At finite dimension an observable's spectrum is a finite set, every Borel set
collapses to a union of spectral atoms, and the functional calculus is the
finite sum over atoms.  All probability formulas go through the real trace,
which keeps one code path for R, C and H.

A symmetry acts through ``_transform_states`` and ``_dual_transforms``, which
take a stack of unitary factors with a per-matrix anti-unitary mask;
:class:`SymmetryOp` is the one-symmetry case.

A one-parameter group is a :class:`GroupPath`, held in its generator's
eigenbasis: it maps k times to the (k, n, n, 4) stack of the U_t.
:func:`continuity_scan` reads a sampled orbit in that eigenbasis, in closed
form, with no U_t formed (:func:`_orbit_values`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import kernels
from .errors import NotHermitian, NotUnitary, require
from .gleason import DensityOperator, measure_from_state
from .linalg import (
    Matrix,
    Projector,
    _adjoint_comps,
    _block_projectors,
    _check_same_algebra,
    _hermitian_ratio,
    _max_abs,
    _mul_comps,
    _orthonormality_defects,
    _require_in_algebra,
    outer_sum,
)
from .scalars import Algebra, Quaternion
from .spectral import _HERMITIAN_TOL, EigenDecomposition, _group_indices, eig_hermitian
from .trace import _real_pairings, _real_traces, real_pairing

# the atoms of an observable are its eigenvalues grouped at this tolerance,
# relative to the largest |eigenvalue| (_atoms)
_ATOM_REL_TOL = 1e-7


class Observable:
    """Hermitian operator, to the eigensolver's 1e-8 ratio test, with a
    lazily computed eigendecomposition."""

    __slots__ = ("matrix", "_dec")

    def __init__(self, matrix: Matrix):
        _check_observables(matrix.comps, matrix.algebra)
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


def _check_observables(comps: np.ndarray, algebra: Algebra) -> None:
    """The guards of :class:`Observable` for every matrix of a (..., n, n, 4)
    stack: finite (else NotHermitian), in the algebra (else AlgebraMismatch,
    as the eigensolver would raise at the decomposition), and Hermitian to
    the eigensolver's 1e-8 ratio test, else NotHermitian; over a stack the
    lowest failing matrix is named."""
    # rejected before any arithmetic, which would make numpy warn
    require(np.isfinite(comps).all(axis=(-3, -2, -1)), NotHermitian, "observable has a non-finite entry")
    _require_in_algebra(comps, algebra)
    star = _adjoint_comps(comps)
    ratio = _hermitian_ratio(comps, star)
    require(ratio <= _HERMITIAN_TOL, NotHermitian,
            lambda i: f"observable must be Hermitian, defect {float(_max_abs(comps[i] - star[i])):.3e}")


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


def _atoms(values: np.ndarray) -> list[tuple[int, int, float]]:
    """(lo, hi, mean) of each atom of a sorted spectrum: :func:`_group_indices`
    at ``_ATOM_REL_TOL`` relative to the largest |eigenvalue|.  The suite
    groups one spectrum per trial, so the walk reads Python floats, and a lone
    eigenvalue, the mean of itself, is taken as it stands."""
    row = values.tolist()
    groups = _group_indices(row, _ATOM_REL_TOL * max(map(abs, row), default=0.0))
    return [(a, b, row[a] if b - a == 1 else float(np.mean(values[a:b]))) for a, b in groups]


def pvm_of(A: Observable) -> PVMap:
    """Group the eigendecomposition into distinct-eigenvalue atoms (:func:`_atoms`).

    Each atom is the outer sum of its block of eigenvectors, built alone, and
    the atoms are certified as one stack (:func:`_block_projectors`,
    :meth:`Projector.of_stack`).
    """
    dec = A.decomposition
    atoms = _atoms(dec.values)
    stack = _block_projectors(dec.basis.comps, [(a, b) for a, b, _ in atoms], A.algebra)
    return PVMap(tuple((s, P) for (_, _, s), P in zip(atoms, Projector.of_stack(A.algebra, stack))))


def apply_function(A: Observable, f: Callable[[float], float]) -> Observable:
    """f(A) = sum_s f(s) P_s = U diag(f(s)) U*, one :func:`outer_sum` over the
    eigenbasis U, each atom's columns (:func:`_atoms`) weighted by f(mean)."""
    dec = A.decomposition
    coeffs = np.empty(A.n)
    for a, b, s in _atoms(dec.values):
        coeffs[a:b] = float(f(s))
    return Observable(outer_sum(dec.basis, coeffs))


@dataclass(frozen=True)
class OutcomeMeasure:
    """Finite outcome distribution of a measurement, sorted by eigenvalue."""

    support: tuple[tuple[float, float], ...]

    def __post_init__(self):
        probs = np.array([p for _, p in self.support])
        if probs.size:
            _check_probabilities(probs)

    def total(self) -> float:
        return float(sum(p for _, p in self.support))

    def mean(self) -> float:
        return float(sum(s * p for s, p in self.support))

    def second_moment(self) -> float:
        return float(sum(s * s * p for s, p in self.support))


def _check_probabilities(probs: np.ndarray) -> None:
    """The range check of :class:`OutcomeMeasure` for each row of outcome
    probabilities of a (..., k) array: every one in [-1e-8, 1 + 1e-8], else
    ValueError; over a stack the lowest failing row is named."""
    # NaN fails every comparison
    require((-1e-8 <= probs.min(axis=-1)) & (probs.max(axis=-1) <= 1.0 + 1e-8), ValueError,
            "probabilities escape [0, 1] beyond tolerance")


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


def _std_deviations(a: np.ndarray, t: np.ndarray, algebra: Algebra) -> np.ndarray:
    """:func:`std_deviation` of every pair of observables and states of two
    (..., n, n, 4) stacks; a radicand below the clamp window raises ValueError,
    over a stack for the lowest failing pair."""
    lead = a.shape[:-3]

    def pairing(x: np.ndarray) -> np.ndarray:  # Re tr(X T) of every pair
        return _real_pairings(x.reshape((-1,) + x.shape[-3:]), t.reshape((-1,) + t.shape[-3:]),
                              algebra.component_count).reshape(lead)

    mean = pairing(a)
    radicand = pairing(kernels.quat_matmul(a, a, algebra.component_count)) - mean * mean
    require(~(radicand < -1e-10), ValueError, lambda i: f"variance radicand {radicand[i]:.3e} below clamp window")
    return np.sqrt(np.maximum(radicand, 0.0))


def std_deviation(A: Observable, T: DensityOperator) -> float:
    """sqrt(Re tr(A^2 T) - Re tr(A T)^2), clamping radicands in [-1e-10, 0).
    The one-pair case of :func:`_std_deviations`."""
    _check_same_algebra(A.matrix, T.matrix)
    return float(_std_deviations(A.matrix.comps, T.matrix.comps, A.algebra))


# ---------------------------------------------------------------------------
# symmetries
# ---------------------------------------------------------------------------

# components of the complex conjugate of a C entry: a - bi
_COMPLEX_CONJ = np.array([1.0, -1.0, 1.0, 1.0])
_COMPLEX_CONJ.flags.writeable = False


def _conjugated(comps: np.ndarray, mask) -> np.ndarray:
    """Entrywise complex conjugation of the matrices of a (..., n, m, 4) stack
    that ``mask`` (one flag per matrix) flags; the others are multiplied by 1,
    which leaves every bit in place, or, with no flag set, not touched."""
    mask = np.asarray(mask)
    if not mask.any():
        return comps
    return comps * np.where(mask[..., None, None, None], _COMPLEX_CONJ, 1.0)


def _check_unitaries(comps: np.ndarray, algebra: Algebra) -> None:
    """Raise NotUnitary unless every matrix of a (..., n, n, 4) stack has
    U*U = I to 1e-8; over a stack the lowest failing matrix is named."""
    if comps.shape[-3] != comps.shape[-2]:
        raise NotUnitary(f"a {comps.shape[-3]}x{comps.shape[-2]} matrix is not unitary")
    # rejected before any arithmetic, which would make numpy warn
    require(np.isfinite(comps).all(axis=(-3, -2, -1)), NotUnitary, "unitary factor has a non-finite entry")
    defect = _orthonormality_defects(comps, algebra)
    # NaN fails every comparison
    require(defect <= 1e-8, NotUnitary, lambda i: f"U*U - I has magnitude {defect[i]:.3e}")


def _transform_states(v: np.ndarray, b: np.ndarray, anti, algebra: Algebra) -> np.ndarray:
    """U B U^{-1} = V conj?(B) V* for every triple of a stack; ``anti`` flags
    the anti-unitary ones (:meth:`SymmetryOp.transform_state`)."""
    count = algebra.component_count
    vb = kernels.quat_matmul(v, _conjugated(b, anti), count)
    return kernels.quat_matmul(vb, _adjoint_comps(v), count)


def _dual_transforms(v: np.ndarray, a: np.ndarray, anti, algebra: Algebra) -> np.ndarray:
    """U^{-1} A U = conj?(V* A V) for every triple of a stack (:meth:`SymmetryOp.dual_transform`)."""
    count = algebra.component_count
    va = kernels.quat_matmul(_adjoint_comps(v), a, count)
    return _conjugated(kernels.quat_matmul(va, v, count), anti)


def _duality_gaps(a: np.ndarray, b: np.ndarray, v: np.ndarray, anti, algebra: Algebra) -> np.ndarray:
    """:func:`symmetry_duality_gap` of every quadruple (A, B, V, anti) of a
    stack whose factors V have passed :func:`_check_unitaries`."""
    count = algebra.component_count
    lhs = _real_traces(kernels.quat_matmul(a, _transform_states(v, b, anti, algebra), count))
    rhs = _real_traces(kernels.quat_matmul(_dual_transforms(v, a, anti, algebra), b, count))
    return np.abs(lhs - rhs)


@dataclass(frozen=True)
class SymmetryOp:
    """Unitary, or (over C) anti-unitary, symmetry transformation.

    An anti-unitary operator is stored as a unitary factor composed with
    componentwise conjugation: U x = V conj(x).  Its actions are the
    one-symmetry cases of the stacked :func:`_transform_states` and
    :func:`_dual_transforms`.
    """

    unitary: Matrix
    antiunitary: bool = False

    def __post_init__(self):
        V = self.unitary
        if self.antiunitary and V.algebra is not Algebra.C:
            raise ValueError("anti-unitary symmetries exist only over C")
        _check_unitaries(V.comps, V.algebra)

    @property
    def algebra(self) -> Algebra:
        return self.unitary.algebra

    def transform_state(self, B: Matrix) -> Matrix:
        """B -> U B U^{-1}."""
        algebra = _check_same_algebra(self.unitary, B)
        return Matrix(algebra, _transform_states(self.unitary.comps, B.comps, self.antiunitary, algebra))

    def dual_transform(self, A: Matrix) -> Matrix:
        """A -> U^{-1} A U, the dual action on observables."""
        algebra = _check_same_algebra(self.unitary, A)
        return Matrix(algebra, _dual_transforms(self.unitary.comps, A.comps, self.antiunitary, algebra))


def symmetry_duality_gap(A: Matrix, B: Matrix, sym: SymmetryOp) -> float:
    """|Re tr(A U B U^{-1}) - Re tr(U^{-1} A U B)|; zero for every symmetry."""
    _check_same_algebra(A, B)
    algebra = _check_same_algebra(A, sym.unitary)
    return float(_duality_gaps(A.comps, B.comps, sym.unitary.comps, sym.antiunitary, algebra))


# ---------------------------------------------------------------------------
# one-parameter groups and continuity
# ---------------------------------------------------------------------------

class GroupPath:
    """A one-parameter group t -> U_t = V D_t V*, held in its generator's eigenbasis.

    ``basis`` is the (n, n, 4) unitary V whose columns are the eigenvectors,
    ``values`` the n eigenvalues s and ``unit`` the (4,) components of a unit
    imaginary u, so that D_t = diag(exp(u t s)), exp(u x) = cos x + u sin x.
    The arithmetic follows from the algebra: quaternionic over H, complex
    over C and over R, where V is complex and U_t is the real part of
    V D_t V*.  :meth:`stack` maps a 1-D array of k times to the (k, n, n, 4)
    component stack of the U_t.  Calling the path with one time gives the
    Matrix U_t, entry 0 of a one-time stack, as a one-column
    :meth:`Projector.rank_ones` stack holds the projector onto the line of
    one vector.
    """

    __slots__ = ("algebra", "basis", "values", "unit")

    def __init__(self, algebra: Algebra, basis: np.ndarray, values: np.ndarray, unit: np.ndarray):
        self.algebra = algebra
        self.basis = basis
        self.values = values
        self.unit = unit

    @property
    def _count(self) -> int:
        return 4 if self.algebra is Algebra.H else 2

    def stack(self, ts: np.ndarray) -> np.ndarray:
        """V times its phases, broadcast over the times, then one product of
        that (k n, n) column of blocks with V*."""
        n = self.values.size
        angles = ts[:, None] * self.values
        phases = np.sin(angles)[..., None] * self.unit
        phases[..., 0] += np.cos(angles)
        scaled = _mul_comps(self.basis, phases[:, None]).reshape(ts.size * n, n, 4)
        U = kernels.quat_matmul(scaled, _adjoint_comps(self.basis), self._count).reshape(ts.size, n, n, 4)
        if self.algebra is Algebra.R:
            U[..., 1] = 0.0
        return U

    def __call__(self, t: float) -> Matrix:
        return Matrix(self.algebra, self.stack(np.array([t], dtype=np.float64))[0])


def rotation_group_from_hermitian(H: Matrix, imag_unit: Quaternion) -> GroupPath:
    """t -> sum_u u exp(imag_unit t s(u)) <u|.> built on the eigenbasis of H.

    Over C with imag_unit = i this is exp(itH); over H it rotates each
    eigenvector by left multiplication with the fixed unit imaginary.  The
    group law U_{t+s} = U_t U_s holds because all phases share one slice.
    A unit that is not a unit imaginary raises ValueError, and a unit outside
    the algebra AlgebraMismatch.
    """
    if H.algebra is Algebra.R:
        raise ValueError("use rotation_group_from_skew over R")
    if abs(abs(imag_unit) - 1.0) > 1e-12 or abs(imag_unit.real) > 1e-12:
        raise ValueError("imag_unit must be a unit imaginary quaternion")
    unit = imag_unit.to_array()
    _require_in_algebra(unit, H.algebra, axis=-1)
    dec = eig_hermitian(H)
    return GroupPath(H.algebra, dec.basis.comps, dec.values, unit)


def rotation_group_from_skew(W: Matrix) -> GroupPath:
    """t -> exp(tW) for a real antisymmetric generator W.

    iW is complex Hermitian, and exp(tW) = V diag(exp(-i t s)) V* on its
    eigenbasis V with eigenvalues s: the path holds V, the values -s and the
    unit i.  The assembled exponential is real because the spectrum pairs
    up, and the tiny imaginary residue is dropped.
    """
    if W.algebra is not Algebra.R:
        raise ValueError("skew generator path is the real-algebra route")
    W0 = W.comps[..., 0]
    # checked first: NaN would pass the antisymmetry test, and inf would make numpy warn
    if not np.isfinite(W0).all() or np.abs(W0 + W0.T).max() > 1e-9 * max(1.0, np.abs(W0).max()):
        raise ValueError("generator must be antisymmetric")
    # the solver reads one triangle, so hand it the exactly Hermitian part
    vals, vecs = kernels.eigh(1j * (W0 - W0.T) / 2)
    zero = np.zeros(vecs.shape)
    basis = np.stack([vecs.real, vecs.imag, zero, zero], axis=-1)
    return GroupPath(Algebra.R, basis, -vals, Quaternion.I.to_array())


@dataclass(frozen=True)
class ContinuityReport:
    max_jump: float
    value_range: tuple[float, float]


def _orbit_values(A: Matrix, T: DensityOperator, group_path: GroupPath, ts: np.ndarray) -> np.ndarray:
    """Re tr(A U_t T U_t^{-1}) for every time t of ``ts``, read in the
    generator's eigenbasis with no U_t formed: O(n^3) once, then O(n^2) per time.

    With U_t = V D_t V*, the value is Re tr(Av D_t Tv D_t*) for Av = V*AV and
    Tv = V*TV, that is sum_ab Re(Av_ba d_a Tv_ab conj(d_b)), d_a = exp(u t s_a).
    Split Tv into x = (Tv - uTvu)/2, which commutes with u, and
    y = (Tv + uTvu)/2, which anticommutes with it (y = 0 in complex
    arithmetic): d_a x_ab conj(d_b) = x_ab exp(u t (s_a - s_b)) and
    d_a y_ab conj(d_b) = y_ab exp(-u t (s_a + s_b)).  With the entrywise
    products P1 = Av^T x and P2 = Av^T y, R = Re P and I = Im P . u, each value
    is the quadratic form X^T M X of X = (cos ts, sin ts), where
    M = [[R1 + R2, I1 + I2], [I2 - I1, R1 - R2]].
    """
    _check_same_algebra(A, T.matrix)
    _check_same_algebra(A, group_path)
    if not A.is_square:
        raise ValueError(f"cannot scan a {A.n}x{A.m} observable")
    V, u, count = group_path.basis, group_path.unit, group_path._count
    V_star = _adjoint_comps(V)
    Av, Tv = (kernels.quat_matmul(kernels.quat_matmul(V_star, X.comps, count), V, count) for X in (A, T.matrix))
    uTu = _mul_comps(_mul_comps(u, Tv), u)
    P = _mul_comps(Av.swapaxes(0, 1), np.stack([Tv - uTu, Tv + uTu]) / 2)  # P1, P2
    R, I = P[..., 0], P[..., 1:] @ u[1:]
    M = np.block([[R[0] + R[1], I[0] + I[1]], [I[1] - I[0], R[0] - R[1]]])
    angles = ts[:, None] * group_path.values
    X = np.concatenate([np.cos(angles), np.sin(angles)], axis=1)
    # einsum, not a BLAS product, which can round equal rows differently
    return np.einsum("ta,ab,tb->t", X, M, X)


def continuity_scan(
    A: Matrix,
    T: DensityOperator,
    group_path: GroupPath,
    samples: int,
) -> ContinuityReport:
    """Sample t -> Re tr(A U_t T U_t^{-1}) at ``samples + 1`` evenly spaced
    times over [0, 1] (:func:`_orbit_values`) and report the largest adjacent
    jump."""
    arr = _orbit_values(A, T, group_path, np.linspace(0.0, 1.0, samples + 1))
    jumps = np.abs(np.diff(arr))
    return ContinuityReport(
        max_jump=float(jumps.max(initial=0.0)),
        value_range=(float(arr.min()), float(arr.max())),
    )
