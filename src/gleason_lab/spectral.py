"""Spectral machinery shared by the trace and state modules.

Hermitian eigendecomposition runs through one numerical kernel,
:func:`gleason_lab.kernels.eigh`, LAPACK's solver for complex Hermitian
matrices.  Real symmetric input is the special case with zero imaginary part.
Quaternionic Hermitian matrices are handled by a complex embedding: writing
A = A1 + A2 j with complex blocks,

    chi(A) = [[ A1,        A2       ],
              [ -conj(A2), conj(A1) ]]

is a *-homomorphism into 2n x 2n complex matrices (chi(AB) = chi(A) chi(B),
chi(A*) = chi(A)*, chi(I) = I), every eigenvalue of chi(A) appears with even
multiplicity, and a complex eigenvector (u; v) lifts to the quaternionic
eigenvector w = u - conj(v) j.  The lift is checked by residual; degenerate
groups are resolved by Gram-Schmidt over the lifted candidates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import AlgebraMismatch, ConvergenceFailure, NotHermitian, NotPositive
from .linalg import Basis, Matrix, Vector, inner, outer, random_vector
from .rng import SplitMix64
from .scalars import Algebra, Quaternion

_HERMITIAN_TOL = 1e-8
_GROUP_TOL = 1e-7
_CLAMP_REL = 1e-10


@dataclass(frozen=True)
class EigenDecomposition:
    """Full orthonormal eigenbasis with real eigenvalues, sorted descending."""

    basis: Basis
    values: np.ndarray

    def reconstruct(self) -> Matrix:
        n = self.basis.space_dim
        acc = Matrix.zeros(n, n, self.basis.algebra)
        for s, u in zip(self.values, self.basis):
            acc = acc + outer(u, u) * float(s)
        return acc

    def residual(self, A: Matrix) -> float:
        return (self.reconstruct() - A).max_abs()


@dataclass(frozen=True)
class PolarDecomposition:
    partial_isometry: Matrix
    absolute: Matrix


def _complex_blocks(A: Matrix) -> tuple[np.ndarray, np.ndarray]:
    c = A.comps
    return c[..., 0] + 1j * c[..., 1], c[..., 2] + 1j * c[..., 3]


def embed(A: Matrix) -> np.ndarray:
    """Complex 2n x 2n image chi(A) of a square quaternionic matrix."""
    if A.algebra is not Algebra.H:
        raise AlgebraMismatch("embedding is defined for quaternionic matrices")
    if not A.is_square:
        raise ValueError("embedding needs a square matrix")
    A1, A2 = _complex_blocks(A)
    n = A.n
    X = np.empty((2 * n, 2 * n), dtype=np.complex128)
    X[:n, :n] = A1
    X[:n, n:] = A2
    X[n:, :n] = -A2.conj()
    X[n:, n:] = A1.conj()
    return X


def _vector_from_complex(col: np.ndarray, algebra: Algebra) -> Vector:
    comps = np.zeros((col.shape[0], 4))
    comps[:, 0] = col.real
    comps[:, 1] = col.imag
    return Vector(algebra, comps)


def _lift(col: np.ndarray, n: int) -> Vector:
    """(u; v) eigenvector of chi(A) -> quaternionic w = u - conj(v) j."""
    u, v = col[:n], col[n:]
    comps = np.empty((n, 4))
    comps[:, 0] = u.real
    comps[:, 1] = u.imag
    comps[:, 2] = -v.real
    comps[:, 3] = v.imag
    return Vector(Algebra.H, comps)


def _group_indices(values: np.ndarray, tol: float) -> list[tuple[int, int]]:
    groups = []
    m = 0
    n = len(values)
    while m < n:
        k = m + 1
        while k < n and abs(values[k] - values[m]) <= tol:
            k += 1
        groups.append((m, k))
        m = k
    return groups


def _eig_hermitian_quaternionic(A: Matrix) -> EigenDecomposition:
    n = A.n
    w, V = kernels.eigh(embed(A))
    order = np.argsort(-w, kind="stable")
    w = w[order]
    V = V[:, order]
    scale = max(1.0, float(np.abs(w).max(initial=0.0)))
    groups = _group_indices(w, _GROUP_TOL * scale)
    # Symplectic symmetry doubles every multiplicity; an odd group means the
    # grouping tolerance split a pair, so merge forward and retry once.
    merged: list[tuple[int, int]] = []
    for a, b in groups:
        if merged and (merged[-1][1] - merged[-1][0]) % 2 == 1:
            merged[-1] = (merged[-1][0], b)
        else:
            merged.append((a, b))
    if any((b - a) % 2 == 1 for a, b in merged):
        raise ConvergenceFailure("eigenvalue pairing failed: odd multiplicity group")
    vals: list[float] = []
    vecs: list[Vector] = []
    for a, b in merged:
        want = (b - a) // 2
        got: list[Vector] = []
        for t in range(a, b):
            cand = _lift(V[:, t], n)
            for u in got:
                cand = cand - u.scale_right(inner(u, cand))
            nrm = cand.norm()
            if nrm > 1e-6:
                got.append(cand.scale_right(1.0 / nrm))
            if len(got) == want:
                break
        if len(got) != want:
            raise ConvergenceFailure(
                f"could not lift {want} independent eigenvectors from a group of {b - a}"
            )
        mean = float(np.mean(w[a:b]))
        vals.extend([mean] * want)
        vecs.extend(got)
    return EigenDecomposition(Basis(vecs), np.array(vals))


def eig_hermitian(A: Matrix, tol: float = _HERMITIAN_TOL) -> EigenDecomposition:
    """Orthonormal eigenbasis of a Hermitian matrix over R, C or H."""
    if not A.is_square:
        raise ValueError("eigendecomposition needs a square matrix")
    defect = A.hermitian_defect()
    # a NaN or inf entry makes the ratio NaN, and NaN fails every comparison
    if not (defect / max(1.0, A.max_abs()) <= tol):
        raise NotHermitian(f"|A - A*| = {defect:.3e} exceeds tolerance")
    sym = (A + A.adjoint()) * 0.5
    if A.algebra is Algebra.H:
        return _eig_hermitian_quaternionic(sym)
    c = sym.comps
    X = c[..., 0] + 1j * c[..., 1]
    w, V = kernels.eigh(X)
    order = np.argsort(-w, kind="stable")
    w = w[order]
    V = V[:, order]
    vecs = [_vector_from_complex(V[:, t], A.algebra) for t in range(A.n)]
    return EigenDecomposition(Basis(vecs), w.copy())


def op_norm(A: Matrix) -> float:
    """Operator (spectral) norm: largest singular value."""
    gram = eig_hermitian(A.adjoint() @ A)
    return float(np.sqrt(max(gram.values.max(initial=0.0), 0.0)))


def sqrt_positive(B: Matrix, tol: float = _CLAMP_REL) -> Matrix:
    """Unique positive square root of a positive Hermitian matrix.

    Eigenvalues with |s| <= tol*scale are kernel noise and become exactly
    zero (the square root would amplify them to sqrt-of-noise otherwise);
    anything below -tol*scale raises NotPositive.
    """
    dec = eig_hermitian(B)
    scale = max(1.0, float(np.abs(dec.values).max(initial=0.0)))
    if dec.values.min(initial=0.0) < -tol * scale:
        raise NotPositive(f"minimum eigenvalue {dec.values.min():.3e} below -{tol * scale:.1e}")
    vals = np.where(np.abs(dec.values) <= tol * scale, 0.0, dec.values)
    vals = np.sqrt(np.clip(vals, 0.0, None))
    return EigenDecomposition(dec.basis, vals).reconstruct()


def abs_op(A: Matrix) -> Matrix:
    """|A| = sqrt(A* A); satisfies || |A| x || = ||A x|| for every x."""
    return sqrt_positive(A.adjoint() @ A)


def _singular_data(A: Matrix) -> tuple[np.ndarray, Basis]:
    gram = eig_hermitian(A.adjoint() @ A)
    scale = max(1.0, float(np.abs(gram.values).max(initial=0.0)))
    vals = np.where(np.abs(gram.values) <= _CLAMP_REL * scale, 0.0, gram.values)
    return np.sqrt(np.clip(vals, 0.0, None)), gram.basis


def singular_values(A: Matrix) -> np.ndarray:
    return _singular_data(A)[0]


def polar(A: Matrix) -> PolarDecomposition:
    """A = U |A| with |A| positive Hermitian and U a partial isometry."""
    if not A.is_square:
        raise ValueError("polar decomposition needs a square matrix")
    sigmas, basis = _singular_data(A)
    top = max(1.0, float(sigmas.max(initial=0.0)))
    # kernel cut sits at the noise floor of sigma = sqrt(eigenvalue): keeping
    # smaller directions would normalize pure rounding noise into U
    cut = 1e-8 * top
    absolute = Matrix.zeros(A.n, A.n, A.algebra)
    isometry = Matrix.zeros(A.n, A.n, A.algebra)
    for s, u in zip(sigmas, basis):
        if s > cut:
            absolute = absolute + outer(u, u) * float(s)
            isometry = isometry + outer((A @ u).scale_right(1.0 / float(s)), u)
    return PolarDecomposition(isometry, absolute)


def make_J(A: Matrix, kernel_unit: Quaternion = Quaternion.I) -> Matrix:
    """Anti-selfadjoint unitary J with A - A* = J |A - A*|, commuting with both.

    On the orthogonal complement of Ker(A - A*) the polar factor is forced.
    On the kernel any anti-selfadjoint unitary extension is admissible; this
    one acts as left multiplication by ``kernel_unit`` in an orthonormal basis
    of the kernel, so different units give different valid J's that agree
    where it matters.
    """
    return _skew_polar(A, kernel_unit)[0]


def _skew_polar(A: Matrix, kernel_unit: Quaternion = Quaternion.I) -> tuple[Matrix, float]:
    """(J, tr|A - A*|) from one eigendecomposition of (A - A*)*(A - A*)."""
    if A.algebra is not Algebra.H:
        raise AlgebraMismatch("J construction is quaternionic")
    if not A.is_square:
        raise ValueError("needs a square matrix")
    if abs(abs(kernel_unit) - 1.0) > 1e-12 or abs(kernel_unit.real) > 1e-12:
        raise ValueError("kernel_unit must be a unit imaginary quaternion")
    C = A - A.adjoint()
    sigmas, basis = _singular_data(C)
    J = Matrix.zeros(A.n, A.n, Algebra.H)
    for sigma, u in zip(sigmas, basis):
        if sigma > 0.0:
            J = J + outer((C @ u).scale_right(1.0 / float(sigma)), u)
        else:
            J = J + outer(u, u, coeff=kernel_unit)
    return J, float(sigmas.sum())


def _perpendicular_imaginary(imag_unit: Quaternion) -> Quaternion:
    vec = imag_unit.to_array()[1:]
    axis = np.zeros(3)
    axis[int(np.argmin(np.abs(vec)))] = 1.0
    perp = axis - float(np.dot(axis, vec)) * vec
    perp /= np.linalg.norm(perp)
    return Quaternion(0.0, *perp)


def adapted_basis(J: Matrix, imag_unit: Quaternion) -> Basis:
    """Orthonormal basis of the full space inside {z : J z = z imag_unit}.

    Members of that slice are found by the involution z -> -J z imag_unit,
    whose +1 eigenspace it is; candidates are projected standard basis
    vectors, completed by a perpendicular-imaginary twist and, if necessary,
    random probes.  Gram-Schmidt coefficients between slice members commute
    with imag_unit, so orthonormalization does not leave the slice.
    """
    if J.algebra is not Algebra.H:
        raise AlgebraMismatch("adapted bases live in quaternionic space")
    if abs(abs(imag_unit) - 1.0) > 1e-12 or abs(imag_unit.real) > 1e-12:
        raise ValueError("imag_unit must be a unit imaginary quaternion")
    n = J.n
    ident = Matrix.identity(n, Algebra.H)
    if (J + J.adjoint()).max_abs() > 1e-8 or (J @ J + ident).max_abs() > 1e-8:
        raise ValueError("J must be an anti-selfadjoint unitary")

    def project(z: Vector) -> Vector:
        return (z - (J @ z).scale_right(imag_unit)).scale_right(0.5)

    twist = _perpendicular_imaginary(imag_unit)
    candidates: list[Vector] = []
    for m in range(n):
        e = Vector.basis_vector(m, n, Algebra.H)
        candidates.append(project(e))
        candidates.append(project(e.scale_right(twist)))

    out: list[Vector] = []
    rng = SplitMix64(0xADA9).derive("adapted-basis", n)
    for attempt in range(3):
        for cand in candidates:
            w = cand
            for _ in range(2):
                for u in out:
                    w = w - u.scale_right(inner(u, w))
            nrm = w.norm()
            if nrm > 1e-8:
                out.append(w.scale_right(1.0 / nrm))
            if len(out) == n:
                break
        if len(out) == n:
            break
        candidates = [project(random_vector(n, Algebra.H, rng)) for _ in range(2 * n)]
    if len(out) != n:
        raise ConvergenceFailure("could not extract a full adapted basis")
    basis = Basis(out)
    worst = max((J @ u - u.scale_right(imag_unit)).norm() for u in basis)
    if worst > 1e-9:
        raise ConvergenceFailure(f"adapted-basis residual {worst:.3e} exceeds 1e-9")
    return basis
