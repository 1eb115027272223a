"""Spectral machinery shared by the trace and state modules.

Hermitian eigendecomposition runs through one numerical kernel,
:func:`gleason_lab.kernels.eigh`, in the algebra's own arithmetic: a real
symmetric matrix goes to LAPACK's real driver as its component 0, a complex
Hermitian matrix to the complex driver.  Quaternionic Hermitian matrices are
handled by a complex embedding: writing A = A1 + A2 j with complex blocks,

    chi(A) = [[ A1,        A2       ],
              [ -conj(A2), conj(A1) ]]

is a *-homomorphism into 2n x 2n complex matrices (chi(AB) = chi(A) chi(B),
chi(A*) = chi(A)*, chi(I) = I), every eigenvalue of chi(A) appears with even
multiplicity, and a complex eigenvector (u; v) lifts to the quaternionic
eigenvector w = u - conj(v) j.  The lift is guarded twice: chi(A)'s sorted
spectrum must be n consecutive equal pairs, else ConvergenceFailure, and
every pair must yield one unit column.  A simple pair (the generic case)
keeps its first lifted column, normalized, and all simple pairs are lifted as
one block (``_lift``); that column has norm 1 for an honest solve, and one of norm at
most 1e-6 raises ConvergenceFailure.  The lifted columns of a group of two or
more equal pairs go through the one Gram-Schmidt,
:func:`gleason_lab.linalg._orthonormalize`, which must keep one column per
pair.  On a simple pair the block gives what that Gram-Schmidt would.

Both public solvers share one guarded solve, ``_solve``, and its guards are
identical for both.  ``_solve``, the Gram matrix and the norms take a stack
of matrices with leading axes; the public functions are their one-matrix
cases.  :func:`eig_hermitian` asks the kernel for eigenvectors
and lifts the eigenbasis; :func:`eigvals_hermitian` asks for eigenvalues only
(LAPACK's eigenvalue-only driver), reads the spectrum, over H as the pair
means, and builds no basis.  The norms (:func:`singular_values`,
:func:`op_norm`, and through them the trace norm), positivity and the state
check read only the spectrum, so they take :func:`eigvals_hermitian` and
compute no eigenvectors.  Spectral measures need the basis, and so do |A| and
the polar direction J, each from one eigendecomposition of A*A.

``_eig_stack`` decomposes a (T, n, n, 4) stack with one guarded solve and
serves each matrix whose spectrum is simple (``_simple_spectra``: every
eigenvalue its own atom and, over H, its own pair) bit for bit as
:func:`eig_hermitian` would, over H through the one simple-pair lift,
``_lift``, that :func:`eig_hermitian` uses too.  A Gaussian Hermitian draw has
a simple spectrum with probability 1; a matrix with a grouped one is left to
its caller, which decomposes it alone.

Eigenbases and adapted bases come back as the columns of one
:class:`~gleason_lab.linalg.Matrix`; a single vector is an n x 1 Matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import AlgebraMismatch, ConvergenceFailure, NotHermitian, require
from .linalg import (
    Matrix,
    _adjoint_comps,
    _hermitian_ratio,
    _mul_comps,
    _orthonormalize,
    inner,
    outer_sum,
)
from .scalars import Algebra, Quaternion

_HERMITIAN_TOL = 1e-8
_GROUP_TOL = 1e-7
# the atoms of an observable are its eigenvalues grouped at this tolerance,
# relative to the largest |eigenvalue| (gleason_lab.quantum._atoms)
_ATOM_REL_TOL = 1e-7
_CLAMP_REL = 1e-10


@dataclass(frozen=True)
class EigenDecomposition:
    """Full orthonormal eigenbasis, as the columns of ``basis``, with real
    eigenvalues sorted descending."""

    basis: Matrix
    values: np.ndarray

    def reconstruct(self) -> Matrix:
        return outer_sum(self.basis, self.values)

    def residual(self, A: Matrix) -> float:
        return (self.reconstruct() - A).max_abs()


def _chi(c: np.ndarray) -> np.ndarray:
    """chi of every square quaternionic matrix of a (..., n, n, 4) component stack ``c``."""
    A1, A2 = c[..., 0] + 1j * c[..., 1], c[..., 2] + 1j * c[..., 3]
    n = c.shape[-3]
    X = np.empty(c.shape[:-3] + (2 * n, 2 * n), dtype=np.complex128)
    X[..., :n, :n] = A1
    X[..., :n, n:] = A2
    X[..., n:, :n] = -A2.conj()
    X[..., n:, n:] = A1.conj()
    return X


def _group_indices(values, tol: float) -> list[tuple[int, int]]:
    """The (start, stop) index ranges of the groups of a sorted sequence of
    values: each value joins the group of the value that opened it when it
    lies within ``tol`` of it."""
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


def _along_last(x: np.ndarray, order: np.ndarray) -> np.ndarray:
    """The spectra (..., k), or eigenvector matrices (..., m, k), of ``x``
    gathered along their last axis by the (..., k) ``order`` of each: plain
    indexing for one matrix, where ``np.take_along_axis`` costs twice as much."""
    if order.ndim == 1:
        return x[..., order]
    return np.take_along_axis(x, order if x.ndim == order.ndim else order[..., None, :], axis=-1)


def _solve(c: np.ndarray, algebra: Algebra, vectors: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """(eigenvalues descending, eigenvector columns or None) of the exactly
    Hermitian part of every matrix of a (..., n, n, 4) component stack ``c``
    over R (a real symmetric solve) and C, of its image chi under H, after
    every guard: square, finite, Hermitian up to 1e-8 (the ratio test of
    :meth:`Matrix.is_hermitian`) and, over H, a doubled spectrum.  A*, the
    symmetrization and chi are formed from the components, with no Matrix.
    With ``vectors=False`` the kernel computes no eigenvectors.  Over a stack,
    a guard rejects the lowest matrix that fails it, by the one-matrix message
    (:func:`gleason_lab.errors.require`)."""
    if c.shape[-3] != c.shape[-2]:
        raise ValueError("eigendecomposition needs a square matrix")
    # a non-finite entry fails the ratio test anyway; rejecting it before any
    # arithmetic keeps numpy from warning about the validator's internals
    require(np.isfinite(c).all(axis=(-3, -2, -1)), NotHermitian, "matrix has a non-finite entry")
    star = _adjoint_comps(c)
    ratio = _hermitian_ratio(c, star)
    require(ratio <= _HERMITIAN_TOL, NotHermitian,
            lambda i: f"|A - A*| / max(1, max|A_rc|) = {ratio[i]:.3e} exceeds {_HERMITIAN_TOL:.1e}")
    sym = (c + star) * 0.5
    if algebra is Algebra.H:
        X = _chi(sym)
    elif algebra is Algebra.C:
        X = sym[..., 0] + 1j * sym[..., 1]
    else:
        X = sym[..., 0]
    w, V = kernels.eigh(X, vectors=vectors)
    order = np.argsort(-w, axis=-1, kind="stable")
    w = _along_last(w, order)
    if vectors:
        V = _along_last(V, order)
    # symplectic symmetry doubles every eigenvalue of chi(A), so the sorted
    # spectrum is n consecutive pairs; the tolerance is relative to the
    # spectrum, so a small spectrum is not misread as unpaired
    if algebra is Algebra.H:
        scale = np.abs(w).max(axis=-1, initial=0.0)
        unpaired = np.abs(w[..., 0::2] - w[..., 1::2]).max(axis=-1, initial=0.0) > _GROUP_TOL * scale
        require(~unpaired, ConvergenceFailure, "eigenvalue pairing failed: chi(A) spectrum is not doubled")
    return w, V


def _eigvals(c: np.ndarray, algebra: Algebra) -> np.ndarray:
    """The spectra of :func:`eigvals_hermitian`, for every matrix of a stack."""
    w, _ = _solve(c, algebra, vectors=False)
    if algebra is Algebra.H:
        return 0.5 * (w[..., 0::2] + w[..., 1::2])
    return w


def eigvals_hermitian(A: Matrix) -> np.ndarray:
    """Real eigenvalues, sorted descending, of a Hermitian matrix over R, C or H.

    The guards and the one eigensolve are those of :func:`eig_hermitian`, but
    the kernel computes no eigenvectors and no eigenbasis is built.  Over H
    each eigenvalue is the mean of its pair in chi(A)'s spectrum.
    """
    return _eigvals(A.comps, A.algebra)


def _basis_comps(V: np.ndarray) -> np.ndarray:
    """The components of the real or complex eigenvector columns of every
    matrix of a (..., n, n) stack."""
    comps = np.zeros(V.shape + (4,))
    comps[..., 0] = V.real
    comps[..., 1] = V.imag
    return comps


def _lifted(V: np.ndarray) -> np.ndarray:
    """The quaternionic lifts u - conj(v) j, as (..., n, k, 4) columns, of the
    k eigenvectors (u; v) of chi(A) held as the columns of a (..., 2n, k) V."""
    n = V.shape[-2] // 2
    return np.stack([V[..., :n, :].real, V[..., :n, :].imag, -V[..., n:, :].real, V[..., n:, :].imag], axis=-1)


def _lift(V: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """The lifted first eigenvector of each pair of ``pairs`` in chi(A)'s sorted
    (..., 2n, 2n) eigenvector columns V, normalized, as the (..., n,
    len(pairs), 4) columns of every matrix of a stack: what
    :func:`_orthonormalize` keeps of a simple pair.  Each norm is the same dot
    product of one contiguous 4n-row, whatever the stack.  A norm of at most
    1e-6 raises ConvergenceFailure, over a stack for the lowest failing matrix."""
    lifted = _lifted(V[..., 2 * pairs])
    lead, n = lifted.shape[:-3], lifted.shape[-3]
    rows = np.ascontiguousarray(lifted.swapaxes(-3, -2)).reshape(-1, 4 * n)
    norms = np.sqrt(np.matmul(rows[:, None, :], rows[:, :, None]))[:, 0, 0]
    require((norms > 1e-6).reshape(lead + (pairs.size,)).all(axis=-1), ConvergenceFailure,
            "could not lift an eigenvector from a simple pair")
    return (rows / norms[:, None]).reshape(lead + (pairs.size, n, 4)).swapaxes(-3, -2)


def eig_hermitian(A: Matrix) -> EigenDecomposition:
    """Orthonormal eigenbasis of a Hermitian matrix over R, C or H."""
    w, V = _solve(A.comps, A.algebra, vectors=True)
    if A.algebra is not Algebra.H:
        return EigenDecomposition(Matrix(A.algebra, _basis_comps(V)), w)
    n = A.n
    # grouping is relative to the spectrum, so a small spectrum is not merged
    # into its mean
    scale = float(np.abs(w).max(initial=0.0))
    values = 0.5 * (w[0::2] + w[1::2])
    groups = _group_indices(values, _GROUP_TOL * scale)
    basis = np.empty((n, n, 4))
    simple = np.array([a for a, b in groups if b - a == 1], dtype=np.intp)
    basis[:, simple] = _lift(V, simple)
    for a, b in groups:
        want = b - a
        if want == 1:
            continue
        got, _ = _orthonormalize(_lifted(V[:, 2 * a : 2 * b]), 1e-6, limit=want)
        if got.shape[1] != want:
            raise ConvergenceFailure(
                f"could not lift {want} independent eigenvectors from a group of {2 * want}"
            )
        basis[:, a:b] = got
        values[a:b] = np.mean(w[2 * a : 2 * b])
    return EigenDecomposition(Matrix(Algebra.H, basis), values)


def _simple_spectra(values: np.ndarray, w: np.ndarray, algebra: Algebra) -> np.ndarray:
    """Whether each matrix of a stack has a simple spectrum: every group that
    :func:`_group_indices` forms is a singleton, both of its sorted ``values``
    at ``_ATOM_REL_TOL`` max|values|, the atoms of
    :func:`gleason_lab.quantum.pvm_of`, and over H of the pair means at
    ``_GROUP_TOL`` max|w| of chi's spectrum ``w``, the pairs of
    :func:`eig_hermitian`."""
    tols = [_ATOM_REL_TOL * np.abs(values).max(axis=-1, initial=0.0)]
    if algebra is Algebra.H:
        tols.append(_GROUP_TOL * np.abs(w).max(axis=-1, initial=0.0))
    rows = values.reshape(-1, values.shape[-1]).tolist()
    bounds = [tol.ravel().tolist() for tol in tols]
    simple = [all(len(_group_indices(row, tol[t])) == len(row) for tol in bounds) for t, row in enumerate(rows)]
    return np.array(simple, dtype=bool).reshape(values.shape[:-1])


def _eig_stack(c: np.ndarray, algebra: Algebra) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(simple, values, basis) of a (T, n, n, 4) stack of Hermitian matrices,
    from one guarded solve of the whole stack (:func:`_solve`).  ``simple``
    flags the matrices with a simple spectrum (:func:`_simple_spectra`);
    ``values`` (S, n) and ``basis`` (S, n, n, 4) are what :func:`eig_hermitian`
    gives each of these S matrices, in order, bit for bit: over H every pair
    lifts by :func:`_lift`.  A matrix with a grouped spectrum gets nothing
    here; its caller decomposes it alone."""
    w, V = _solve(c, algebra, vectors=True)
    values = 0.5 * (w[..., 0::2] + w[..., 1::2]) if algebra is Algebra.H else w
    simple = _simple_spectra(values, w, algebra)
    if algebra is not Algebra.H:
        return simple, values[simple], _basis_comps(V[simple])
    return simple, values[simple], np.ascontiguousarray(_lift(V[simple], np.arange(c.shape[-3])))


def _gram(c: np.ndarray, algebra: Algebra) -> np.ndarray:
    """A*A of every matrix of a (..., n, m, 4) stack, for the norms, |A| and J.
    A non-finite entry raises the NotHermitian that the eigensolve gives NaN,
    before numpy can warn about inf arithmetic."""
    require(np.isfinite(c).all(axis=(-3, -2, -1)), NotHermitian, "matrix has a non-finite entry")
    return kernels.quat_matmul(_adjoint_comps(c), c, algebra.component_count)


def _op_norms(c: np.ndarray, algebra: Algebra) -> np.ndarray:
    """Operator norm of every matrix of a stack; see :func:`op_norm`."""
    gram_values = _eigvals(_gram(c, algebra), algebra)
    return np.sqrt(np.maximum(gram_values.max(axis=-1, initial=0.0), 0.0))


def op_norm(A: Matrix) -> float:
    """Operator (spectral) norm: largest singular value."""
    return float(_op_norms(A.comps, A.algebra))


def _root_spectrum(values: np.ndarray) -> np.ndarray:
    """Square roots of a positive spectrum, or of each of a stack of them, with
    every |s| <= 1e-10 * max|s| cut to exactly zero first; relative, so a small
    matrix keeps its singular values."""
    scale = np.abs(values).max(axis=-1, initial=0.0, keepdims=True)
    vals = np.where(np.abs(values) <= _CLAMP_REL * scale, 0.0, values)
    return np.sqrt(np.clip(vals, 0.0, None))


def _singular_data(A: Matrix) -> tuple[np.ndarray, Matrix]:
    """(singular values, right singular vectors as columns) of A, from one
    eigendecomposition of A*A."""
    gram = eig_hermitian(Matrix(A.algebra, _gram(A.comps, A.algebra)))
    return _root_spectrum(gram.values), gram.basis


def abs_op(A: Matrix) -> Matrix:
    """|A| = sqrt(A* A); satisfies || |A| x || = ||A x|| for every x."""
    sigmas, basis = _singular_data(A)
    return outer_sum(basis, sigmas)


def _singular_values(c: np.ndarray, algebra: Algebra) -> np.ndarray:
    """Singular values of every matrix of a stack, from the spectrum of A*A."""
    return _root_spectrum(_eigvals(_gram(c, algebra), algebra))


def singular_values(A: Matrix) -> np.ndarray:
    return _singular_values(A.comps, A.algebra)


def make_J(A: Matrix, kernel_unit: Quaternion = Quaternion.I) -> Matrix:
    """Anti-selfadjoint unitary J with A - A* = J |A - A*|, commuting with both.

    On the orthogonal complement of Ker(A - A*) the polar factor is forced.
    On the kernel any anti-selfadjoint unitary extension is admissible; this
    one acts as left multiplication by ``kernel_unit`` in an orthonormal basis
    of the kernel, so different units give different valid J's that agree
    where it matters.  The kernel cut is relative to |A - A*| itself, so a
    skew part of any size, down to the rounding left in a numerically
    Hermitian A, gets its own polar factor.
    """
    return _skew_polar(A, kernel_unit)[0]


def _skew_polar(A: Matrix, kernel_unit: Quaternion = Quaternion.I) -> tuple[Matrix, float]:
    """(J, tr|A - A*|) from one eigendecomposition of (A - A*)*(A - A*).  The
    kernel holds every singular value that :func:`_root_spectrum` cuts to zero:
    those at most 1e-5 of the largest."""
    if A.algebra is not Algebra.H:
        raise AlgebraMismatch("J construction is quaternionic")
    if not A.is_square:
        raise ValueError("needs a square matrix")
    if abs(abs(kernel_unit) - 1.0) > 1e-12 or abs(kernel_unit.real) > 1e-12:
        raise ValueError("kernel_unit must be a unit imaginary quaternion")
    # inf - inf would make numpy warn before _gram rejects the entry
    if not np.isfinite(A.comps).all():
        raise NotHermitian("matrix has a non-finite entry")
    C = A - A.adjoint()
    sigmas, basis = _singular_data(C)
    U = basis.comps
    live = sigmas > 0.0
    U_plus = Matrix(Algebra.H, U[:, live])
    U_zero = Matrix(Algebra.H, U[:, ~live])
    units = np.tile(kernel_unit.to_array(), (U_zero.m, 1))
    J = outer_sum(C @ U_plus, 1.0 / sigmas[live], U_plus) + outer_sum(U_zero, units)
    return J, float(sigmas.sum())


def _perpendicular_imaginary(imag_unit: Quaternion) -> Quaternion:
    vec = imag_unit.to_array()[1:]
    axis = np.zeros(3)
    axis[int(np.argmin(np.abs(vec)))] = 1.0
    perp = axis - float(np.dot(axis, vec)) * vec
    perp /= np.linalg.norm(perp)
    return Quaternion(0.0, *perp)


def adapted_basis(J: Matrix, imag_unit: Quaternion) -> Matrix:
    """Orthonormal basis of the full space inside {z : J z = z imag_unit}, as
    the columns of one matrix.

    Members of that slice are found by pi, the projection onto the +1
    eigenspace of the involution z -> -J z imag_unit.  The candidates pi(e_m)
    and pi(e_m t), for the standard basis vectors e_m and a unit imaginary t
    perpendicular to imag_unit, all come from one product J Z with
    Z = [e_0, e_0 t, e_1, e_1 t, ...]; Gram-Schmidt tries them in that order
    until n are kept.  They always suffice: pi(e_m t) = (e_m - pi(e_m)) t, so
    every e_m splits into the two candidates, and a unit x in the slice
    orthogonal to the vectors kept so far has |<x|e_m>| >= 1/sqrt(n) for some
    m, hence a component of at least 1/(2 sqrt(n)) along one of them.  Gram-Schmidt coefficients between
    slice members commute with imag_unit, so orthonormalization does not
    leave the slice.
    """
    if J.algebra is not Algebra.H:
        raise AlgebraMismatch("adapted bases live in quaternionic space")
    if abs(abs(imag_unit) - 1.0) > 1e-12 or abs(imag_unit.real) > 1e-12:
        raise ValueError("imag_unit must be a unit imaginary quaternion")
    n = J.n
    ident = Matrix.identity(n, Algebra.H)
    # checked first: NaN would pass the defect tests, and inf would make numpy warn
    finite = np.isfinite(J.comps).all()
    if not finite or (J + J.adjoint()).max_abs() > 1e-8 or (J @ J + ident).max_abs() > 1e-8:
        raise ValueError("J must be an anti-selfadjoint unitary")

    # Z = [e_0, e_0 t, e_1, e_1 t, ...]; Pi holds every pi(z) = (z - (J z) imag_unit) / 2,
    # one contiguous row of components per candidate
    m = np.arange(n)
    Z = np.zeros((n, 2 * n, 4))
    Z[m, 2 * m, 0] = 1.0
    Z[m, 2 * m + 1] = _perpendicular_imaginary(imag_unit).to_array()
    Pi = (Z - _mul_comps((J @ Matrix(Algebra.H, Z)).comps, imag_unit.to_array())) * 0.5
    Pi = np.ascontiguousarray(Pi.transpose(1, 0, 2))

    out: list[Matrix] = []
    for c in range(2 * n):
        w = Matrix(Algebra.H, Pi[c][:, None])
        for _ in range(2):
            for u in out:
                w = w - u.scale_right(inner(u, w))
        nrm = w.norm()
        if nrm > 1e-8:
            out.append(w.scale_right(1.0 / nrm))
            if len(out) == n:
                break
    if len(out) != n:
        raise ConvergenceFailure("could not extract a full adapted basis")
    basis = Matrix.from_columns(out)
    # J u - u imag_unit for every column u at once
    defect = (J @ basis).comps - _mul_comps(basis.comps, imag_unit.to_array())
    worst = float(np.sqrt((defect**2).sum(axis=(0, 2))).max())
    if worst > 1e-9:
        raise ConvergenceFailure(f"adapted-basis residual {worst:.3e} exceeds 1e-9")
    return basis
