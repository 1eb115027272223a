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
every pair must yield one unit column.  Every pair's first lifted column,
normalized, is taken at once (``_lift``); it has norm 1 for an honest solve,
and one of norm at most 1e-6 raises ConvergenceFailure.  On a simple pair
that is what the one Gram-Schmidt, :func:`gleason_lab.linalg._orthonormalize`,
would give.  The lifted columns of a group of two or more equal pairs then go
through that Gram-Schmidt (``_lift_groups``), one matrix and group at a
time, which must keep one column per pair.

``_eig_stack`` is the one eigendecomposition: one guarded solve of a stack
with any leading axes, or of one matrix, and a basis for every matrix, each
with the bits it gets alone.  :func:`eig_hermitian` is its one-matrix case.
It and the eigenvalue-only ``_eigvals`` share the one guarded solve,
``_solve``, and its guards.  Over
R and C the guards and the symmetrization run on the algebra's own
components, the storage of a float64 or complex128 matrix, and a component
outside the algebra is rejected (AlgebraMismatch); over H they run on all
four.  The Gram matrix A*A forms A* from the algebra's own components too.
``_solve``, the Gram matrix and the norms take a stack of matrices with
leading axes; the public functions are their one-matrix cases.
:func:`eigvals_hermitian` asks for eigenvalues only (LAPACK's
eigenvalue-only driver), reads the spectrum backwards, over H as the pair
means, and builds no basis.  The norms (:func:`singular_values`,
:func:`op_norm`, and through them the trace norm), positivity and the state
check read only the spectrum, so they take :func:`eigvals_hermitian` and
compute no eigenvectors.  Spectral measures need the basis, and so do |A| and
the polar direction J, each from one eigendecomposition of A*A.  The skew
polar (J, tr|A - A*|) of :func:`make_J` is the one-matrix case of
``_skew_polars``, from the ``_eig_stack`` decomposition of (A - A*)*(A - A*).
:func:`adapted_basis` and its stacked twin ``_adapted_bases`` share the J
guard, the candidate block and the residual certificate, for one J (n, n, 4)
and unit (4,) or a stack of them; only the two-pass sweep differs, per column
through :func:`inner` in :func:`adapted_basis` until ROADMAP item 1a.
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
    _conj_comps,
    _groups,
    _hermitian_ratio,
    _max_abs,
    _mul_comps,
    _norms,
    _orthonormalize,
    _outer_sums,
    _require_in_algebra,
    inner,
    outer_sum,
)
from .scalars import Algebra, Quaternion

_HERMITIAN_TOL = 1e-8
_GROUP_TOL = 1e-7
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
    every guard: square, finite, in the algebra, Hermitian up to 1e-8 (the
    ratio test of :meth:`Matrix.is_hermitian`) and, over H, a doubled
    spectrum.  Over R and C the ratio test and the symmetrization run on the
    algebra's own components, (..., n, n, 1) or (..., n, n, 2), the storage of
    a float64 or complex128 matrix; an entry with a nonzero component beyond
    them raises AlgebraMismatch, since no later guard reads those components.
    Over H they run on all four, and chi is formed from them, with no Matrix.
    With ``vectors=False`` the kernel computes no eigenvectors, and LAPACK's
    ascending spectrum is read backwards, which gives the bits of a stable
    sort except that a +0 and a -0, equal values, trade places; with
    eigenvectors, a stable sort keeps the columns of equal eigenvalues in
    LAPACK's order.  Over a stack, a guard rejects the lowest matrix that
    fails it, by the one-matrix message (:func:`gleason_lab.errors.require`)."""
    if c.shape[-3] != c.shape[-2]:
        raise ValueError("eigendecomposition needs a square matrix")
    # a non-finite entry fails the ratio test anyway; rejecting it before any
    # arithmetic keeps numpy from warning about the validator's internals
    require(np.isfinite(c).all(axis=(-3, -2, -1)), NotHermitian, "matrix has a non-finite entry")
    k = algebra.component_count
    if k < 4:
        _require_in_algebra(c, algebra)
        # the contiguous (..., n, n, k) storage of a float64 or complex128 stack
        c = kernels._own_numbers(c, k).view(np.float64).reshape(c.shape[:-1] + (k,))
    star = _adjoint_comps(c)
    ratio = _hermitian_ratio(c, star)
    require(ratio <= _HERMITIAN_TOL, NotHermitian,
            lambda i: f"|A - A*| / max(1, max|A_rc|) = {ratio[i]:.3e} exceeds {_HERMITIAN_TOL:.1e}")
    sym = (c + star) * 0.5
    if algebra is Algebra.H:
        X = _chi(sym)
    elif algebra is Algebra.C:
        # assembled as re + 1j im, not viewed as complex: the sum clears the
        # sign of some zero parts, LAPACK's reflectors read the sign of a
        # zero, and the reports' bits rest on this assembly
        X = sym[..., 0] + 1j * sym[..., 1]
    else:
        X = sym[..., 0]
    w, V = kernels.eigh(X, vectors=vectors)
    if vectors:
        order = np.argsort(-w, axis=-1, kind="stable")
        w = _along_last(w, order)
        V = _along_last(V, order)
    else:
        w = w[..., ::-1]
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


def _pair_spectra(w: np.ndarray) -> tuple[np.ndarray, list]:
    """(values, groups) of :func:`eig_hermitian` over H from chi's sorted
    spectrum w (..., 2n) of every matrix of a stack: the pair means, grouped
    by :func:`_group_indices` at ``_GROUP_TOL`` max|w| (relative to the
    spectrum, so a small spectrum is not merged into its mean), and every
    group of two or more pairs set to the mean of its chi eigenvalues; with
    each matrix's groups, in row-major order."""
    n = w.shape[-1] // 2
    values = 0.5 * (w[..., 0::2] + w[..., 1::2])
    tols = (_GROUP_TOL * np.abs(w).max(axis=-1, initial=0.0)).ravel().tolist()
    rows, chi = values.reshape(-1, n), w.reshape(-1, 2 * n)
    groups = [_group_indices(row, tol) for row, tol in zip(rows.tolist(), tols)]
    for row, row_groups in enumerate(groups):
        for a, b in row_groups:
            if b - a > 1:
                rows[row, a:b] = np.mean(chi[row, 2 * a : 2 * b])
    return values, groups


def _lift_groups(V: np.ndarray, basis: np.ndarray, groups: list) -> None:
    """Write into the (..., n, n, 4) ``basis`` the lifted columns of every
    group of two or more equal pairs, from chi's sorted (..., 2n, 2n)
    eigenvector columns V and each matrix's ``groups``, in row-major order:
    the columns that :func:`_orthonormalize` keeps of the group's lifts, one
    matrix and group at a time, which must be one per pair, else
    ConvergenceFailure, over a stack for the lowest failing matrix."""
    n = basis.shape[-3]
    flat, Vf = basis.reshape(-1, n, n, 4), V.reshape(-1, 2 * n, 2 * n)
    failed = np.zeros(flat.shape[0], dtype=np.intp)  # per matrix, the size of its first group that failed
    for t, row in enumerate(groups):
        for a, b in row:
            want = b - a
            if want == 1:
                continue
            got, _ = _orthonormalize(_lifted(Vf[t, :, 2 * a : 2 * b]), 1e-6, limit=want)
            if got.shape[-2] == want:
                flat[t, :, a:b] = got
            elif not failed[t]:
                failed[t] = want
    failed = failed.reshape(basis.shape[:-3])
    require(failed == 0, ConvergenceFailure,
            lambda i: f"could not lift {failed[i]} independent eigenvectors from a group of {2 * failed[i]}")


def _eig_stack(c: np.ndarray, algebra: Algebra) -> tuple[np.ndarray, np.ndarray]:
    """(values, basis) of every Hermitian matrix of a (..., n, n, 4) stack, or
    of one (n, n, 4) matrix, from one guarded solve (:func:`_solve`): the real
    eigenvalues (..., n), sorted descending, and an orthonormal eigenbasis as
    the (..., n, n, 4) columns.  Over R and C the basis is the solve's.  Over
    H the values are the pair means of :func:`_pair_spectra`; every pair is
    lifted by :func:`_lift`, and then each group of two or more pairs is
    lifted again by :func:`_lift_groups`."""
    w, V = _solve(c, algebra, vectors=True)
    if algebra is not Algebra.H:
        return w, _basis_comps(V)
    values, groups = _pair_spectra(w)
    basis = np.ascontiguousarray(_lift(V, np.arange(c.shape[-3])))
    _lift_groups(V, basis, groups)
    return values, basis


def eig_hermitian(A: Matrix) -> EigenDecomposition:
    """Orthonormal eigenbasis of a Hermitian matrix over R, C or H; the
    one-matrix case of :func:`_eig_stack`."""
    values, basis = _eig_stack(A.comps, A.algebra)
    return EigenDecomposition(Matrix(A.algebra, basis), values)


def _gram(c: np.ndarray, algebra: Algebra) -> np.ndarray:
    """A*A of every matrix of a (..., n, m, 4) stack, for the norms, |A| and J,
    as (..., m, m, 4) storage.  A* is formed from the algebra's own components
    only, (..., m, n, k), the ones that :func:`gleason_lab.kernels.quat_matmul`
    reads.  A non-finite entry raises the NotHermitian that the eigensolve
    gives NaN, before numpy can warn about inf arithmetic."""
    require(np.isfinite(c).all(axis=(-3, -2, -1)), NotHermitian, "matrix has a non-finite entry")
    k = algebra.component_count
    return kernels.quat_matmul(_adjoint_comps(c[..., :k]), c, k)


def _gram_spectra(c: np.ndarray, algebra: Algebra) -> np.ndarray:
    """The spectra of A*A of every matrix of a stack, from one guarded solve:
    what the norms read.  A caller with sibling stacks of one shape solves
    them in one call and reads each norm off its part of the spectra."""
    return _eigvals(_gram(c, algebra), algebra)


def _op_norms_of(values: np.ndarray) -> np.ndarray:
    """The operator norms of the matrices whose Gram spectra are ``values``."""
    return np.sqrt(np.maximum(values.max(axis=-1, initial=0.0), 0.0))


def _op_norms(c: np.ndarray, algebra: Algebra) -> np.ndarray:
    """Operator norm of every matrix of a stack; see :func:`op_norm`."""
    return _op_norms_of(_gram_spectra(c, algebra))


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


def abs_op(A: Matrix) -> Matrix:
    """|A| = sqrt(A* A); satisfies || |A| x || = ||A x|| for every x: the
    singular values on the right singular vectors, from one
    eigendecomposition of A*A."""
    gram = eig_hermitian(Matrix(A.algebra, _gram(A.comps, A.algebra)))
    return outer_sum(gram.basis, _root_spectrum(gram.values))


def _singular_values(c: np.ndarray, algebra: Algebra) -> np.ndarray:
    """Singular values of every matrix of a stack, from the spectrum of A*A."""
    return _root_spectrum(_gram_spectra(c, algebra))


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
    """(J, tr|A - A*|) from one eigendecomposition of (A - A*)*(A - A*); the
    one-matrix case of :func:`_skew_polars`."""
    if A.algebra is not Algebra.H:
        raise AlgebraMismatch("J construction is quaternionic")
    if not A.is_square:
        raise ValueError("needs a square matrix")
    if abs(abs(kernel_unit) - 1.0) > 1e-12 or abs(kernel_unit.real) > 1e-12:
        raise ValueError("kernel_unit must be a unit imaginary quaternion")
    # inf - inf would make numpy warn before _gram rejects the entry
    if not np.isfinite(A.comps).all():
        raise NotHermitian("matrix has a non-finite entry")
    C = A.comps - _adjoint_comps(A.comps)
    values, basis = _eig_stack(_gram(C, Algebra.H), Algebra.H)
    J, norms = _skew_polars(C[None], values[None], basis[None], kernel_unit)
    return Matrix(Algebra.H, J[0]), float(norms[0])


def _skew_polars(C: np.ndarray, values: np.ndarray, basis: np.ndarray,
                 kernel_unit: Quaternion = Quaternion.I) -> tuple[np.ndarray, np.ndarray]:
    """(J, tr|C|) of every C = A - A* of a (T, n, n, 4) stack, from the
    eigendecomposition of C*C that :func:`_eig_stack` gives, values (T, n)
    and basis (T, n, n, 4).  The singular values s of C are those that
    :func:`_root_spectrum` leaves, and J = C U+ diag(1/s) U+* + U0 diag(q) U0*
    over the live columns U+ (s > 0) and the kernel columns U0, q the
    ``kernel_unit``: the kernel holds every singular value cut to zero, those
    at most 1e-5 of the largest.  The matrices with as many live columns form
    one stack (:func:`_groups`), so every product has the shape it has alone;
    a stack with no kernel adds 0.0 for its empty kernel term, the same bits,
    signed zeros included."""
    sigmas = _root_spectrum(values)
    J = np.empty(C.shape)
    for live, at in _groups((sigmas > 0.0).sum(axis=-1).tolist()):
        plus, zero = basis[at, :, :live], basis[at, :, live:]
        kernel = (_outer_sums(zero, 4, np.broadcast_to(kernel_unit.to_array(), zero.shape[:-3] + zero.shape[-2:]))
                  if zero.size else 0.0)
        J[at] = _outer_sums(kernels.quat_matmul(C[at], plus), 4, 1.0 / sigmas[at, :live], plus) + kernel
    return J, sigmas.sum(axis=-1)


def _perpendicular_imaginary(unit: np.ndarray) -> np.ndarray:
    """A unit imaginary perpendicular to the unit imaginary ``unit``, as (4,) components."""
    vec = unit[1:]
    axis = np.zeros(3)
    axis[int(np.argmin(np.abs(vec)))] = 1.0
    perp = axis - float(np.dot(axis, vec)) * vec
    perp /= np.linalg.norm(perp)
    return np.concatenate(([0.0], perp))


def _require_anti_unitary(J: np.ndarray) -> None:
    """Raise ValueError unless J is finite, |J + J*| <= 1e-8 and |J^2 + I| <= 1e-8."""
    message = "J must be an anti-selfadjoint unitary"
    # finite first: NaN would pass the defect tests, and inf would make numpy warn
    require(np.isfinite(J).all(axis=(-3, -2, -1)), ValueError, message)
    m = np.arange(J.shape[-3])
    square = kernels.quat_matmul(J, J)
    square[..., m, m, 0] += 1.0
    require((_max_abs(J + _adjoint_comps(J)) <= 1e-8) & (_max_abs(square) <= 1e-8), ValueError, message)


def _candidates(J: np.ndarray, units: np.ndarray) -> np.ndarray:
    """pi(z) = (z - (J z) unit) / 2 of Z = [e_0, e_0 t, e_1, ...] from one J Z, one row per candidate;
    J broadcasts over the leading axes of the units."""
    n = J.shape[-3]
    m = np.arange(n)
    Z = np.zeros(units.shape[:-1] + (n, 2 * n, 4))
    Z[..., m, 2 * m, 0] = 1.0
    perps = [_perpendicular_imaginary(u) for u in units.reshape(-1, 4)]
    Z[..., m, 2 * m + 1, :] = np.reshape(perps, units.shape)[..., None, :]
    Pi = (Z - _mul_comps(kernels.quat_matmul(J, Z), units[..., None, None, :])) * 0.5
    return np.ascontiguousarray(Pi.swapaxes(-3, -2))


def _certify_adapted(J: np.ndarray, basis: np.ndarray, units: np.ndarray, kept=np.True_) -> None:
    """Raise ConvergenceFailure if a column u of a ``kept`` basis has |J u - u unit| > 1e-9."""
    defect = kernels.quat_matmul(J, basis) - _mul_comps(basis, units[..., None, None, :])
    worst = np.sqrt((defect**2).sum(axis=(-3, -1))).max(axis=-1)
    require(~((worst > 1e-9) & kept), ConvergenceFailure,
            lambda t: f"adapted-basis residual {worst[t]:.3e} exceeds 1e-9")


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
    leave the slice.  The J guard, the candidates and the certificate are
    :func:`_adapted_bases`' own; the sweep stays per column on :func:`inner`
    until ROADMAP item 1a.
    """
    if J.algebra is not Algebra.H:
        raise AlgebraMismatch("adapted bases live in quaternionic space")
    if abs(abs(imag_unit) - 1.0) > 1e-12 or abs(imag_unit.real) > 1e-12:
        raise ValueError("imag_unit must be a unit imaginary quaternion")
    n, unit = J.n, imag_unit.to_array()
    _require_anti_unitary(J.comps)
    Pi = _candidates(J.comps, unit)
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
    basis = np.concatenate([u.comps for u in out], axis=1)
    _certify_adapted(J.comps, basis, unit)
    return Matrix(Algebra.H, basis)


def _reject(u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """w - u <u|w> for every pair of columns of two (..., n, 1, 4) stacks, with
    the arithmetic of :func:`inner` and :meth:`Matrix.scale_right`."""
    return w - _mul_comps(u, _mul_comps(_conj_comps(u[..., 0, :]), w[..., 0, :]).sum(axis=-2)[..., None, None, :])


def _adapted_bases(J: np.ndarray, units: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(kept, basis) of :func:`adapted_basis` for every J of a (T, n, n, 4)
    stack with its unit of the (..., T, 4) ``units``, J broadcast over their
    leading sibling axes: the same J guard, candidates and certificate (of the
    kept trials), and its sweep w - u<u|w> by the pointwise product over the
    stack, for the first n candidates.  ``kept`` (..., T) flags the trials
    that keep all n, whose bases are its bases bit for bit; a trial that
    drops one is its caller's to run alone."""
    n, lead = J.shape[-3], units.shape[:-1]
    _require_anti_unitary(J)
    Pi = _candidates(J, units)
    kept = np.ones(lead, dtype=bool)
    out: list[np.ndarray] = []
    for c in range(n):
        w = Pi[..., c, :, None, :]
        for _ in range(2):
            for u in out:
                w = _reject(u, w)
        nrm = _norms(w)
        kept &= nrm > 1e-8
        scale = np.zeros(lead + (4,))
        scale[..., 0] = 1.0 / np.where(kept, nrm, 1.0)
        out.append(_mul_comps(w, scale[..., None, None, :]))
    basis = np.concatenate(out, axis=-2)
    _certify_adapted(J, basis, units, kept)
    return kept, basis
