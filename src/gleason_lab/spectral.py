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

``_eig_stack`` decomposes a (T, n, n, 4) stack with one guarded solve. It
gives every matrix's spectrum as :func:`eig_hermitian` does (over H through
the one pair grouping, ``_pair_spectra``) and serves, bit for bit, every
eigenbasis that :func:`eig_hermitian` takes as the solve gives it: over R and
C all of them, over H those whose pairs form no group, through the one
simple-pair lift, ``_lift``.  Its callers that build spectral measures ask for
a simple spectrum as atoms too (``_simple_spectra``), as a Gaussian
Hermitian draw's is with probability 1.  A matrix that is not served is left
to its caller, which decomposes it alone (``_serve``).  The skew polar
(J, tr|A - A*|) of :func:`make_J` is the one-matrix case of ``_skew_polars``,
which builds it from the decomposition of (A - A*)*(A - A*) for a whole
stack, and ``_adapted_bases`` runs the sweep of :func:`adapted_basis` over a
stack of J.

Eigenbases and adapted bases come back as the columns of one
:class:`~gleason_lab.linalg.Matrix`; a single vector is an n x 1 Matrix.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
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


def eig_hermitian(A: Matrix) -> EigenDecomposition:
    """Orthonormal eigenbasis of a Hermitian matrix over R, C or H."""
    w, V = _solve(A.comps, A.algebra, vectors=True)
    if A.algebra is not Algebra.H:
        return EigenDecomposition(Matrix(A.algebra, _basis_comps(V)), w)
    n = A.n
    values, [groups] = _pair_spectra(w)
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
    return EigenDecomposition(Matrix(Algebra.H, basis), values)


def _simple_spectra(values: np.ndarray) -> np.ndarray:
    """Whether each matrix of a stack has a simple spectrum as atoms: every
    group that :func:`_group_indices` forms of its sorted ``values`` at
    ``_ATOM_REL_TOL`` max|values| is a singleton, as the atoms of
    :func:`gleason_lab.quantum.pvm_of` are."""
    tols = (_ATOM_REL_TOL * np.abs(values).max(axis=-1, initial=0.0)).ravel().tolist()
    rows = values.reshape(-1, values.shape[-1]).tolist()
    simple = [len(_group_indices(row, tol)) == len(row) for row, tol in zip(rows, tols)]
    return np.array(simple, dtype=bool).reshape(values.shape[:-1])


def _eig_stack(c: np.ndarray, algebra: Algebra, atoms: bool = True) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(served, values, basis) of a (T, n, n, 4) stack of Hermitian matrices,
    from one guarded solve of the whole stack (:func:`_solve`).  ``values``
    (T, n) are the spectra that :func:`eig_hermitian` gives, bit for bit.
    ``served`` flags the matrices whose eigenbasis :func:`eig_hermitian`
    takes as the solve gives it: every matrix over R and C, over H one whose
    pairs form no group, each pair lifted by :func:`_lift`.  With ``atoms``
    (the runners that build a spectral measure) a served matrix must also
    have a simple spectrum as atoms (:func:`_simple_spectra`).  ``basis``
    (S, n, n, 4) holds the eigenbases of the S served matrices, in order, bit
    for bit as :func:`eig_hermitian` gives them; the caller decomposes any
    other matrix alone (:func:`_serve`)."""
    w, V = _solve(c, algebra, vectors=True)
    if algebra is Algebra.H:
        values, groups = _pair_spectra(w)
        served = np.array([len(g) == values.shape[-1] for g in groups], dtype=bool)
    else:
        values, served = w, np.ones(w.shape[:-1], dtype=bool)
    if atoms:
        served &= _simple_spectra(values)
    if algebra is not Algebra.H:
        return served, values, _basis_comps(V[served])
    return served, values, np.ascontiguousarray(_lift(V[served], np.arange(c.shape[-3])))


def _serve(served: np.ndarray, items: Iterable, fallback: Callable[[int], object]) -> list:
    """One item per matrix of a stack, in order: the next of ``items`` for
    each matrix that ``served`` flags (:func:`_eig_stack`), else
    ``fallback(t)``, the one-matrix code on matrix t, run in its turn."""
    items = iter(items)
    return [next(items) if flag else fallback(t) for t, flag in enumerate(served)]


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


def abs_op(A: Matrix) -> Matrix:
    """|A| = sqrt(A* A); satisfies || |A| x || = ||A x|| for every x: the
    singular values on the right singular vectors, from one
    eigendecomposition of A*A."""
    gram = eig_hermitian(Matrix(A.algebra, _gram(A.comps, A.algebra)))
    return outer_sum(gram.basis, _root_spectrum(gram.values))


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
    dec = eig_hermitian(Matrix(Algebra.H, _gram(C, Algebra.H)))
    J, norms = _skew_polars(C[None], dec.values[None], dec.basis.comps[None], kernel_unit)
    return Matrix(Algebra.H, J[0]), float(norms[0])


def _skew_polars(C: np.ndarray, values: np.ndarray, basis: np.ndarray,
                 kernel_unit: Quaternion = Quaternion.I) -> tuple[np.ndarray, np.ndarray]:
    """(J, tr|C|) of every C = A - A* of a (T, n, n, 4) stack, from the
    eigendecomposition of C*C that :func:`eig_hermitian` gives, values (T, n)
    and basis (T, n, n, 4).  The singular values s of C are those that
    :func:`_root_spectrum` leaves, and J = C U+ diag(1/s) U+* + U0 diag(q) U0*
    over the live columns U+ (s > 0) and the kernel columns U0, q the
    ``kernel_unit``: the kernel holds every singular value cut to zero, those
    at most 1e-5 of the largest.  The matrices with as many live columns form
    one stack (:func:`_groups`), so every product has the shape it has alone."""
    sigmas = _root_spectrum(values)
    J = np.empty(C.shape)
    for live, at in _groups((sigmas > 0.0).sum(axis=-1).tolist()):
        U = basis[at]
        plus, zero = U[..., :live, :], U[..., live:, :]
        units = np.broadcast_to(kernel_unit.to_array(), zero.shape[:-3] + zero.shape[-2:])
        J[at] = (_outer_sums(kernels.quat_matmul(C[at], plus), 4, 1.0 / sigmas[at, :live], plus)
                 + _outer_sums(zero, 4, units))
    return J, sigmas.sum(axis=-1)


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


def _reject(u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """w - u <u|w> for every pair of columns of two (T, n, 1, 4) stacks, with
    the arithmetic of :func:`inner` and :meth:`Matrix.scale_right`."""
    return w - _mul_comps(u, _mul_comps(_conj_comps(u[:, :, 0]), w[:, :, 0]).sum(axis=1)[:, None, None, :])


def _adapted_bases(J: np.ndarray, units: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(kept, basis) of :func:`adapted_basis` for every J of a (T, n, n, 4)
    stack, each with its unit imaginary scalar, the (T, 4) ``units``: the
    same candidates and the same two-pass sweep w - u<u|w>, by the pointwise
    product, over the whole stack, for the first n candidates.  ``kept``
    flags the trials that keep all n of them, and ``basis`` holds their
    bases, bit for bit; a trial that drops one goes on to later candidates,
    which its caller runs alone (:func:`adapted_basis`).  The twin of
    :func:`adapted_basis`, which the benchmark times and counts as it is.
    Over a stack the guards reject the lowest failing trial: ValueError
    unless J is an anti-selfadjoint unitary, ConvergenceFailure for a kept
    basis whose residual |J u - u unit| passes 1e-9."""
    T, n = J.shape[:2]
    message = "J must be an anti-selfadjoint unitary"
    # checked first: NaN would pass the defect tests, and inf would make numpy warn
    require(np.isfinite(J).all(axis=(-3, -2, -1)), ValueError, message)
    square = kernels.quat_matmul(J, J)
    square[:, np.arange(n), np.arange(n), 0] += 1.0
    require((_max_abs(J + _adjoint_comps(J)) <= 1e-8) & (_max_abs(square) <= 1e-8), ValueError, message)

    m = np.arange(n)
    Z = np.zeros((T, n, 2 * n, 4))
    Z[:, m, 2 * m, 0] = 1.0
    Z[:, m, 2 * m + 1] = np.array([_perpendicular_imaginary(Quaternion.from_array(u)).to_array()
                                   for u in units])[:, None, :]
    Pi = (Z - _mul_comps(kernels.quat_matmul(J, Z), units[:, None, None, :])) * 0.5
    Pi = np.ascontiguousarray(Pi.swapaxes(1, 2))

    kept = np.ones(T, dtype=bool)
    out: list[np.ndarray] = []
    for c in range(n):
        w = Pi[:, c, :, None, :]
        for _ in range(2):
            for u in out:
                w = _reject(u, w)
        nrm = _norms(w)
        kept &= nrm > 1e-8
        scale = np.zeros((T, 4))
        scale[:, 0] = 1.0 / np.where(kept, nrm, 1.0)
        out.append(_mul_comps(w, scale[:, None, None, :]))
    basis = np.concatenate(out, axis=2)
    defect = kernels.quat_matmul(J, basis) - _mul_comps(basis, units[:, None, None, :])
    worst = np.sqrt((defect**2).sum(axis=(1, 3))).max(axis=-1)
    require(~kept | ~(worst > 1e-9), ConvergenceFailure, lambda t: f"adapted-basis residual {worst[t]:.3e} exceeds 1e-9")
    return kept, basis
