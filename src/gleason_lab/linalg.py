"""Dense matrices over R, C or H; a vector is an n x 1 :class:`Matrix`.

Conventions, fixed once for the whole package because quaternions do not
commute: matrices act on column vectors from the LEFT, scalars multiply
vectors from the RIGHT (:meth:`Matrix.scale_right`), and the inner product
:func:`inner` of two columns is conjugate-linear in the left entry and linear
in the right entry.  With this pairing A(x q) = (A x) q holds for every scalar
q, and the adjoint satisfies <A* x | y> = <x | A y>.

Storage is a float64 component array of shape (n, m, 4) per matrix (rows,
columns, quaternion components), shared by all three algebras; the
components beyond the algebra's are zero.  Products go through
:func:`gleason_lab.kernels.quat_matmul` in the algebra's own arithmetic, the
pointwise product :func:`_mul_comps` through the Hamilton table, and squared
moduli through :func:`_sq_moduli`, which adds the squared components in
order, as ``abs(Quaternion)`` does.

:func:`outer_sum` is the one place where vectors become operators: every
spectral sum, projector, state, |A|, polar direction J and phase group is
(U diag(q)) V* in a single product.  The projector onto a block of
orthonormal columns is the outer sum of that block, with no Gram-Schmidt run
again: :func:`_block_projectors` builds the blocks of one basis, or of every
basis of a stack (the atoms of :func:`gleason_lab.quantum.pvm_of` and of the
suite's stacked spectra, the parts of
:func:`gleason_lab.gleason.random_orthogonal_decomposition`), and
:func:`_random_projectors` the leading columns of a stack of unitaries.  Only
:func:`projector_onto`, whose columns need not be orthonormal, runs
Gram-Schmidt first.  :func:`_orthonormalize` is the one Gram-Schmidt, shared
by :func:`gram_schmidt` and the eigenvector lift of :mod:`gleason_lab.spectral`.

Every kernel and guard runs over a stack of matrices as over one; a guard
over a stack rejects the lowest matrix that fails it
(:func:`gleason_lab.errors.require`).  :class:`Projector` is the one-matrix
case of the stacked certificate :func:`_check_projectors`, and each one-draw
random function (:func:`random_unit_vector`, :func:`random_phase`,
:func:`random_unitary`, :func:`random_projector`) the one-draw case of a
stacked draw from the one Gaussian layout :func:`_gaussian_comps`.
:meth:`Projector.rank_ones` builds the projectors onto the lines of a block of
columns with no matrix product, entry by entry through the complex view
u = z1 + z2 j (:func:`_line_projectors`), and certifies the stack as built,
through the same view (:func:`_projector_defects`).
"""

from __future__ import annotations

import math

import numpy as np

from . import kernels
from .errors import AlgebraMismatch, DegenerateInput, require
from .kernels import HAMILTON
from .scalars import Algebra, Quaternion, as_quaternion

_RANK_TOL = 1e-10
# the smallest normal double: a sum of squares below it has lost bits to underflow
_NORMAL_MIN = float(np.finfo(np.float64).tiny)


# components of the quaternion conjugate: a - bi - cj - dk
_CONJ = np.array([1.0, -1.0, -1.0, -1.0])
_CONJ.flags.writeable = False


def _conj_comps(comps: np.ndarray) -> np.ndarray:
    return comps * _CONJ


def _mul_comps(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Pointwise Hamilton product of broadcastable (..., 4) component arrays.

    left[..., b, e] = sum_a p_a HAMILTON[a, b, e] is the matrix of q -> p q
    (the left-regular form of p), so the product is one contraction with q.
    """
    left = (p @ HAMILTON.reshape(4, 16)).reshape(p.shape[:-1] + (4, 4))
    return np.einsum("...be,...b->...e", left, q)


# Entry count from which :func:`_sq_moduli` adds the four squared components
# as whole arrays: below it numpy's length-4 sum, one call, is faster.
_SQ_MODULI_MIN_ENTRIES = 256


def _sq_moduli(comps: np.ndarray) -> np.ndarray:
    """|q|^2 = ((q0^2 + q1^2) + q2^2) + q3^2 of every entry of a (..., 4)
    component array, bit for bit what ``(comps**2).sum(axis=-1)`` gives.

    numpy sums a length-4 axis in this order too, but per entry, in a
    reduction loop of four doubles; from ``_SQ_MODULI_MIN_ENTRIES`` entries on,
    three whole-array adds into one accumulator, through one scratch array,
    are several times faster.  The choice changes the speed only.
    """
    if comps.size < 4 * _SQ_MODULI_MIN_ENTRIES:
        return (comps * comps).sum(axis=-1)
    acc = np.square(comps[..., 0])
    part = np.square(comps[..., 1])
    acc += part
    acc += np.square(comps[..., 2], out=part)
    acc += np.square(comps[..., 3], out=part)
    return acc


def _in_algebra(comps: np.ndarray, algebra: Algebra) -> np.ndarray:
    """``comps``, after checking that every entry lies in ``algebra``."""
    if comps[..., algebra.component_count:].any():
        raise AlgebraMismatch(f"an entry has components outside {algebra.value}")
    return comps


def _check_same_algebra(x, y) -> Algebra:
    if x.algebra is not y.algebra:
        raise AlgebraMismatch(f"mixed algebras {x.algebra.value} and {y.algebra.value}")
    return x.algebra


class Vector:
    """Retired: a vector is an n x 1 :class:`Matrix`.

    ``perfbench/tracer.py`` still binds ``Vector.__init__`` and
    ``Vector.scale_right`` by name, so the class keeps these two methods, and
    both raise.  The stub goes with that binding (ROADMAP item 1).
    """

    def __init__(self, *args, **kwargs):
        raise TypeError("Vector is retired: a vector is an n x 1 Matrix")

    def scale_right(self, q):
        raise TypeError("Vector is retired: a vector is an n x 1 Matrix")


def inner(x: Matrix, y: Matrix) -> Quaternion:
    """<x|y> = sum_m conj(x_m) y_m of two n x 1 columns; Hermitian and linear
    in the right entry.  Any other shape raises ValueError."""
    _check_same_algebra(x, y)
    if x.m != 1 or y.m != 1 or x.n != y.n:
        raise ValueError(f"inner needs two columns of one length, got {x.n}x{x.m} and {y.n}x{y.m}")
    prod = _mul_comps(_conj_comps(x.comps[:, 0]), y.comps[:, 0])
    return Quaternion.from_array(prod.sum(axis=0))


class Matrix:
    """Dense operator over a fixed algebra; immutable after construction.

    Invariant: no entry has a non-zero component beyond the algebra's
    ``component_count`` (an R matrix has components 1-3 zero, a C matrix
    components 2-3), since the R and C products read only the algebra's
    components.  The constructor does not check it, to stay cheap on the hot
    paths; :meth:`from_rows` and :meth:`diag`, which take scalars from
    outside, raise AlgebraMismatch for an entry outside the algebra.
    """

    __slots__ = ("algebra", "comps")

    def __init__(self, algebra: Algebra, comps: np.ndarray):
        comps = np.asarray(comps, dtype=np.float64)
        if comps.ndim != 3 or comps.shape[2] != 4:
            raise ValueError(f"matrix components must have shape (n, m, 4), got {comps.shape}")
        self.algebra = algebra
        self.comps = comps
        self.comps.flags.writeable = False

    # -- constructors -------------------------------------------------------

    @classmethod
    def zeros(cls, n: int, m: int, algebra: Algebra) -> "Matrix":
        return cls(algebra, np.zeros((n, m, 4)))

    @classmethod
    def identity(cls, n: int, algebra: Algebra) -> "Matrix":
        comps = np.zeros((n, n, 4))
        comps[np.arange(n), np.arange(n), 0] = 1.0
        return cls(algebra, comps)

    @classmethod
    def from_rows(cls, rows, algebra: Algebra) -> "Matrix":
        data = [[as_quaternion(e).to_array() for e in row] for row in rows]
        return cls(algebra, _in_algebra(np.array(data), algebra))

    @classmethod
    def diag(cls, entries, algebra: Algebra) -> "Matrix":
        n = len(entries)
        comps = np.zeros((n, n, 4))
        for m, e in enumerate(entries):
            comps[m, m] = as_quaternion(e).to_array()
        return cls(algebra, _in_algebra(comps, algebra))

    @classmethod
    def from_columns(cls, blocks: list["Matrix"]) -> "Matrix":
        """The matrix of the columns of ``blocks``, side by side, in order."""
        if not blocks:
            raise ValueError("need at least one column block")
        for block in blocks:
            _check_same_algebra(blocks[0], block)
        return cls(blocks[0].algebra, np.concatenate([block.comps for block in blocks], axis=1))

    # -- shape and access ---------------------------------------------------

    @property
    def n(self) -> int:
        return self.comps.shape[0]

    @property
    def m(self) -> int:
        return self.comps.shape[1]

    @property
    def is_square(self) -> bool:
        return self.n == self.m

    def entry(self, r: int, c: int) -> Quaternion:
        return Quaternion.from_array(self.comps[r, c])

    def col(self, c: int) -> "Matrix":
        """Column c as an n x 1 matrix."""
        return Matrix(self.algebra, self.comps[:, [c]])

    def columns(self) -> list["Matrix"]:
        return [self.col(c) for c in range(self.m)]

    # -- algebra ------------------------------------------------------------

    def __matmul__(self, other: "Matrix") -> "Matrix":
        count = _check_same_algebra(self, other).component_count
        return Matrix(self.algebra, kernels.quat_matmul(self.comps, other.comps, count))

    def __add__(self, other: "Matrix") -> "Matrix":
        _check_same_algebra(self, other)
        return Matrix(self.algebra, self.comps + other.comps)

    def __sub__(self, other: "Matrix") -> "Matrix":
        _check_same_algebra(self, other)
        return Matrix(self.algebra, self.comps - other.comps)

    def __neg__(self) -> "Matrix":
        return Matrix(self.algebra, -self.comps)

    def __mul__(self, scalar) -> "Matrix":
        # Only real coefficients keep operators linear over H.
        return Matrix(self.algebra, self.comps * float(scalar))

    __rmul__ = __mul__

    def scale_right(self, q) -> "Matrix":
        """X -> X q, the only scalar action compatible with left operators.

        A scalar outside the matrix's algebra raises AlgebraMismatch.
        """
        q = as_quaternion(q)
        qa = q.to_array()
        # every scalar lies in H, so H pays the one comparison
        if self.algebra is not Algebra.H and qa[self.algebra.component_count:].any():
            raise AlgebraMismatch(f"scalar {q} lies outside {self.algebra.value}")
        return Matrix(self.algebra, _mul_comps(self.comps, qa))

    def adjoint(self) -> "Matrix":
        return Matrix(self.algebra, _adjoint_comps(self.comps))

    def max_abs(self) -> float:
        """Largest entry magnitude |A_rc|."""
        return float(_max_abs(self.comps))

    def norm(self) -> float:
        """Frobenius norm; the length of an n x 1 column.  The one-matrix case
        of :func:`_norms`, whose plain sum of squares it takes as it stands
        when that sum is a finite normal number."""
        with np.errstate(over="ignore"):
            sq = float((self.comps**2).sum())
        if _NORMAL_MIN <= sq < math.inf:
            return math.sqrt(sq)
        return float(_norms(self.comps))

    def hermitian_defect(self) -> float:
        return (self - self.adjoint()).max_abs()

    def is_hermitian(self, tol: float = 1e-9) -> bool:
        # a non-finite entry is answered before any arithmetic, which would make numpy warn
        if not np.isfinite(self.comps).all():
            return False
        return bool(_hermitian_ratio(self.comps, _adjoint_comps(self.comps)) <= tol)

    def approx_eq(self, other: "Matrix", tol: float = 1e-9) -> bool:
        return bool(np.abs(self.comps - other.comps).max() <= tol)

    def __repr__(self) -> str:
        return f"Matrix({self.algebra.value}, {self.n}x{self.m})"


def _adjoint_comps(comps: np.ndarray) -> np.ndarray:
    """Components of A* from those of A, for every matrix of a (..., n, m, 4)
    stack: conjugate and transpose in one pass into contiguous storage."""
    n, m = comps.shape[-3], comps.shape[-2]
    return np.multiply(comps.swapaxes(-3, -2), _CONJ, out=np.empty(comps.shape[:-3] + (m, n, 4)))


def _hermitian_part(comps: np.ndarray) -> np.ndarray:
    """(A + A*) / 2 of every matrix of a (..., n, n, 4) stack."""
    return (comps + _adjoint_comps(comps)) * 0.5


def _max_abs(comps: np.ndarray) -> np.ndarray:
    """Largest entry magnitude of every matrix of a (..., n, m, 4) stack.

    One square root, of the largest squared modulus: sqrt is monotone and
    correctly rounded, so this is the largest modulus bit for bit.
    """
    return np.sqrt(_sq_moduli(comps).max(axis=(-2, -1)))


def _norms(comps: np.ndarray) -> np.ndarray:
    """Frobenius norm of every matrix of a (..., n, m, 4) stack.

    The square root of the plain sum of the squared components, unless that
    sum overflows or falls below the normal range.  Such a matrix is scaled
    by 2^-e, e the exponent of its largest |component| (``np.frexp``), and its
    norm is the scaled matrix's norm times 2^e.  Scaling by a power of two is
    exact, so norm(A 2^k) = norm(A) 2^k bit for bit wherever the result is a
    normal number.  A matrix with a non-finite entry keeps the plain sum's
    inf or NaN.
    """
    with np.errstate(over="ignore"):
        sq = (comps**2).sum(axis=(-3, -2, -1))
    plain = np.sqrt(sq)
    ordinary = (sq >= _NORMAL_MIN) & (sq < np.inf)
    if ordinary.all():
        return plain
    peak = np.abs(comps).max(axis=(-3, -2, -1), initial=0.0)
    e = np.asarray(np.frexp(peak)[1])
    scaled = np.ldexp(comps, -e[..., None, None, None])
    with np.errstate(over="ignore"):
        rescaled = np.ldexp(np.sqrt((scaled**2).sum(axis=(-3, -2, -1))), e)
    return np.where(ordinary | ~np.isfinite(peak), plain, rescaled)


def _hermitian_ratio(comps: np.ndarray, star: np.ndarray) -> np.ndarray:
    """|A - A*| / max(1, max|A_rc|), the Hermitian test's statistic, of every
    matrix of a stack, from the components of A and of the adjoint A* that the
    caller has formed.

    A ratio, not defect <= tol * max|A_rc|: an inf entry makes that bound inf,
    but makes the ratio NaN, and NaN fails every comparison.  One matrix's
    scale is a numpy scalar, for which Python's max is the cheaper call.
    """
    scale = _max_abs(comps)
    return _max_abs(comps - star) / (np.maximum(1.0, scale) if isinstance(scale, np.ndarray) else max(1.0, scale))


def _orthonormality_defects(comps: np.ndarray, algebra: Algebra) -> np.ndarray:
    """Largest entry magnitude of U*U - I, for every matrix U of a (..., n, m, 4) stack."""
    m = comps.shape[-2]
    gram = kernels.quat_matmul(_adjoint_comps(comps), comps, algebra.component_count)
    gram[..., np.arange(m), np.arange(m), 0] -= 1.0
    return _max_abs(gram)


def _outer_sums(u: np.ndarray, count: int, coeffs=None, v: np.ndarray | None = None) -> np.ndarray:
    """(U diag(q)) V* for every matrix of a (..., n, m, 4) stack of columns U
    and V, V defaulting to U, with one product in the algebra of
    ``count`` components.  ``coeffs`` is None (every q_m = 1), one real per
    column (..., m), or one quaternion per column (..., m, 4)."""
    v = u if v is None else v
    if coeffs is not None:
        q = np.asarray(coeffs, dtype=np.float64)
        u = u * q[..., None, :, None] if q.ndim == u.ndim - 2 else _mul_comps(u, q[..., None, :, :])
    return kernels.quat_matmul(u, _conj_comps(v).swapaxes(-3, -2), count)


def outer_sum(U: Matrix, coeffs=None, V: Matrix | None = None) -> Matrix:
    """The operator x -> sum_m u_m q_m <v_m|x> over the columns of U and V.

    Computed as (U diag(q)) V* with one matrix product in the algebra.  V
    defaults to U; ``coeffs`` is None (every q_m = 1), one real per column, or
    one quaternion per column as an (m, 4) component array.  The one-matrix
    case of :func:`_outer_sums`.
    """
    V = U if V is None else V
    algebra = _check_same_algebra(U, V)
    return Matrix(algebra, _outer_sums(U.comps, algebra.component_count, coeffs, V.comps))


def outer(u: Matrix, v: Matrix, coeff=None) -> Matrix:
    """The operator x -> u q <v|x> of two n x 1 columns, as a matrix
    u_r q conj(v_c).  Any other shape raises ValueError."""
    if u.m != 1 or v.m != 1:
        raise ValueError(f"outer needs two columns, got {u.n}x{u.m} and {v.n}x{v.m}")
    q = None if coeff is None else as_quaternion(coeff).to_array()[None, :]
    return outer_sum(u, q, v)


# _RIGHT_UNITS[a, 4c + e] = HAMILTON[a, e, c], component c of e_a e_e: a row of
# components u times it gives u e_e for every unit e_e, each entry one signed
# component of u, so the product is exact
_RIGHT_UNITS = np.ascontiguousarray(HAMILTON.transpose(0, 2, 1).reshape(4, 16))
_RIGHT_UNITS.flags.writeable = False


def _orthonormalize(W: np.ndarray, tol, limit: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Gram-Schmidt over the columns of every matrix of a (..., n, m, 4)
    component stack, in order.

    Each column w becomes w - sum_u u <u|w> over the columns u kept so far,
    twice ("twice is enough"), and is kept, normalized, if its residual norm
    exceeds ``tol`` (one bound, or one per matrix); the sweep stops once
    ``limit`` columns are kept.  Over R the u e (e = 1, i, j, k) are
    orthonormal 4n-vectors whose inner products with w are the components of
    <u|w>, so each pass is two real products, a matrix-vector product per
    matrix of the stack.  Over a stack, a column is dropped only where every
    matrix drops it, and kept everywhere else: a matrix whose residual is at
    most ``tol`` on a kept column has no meaningful later columns, and its
    caller rejects it by that residual.  Returns the kept columns
    (..., n, k, 4) and the residual of every column tried (..., tried).
    """
    lead = W.shape[:-3]
    n, m = W.shape[-3], W.shape[-2]
    limit = m if limit is None else min(limit, m)
    B = np.empty(lead + (4 * n, 4 * limit))  # column 4k + e holds u_k e
    Bt = B.swapaxes(-1, -2)
    cols = W.swapaxes(-3, -2).reshape(lead + (m, 4 * n, 1))  # each column a 4n x 1 matrix
    residuals = np.empty(lead + (m,))
    tol = np.asarray(tol)[..., None, None]
    k = tried = 0
    for c in range(m):
        if k == limit:
            break
        w = cols[..., c, :, :]
        if k:
            Bk, Bkt = B[..., : 4 * k], Bt[..., : 4 * k, :]
            for _ in range(2):
                w = w - Bk @ (Bkt @ w)
        nrm = np.sqrt(w.swapaxes(-1, -2) @ w)
        residuals[..., c] = nrm[..., 0, 0]
        tried += 1
        kept = nrm > tol
        # bool() reads one matrix's flag with no reduction to run
        if bool(kept) if kept.size == 1 else kept.all():
            u = w / nrm
        elif kept.any():
            u = np.divide(w, nrm, out=np.zeros_like(w), where=kept)
        else:
            continue
        # + 0.0 turns a -0 entry into the +0 that a sum from zero gives
        B[..., 4 * k : 4 * k + 4] = (u.reshape(lead + (n, 4)) @ _RIGHT_UNITS + 0.0).reshape(lead + (4 * n, 4))
        k += 1
    Q = B[..., 0 : 4 * k : 4].reshape(lead + (n, 4, k)).swapaxes(-1, -2)
    return np.ascontiguousarray(Q), residuals[..., :tried]


def _gram_schmidt(W: np.ndarray, drop: bool = False) -> np.ndarray:
    """The orthonormal columns that :func:`gram_schmidt` keeps, for every
    matrix of a (..., n, m, 4) stack; its guards, over a stack, reject the
    lowest matrix that fails them (``drop=True`` takes one matrix only)."""
    if W.shape[-2] == 0:
        raise ValueError("need at least one vector")
    # the largest norm is NaN or inf exactly where some norm is
    scale = np.sqrt((W**2).sum(axis=(-3, -1))).max(axis=-1)
    # NaN would slip through every comparison below, and inf would normalize to 0
    require(np.isfinite(scale), DegenerateInput, "input vector has a non-finite norm")
    require(scale != 0.0, DegenerateInput, "all inputs are zero" if drop else "zero input vector")
    tol = _RANK_TOL * scale
    Q, residuals = _orthonormalize(W, tol)
    # a column kept in every matrix passed in every matrix, except over a
    # stack, where a column is kept if any matrix keeps it
    if not drop and (Q.shape[-2] < W.shape[-2] or W.ndim > 3):
        kept = residuals > tol[..., None]
        require(kept.all(axis=-1), DegenerateInput,
                lambda i: f"vector numerically dependent (residual {residuals[i][~kept[i]][0]:.3e})")
    if Q.shape[-2] == 0:
        raise DegenerateInput("no independent vectors")
    return Q


def gram_schmidt(W: Matrix, *, drop: bool = False) -> Matrix:
    """Gram-Schmidt over the columns of W, in order, with one
    re-orthogonalization pass, via :func:`_orthonormalize`.

    Normalization divides on the right, so the span is preserved under the
    right-scalar convention.  Columns whose residual falls below
    1e-10 * max column norm are rejected: with ``drop=True`` they are skipped,
    otherwise DegenerateInput is raised.  The basis comes back as the columns
    of one matrix.  The one-matrix case of :func:`_gram_schmidt`.
    """
    return Matrix(W.algebra, _gram_schmidt(W.comps, drop))


_PROJECTOR_TOL = 1e-8


def _check_projectors(comps: np.ndarray, algebra: Algebra) -> None:
    """The certificate of :class:`Projector` for every matrix of a (..., n, n, 4)
    stack: square, finite, and P^2 - P and P - P* within 1e-8 relative to
    max(1, max|P_rc|) (:func:`_certify_projectors`).  Over a stack each guard
    rejects the lowest matrix that fails it, by the one-matrix message."""
    if comps.shape[-3] != comps.shape[-2]:
        raise ValueError("projector matrix must be square")
    # the certificate rejects a non-finite entry too, but only after numpy
    # has warned about the arithmetic on it
    require(np.isfinite(comps).all(axis=(-3, -2, -1)), ValueError, "projector matrix has a non-finite entry")
    idem = _max_abs(kernels.quat_matmul(comps, comps, algebra.component_count) - comps)
    _certify_projectors(comps, idem, _PROJECTOR_TOL)


class Projector:
    """Orthogonal projector: PP = P and P* = P, checked on construction.

    The one-matrix case of :func:`_check_projectors`; :meth:`of_stack` certifies
    a whole stack of projectors at once.
    """

    __slots__ = ("matrix",)

    def __init__(self, matrix: Matrix):
        _check_projectors(matrix.comps, matrix.algebra)
        self.matrix = matrix

    @classmethod
    def of_stack(cls, algebra: Algebra, comps: np.ndarray) -> list["Projector"]:
        """The projectors of a (k, n, n, 4) stack, in order, certified as one
        stack (:func:`_check_projectors`)."""
        _check_projectors(comps, algebra)
        out = []
        for c in comps:
            P = object.__new__(cls)
            P.matrix = Matrix(algebra, c)
            out.append(P)
        return out

    @classmethod
    def rank_ones(cls, X: Matrix) -> np.ndarray:
        """The certified (k, n, n, 4) stack of the projectors u u* onto the lines of
        the k columns x of X, u = x / |x|, in column order, with no matrix product.

        The entries u_r conj(u_c) of every projector come from two complex
        broadcast products per complex part (:func:`_line_projectors`).  The
        Hermitian defect is read from the entries of the stack as built
        (:func:`_projector_defects`), not from the vectors.  Idempotency is read from
        the rank-one identity P^2 - P = (|u|^2 - 1) P, so its defect is
        ||u|^2 - 1| max|P_rc|; both certificates run over the whole stack at
        the constructor's tolerance, 1e-8.  A zero or non-finite column raises
        DegenerateInput.
        """
        # one row of 4n contiguous components per column, so each norm sums
        # in the order that a lone column's does
        Xt = np.ascontiguousarray(X.comps.transpose(1, 0, 2))
        norms = np.sqrt((Xt**2).sum(axis=(1, 2)))
        # NaN would slip through the zero test, and inf would normalize to 0
        if not np.isfinite(norms).all():
            raise DegenerateInput("input vector has a non-finite norm")
        if (norms == 0.0).any():
            raise DegenerateInput("zero input vector")
        U = Xt / norms[:, None, None]
        stack = _line_projectors(U)
        row_sq = _sq_moduli(U)  # |u_r|^2; max|P_rc| = max_r |u_r|^2
        idem = np.abs(row_sq.sum(axis=1) - 1.0) * row_sq.max(axis=1)
        _certify_projectors(stack, idem, _PROJECTOR_TOL)
        return stack

    @property
    def algebra(self) -> Algebra:
        return self.matrix.algebra

    @property
    def n(self) -> int:
        return self.matrix.n

    @property
    def rank(self) -> int:
        return int(round(self.matrix.comps[np.arange(self.n), np.arange(self.n), 0].sum()))

    def __repr__(self) -> str:
        return f"Projector({self.algebra.value}, n={self.n}, rank={self.rank})"


def _line_projectors(U: np.ndarray) -> np.ndarray:
    """The (k, n, n, 4) stack of the entries u_r conj(u_c) of u u* over the k
    unit vectors u stored as the rows of a C-contiguous (k, n, 4) array.

    Read as complex pairs, as :func:`gleason_lab.kernels.quat_matmul` reads
    its left factor, each entry is u = z1 + z2 j, and

        u_r conj(u_c) = (z1_r conj z1_c + z2_r conj z2_c) + (z2_r z1_c - z1_r z2_c) j,

    two complex broadcast products per part, written into the complex view of
    the stack.
    """
    k, n, _ = U.shape
    z = U.view(np.complex128)
    z1, z2 = z[:, :, 0], z[:, :, 1]
    pairs = np.empty((k, n, n, 2), dtype=np.complex128)
    first, second = pairs[..., 0], pairs[..., 1]
    np.multiply(z1[:, :, None], z1.conj()[:, None, :], out=first)
    first += z2[:, :, None] * z2.conj()[:, None, :]
    np.multiply(z2[:, :, None], z1[:, None, :], out=second)
    second -= z1[:, :, None] * z2[:, None, :]
    return pairs.view(np.float64)


def _projector_defects(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Hermitian defect max|P - P*| and the scale max(1, max|P_rc|) of every
    matrix P of the (..., n, n, 4) ``stack``, read from the stack as built.

    Through its complex view, each entry is z1 + z2 j, and its quaternion
    conjugate is conj z1 - z2 j, so P - P* has the parts Z1 - conj Z1^T and
    Z2 + Z2^T: the bits that the components of P - conj(P^T) give, since
    x - (-y) is x + y exactly.
    """

    z = np.ascontiguousarray(stack).view(np.complex128)
    defect = np.empty_like(z)
    d1 = defect[..., 0]
    np.subtract(z[..., 0], np.conjugate(z[..., 0].swapaxes(-1, -2), out=d1), out=d1)
    np.add(z[..., 1], z[..., 1].swapaxes(-1, -2), out=defect[..., 1])
    return _max_abs(defect.view(np.float64)), np.maximum(1.0, _max_abs(stack))


def _certify_projectors(stack: np.ndarray, idem: np.ndarray, tol: float) -> None:
    """Raise ValueError unless, for every matrix P of the (..., n, n, 4) ``stack``,
    its idempotency defect ``idem[p]`` and its Hermitian defect
    (:func:`_projector_defects`) are within ``tol`` relative to
    max(1, max|P_rc|); over a stack the lowest failing matrix is named
    (:func:`gleason_lab.errors.require`).

    Precondition: every entry of ``stack`` is finite.  The callers ensure it:
    :func:`_check_projectors` through ``np.isfinite`` on its matrices,
    :meth:`Projector.rank_ones` through its finite-norm check, and
    :func:`gleason_lab.gleason.dim2_counterexample` by certifying I - P only for
    a stack that ``rank_ones`` certified.  A non-finite stack still fails, with NaN defects, but
    numpy warns about the arithmetic on it first.
    """
    herm, scale = _projector_defects(stack)
    # a NaN or inf entry makes a defect NaN, and NaN fails every comparison
    require((idem / scale <= tol) & (herm / scale <= tol), ValueError,
            lambda p: f"not a projector: idempotency defect {idem[p]:.3e}, hermitian defect {herm[p]:.3e}")


def _block_projectors(U: np.ndarray, blocks, algebra: Algebra) -> np.ndarray:
    """The (..., k, n, n, 4) stack of the projectors onto the column blocks
    ``U[..., lo:hi]`` of the orthonormal (..., n, m, 4) columns ``U``, one per
    (lo, hi) of ``blocks``, for one basis or every basis of a stack: each the
    outer sum of its block, built as alone (over a stack, one product per
    block).  The caller certifies the stack in one call."""
    count = algebra.component_count
    return np.stack([_outer_sums(U[..., lo:hi, :], count) for lo, hi in blocks], axis=-4)


def projector_onto(W: Matrix, *, drop: bool = False) -> Projector:
    """Projector onto the span of the (not necessarily orthonormal) columns of W."""
    return Projector(outer_sum(gram_schmidt(W, drop=drop)))


def is_positive(A: Matrix) -> bool:
    """Whether <x|Ax> >= 0 for all x.

    Over C and H this forces A = A*, so the anti-Hermitian part must vanish;
    over R an antisymmetric part contributes nothing to <x|Ax> and is ignored.
    The Hermitian part is tested through its minimum eigenvalue, each test
    to 1e-9 relative to max(1, max|A_rc|).  A matrix with a NaN or infinite
    entry is not positive.
    """
    from .spectral import eigvals_hermitian, op_norm

    if not A.is_square:
        raise ValueError("positivity needs a square matrix")
    if not np.isfinite(A.comps).all():
        return False
    bound = 1e-9 * max(1.0, A.max_abs())
    A_star = A.adjoint()
    if not A.algebra.is_real:
        skew = A - A_star
        if op_norm(skew) / 2.0 > bound:
            return False
    herm = (A + A_star) * 0.5
    return bool(eigvals_hermitian(herm).min() >= -bound)


# ---------------------------------------------------------------------------
# random instances (all driven by the named SplitMix64 stream)
# ---------------------------------------------------------------------------

def _layout(values: np.ndarray, shape: tuple[int, ...], algebra: Algebra) -> np.ndarray:
    """Components of the given leading shape filled, in row-major order, with
    ``values`` in the algebra's components and zeros elsewhere."""
    k = algebra.component_count
    comps = np.zeros(shape + (4,))
    comps[..., :k] = values.reshape(shape + (k,))
    return comps


def _gaussian_comps(shape: tuple[int, ...], algebra: Algebra, rng) -> np.ndarray:
    """Standard Gaussians from the stream in the layout of :func:`_layout`."""
    return _layout(rng.gaussian_block(int(np.prod(shape)) * algebra.component_count), shape, algebra)


def _unit_rows(X: np.ndarray) -> np.ndarray:
    """Each (n, 4) row of Gaussian components of a (..., n, 4) array ``X``,
    scaled in place by its reciprocal norm; a row of norm below 1e-12 becomes e_0."""
    norms = np.sqrt((X**2).sum(axis=(-2, -1)))
    zero = norms < 1e-12
    X *= (1.0 / np.where(zero, 1.0, norms))[..., None, None]
    X[zero] = 0.0
    X[zero, 0, 0] = 1.0
    return X


def random_unit_vectors(n: int, count: int, algebra: Algebra, rng) -> Matrix:
    """``count`` random unit vectors as the columns of an n x count matrix.

    Column p is the p-th of ``count`` successive blocks of n Gaussian entries
    (as :func:`random_matrix` draws an n x 1 matrix) from the stream, scaled
    by its reciprocal norm; a draw of norm below 1e-12 becomes e_0
    (:func:`_unit_rows`).
    """
    X = _unit_rows(_gaussian_comps((count, n), algebra, rng))
    return Matrix(algebra, np.ascontiguousarray(X.transpose(1, 0, 2)))


def random_unit_vector(n: int, algebra: Algebra, rng) -> Matrix:
    return random_unit_vectors(n, 1, algebra, rng)


def random_matrix(n: int, m: int, algebra: Algebra, rng) -> Matrix:
    return Matrix(algebra, _gaussian_comps((n, m), algebra, rng))


def random_hermitian(n: int, algebra: Algebra, rng) -> Matrix:
    return Matrix(algebra, _hermitian_part(_gaussian_comps((n, n), algebra, rng)))


def _unitaries(G: np.ndarray, algebra: Algebra, rng) -> np.ndarray:
    """Orthonormalized columns of a Gaussian draw, or of every draw of a
    (..., n, n, 4) stack.  A draw that Gram-Schmidt rejects is redrawn from
    the stream after the block, in order, up to four attempts in all."""
    try:
        return _gram_schmidt(G)
    except DegenerateInput:
        pass
    Q = np.empty_like(G)
    for t in np.ndindex(G.shape[:-3]):
        g = G[t]
        for attempt in range(4):
            if attempt:
                g = _gaussian_comps(G.shape[-3:-1], algebra, rng)
            try:
                Q[t] = _gram_schmidt(g)
                break
            except DegenerateInput:
                continue
        else:
            raise DegenerateInput("could not draw an invertible Gaussian matrix")
    return Q


def random_unitaries(n: int, count: int, algebra: Algebra, rng) -> np.ndarray:
    """The (count, n, n, 4) stack of ``count`` unitaries: orthonormalized
    Gaussian columns, drawn as one block (:func:`_unitaries`)."""
    return _unitaries(_gaussian_comps((count, n, n), algebra, rng), algebra, rng)


def random_unitary(n: int, algebra: Algebra, rng) -> Matrix:
    """Orthonormalized Gaussian columns; deterministic for a given stream.
    The one-draw case of :func:`random_unitaries`, with the same stream use."""
    return Matrix(algebra, _unitaries(_gaussian_comps((n, n), algebra, rng), algebra, rng))


def _unit_imaginaries(parts: np.ndarray) -> np.ndarray:
    """The (..., 4) components of the unit imaginary scalar of each row of k
    Gaussians of ``parts``: the row divided by its norm, in components 1 to
    k; a row of norm below 1e-12 becomes i."""
    k = parts.shape[-1]
    norms = np.sqrt((parts**2).sum(axis=-1))
    small = norms < 1e-12
    comps = np.zeros(parts.shape[:-1] + (4,))
    comps[~small, 1:1 + k] = parts[~small] / norms[~small, None]
    comps[small, 1] = 1.0
    return comps


def random_unit_imaginary(algebra: Algebra, rng) -> Quaternion:
    """Unit imaginary scalar of the algebra (only +-i for C); the one-draw
    case of :func:`_unit_imaginaries`."""
    if algebra is Algebra.R:
        raise AlgebraMismatch("R has no imaginary units")
    return Quaternion.from_array(_unit_imaginaries(rng.gaussian_block(algebra.component_count - 1)))


def _unit_scalars(parts: np.ndarray) -> np.ndarray:
    """The (..., 4) components of each row of k Gaussians of ``parts`` divided
    by its norm; a row of norm below 1e-12 becomes 1."""
    k = parts.shape[-1]
    norms = np.sqrt((parts**2).sum(axis=-1))
    small = norms < 1e-12
    comps = np.zeros(parts.shape[:-1] + (4,))
    comps[~small, :k] = parts[~small] / norms[~small, None]
    comps[small, 0] = 1.0
    return comps


def random_phases(count: int, algebra: Algebra, rng) -> np.ndarray:
    """``count`` unit-modulus scalars of the algebra as a (count, 4) component array.

    Row p is the p-th of ``count`` successive :func:`random_phase` draws from
    the stream: k Gaussians (k the algebra's component count) divided by their
    norm; a draw of norm below 1e-12 becomes 1 (:func:`_unit_scalars`).
    """
    k = algebra.component_count
    return _unit_scalars(rng.gaussian_block(count * k).reshape(count, k))


def random_phase(algebra: Algebra, rng) -> Quaternion:
    """Unit-modulus scalar of the algebra (a sign when the algebra is R)."""
    return Quaternion.from_array(random_phases(1, algebra, rng)[0])


def _groups(keys) -> list[tuple]:
    """(key, trials) for every distinct key of a sequence of per-trial keys, in
    sorted key order, each with the index array of its trials in order."""
    at: dict = {}
    for t, key in enumerate(keys):
        at.setdefault(key, []).append(t)
    return [(key, np.array(at[key], dtype=np.intp)) for key in sorted(at)]


def _random_projectors(U: np.ndarray, ranks: list[int], algebra: Algebra) -> np.ndarray:
    """The (T, n, n, 4) stack of the projectors onto the first ``ranks[t]``
    columns of each unitary of a (T, n, n, 4) stack: the outer sums of those
    orthonormal columns.  The trials of one rank form one stack
    (:func:`_groups`), so that every product has the shape that it has alone.
    The caller certifies the stack (:func:`_check_projectors`)."""
    out = np.empty_like(U)
    for rank, at in _groups(ranks):
        out[at] = _outer_sums(U[at][..., :rank, :], algebra.component_count)
    return out


def random_projector(n: int, rank: int, algebra: Algebra, rng) -> Projector:
    """The projector onto the first ``rank`` columns of :func:`random_unitary`;
    the one-draw case of :func:`_random_projectors`."""
    if not 0 < rank <= n:
        raise ValueError(f"rank must lie in 1..{n}")
    U = random_unitary(n, algebra, rng)
    return Projector(Matrix(algebra, _random_projectors(U.comps[None], [rank], algebra)[0]))
