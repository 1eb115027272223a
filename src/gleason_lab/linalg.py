"""Dense matrices over R, C or H; a vector is an n x 1 :class:`Matrix`.

Conventions, fixed once for the whole package because quaternions do not
commute: matrices act on column vectors from the LEFT, scalars multiply
vectors from the RIGHT (:meth:`Matrix.scale_right`), and the inner product
:func:`inner` of two columns is conjugate-linear in the left entry and linear
in the right entry.  With this pairing A(x q) = (A x) q holds for every scalar
q, and the adjoint satisfies <A* x | y> = <x | A y>.

Storage is a float64 component array of shape (n, m, 4) per matrix (rows,
columns, quaternion components), shared by all three algebras; the
components beyond the algebra's are zero.  Matrix products go through
:func:`gleason_lab.kernels.quat_matmul` in the algebra's own arithmetic: one
real GEMM over R, one complex GEMM over C, the quaternion block product over
H.  Squared entry moduli go through :func:`_sq_moduli`, which adds the four
squared components in order.

:func:`outer_sum` is the one place where vectors become operators: every
spectral sum, projector, state, |A|, polar direction J and phase group is
assembled as (U diag(q)) V* from the columns of U and V in a single product,
and :func:`outer` is its one-column case.

A basis is the :class:`Matrix` of its columns, and
:func:`_orthonormalize` is the one Gram-Schmidt, shared by :func:`gram_schmidt`
and the quaternionic eigenvector lift in :mod:`gleason_lab.spectral`.

The pointwise Hamilton product :func:`_mul_comps` is table-driven: it reads
the left-regular form of its left factor off :data:`gleason_lab.kernels.HAMILTON`,
the table the Gram-Schmidt block uses too.  :meth:`Projector.rank_ones` builds
the projectors onto the lines of a block of columns with no matrix product and
no Hamilton table: read as complex pairs, each entry u = z1 + z2 j, and
u_r conj(u_c) = (z1_r conj z1_c + z2_r conj z2_c) + (z2_r z1_c - z1_r z2_c) j
(:func:`_line_projectors`).  It certifies the whole stack at once and returns
it as one (k, n, n, 4) array, with no object per projector.  The
certificate, :func:`_certify_projectors`, reads the stack as built, through its
four real components and the quaternion conjugate, and shares no step with the
complex-pair formula, so a build that breaks P* = P fails it.  The
frame-function probes of :mod:`gleason_lab.gleason` read the stack whole.

Random instances share one Gaussian layout, :func:`_gaussian_comps`;
:func:`random_unit_vectors` draws a block of unit vectors, and
:func:`random_unit_vector` is its one-column case; :func:`random_phases` and
:func:`random_phase` stand in the same relation.
"""

from __future__ import annotations

import numpy as np

from . import kernels
from .errors import AlgebraMismatch, DegenerateInput
from .kernels import HAMILTON
from .scalars import Algebra, Quaternion, as_quaternion

_RANK_TOL = 1e-10


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
    three whole-array adds are several times faster.  The choice changes the
    speed only.
    """
    sq = comps * comps
    if sq.size < 4 * _SQ_MODULI_MIN_ENTRIES:
        return sq.sum(axis=-1)
    return sq[..., 0] + sq[..., 1] + sq[..., 2] + sq[..., 3]


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
        return _max_abs(self.comps)

    def norm(self) -> float:
        """Frobenius norm; the length of an n x 1 column."""
        return float(np.sqrt((self.comps**2).sum()))

    def orthonormality_defect(self) -> float:
        """Largest entry magnitude of U*U - I over the columns of U."""
        return (self.adjoint() @ self - Matrix.identity(self.m, self.algebra)).max_abs()

    def hermitian_defect(self) -> float:
        return (self - self.adjoint()).max_abs()

    def is_hermitian(self, tol: float = 1e-9) -> bool:
        # a non-finite entry is answered before any arithmetic, which would make numpy warn
        if not np.isfinite(self.comps).all():
            return False
        return _hermitian_ratio(self.comps, _adjoint_comps(self.comps)) <= tol

    def approx_eq(self, other: "Matrix", tol: float = 1e-9) -> bool:
        return bool(np.abs(self.comps - other.comps).max() <= tol)

    def __repr__(self) -> str:
        return f"Matrix({self.algebra.value}, {self.n}x{self.m})"


def _adjoint_comps(comps: np.ndarray) -> np.ndarray:
    """Components of A* from those of A: conjugate and transpose in one pass
    into contiguous storage."""
    n, m, _ = comps.shape
    return np.multiply(comps.transpose(1, 0, 2), _CONJ, out=np.empty((m, n, 4)))


def _max_abs(comps: np.ndarray) -> float:
    """Largest entry magnitude of an (n, m, 4) component array.

    One square root, of the largest squared modulus: sqrt is monotone and
    correctly rounded, so this is the largest modulus bit for bit.
    """
    return float(np.sqrt(_sq_moduli(comps).max()))


def _hermitian_ratio(comps: np.ndarray, star: np.ndarray) -> float:
    """|A - A*| / max(1, max|A_rc|), the Hermitian test's statistic, from the
    components of A and of the adjoint A* that the caller has formed.

    A ratio, not defect <= tol * max|A_rc|: an inf entry makes that bound inf,
    but makes the ratio NaN, and NaN fails every comparison.
    """
    return _max_abs(comps - star) / max(1.0, _max_abs(comps))


def outer_sum(U: Matrix, coeffs=None, V: Matrix | None = None) -> Matrix:
    """The operator x -> sum_m u_m q_m <v_m|x> over the columns of U and V.

    Computed as (U diag(q)) V* with one matrix product in the algebra.  V
    defaults to U; ``coeffs`` is None (every q_m = 1), one real per column, or
    one quaternion per column as an (m, 4) component array.
    """
    V = U if V is None else V
    algebra = _check_same_algebra(U, V)
    uc = U.comps
    if coeffs is not None:
        q = np.asarray(coeffs, dtype=np.float64)
        uc = uc * q[None, :, None] if q.ndim == 1 else _mul_comps(uc, q[None, :, :])
    V_star = np.transpose(_conj_comps(V.comps), (1, 0, 2))
    return Matrix(algebra, kernels.quat_matmul(uc, V_star, algebra.component_count))


def outer(u: Matrix, v: Matrix, coeff=None) -> Matrix:
    """The operator x -> u q <v|x> of two n x 1 columns, as a matrix
    u_r q conj(v_c)."""
    q = None if coeff is None else as_quaternion(coeff).to_array()[None, :]
    return outer_sum(u, q, v)


def _orthonormalize(W: np.ndarray, tol: float, limit: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Gram-Schmidt over the columns of an (n, m, 4) component array, in order.

    Each column w becomes w - sum_u u <u|w> over the columns u kept so far,
    twice ("twice is enough"), and is kept, normalized, if its residual norm
    exceeds ``tol``; the sweep stops once ``limit`` columns are kept.  Over R
    the u e (e = 1, i, j, k) are orthonormal 4n-vectors whose inner products
    with w are the components of <u|w>, so each pass is two real products.
    Returns the kept columns (n, k, 4) and the residual of every column tried.
    """
    n, m, _ = W.shape
    limit = m if limit is None else min(limit, m)
    B = np.empty((4 * n, 4 * limit))  # column 4k + e holds u_k e
    residuals = []
    k = 0
    for c in range(m):
        if k == limit:
            break
        w = W[:, c, :].reshape(4 * n)
        if k:
            Bk = B[:, : 4 * k]
            for _ in range(2):
                w = w - Bk @ (Bk.T @ w)
        nrm = float(np.sqrt(w @ w))
        residuals.append(nrm)
        if nrm > tol:
            u = (w / nrm).reshape(n, 4)
            B[:, 4 * k : 4 * k + 4] = np.einsum("ra,aec->rce", u, HAMILTON).reshape(4 * n, 4)
            k += 1
    Q = B[:, 0 : 4 * k : 4].reshape(n, 4, k).transpose(0, 2, 1)
    return np.ascontiguousarray(Q), np.array(residuals)


def gram_schmidt(W: Matrix, *, drop: bool = False) -> Matrix:
    """Gram-Schmidt over the columns of W, in order, with one
    re-orthogonalization pass, via :func:`_orthonormalize`.

    Normalization divides on the right, so the span is preserved under the
    right-scalar convention.  Columns whose residual falls below
    1e-10 * max column norm are rejected: with ``drop=True`` they are skipped,
    otherwise DegenerateInput is raised.  The basis comes back as the columns
    of one matrix.
    """
    if W.m == 0:
        raise ValueError("need at least one vector")
    norms = np.sqrt((W.comps**2).sum(axis=(0, 2)))
    # NaN would slip through every comparison below, and inf would normalize to 0
    if not np.isfinite(norms).all():
        raise DegenerateInput("input vector has a non-finite norm")
    scale = float(norms.max())
    if scale == 0.0:
        if drop:
            raise DegenerateInput("all inputs are zero")
        raise DegenerateInput("zero input vector")
    tol = _RANK_TOL * scale
    Q, residuals = _orthonormalize(W.comps, tol)
    if Q.shape[1] < W.m and not drop:
        nrm = residuals[residuals <= tol][0]
        raise DegenerateInput(f"vector numerically dependent (residual {nrm:.3e})")
    if Q.shape[1] == 0:
        raise DegenerateInput("no independent vectors")
    return Matrix(W.algebra, Q)


_PROJECTOR_TOL = 1e-8


class Projector:
    """Orthogonal projector: PP = P and P* = P, checked on construction."""

    __slots__ = ("matrix",)

    def __init__(self, matrix: Matrix):
        if not matrix.is_square:
            raise ValueError("projector matrix must be square")
        # the certificate rejects a non-finite entry too, but only after numpy
        # has warned about the arithmetic on it
        if not np.isfinite(matrix.comps).all():
            raise ValueError("projector matrix has a non-finite entry")
        idem = (matrix @ matrix - matrix).max_abs()
        _certify_projectors(matrix.comps[None], np.array([idem]), _PROJECTOR_TOL)
        self.matrix = matrix

    @classmethod
    def rank_ones(cls, X: Matrix) -> np.ndarray:
        """The certified (k, n, n, 4) stack of the projectors u u* onto the lines of
        the k columns x of X, u = x / |x|, in column order, with no matrix product.

        The entries u_r conj(u_c) of every projector come from two complex
        broadcast products per complex part (:func:`_line_projectors`).  The
        Hermitian defect is read from the stack as built, in its real
        components, independently of that formula.  Idempotency is read from
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


def _certify_projectors(stack: np.ndarray, idem: np.ndarray, tol: float) -> None:
    """Raise ValueError unless, for every matrix P of the (k, n, n, 4) ``stack``,
    its idempotency defect ``idem[p]`` and its Hermitian defect are within
    ``tol`` relative to max(1, max|P_rc|).

    Precondition: every entry of ``stack`` is finite.  The callers ensure it:
    :class:`Projector` through ``np.isfinite`` on its matrix,
    :meth:`Projector.rank_ones` through its finite-norm check, and
    :func:`gleason_lab.gleason.dim2_counterexample` by certifying I - P only for
    a stack that ``rank_ones`` certified.  A non-finite stack still fails, with NaN defects, but
    numpy warns about the arithmetic on it first.
    """

    def max_abs(c: np.ndarray) -> np.ndarray:
        # sqrt is monotone and correctly rounded, so one per matrix, after the
        # max of the squared moduli, gives the max of the moduli bit for bit
        return np.sqrt(_sq_moduli(c).max(axis=(1, 2)))

    herm = max_abs(stack - _conj_comps(stack.transpose(0, 2, 1, 3)))
    scale = np.maximum(1.0, max_abs(stack))
    # a NaN or inf entry makes a defect NaN, and NaN fails every comparison
    failed = np.flatnonzero(~((idem / scale <= tol) & (herm / scale <= tol)))
    if failed.size:
        p = failed[0]
        raise ValueError(
            f"not a projector: idempotency defect {idem[p]:.3e}, hermitian defect {herm[p]:.3e}"
        )


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

def _gaussian_comps(shape: tuple[int, ...], algebra: Algebra, rng) -> np.ndarray:
    """Components of the given leading shape filled, in row-major order, with
    standard Gaussians in the algebra's components and zeros elsewhere."""
    k = algebra.component_count
    comps = np.zeros(shape + (4,))
    comps[..., :k] = rng.gaussian_block(int(np.prod(shape)) * k).reshape(shape + (k,))
    return comps


def random_unit_vectors(n: int, count: int, algebra: Algebra, rng) -> Matrix:
    """``count`` random unit vectors as the columns of an n x count matrix.

    Column p is the p-th of ``count`` successive blocks of n Gaussian entries
    (as :func:`random_matrix` draws an n x 1 matrix) from the stream, scaled
    by its reciprocal norm; a draw of norm below 1e-12 becomes e_0.
    """
    X = _gaussian_comps((count, n), algebra, rng)
    norms = np.sqrt((X**2).sum(axis=(1, 2)))
    zero = norms < 1e-12
    X[~zero] *= (1.0 / norms[~zero])[:, None, None]
    X[zero] = 0.0
    X[zero, 0, 0] = 1.0
    return Matrix(algebra, np.ascontiguousarray(X.transpose(1, 0, 2)))


def random_unit_vector(n: int, algebra: Algebra, rng) -> Matrix:
    return random_unit_vectors(n, 1, algebra, rng)


def random_matrix(n: int, m: int, algebra: Algebra, rng) -> Matrix:
    return Matrix(algebra, _gaussian_comps((n, m), algebra, rng))


def random_hermitian(n: int, algebra: Algebra, rng) -> Matrix:
    G = random_matrix(n, n, algebra, rng)
    return (G + G.adjoint()) * 0.5


def random_unitary(n: int, algebra: Algebra, rng) -> Matrix:
    """Orthonormalized Gaussian columns; deterministic for a given stream."""
    for _ in range(4):
        try:
            return gram_schmidt(random_matrix(n, n, algebra, rng))
        except DegenerateInput:
            continue
    raise DegenerateInput("could not draw an invertible Gaussian matrix")


def random_unit_imaginary(algebra: Algebra, rng) -> Quaternion:
    """Unit imaginary scalar of the algebra (only +-i for C)."""
    if algebra is Algebra.R:
        raise AlgebraMismatch("R has no imaginary units")
    k = algebra.component_count - 1
    parts = rng.gaussian_block(k)
    nrm = float(np.sqrt((parts**2).sum()))
    if nrm < 1e-12:
        return Quaternion.I
    comps = np.zeros(4)
    comps[1 : 1 + k] = parts / nrm
    return Quaternion.from_array(comps)


def random_phases(count: int, algebra: Algebra, rng) -> np.ndarray:
    """``count`` unit-modulus scalars of the algebra as a (count, 4) component array.

    Row p is the p-th of ``count`` successive :func:`random_phase` draws from
    the stream: k Gaussians (k the algebra's component count) divided by their
    norm; a draw of norm below 1e-12 becomes 1.
    """
    k = algebra.component_count
    parts = rng.gaussian_block(count * k).reshape(count, k)
    norms = np.sqrt((parts**2).sum(axis=1))
    small = norms < 1e-12
    comps = np.zeros((count, 4))
    comps[~small, :k] = parts[~small] / norms[~small, None]
    comps[small, 0] = 1.0
    return comps


def random_phase(algebra: Algebra, rng) -> Quaternion:
    """Unit-modulus scalar of the algebra (a sign when the algebra is R)."""
    return Quaternion.from_array(random_phases(1, algebra, rng)[0])


def random_projector(n: int, rank: int, algebra: Algebra, rng) -> Projector:
    if not 0 < rank <= n:
        raise ValueError(f"rank must lie in 1..{n}")
    U = random_unitary(n, algebra, rng)
    return projector_onto(Matrix(algebra, U.comps[:, :rank]))
