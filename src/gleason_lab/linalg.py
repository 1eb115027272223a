"""Dense matrices and vectors over R, C or H.

Conventions, fixed once for the whole package because quaternions do not
commute: matrices act on column vectors from the LEFT, scalars multiply
vectors from the RIGHT, and the inner product is conjugate-linear in the left
entry and linear in the right entry.  With this pairing A(x q) = (A x) q holds
for every scalar q, and the adjoint satisfies <A* x | y> = <x | A y>.

Storage is a float64 component array of shape (n, m, 4) per matrix (rows,
columns, quaternion components), shared by all three algebras.  Matrix
products go through :func:`gleason_lab.kernels.quat_matmul`.

:func:`outer_sum` is the one place where vectors become operators: every
spectral sum, projector, state, polar factor and phase group is assembled as
(U diag(q)) V* from the columns of U and V in a single product, and
:func:`outer` is its one-column case.
"""

from __future__ import annotations

import numpy as np

from . import kernels
from .errors import AlgebraMismatch, DegenerateInput
from .rng import SplitMix64
from .scalars import Algebra, Quaternion, as_quaternion, scalar_from_json, scalar_to_json

_RANK_TOL = 1e-10


def _conj_comps(comps: np.ndarray) -> np.ndarray:
    out = comps.copy()
    out[..., 1:] *= -1.0
    return out


def _mul_comps(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Pointwise Hamilton product of broadcastable (..., 4) component arrays."""
    p0, p1, p2, p3 = (p[..., m] for m in range(4))
    q0, q1, q2, q3 = (q[..., m] for m in range(4))
    return np.stack(
        [
            p0 * q0 - p1 * q1 - p2 * q2 - p3 * q3,
            p0 * q1 + p1 * q0 + p2 * q3 - p3 * q2,
            p0 * q2 - p1 * q3 + p2 * q0 + p3 * q1,
            p0 * q3 + p1 * q2 - p2 * q1 + p3 * q0,
        ],
        axis=-1,
    )


def _check_same_algebra(x, y) -> Algebra:
    if x.algebra is not y.algebra:
        raise AlgebraMismatch(f"mixed algebras {x.algebra.value} and {y.algebra.value}")
    return x.algebra


class Vector:
    """Column vector with quaternion-component storage (n, 4)."""

    __slots__ = ("algebra", "comps")

    def __init__(self, algebra: Algebra, comps: np.ndarray):
        comps = np.asarray(comps, dtype=np.float64)
        if comps.ndim != 2 or comps.shape[1] != 4:
            raise ValueError(f"vector components must have shape (n, 4), got {comps.shape}")
        self.algebra = algebra
        self.comps = comps
        self.comps.flags.writeable = False

    @classmethod
    def from_scalars(cls, entries, algebra: Algebra) -> "Vector":
        rows = [as_quaternion(e).to_array() for e in entries]
        return cls(algebra, np.array(rows).reshape(len(rows), 4))

    @classmethod
    def basis_vector(cls, index: int, n: int, algebra: Algebra) -> "Vector":
        comps = np.zeros((n, 4))
        comps[index, 0] = 1.0
        return cls(algebra, comps)

    @property
    def n(self) -> int:
        return self.comps.shape[0]

    def entry(self, m: int) -> Quaternion:
        return Quaternion.from_array(self.comps[m])

    def scale_right(self, q) -> "Vector":
        """x -> x q, the only scalar action compatible with left operators."""
        qa = as_quaternion(q).to_array()
        return Vector(self.algebra, _mul_comps(self.comps, qa[None, :]))

    def __add__(self, other: "Vector") -> "Vector":
        _check_same_algebra(self, other)
        return Vector(self.algebra, self.comps + other.comps)

    def __sub__(self, other: "Vector") -> "Vector":
        _check_same_algebra(self, other)
        return Vector(self.algebra, self.comps - other.comps)

    def __neg__(self) -> "Vector":
        return Vector(self.algebra, -self.comps)

    def norm(self) -> float:
        return float(np.sqrt((self.comps**2).sum()))

    def approx_eq(self, other: "Vector", tol: float = 1e-9) -> bool:
        return bool(np.abs(self.comps - other.comps).max() <= tol)

    def __repr__(self) -> str:
        return f"Vector({self.algebra.value}, n={self.n})"


def inner(x: Vector, y: Vector) -> Quaternion:
    """<x|y> = sum_m conj(x_m) y_m; Hermitian and linear in the right entry."""
    _check_same_algebra(x, y)
    if x.n != y.n:
        raise ValueError(f"length mismatch {x.n} != {y.n}")
    prod = _mul_comps(_conj_comps(x.comps), y.comps)
    return Quaternion.from_array(prod.sum(axis=0))


class Matrix:
    """Dense operator over a fixed algebra; immutable after construction."""

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
        return cls(algebra, np.array(data))

    @classmethod
    def diag(cls, entries, algebra: Algebra) -> "Matrix":
        n = len(entries)
        comps = np.zeros((n, n, 4))
        for m, e in enumerate(entries):
            comps[m, m] = as_quaternion(e).to_array()
        return cls(algebra, comps)

    @classmethod
    def from_columns(cls, columns: list[Vector]) -> "Matrix":
        algebra = columns[0].algebra
        comps = np.stack([col.comps for col in columns], axis=1)
        return cls(algebra, comps)

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

    def col(self, c: int) -> Vector:
        return Vector(self.algebra, self.comps[:, c, :].copy())

    def columns(self) -> list[Vector]:
        return [self.col(c) for c in range(self.m)]

    # -- algebra ------------------------------------------------------------

    def __matmul__(self, other):
        if isinstance(other, Vector):
            _check_same_algebra(self, other)
            out = kernels.quat_matmul(self.comps, other.comps[:, None, :])
            return Vector(self.algebra, out[:, 0, :])
        _check_same_algebra(self, other)
        return Matrix(self.algebra, kernels.quat_matmul(self.comps, other.comps))

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

    def adjoint(self) -> "Matrix":
        out = np.transpose(_conj_comps(self.comps), (1, 0, 2))
        return Matrix(self.algebra, np.ascontiguousarray(out))

    def fro_norm(self) -> float:
        return float(np.sqrt((self.comps**2).sum()))

    def max_abs(self) -> float:
        """Largest entry magnitude |A_rc|."""
        return float(np.sqrt((self.comps**2).sum(axis=2)).max())

    def hermitian_defect(self) -> float:
        return (self - self.adjoint()).max_abs()

    def is_hermitian(self, tol: float = 1e-9) -> bool:
        # a ratio, not defect <= tol * max|A_rc|: an inf entry makes that bound
        # inf, but makes the ratio NaN, and NaN fails every comparison
        return self.hermitian_defect() / max(1.0, self.max_abs()) <= tol

    def approx_eq(self, other: "Matrix", tol: float = 1e-9) -> bool:
        return bool(np.abs(self.comps - other.comps).max() <= tol)

    def __repr__(self) -> str:
        return f"Matrix({self.algebra.value}, {self.n}x{self.m})"

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "algebra": self.algebra.value,
            "rows": self.n,
            "cols": self.m,
            "data": [
                [scalar_to_json(self.entry(r, c), self.algebra) for c in range(self.m)]
                for r in range(self.n)
            ],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Matrix":
        algebra = Algebra.from_letter(obj["algebra"])
        rows = [
            [scalar_from_json(e, algebra) for e in row]
            for row in obj["data"]
        ]
        mat = cls.from_rows(rows, algebra)
        if mat.n != obj["rows"] or mat.m != obj["cols"]:
            raise ValueError("row/col counts disagree with data shape")
        return mat


def outer_sum(U: Matrix, coeffs=None, V: Matrix | None = None) -> Matrix:
    """The operator x -> sum_m u_m q_m <v_m|x> over the columns of U and V.

    Computed as (U diag(q)) V* with one quaternion matrix product.  V defaults
    to U; ``coeffs`` is None (every q_m = 1), one real per column, or one
    quaternion per column as an (m, 4) component array.
    """
    V = U if V is None else V
    algebra = _check_same_algebra(U, V)
    uc = U.comps
    if coeffs is not None:
        q = np.asarray(coeffs, dtype=np.float64)
        uc = uc * q[None, :, None] if q.ndim == 1 else _mul_comps(uc, q[None, :, :])
    return Matrix(algebra, kernels.quat_matmul(uc, np.transpose(_conj_comps(V.comps), (1, 0, 2))))


def outer(u: Vector, v: Vector, coeff=None) -> Matrix:
    """The operator x -> u q <v|x>, as a matrix u_r q conj(v_c)."""
    q = None if coeff is None else as_quaternion(coeff).to_array()[None, :]
    return outer_sum(Matrix(u.algebra, u.comps[:, None, :]), q, Matrix(v.algebra, v.comps[:, None, :]))


class Basis:
    """Ordered list of pairwise-orthonormal vectors."""

    __slots__ = ("algebra", "_vectors")

    def __init__(self, vectors: list[Vector]):
        if not vectors:
            raise ValueError("empty basis")
        self.algebra = vectors[0].algebra
        self._vectors = tuple(vectors)

    @classmethod
    def standard(cls, n: int, algebra: Algebra) -> "Basis":
        return cls([Vector.basis_vector(m, n, algebra) for m in range(n)])

    @property
    def vectors(self) -> tuple[Vector, ...]:
        return self._vectors

    def __len__(self) -> int:
        return len(self._vectors)

    def __iter__(self):
        return iter(self._vectors)

    def __getitem__(self, idx: int) -> Vector:
        return self._vectors[idx]

    @property
    def space_dim(self) -> int:
        return self._vectors[0].n

    def is_complete(self) -> bool:
        return len(self) == self.space_dim

    def matrix(self) -> Matrix:
        """Matrix whose columns are the basis vectors (unitary when complete)."""
        return Matrix.from_columns(list(self._vectors))

    def orthonormality_defect(self) -> float:
        """Largest entry magnitude of U*U - I."""
        U = self.matrix()
        return (U.adjoint() @ U - Matrix.identity(len(self), self.algebra)).max_abs()


def gram_schmidt(vectors: list[Vector], *, drop: bool = False) -> Basis:
    """Modified Gram-Schmidt with one re-orthogonalization pass.

    Normalization divides on the right, so the span is preserved under the
    right-scalar convention.  Vectors whose residual falls below
    1e-10 * max input norm are rejected: with ``drop=True`` they are skipped,
    otherwise DegenerateInput is raised.
    """
    if not vectors:
        raise ValueError("need at least one vector")
    norms = [v.norm() for v in vectors]
    # NaN would slip through every comparison below, and inf would normalize to 0
    if not np.isfinite(norms).all():
        raise DegenerateInput("input vector has a non-finite norm")
    scale = max(norms)
    if scale == 0.0:
        if drop:
            raise DegenerateInput("all inputs are zero")
        raise DegenerateInput("zero input vector")
    out: list[Vector] = []
    for v in vectors:
        w = v
        for _ in range(2):
            for u in out:
                w = w - u.scale_right(inner(u, w))
        nrm = w.norm()
        if nrm <= _RANK_TOL * scale:
            if drop:
                continue
            raise DegenerateInput(f"vector numerically dependent (residual {nrm:.3e})")
        out.append(w.scale_right(1.0 / nrm))
    if not out:
        raise DegenerateInput("no independent vectors")
    return Basis(out)


class Projector:
    """Orthogonal projector: PP = P and P* = P, checked on construction."""

    __slots__ = ("matrix",)

    def __init__(self, matrix: Matrix, tol: float = 1e-8):
        if not matrix.is_square:
            raise ValueError("projector matrix must be square")
        idem = (matrix @ matrix - matrix).max_abs()
        herm = matrix.hermitian_defect()
        scale = max(1.0, matrix.max_abs())
        # a NaN or inf entry makes a defect NaN, and NaN fails every comparison
        if not (idem / scale <= tol and herm / scale <= tol):
            raise ValueError(
                f"not a projector: idempotency defect {idem:.3e}, hermitian defect {herm:.3e}"
            )
        self.matrix = matrix

    @classmethod
    def zero(cls, n: int, algebra: Algebra) -> "Projector":
        return cls(Matrix.zeros(n, n, algebra))

    @classmethod
    def identity(cls, n: int, algebra: Algebra) -> "Projector":
        return cls(Matrix.identity(n, algebra))

    @property
    def algebra(self) -> Algebra:
        return self.matrix.algebra

    @property
    def n(self) -> int:
        return self.matrix.n

    @property
    def rank(self) -> int:
        return int(round(self.matrix.comps[np.arange(self.n), np.arange(self.n), 0].sum()))

    def complement(self) -> "Projector":
        return Projector(Matrix.identity(self.n, self.algebra) - self.matrix)

    def __repr__(self) -> str:
        return f"Projector({self.algebra.value}, n={self.n}, rank={self.rank})"


def projector_onto(vectors: list[Vector], *, drop: bool = False) -> Projector:
    """Projector onto the span of the given (not necessarily orthonormal) vectors."""
    if not vectors:
        raise ValueError("need at least one spanning vector")
    return Projector(outer_sum(gram_schmidt(vectors, drop=drop).matrix()))


def projector_leq(P: Projector, Q: Projector, tol: float = 1e-8) -> bool:
    """Lattice order: P <= Q (range inclusion) iff QP = P."""
    return (Q.matrix @ P.matrix - P.matrix).max_abs() <= tol


def is_positive(A: Matrix, tol: float = 1e-9) -> bool:
    """Whether <x|Ax> >= 0 for all x.

    Over C and H this forces A = A*, so the anti-Hermitian part must vanish;
    over R an antisymmetric part contributes nothing to <x|Ax> and is ignored.
    The Hermitian part is tested through its minimum eigenvalue.
    """
    from .spectral import eig_hermitian, op_norm

    if not A.is_square:
        raise ValueError("positivity needs a square matrix")
    scale = max(1.0, A.max_abs())
    if not A.algebra.is_real:
        skew = A - A.adjoint()
        if op_norm(skew) / 2.0 > tol * scale:
            return False
    herm = (A + A.adjoint()) * 0.5
    dec = eig_hermitian(herm)
    return bool(dec.values.min() >= -tol * scale)


def is_positive_selfadjoint(A: Matrix, tol: float = 1e-9) -> bool:
    """Positive and self-adjoint; the stronger predicate real callers may need."""
    return A.is_hermitian(tol) and is_positive(A, tol)


# ---------------------------------------------------------------------------
# random instances (all driven by the named SplitMix64 stream)
# ---------------------------------------------------------------------------

def _as_rng(seed_or_rng) -> SplitMix64:
    if isinstance(seed_or_rng, SplitMix64):
        return seed_or_rng
    return SplitMix64(int(seed_or_rng))


def random_vector(n: int, algebra: Algebra, rng) -> Vector:
    rng = _as_rng(rng)
    comps = np.zeros((n, 4))
    k = algebra.component_count
    comps[:, :k] = rng.gaussian_block(n * k).reshape(n, k)
    return Vector(algebra, comps)


def random_unit_vector(n: int, algebra: Algebra, rng) -> Vector:
    v = random_vector(n, algebra, rng)
    nrm = v.norm()
    if nrm < 1e-12:
        return Vector.basis_vector(0, n, algebra)
    return v.scale_right(1.0 / nrm)


def random_matrix(n: int, m: int, algebra: Algebra, rng) -> Matrix:
    rng = _as_rng(rng)
    comps = np.zeros((n, m, 4))
    k = algebra.component_count
    comps[:, :, :k] = rng.gaussian_block(n * m * k).reshape(n, m, k)
    return Matrix(algebra, comps)


def random_hermitian(n: int, algebra: Algebra, rng) -> Matrix:
    G = random_matrix(n, n, algebra, rng)
    return (G + G.adjoint()) * 0.5


def random_unitary(n: int, algebra: Algebra, rng) -> Matrix:
    """Orthonormalized Gaussian columns; deterministic for a given stream."""
    rng = _as_rng(rng)
    for _ in range(4):
        try:
            basis = gram_schmidt(random_matrix(n, n, algebra, rng).columns())
        except DegenerateInput:
            continue
        return basis.matrix()
    raise DegenerateInput("could not draw an invertible Gaussian matrix")


def random_unit_imaginary(algebra: Algebra, rng) -> Quaternion:
    """Unit imaginary scalar of the algebra (only +-i for C)."""
    if algebra is Algebra.R:
        raise AlgebraMismatch("R has no imaginary units")
    rng = _as_rng(rng)
    k = algebra.component_count - 1
    parts = rng.gaussian_block(k)
    nrm = float(np.sqrt((parts**2).sum()))
    if nrm < 1e-12:
        return Quaternion.I
    comps = np.zeros(4)
    comps[1 : 1 + k] = parts / nrm
    return Quaternion.from_array(comps)


def random_phase(algebra: Algebra, rng) -> Quaternion:
    """Unit-modulus scalar of the algebra (a sign when the algebra is R)."""
    rng = _as_rng(rng)
    k = algebra.component_count
    parts = rng.gaussian_block(k)
    nrm = float(np.sqrt((parts**2).sum()))
    if nrm < 1e-12:
        return Quaternion.ONE
    comps = np.zeros(4)
    comps[:k] = parts / nrm
    return Quaternion.from_array(comps)


def random_projector(n: int, rank: int, algebra: Algebra, rng) -> Projector:
    if not 0 < rank <= n:
        raise ValueError(f"rank must lie in 1..{n}")
    rng = _as_rng(rng)
    U = random_unitary(n, algebra, rng)
    return projector_onto([U.col(c) for c in range(rank)])
