"""Basis traces, the real trace, and the trace norm.

Over R and C the basis trace sum_{u in N} <u|Au> does not depend on N.  Over
H it does (left multiplication by j on the one-dimensional space is the
canonical witness) unless A is Hermitian, but its REAL PART is always basis
independent and cyclic, which is what every downstream probability formula
uses.  The trace norm is the sum of singular values; in finite dimension
every operator is trace class and the norm is the nuclear norm.

Re tr(AB) has one kernel, :func:`_real_pairings`: it pairs a whole stack of
matrices with one operand in a single broadcast product and forms no matrix
product, over R on the real components alone.  :func:`real_pairing` is its
one-matrix case, and the lattice measure of a state in
:mod:`gleason_lab.gleason` reads a probe stack with it.

The real trace, the basis trace, the trace norm, the absolute diagonal sum,
the norm inequalities, the cyclicity gap and the realification check each
run over a stack of matrices with leading axes (``_real_traces``,
``_traces``, ``_trace_norms`` and so on), and each public function is the
one-matrix case of its stack form, bit for bit: the suite runs a cell's
trials through the stack forms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .kernels import HAMILTON
from .linalg import Matrix, _adjoint_comps, _check_same_algebra, _conj_comps, _mul_comps
from .scalars import Algebra, Quaternion
from .spectral import _gram_spectra, _op_norms_of, _root_spectrum, _skew_polar, adapted_basis, op_norm, singular_values


def _diagonal(a: np.ndarray, basis: np.ndarray, algebra: Algebra) -> np.ndarray:
    """Components (..., m, 4) of <u|Au> for every column u of the basis, in
    order, for every pair of a stack of operators and bases (..., n, m, 4)."""
    prod = kernels.quat_matmul(a, basis, algebra.component_count)
    return _mul_comps(_conj_comps(basis), prod).sum(axis=-3)


def _traces(a: np.ndarray, basis: np.ndarray, algebra: Algebra) -> np.ndarray:
    """Components (..., 4) of the basis trace of every pair of a stack; see :func:`trace_n`."""
    return _diagonal(a, basis, algebra).sum(axis=-2)


def trace_n(A: Matrix, basis: Matrix) -> Quaternion:
    """Basis trace sum_{u in N} <u|Au> over the columns u of ``basis``, in order."""
    if not A.is_square:
        raise ValueError("trace needs a square matrix")
    if basis.m != A.n:
        raise ValueError(f"basis has {basis.m} vectors, space dimension is {A.n}")
    return Quaternion.from_array(_traces(A.comps, basis.comps, _check_same_algebra(A, basis)))


def _real_traces(c: np.ndarray) -> np.ndarray:
    """The diagonal sum of components 0 of every matrix of a (..., n, n, 4) stack.

    Each sum runs over a strided view of one diagonal, in the order numpy sums
    a lone diagonal.  Fancy indexing would hand a stack's diagonals over
    transposed, and numpy would then add them column by column: from n = 8
    on, where a lone sum is pairwise, the last bits would differ.
    """
    return np.diagonal(c[..., 0], axis1=-2, axis2=-1).sum(axis=-1)


def real_trace(A: Matrix) -> float:
    """Re tr_N(A) for any basis N; the standard basis gives the diagonal sum."""
    if not A.is_square:
        raise ValueError("trace needs a square matrix")
    return float(_real_traces(A.comps))


def _real_pairings(stack: np.ndarray, B: np.ndarray, component_count: int = 4) -> np.ndarray:
    """Re tr(A_p B) for every A_p of the (k, n, m, 4) ``stack`` and the (m, n, 4)
    operand ``B``, or, for a (g, m, n, 4) stack ``B`` of operands, Re tr(A_p
    B_q) with one operand B_q per group of k / g consecutive entries of the
    stack (g = k pairs each entry with its own operand), over the algebra with
    ``component_count`` components: the one pairing kernel, shared by
    :func:`real_pairing`.  A group count that does not divide k raises
    ValueError.

    Re(pq) = p_0 q_0 - p_1 q_1 - p_2 q_2 - p_3 q_3, so this is O(knm) work and
    forms no product.  Over R (1) the entries are real, and only components 0
    are multiplied and summed.  Over C (2) and H (4), the default, all four
    components are: a C pairing of components 0-1 alone would move the last
    bit of some values, since numpy sums the three imaginary products of each
    entry in one buffered reduction whose order follows the four-component
    layout.  Zero components change no nonzero sum, so an R pairing has the
    four-component bits.  Value p sums only the entries of A_p and its
    operand, so a stack of k gives the k one-matrix values, bit for bit.  The
    grouped product is formed as (g, k / g, n, m) entries and read as (k, n,
    m): on a C-contiguous stack, as every caller passes, that is the array,
    and so are the bytes, that k operands repeated per group would give.
    """
    if stack.ndim != 4 or B.ndim not in (3, 4):
        raise ValueError(f"need a (k, n, m, 4) stack and one or k operands, got shapes {stack.shape} and {B.shape}")
    if stack.shape[1:3] != B.shape[-2:-4:-1]:
        raise ValueError(
            f"cannot pair {stack.shape[1]}x{stack.shape[2]} with {B.shape[-3]}x{B.shape[-2]}: "
            "need (n, m) and (m, n)"
        )
    shape = stack.shape
    if B.ndim == 4 and B.shape[0] != shape[0]:
        k, g = shape[0], B.shape[0]
        if g == 0 or k % g:
            raise ValueError(f"cannot pair a stack of {k} with {g} operands: need one operand per group of k / g")
        stack, B = stack.reshape((g, k // g) + shape[1:]), B[:, None]
    if component_count == 1:
        return (stack[..., 0] * B[..., 0].swapaxes(-2, -1)).reshape(shape[:3]).sum(axis=(1, 2))
    prod = (stack * B.swapaxes(-3, -2)).reshape(shape)
    # plain sums, not einsum, which would reorder the additions
    return prod[..., 0].sum(axis=(1, 2)) - prod[..., 1:].sum(axis=(1, 2, 3))


def real_pairing(A: Matrix, B: Matrix) -> float:
    """Re tr(AB) = sum_rc Re(A_rc B_cr), for A of shape (n, m) and B of shape (m, n).

    The one-matrix case of :func:`_real_pairings`: O(nm) work, no product AB.
    """
    algebra = _check_same_algebra(A, B)
    return float(_real_pairings(A.comps[None], B.comps, algebra.component_count)[0])


def _trace_norms(c: np.ndarray, algebra: Algebra, values: np.ndarray | None = None) -> np.ndarray:
    """Trace norm of every matrix of a stack; see :func:`trace_norm`.  A
    caller that solved the Gram matrices of ``c`` among siblings passes
    their spectra, ``values`` (:func:`~gleason_lab.spectral._gram_spectra`),
    and the solve is not repeated."""
    return _root_spectrum(_gram_spectra(c, algebra) if values is None else values).sum(axis=-1)


def trace_norm(A: Matrix) -> float:
    """Sum of singular values; equals sum_{u in M} <u| |A| u> for every basis M."""
    if not A.is_square:
        raise ValueError("trace norm needs a square matrix")
    return float(_trace_norms(A.comps, A.algebra))


def _absolute_diagonal_sums(a: np.ndarray, basis: np.ndarray, algebra: Algebra) -> np.ndarray:
    """:func:`absolute_diagonal_sum` of every pair of a stack of operators and bases."""
    return np.sqrt((_diagonal(a, basis, algebra) ** 2).sum(axis=-1)).sum(axis=-1)


def absolute_diagonal_sum(A: Matrix, basis: Matrix) -> float:
    """sum_{u in N} |<u|Au>|, the quantity bounded by the trace norm over C and H."""
    return float(_absolute_diagonal_sums(A.comps, basis.comps, _check_same_algebra(A, basis)))


@dataclass(frozen=True)
class NormInequalityReport:
    """Slacks for the product and adjoint trace-norm inequalities.

    Each slack is (bound - value); the inequality holds when it is >= 0 up to
    rounding.
    """

    slack_ab: float
    slack_ba: float
    adjoint_gap: float
    op_vs_trace_slack: float


def _norm_report(a1, b_op, adjoint_sigmas, ab1, ba1) -> NormInequalityReport:
    """The slacks from ||A||_1, ||B||, the singular values of A*, ||AB||_1 and
    ||BA||_1: floats for one pair, arrays over a stack of pairs."""
    scale = np.maximum(1.0, a1 * np.maximum(1.0, b_op))
    return NormInequalityReport(
        slack_ab=(a1 * b_op - ab1) / scale,
        slack_ba=(a1 * b_op - ba1) / scale,
        adjoint_gap=(adjoint_sigmas.sum(axis=-1) - a1) / np.maximum(1.0, a1),
        op_vs_trace_slack=(a1 - adjoint_sigmas.max(axis=-1, initial=0.0)) / np.maximum(1.0, a1),
    )


def _norm_inequalities(a: np.ndarray, b: np.ndarray, algebra: Algebra) -> NormInequalityReport:
    """The report of :func:`check_norm_inequalities` for every pair of a stack
    of square operators, each slack an array over the stack.  AB and BA come
    from one product, and the five Gram matrices, of A, AB, BA, A* and B,
    from one solve: the norms of one pair have the bits they have alone."""
    products = kernels.quat_matmul(np.stack([a, b]), np.stack([b, a]), algebra.component_count)
    stack = np.stack([a, *products, _adjoint_comps(a), b])
    values = _gram_spectra(stack, algebra)
    a1, ab1, ba1 = _trace_norms(stack[:3], algebra, values[:3])
    return _norm_report(a1, _op_norms_of(values[4]), _root_spectrum(values[3]), ab1, ba1)


def check_norm_inequalities(A: Matrix, B: Matrix) -> NormInequalityReport:
    """||AB||_1 <= ||A||_1 ||B||, ||BA||_1 <= ||A||_1 ||B||, ||A||_1 = ||A*||_1,
    ||A|| <= ||A||_1.

    ||A*||_1 and ||A|| = ||A*|| both come from the singular values of A*, one
    solve of A A*, so the check makes five eigensolves.  The one-pair case of
    :func:`_norm_inequalities`, read through the one-matrix norms.
    """
    a1 = trace_norm(A)
    b_op = op_norm(B)
    adjoint_sigmas = singular_values(A.adjoint())
    report = _norm_report(a1, b_op, adjoint_sigmas, trace_norm(A @ B), trace_norm(B @ A))
    return NormInequalityReport(**{k: float(v) for k, v in vars(report).items()})


def _cyclic_gaps(a: np.ndarray, b: np.ndarray, algebra: Algebra) -> np.ndarray:
    """:func:`real_trace_cyclic_gap` of every pair of a stack, AB and BA from one product."""
    ab, ba = _real_traces(kernels.quat_matmul(np.stack([a, b]), np.stack([b, a]), algebra.component_count))
    return np.abs(ab - ba)


def real_trace_cyclic_gap(A: Matrix, B: Matrix) -> float:
    """|Re tr(AB) - Re tr(BA)|; vanishes in all three algebras."""
    return float(_cyclic_gaps(A.comps, B.comps, _check_same_algebra(A, B)))


def full_trace_cyclic_gap(A: Matrix, B: Matrix, basis: Matrix | None = None) -> float:
    """|tr_N(AB) - tr_N(BA)|; generally nonzero over H."""
    basis = Matrix.identity(A.n, A.algebra) if basis is None else basis
    return abs(trace_n(A @ B, basis) - trace_n(B @ A, basis))


@dataclass(frozen=True)
class AdaptedTraceCheck:
    """Both sides of tr_N(A) = Re tr(A) + (imag_unit / 2) tr|A - A*| on a basis
    adapted to the polar direction J of the anti-Hermitian part."""

    basis_trace: Quaternion
    real_part: float
    skew_trace_norm: float
    residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance


def quaternionic_trace_formula_check(A: Matrix, imag_unit: Quaternion) -> AdaptedTraceCheck:
    """Evaluate the adapted-basis trace identity for a quaternionic matrix."""
    J, skew_norm = _skew_polar(A)
    basis = adapted_basis(J, imag_unit)
    lhs = trace_n(A, basis)
    real_part = real_trace(A)
    rhs = Quaternion(real_part) + imag_unit * (skew_norm / 2.0)
    tol = 1e-8 * (1.0 + trace_norm(A))
    return AdaptedTraceCheck(
        basis_trace=lhs,
        real_part=real_part,
        skew_trace_norm=skew_norm,
        residual=abs(lhs - rhs),
        tolerance=tol,
    )


# ---------------------------------------------------------------------------
# realification: the same space viewed as a real Hilbert space of dimension 4n
# ---------------------------------------------------------------------------

def _realify(c: np.ndarray) -> np.ndarray:
    """Components of the real 4n x 4m matrix of every quaternionic matrix of a
    (..., n, m, 4) stack; see :func:`realify`."""
    lead = c.shape[:-3]
    n, m = c.shape[-3], c.shape[-2]
    out = np.zeros(lead + (4 * n, 4 * m, 4))
    out[..., 0] = np.einsum("...rca,afe->...recf", c, HAMILTON).reshape(lead + (4 * n, 4 * m))
    return out


def realify(A: Matrix) -> Matrix:
    """Real 4n x 4n matrix of a quaternionic operator on the realified space.

    The realified space uses the basis {u, ui, uj, uk} per quaternionic basis
    vector u and the real scalar product Re<.|.>.  Block (r, c) is the 4x4
    matrix of q -> A_rc q, whose entry (e, f) is component e of A_rc e_f, read
    off HAMILTON for all blocks at once.
    """
    if A.algebra is not Algebra.H:
        raise ValueError("realification applies to quaternionic matrices")
    return Matrix(Algebra.R, _realify(A.comps))


@dataclass(frozen=True)
class RealificationCheck:
    """Both sides of the quarter identities: floats for one matrix, arrays
    over a stack."""

    trace_norm_h: float
    trace_norm_real: float
    real_trace_h: float
    trace_real: float

    @property
    def trace_norm_gap(self) -> float:
        return abs(self.trace_norm_h - self.trace_norm_real / 4.0)

    @property
    def trace_gap(self) -> float:
        return abs(self.real_trace_h - self.trace_real / 4.0)


def _realification_checks(c: np.ndarray) -> RealificationCheck:
    """The check of :func:`realification_check` for every matrix of a stack of
    square quaternionic matrices, each field an array over the stack."""
    AR = _realify(c)
    return RealificationCheck(
        trace_norm_h=_trace_norms(c, Algebra.H),
        trace_norm_real=_trace_norms(AR, Algebra.R),
        real_trace_h=_real_traces(c),
        trace_real=_real_traces(AR),
    )


def realification_check(A: Matrix) -> RealificationCheck:
    """Both quarter identities: ||A||_1 over H is a quarter of the realified
    trace norm, and Re tr(A) is a quarter of the realified trace."""
    if A.algebra is not Algebra.H:
        raise ValueError("realification applies to quaternionic matrices")
    if not A.is_square:
        raise ValueError("trace norm needs a square matrix")
    check = _realification_checks(A.comps)
    return RealificationCheck(**{k: float(v) for k, v in vars(check).items()})

