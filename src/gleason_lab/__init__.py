"""Verification lab for quantum state theory over R, C and H.

Finite-dimensional Hilbert spaces over the three real division algebras, the
basis trace / real trace calculus, the measure-state correspondence on the
projector lattice, and the quantum measurement layer built on it, all
executable as machine-checked properties.
"""

__version__ = "0.1.0"

from .errors import (
    AlgebraMismatch,
    ConvergenceFailure,
    DegenerateInput,
    GleasonLabError,
    InvalidWeights,
    NotAFrameFunction,
    NotHermitian,
    NotPositive,
    NotUnitary,
)
from .rng import SplitMix64
from .scalars import Algebra, Quaternion
from .linalg import (
    Matrix,
    Projector,
    gram_schmidt,
    inner,
    is_positive,
    outer,
    outer_sum,
    projector_onto,
    random_hermitian,
    random_matrix,
    random_projector,
    random_unit_vector,
    random_unitaries,
    random_unitary,
)
from .spectral import (
    EigenDecomposition,
    abs_op,
    adapted_basis,
    eig_hermitian,
    eigvals_hermitian,
    make_J,
    op_norm,
    singular_values,
)
from .trace import (
    absolute_diagonal_sum,
    check_norm_inequalities,
    quaternionic_trace_formula_check,
    real_trace,
    real_trace_cyclic_gap,
    realification_check,
    realify,
    trace_n,
    trace_norm,
)
from .gleason import (
    DensityOperator,
    Dim2Certificate,
    FrameFunction,
    LatticeMeasure,
    convex_mix,
    convex_unit_lemma,
    dim2_counterexample,
    extremal_split,
    is_extremal,
    measure_from_state,
    pure_state,
    random_density,
    reconstruct_state,
    separation_check,
)
from .quantum import (
    ContinuityReport,
    GroupPath,
    Observable,
    OutcomeMeasure,
    PVMap,
    SymmetryOp,
    apply_function,
    continuity_scan,
    expectation,
    outcome_measure,
    pvm_of,
    rotation_group_from_hermitian,
    rotation_group_from_skew,
    std_deviation,
    symmetry_duality_gap,
)
