"""The stack is the one implementation: a stack of matrices gives, matrix by
matrix, the bits that each matrix gives alone.

Every stacked suite runner is checked against a per-trial reference, its form
before it ran the trials as one stack, written with the one-matrix public
functions: the terms agree bit for bit, and so do the stream positions that
both leave behind.  The runners that decompose observables take every
trial's eigenbasis from one stacked eigendecomposition; planted repeated
eigenvalues give some trials grouped atoms and, over H, grouped pairs.  The
runners whose draws depend on earlier draws meet planted rare branches: a
mixed state with a repeated eigenvalue, a lemma weight that reaches 1, a
nearly Hermitian matrix and rejected count-setting integers.  The last three
runners to stack meet theirs: equal projectors and the identity for the
separation check, an adapted basis that drops a candidate, and a frame
function that fails one of the round trip's checks.  The planned
draws, fixed and dependent, are checked against the draws one after another,
the stacked kernels against per-matrix calls, the guards over a stack against
the one-matrix messages, and the chunking of the trial axis against the trial
chunk budget.
"""

import random

import numpy as np
import pytest

from gleason_lab import gleason, kernels, linalg, quantum, spectral, suite, trace
from gleason_lab import rng as rng_module
from gleason_lab.errors import DegenerateInput, InvalidWeights, NotAFrameFunction, NotHermitian, NotPositive, NotUnitary
from gleason_lab.gleason import (
    DensityOperator,
    FrameFunction,
    convex_mix,
    measure_from_state,
    pure_state,
    random_density,
    reconstruct_state,
)
from gleason_lab.linalg import (
    Matrix,
    Projector,
    _check_projectors,
    _hermitian_part,
    _gram_schmidt,
    _orthonormalize,
    _unitaries,
    gram_schmidt,
    inner,
    outer_sum,
    random_hermitian,
    random_matrix,
    random_phase,
    random_projector,
    random_unit_imaginary,
    random_unit_vector,
    random_unitaries,
    random_unitary,
)
from gleason_lab.quantum import (
    Observable,
    SymmetryOp,
    apply_function,
    expectation,
    outcome_measure,
    pvm_of,
    std_deviation,
    symmetry_duality_gap,
)
from gleason_lab.rng import SplitMix64
from gleason_lab.scalars import Algebra, Quaternion
from gleason_lab.spectral import adapted_basis, eig_hermitian, eigvals_hermitian, op_norm
from gleason_lab.suite import REGISTRY, Cell
from gleason_lab.trace import (
    absolute_diagonal_sum,
    check_norm_inequalities,
    full_trace_cyclic_gap,
    real_trace,
    real_trace_cyclic_gap,
    realification_check,
    trace_n,
    trace_norm,
)

from conftest import ALGEBRAS, conjugate_state

RUNNERS = {prop.name: prop for prop in REGISTRY}


# ---------------------------------------------------------------------------
# per-trial references: trial t of cell, drawn from cell.rng one draw at a time
# ---------------------------------------------------------------------------

def _draw_matrix(cell):
    return random_matrix(cell.dim, cell.dim, cell.algebra, cell.rng)


def _draw_unitary(cell):
    return random_unitary(cell.dim, cell.algebra, cell.rng)


def _basis_invariance(draw):
    def trial(cell, t):
        A = draw(cell)
        t0 = trace_n(A, _draw_unitary(cell))
        t1 = trace_n(A, _draw_unitary(cell))
        return [abs(t0 - t1)]

    return trial


def _real_basis_invariance(cell, t):
    A = _draw_matrix(cell)
    base = real_trace(A)
    return [abs(trace_n(A, _draw_unitary(cell)).real - base) for _ in range(3)]


def _real_cyclicity(cell, t):
    A, B = _draw_matrix(cell), _draw_matrix(cell)
    return [real_trace_cyclic_gap(A, B) / (1.0 + trace_norm(A) * op_norm(B))]


def _norm_inequalities(cell, t):
    rep = check_norm_inequalities(_draw_matrix(cell), _draw_matrix(cell))
    return [-rep.slack_ab, -rep.slack_ba, abs(rep.adjoint_gap), -rep.op_vs_trace_slack]


def _linearity_star(cell, t):
    A, B = _draw_matrix(cell), _draw_matrix(cell)
    a, b = cell.rng.gaussian(), cell.rng.gaussian()
    lin = real_trace(A * a + B * b) - a * real_trace(A) - b * real_trace(B)
    return [abs(lin), abs(real_trace(A.adjoint()) - real_trace(A))]


def _positivity_monotonicity(cell, t):
    C, D = _draw_matrix(cell), _draw_matrix(cell)
    B = random_hermitian(cell.dim, cell.algebra, cell.rng)
    A = B + D.adjoint() @ D
    return [-real_trace(C.adjoint() @ C), real_trace(B) - real_trace(A)]


def _absolute_sum_bound(cell, t):
    A = _draw_matrix(cell)
    bound = trace_norm(A)
    return [(absolute_diagonal_sum(A, _draw_unitary(cell)) - bound) / max(1.0, bound) for _ in range(3)]


def _realification_quarter(cell, t):
    check = realification_check(_draw_matrix(cell))
    scale = 1.0 + check.trace_norm_h
    return [check.trace_norm_gap / scale, check.trace_gap / scale]


def _symmetry_duality(cell, t):
    A, B = _draw_matrix(cell), _draw_matrix(cell)
    sym = SymmetryOp(_draw_unitary(cell), antiunitary=cell.algebra is Algebra.C and t % 2 == 1)
    return [symmetry_duality_gap(A, B, sym) / (1.0 + trace_norm(A) * op_norm(B))]


def _draw_density(cell):
    return random_density(cell.dim, cell.algebra, cell.rng)


def _draw_projector(cell):
    return random_projector(cell.dim, 1 + cell.rng.integer(cell.dim), cell.algebra, cell.rng)


def _projector_sandwich(cell, t):
    A = random_hermitian(cell.dim, cell.algebra, cell.rng)
    P = _draw_projector(cell).matrix
    sandwiched = P @ A @ P
    full = trace_n(sandwiched, Matrix.identity(cell.dim, cell.algebra))
    return [abs(real_trace(P @ A) - real_trace(sandwiched)), abs(full - Quaternion(full.real))]


def _measure_range(cell, t):
    value = measure_from_state(_draw_density(cell))(_draw_projector(cell))
    return [-value, value - 1.0]


def _mix_linearity(cell, t):
    t1, t2 = _draw_density(cell), _draw_density(cell)
    w = cell.rng.uniform()
    mixed = convex_mix([t1, t2], [w, 1.0 - w])
    P = _draw_projector(cell)
    rhs = w * measure_from_state(t1)(P) + (1.0 - w) * measure_from_state(t2)(P)
    return [abs(measure_from_state(mixed)(P) - rhs)]


def _pure_phase_classes(cell, t):
    psi = random_unit_vector(cell.dim, cell.algebra, cell.rng)
    q = random_phase(cell.algebra, cell.rng)
    return [(pure_state(psi).matrix - pure_state(psi.scale_right(q)).matrix).max_abs()]


def _state_conjugation(cell, t):
    T = _draw_density(cell)
    sym = SymmetryOp(_draw_unitary(cell))
    return [abs(real_trace(conjugate_state(sym, T).matrix) - 1.0)]


# trial -> the matrix that a test plants in place of the trial's first draw (a
# random_hermitian draw, which it must then equal as its own Hermitian part,
# or the adapted-basis formula's Gaussian matrix), after the draw; the stacked
# runners get it through suite._draw (_plant)
_PLANTED: dict[int, np.ndarray] = {}


def _draw_hermitian(cell, t):
    A = random_hermitian(cell.dim, cell.algebra, cell.rng)
    return Matrix(cell.algebra, _PLANTED[t]) if t in _PLANTED else A


def _pvm_partition(cell, t):
    pvm = pvm_of(Observable(_draw_hermitian(cell, t)))
    return [(pvm.total() - Matrix.identity(cell.dim, cell.algebra)).max_abs()] + [
        (P1.matrix @ P2.matrix).max_abs() for s1, P1 in pvm.atoms for s2, P2 in pvm.atoms if s1 != s2
    ]


def _functional_calculus(cell, t):
    A = Observable(_draw_hermitian(cell, t))
    scale = max(1.0, A.matrix.max_abs() ** 2)
    identity_gap = (apply_function(A, lambda x: x).matrix - A.matrix).max_abs()
    square = apply_function(A, lambda x: x * x).matrix
    return [identity_gap, (square - A.matrix @ A.matrix).max_abs() / scale]


def _expectation_duality(cell, t):
    A = Observable(_draw_hermitian(cell, t))
    T = _draw_density(cell)
    dist = outcome_measure(A, T)
    via_moments = np.sqrt(max(dist.second_moment() - dist.mean() ** 2, 0.0))
    return [abs(dist.total() - 1.0), abs(expectation(A, T) - dist.mean()), abs(std_deviation(A, T) - via_moments)]


def _pure_state_reduction(cell, t):
    A = Observable(_draw_hermitian(cell, t))
    psi = random_unit_vector(cell.dim, cell.algebra, cell.rng)
    T = pure_state(psi)
    terms = [abs(real_trace(P.matrix @ T.matrix) - (P.matrix @ psi).norm() ** 2) for _, P in pvm_of(A).atoms]
    return terms + [abs(expectation(A, T) - inner(psi, A.matrix @ psi).real)]


def _diagonal_basis_cyclicity(cell, t):
    A = _draw_hermitian(cell, t)
    B = _draw_matrix(cell)
    basis = eig_hermitian(A).basis
    gap = full_trace_cyclic_gap(A, B, basis)
    full = trace_n(A @ ((B + B.adjoint()) * 0.5), basis)
    return [gap, abs(full - Quaternion(full.real))]


# the four runners whose draws depend on earlier draws, as they ran one trial
# at a time; the one-state helpers are written out as they were, so that the
# stacked forms that now serve is_extremal, extremal_split, convex_unit_lemma
# and random_orthogonal_decomposition meet an independent reference

def _is_extremal(state):
    values = state.eigenvalues
    return len(values) == 1 or float(values[1]) <= 1e-8


def _extremal_split(state):
    dec = state.eigen()
    w1 = float(dec.values[0])
    if 1.0 - w1 <= 1e-8:
        raise ValueError("state is extremal (rank one); no nontrivial split exists")
    T1 = DensityOperator(outer_sum(Matrix(state.algebra, dec.basis.comps[:, :1])))
    keep = np.flatnonzero(dec.values[1:] > 0.0) + 1
    rest = Matrix(state.algebra, dec.basis.comps[:, keep])
    T2 = DensityOperator(outer_sum(rest, dec.values[keep] / (1.0 - w1)))
    return w1, T1, T2


def _extremality(cell, t):
    psi = random_unit_vector(cell.dim, cell.algebra, cell.rng)
    pure_failed = float(not _is_extremal(pure_state(psi)))
    rank = 2 + cell.rng.integer(cell.dim - 1) if cell.dim > 2 else 2
    mixed = random_density(cell.dim, cell.algebra, cell.rng, rank=min(rank, cell.dim))
    if _is_extremal(mixed):
        return [pure_failed, 1.0]
    w1, T1, T2 = _extremal_split(mixed)
    recombined = convex_mix([T1, T2], [w1, 1.0 - w1])
    return [pure_failed, (recombined.matrix - mixed.matrix).max_abs()]


def _orthogonal_decomposition(n, algebra, rng):
    U = random_unitary(n, algebra, rng)
    blocks = min(2 + rng.integer(n - 1) if n > 2 else 2, n)
    cuts = sorted(rng.integer(n - 1) + 1 for _ in range(blocks - 1))
    bounds = [0] + sorted(set(cuts)) + [n]
    return Projector.of_stack(algebra, linalg._block_projectors(U.comps, zip(bounds[:-1], bounds[1:]), algebra))


def _sigma_additivity(cell, t):
    mu = measure_from_state(random_density(cell.dim, cell.algebra, cell.rng))
    parts = _orthogonal_decomposition(cell.dim, cell.algebra, cell.rng)
    return [abs(sum(mu(P) for P in parts) - 1.0)]


def _convex_unit_lemma(ps, qs):
    p = np.asarray(ps, dtype=np.float64)
    q = np.asarray(qs, dtype=np.float64)
    if len(p) != len(q) or len(p) < 2:
        raise ValueError("need matching lists of length >= 2")
    if not (0.0 < p.min() and p.max() < 1.0):
        raise ValueError("every p must lie strictly inside (0, 1)")
    if not (-1e-12 <= q.min() and q.max() <= 1.0 + 1e-12):
        raise ValueError("every q must lie in [0, 1]")
    hypothesis = abs(p.sum() - 1.0) <= 1e-12 and abs((p * q).sum() - 1.0) <= 1e-12
    if not hypothesis:
        return True
    return bool(np.abs(q - 1.0).max() <= 1e-9)


def _unit_lemma(cell, t):
    # ten draws per trial; 1.0 for each draw on which the lemma fails
    terms = []
    for _ in range(10):
        count = 2 + cell.rng.integer(6)
        raw = cell.rng.uniform_block(count)
        ps = raw / raw.sum()
        if ps.min() <= 0.0 or ps.max() >= 1.0:
            terms.append(0.0)
            continue
        if cell.rng.uniform() < 0.5:
            qs = np.ones(count)
        else:
            qs = 1.0 - cell.rng.uniform_block(count) * 0.5
        terms.append(float(not _convex_unit_lemma(list(ps), list(qs))))
    return terms


def _nonhermitian_dependence(cell, t):
    A = random_matrix(cell.dim, cell.dim, cell.algebra, cell.rng)
    if (A - A.adjoint()).max_abs() < 0.1:
        return []
    bases = random_unitaries(cell.dim, 12, cell.algebra, cell.rng)
    traces = [trace_n(A, Matrix(cell.algebra, U)) for U in bases]
    return [1e-3 - suite._worst(abs(t0 - t1) for t0, t1 in zip(traces[0::2], traces[1::2]))]


# the three runners that ran one trial at a time last, with the one-pair and
# one-matrix helpers that they called written out as they were: the separation
# check from eig_hermitian, and the skew polar J of the adapted-basis formula

def _separation_check(P, Q):
    dec = eig_hermitian(P.matrix - Q.matrix)
    idx = int(np.argmax(np.abs(dec.values)))
    if abs(float(dec.values[idx])) <= 1e-8:
        return False
    mu = measure_from_state(pure_state(dec.basis.col(idx)))
    return abs(mu(P) - mu(Q)) > 1e-8


def _separation(cell, t):
    rank_p = 1 + cell.rng.integer(cell.dim)
    rank_q = 1 + cell.rng.integer(cell.dim)
    P = random_projector(cell.dim, rank_p, cell.algebra, cell.rng)
    Q = random_projector(cell.dim, rank_q, cell.algebra, cell.rng)
    distinct = (P.matrix - Q.matrix).max_abs() > 1e-6
    return [float(distinct != _separation_check(P, Q)), float(_separation_check(P, P))]


def _trace_formula_residual(A, unit):
    C = A - A.adjoint()
    gram = eig_hermitian(C.adjoint() @ C)
    sigmas = spectral._root_spectrum(gram.values)
    live = sigmas > 0.0
    plus, zero = (Matrix(Algebra.H, gram.basis.comps[:, cols]) for cols in (live, ~live))
    J = outer_sum(C @ plus, 1.0 / sigmas[live], plus) + outer_sum(zero, np.tile(Quaternion.I.to_array(), (zero.m, 1)))
    rhs = Quaternion(real_trace(A)) + unit * (float(sigmas.sum()) / 2.0)
    return abs(trace_n(A, adapted_basis(J, unit)) - rhs)


def _adapted_trace_formula(cell, t):
    A = _draw_matrix(cell)
    A = Matrix(cell.algebra, _PLANTED[t]) if t in _PLANTED else A
    scale = 1.0 + trace_norm(A)
    units = (Quaternion.I, random_unit_imaginary(cell.algebra, cell.rng))
    return [_trace_formula_residual(A, unit) / scale for unit in units]


def _round_trip(cell, t):
    T = _draw_density(cell)
    mu = measure_from_state(T)
    f = FrameFunction.from_measure(mu)
    probes = []
    rebuilt = reconstruct_state(FrameFunction(lambda X: probes.append(X) or f.evaluate(X)), cell.dim, cell.algebra,
                                rng=cell.rng)
    # the lattice term: the certified line projectors of the 100 verification
    # probes, which come last, against the frame function's values
    X = Matrix(cell.algebra, probes[0].comps[:, -100:])
    lattice = np.abs(mu.evaluate(cell.algebra, Projector.rank_ones(X)) - f.evaluate(X)).max()
    return [(rebuilt.matrix - T.matrix).max_abs(), float(lattice)]


LAST = {
    "gleason.separation": _separation,
    "trace.adapted_basis_formula": _adapted_trace_formula,
    "gleason.round_trip": _round_trip,
}


DEPENDENT = {
    "gleason.extremality": _extremality,
    "gleason.sigma_additivity": _sigma_additivity,
    "gleason.unit_lemma": _unit_lemma,
    "trace.nonhermitian_basis_dependence_h": _nonhermitian_dependence,
}


SPECTRAL = {
    "quantum.pvm_partition": _pvm_partition,
    "quantum.functional_calculus": _functional_calculus,
    "quantum.expectation_duality": _expectation_duality,
    "quantum.pure_state_reduction": _pure_state_reduction,
    "trace.diagonal_basis_cyclicity": _diagonal_basis_cyclicity,
}


REFERENCES = {
    "trace.basis_invariance_rc": _basis_invariance(_draw_matrix),
    "trace.hermitian_basis_invariance_h": _basis_invariance(
        lambda cell: random_hermitian(cell.dim, cell.algebra, cell.rng)),
    "trace.real_basis_invariance": _real_basis_invariance,
    "trace.real_cyclicity": _real_cyclicity,
    "trace.norm_inequalities": _norm_inequalities,
    "trace.linearity_star": _linearity_star,
    "trace.positivity_monotonicity": _positivity_monotonicity,
    "trace.absolute_sum_bound": _absolute_sum_bound,
    "trace.realification_quarter": _realification_quarter,
    "quantum.symmetry_duality": _symmetry_duality,
    "trace.projector_sandwich": _projector_sandwich,
    "gleason.measure_range": _measure_range,
    "gleason.mix_linearity": _mix_linearity,
    "gleason.pure_phase_classes": _pure_phase_classes,
    "quantum.state_conjugation": _state_conjugation,
    **SPECTRAL,
    **DEPENDENT,
    **LAST,
}


@pytest.mark.parametrize("algebra", ALGEBRAS)
@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_the_one_draw_forms_give_the_bits_of_their_references(algebra, n):
    for seed in range(3):
        rng, ref = SplitMix64(seed), SplitMix64(seed)
        parts = gleason.random_orthogonal_decomposition(n, algebra, rng)
        want = _orthogonal_decomposition(n, algebra, ref)
        assert [P.matrix.comps.tobytes() for P in parts] == [P.matrix.comps.tobytes() for P in want]
        assert (rng._pos, rng._spare_gauss) == (ref._pos, ref._spare_gauss)
        state = random_density(n, algebra, rng, rank=min(2, n))
        assert gleason.is_extremal(state) == _is_extremal(state) == (n == 1)
        if n > 1:
            got, want = gleason.extremal_split(state), _extremal_split(state)
            assert got[0] == want[0]
            assert [T.matrix.comps.tobytes() for T in got[1:]] == [T.matrix.comps.tobytes() for T in want[1:]]
        raw = rng.uniform_block(n + 1)
        ps, qs = list(raw / raw.sum()), list(1.0 - rng.uniform_block(n + 1) * 0.5)
        for q in (qs, [1.0] * (n + 1)):
            assert gleason.convex_unit_lemma(ps, q) is _convex_unit_lemma(ps, q)


def test_the_references_name_exactly_the_stacked_runners():
    stacked = {prop.name for prop in REGISTRY if hasattr(prop.runner, "block")}
    assert stacked == set(REFERENCES)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 17, 33])
@pytest.mark.parametrize("name", sorted(REFERENCES))
def test_stacked_runner_matches_its_per_trial_reference_bit_for_bit(name, n):
    prop = RUNNERS[name]
    trials = 3  # odd trials are anti-unitary over C
    for letter in prop.algebras:
        algebra = Algebra.from_letter(letter)
        for seed in (0, 1, 2):
            rng = SplitMix64(seed).derive(name, letter, n)
            ref = SplitMix64(seed).derive(name, letter, n)
            _assert_the_block_is_the_reference(name, Cell(algebra, n, rng, trials), Cell(algebra, n, ref, trials))


def _assert_the_block_is_the_reference(name, cell, ref):
    got = RUNNERS[name].runner.block(cell, np.arange(cell.trials))
    want = [REFERENCES[name](ref, t) for t in range(ref.trials)]
    # a (trials, terms) array, or one flat array where the trials' term counts differ
    assert got.shape == ((len(want), len(want[0])) if len({len(w) for w in want}) == 1 else (sum(map(len, want)),))
    assert got.ravel().tobytes() == np.array([term for w in want for term in w]).tobytes(), cell.algebra
    assert (cell.rng._pos, cell.rng._spare_gauss) == (ref.rng._pos, ref.rng._spare_gauss)


def _degenerate(n, algebra, seed):
    """An exactly Hermitian U diag(s) U* whose largest eigenvalue is doubled."""
    spectrum = [1.5, 1.5] + [0.25 - 0.75 * k for k in range(n - 2)]
    return _hermitian_part(outer_sum(random_unitary(n, algebra, SplitMix64(seed)), spectrum).comps)


def _plant(monkeypatch, planted, hermitian=True):
    """Put each planted matrix in place of its trial's first draw, a Gaussian
    matrix; where the runner takes its Hermitian part, the planted matrix is
    its own Hermitian part, bit for bit."""
    for t, comps in planted.items():
        assert not hermitian or _hermitian_part(comps).tobytes() == comps.tobytes()
        monkeypatch.setitem(_PLANTED, t, comps)
    draw = suite._draw

    def planted_draw(cell, count, *items):
        out = draw(cell, count, *items)
        for t, comps in planted.items():
            out[0][t] = comps
        return out

    monkeypatch.setattr(suite, "_draw", planted_draw)


def _stack_calls(monkeypatch) -> list:
    """The leading shape of every stack that ``spectral._eig_stack``
    decomposes, which still runs; a lone matrix is not recorded."""
    shapes = []
    stack = spectral._eig_stack

    def spy(c, algebra):
        if c.ndim > 3:
            shapes.append(c.shape[:-3])
        return stack(c, algebra)

    monkeypatch.setattr(spectral, "_eig_stack", spy)
    monkeypatch.setattr(gleason, "_eig_stack", spy)
    return shapes


@pytest.mark.parametrize("n", [2, 3, 5, 8, 17, 33])
@pytest.mark.parametrize("name", sorted(SPECTRAL))
def test_a_planted_grouped_spectrum_runs_in_the_stack_bit_for_bit(name, n, monkeypatch):
    # trials 1 and 3 double their largest eigenvalue: two atoms become one,
    # and over H two pairs form one group; all four trials are decomposed as
    # one stack
    shapes = _stack_calls(monkeypatch)
    for algebra in ALGEBRAS:
        _plant(monkeypatch, {1: _degenerate(n, algebra, 30 + n), 3: _degenerate(n, algebra, 31 + n)})
        rng = SplitMix64(3).derive(name, algebra.value, n)
        ref = SplitMix64(3).derive(name, algebra.value, n)
        _assert_the_block_is_the_reference(name, Cell(algebra, n, rng, 4), Cell(algebra, n, ref, 4))
        assert shapes == [(4,)]
        shapes.clear()


@pytest.mark.parametrize("n", [5, 8])
def test_a_grouped_mixed_state_spectrum_runs_in_the_stack_bit_for_bit(n, monkeypatch):
    # a mixed state of rank r < n - 1 has the eigenvalue 0 n - r times, which
    # over H groups its pairs
    grouped = []
    stack = spectral._eig_stack

    def spy(c, algebra):
        if c.ndim > 3 and algebra is Algebra.H:
            w = spectral._solve(c, algebra, vectors=False)[0]
            grouped.extend(any(b - a > 1 for a, b in g) for g in spectral._pair_spectra(w)[1])
        return stack(c, algebra)

    monkeypatch.setattr(spectral, "_eig_stack", spy)
    name = "gleason.extremality"
    for algebra in ALGEBRAS:
        rng = SplitMix64(5).derive(name, algebra.value, n)
        ref = SplitMix64(5).derive(name, algebra.value, n)
        _assert_the_block_is_the_reference(name, Cell(algebra, n, rng, 6), Cell(algebra, n, ref, 6))
    assert any(grouped) and not all(grouped)


def _spy(monkeypatch, module, name) -> list:
    """The arguments of every call of ``module.name``, which still runs."""
    calls = []
    honest = getattr(module, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return honest(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return calls


@pytest.mark.parametrize("algebra", ALGEBRAS)
@pytest.mark.parametrize("n", [2, 3, 5])
def test_equal_pairs_need_no_eigenvector_and_every_pair_is_decomposed_in_the_stack(algebra, n, monkeypatch):
    # pairs P = Q, I against a projector of rank 1 (I - P repeats the
    # eigenvalue 1 from n = 3 on, and holds 0 and 1 at n = 2) and two random
    # projectors of rank 1
    rng = SplitMix64(70 + n)
    P = [random_projector(n, 1, algebra, rng) for _ in range(4)]
    pairs = [(P[0], P[0]), (Projector(Matrix.identity(n, algebra)), P[1]), (P[2], P[3])]
    shapes = _stack_calls(monkeypatch)
    alone = _spy(monkeypatch, spectral, "eig_hermitian")
    got = gleason._separations(*(np.stack([pair[i].matrix.comps for pair in pairs]) for i in (0, 1)), algebra)
    # P = Q is decided by its spectrum, and the grouped pairs over H (the
    # eigenvalue 1 of I - P from n = 3 on, the eigenvalue 0 of the last
    # difference from n = 4 on) are lifted in the one stack of differences
    assert shapes == [(3,)] and alone == []
    assert got.tolist() == [_separation_check(A, B) for A, B in pairs] == [False, True, True]
    assert [gleason.separation_check(A, B) for A, B in pairs] == got.tolist()


def _j_polar_draw(n, algebra, seed):
    """A Hermitian matrix plus diag(-i, i, ..., i): its J is that diagonal, so
    pi(e_0) = 0, and the adapted basis for the unit i drops its first
    candidate; |A - A*| = 2 I groups every pair."""
    comps = _hermitian_part(random_matrix(n, n, algebra, SplitMix64(seed)).comps)
    comps[np.arange(n), np.arange(n), 1] = [-1.0] + [1.0] * (n - 1)
    return comps


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_an_adapted_trial_that_drops_a_candidate_takes_the_one_matrix_path_bit_for_bit(n, monkeypatch):
    name = "trace.adapted_basis_formula"
    _plant(monkeypatch, {1: _j_polar_draw(n, Algebra.H, 80 + n)}, hermitian=False)
    alone = _spy(monkeypatch, spectral, "adapted_basis")
    rng = SplitMix64(10).derive(name, "H", n)
    ref = SplitMix64(10).derive(name, "H", n)
    _assert_the_block_is_the_reference(name, Cell(Algebra.H, n, rng, 3), Cell(Algebra.H, n, ref, 3))
    # J is diagonal, so pi(e_m) and pi(e_m t) span one complex line, and the
    # second is dropped for either unit, as pi(e_0) is for the unit i: the
    # block runs adapted_basis alone on the planted trial, for both units
    # from n = 2 on
    assert [J.comps.tobytes() for J, _ in alone] == (1 if n == 1 else 2) * [alone[0][0].comps.tobytes()]


@pytest.mark.parametrize("kind", ["phase", "weight", "verification"])
@pytest.mark.parametrize("algebra", ALGEBRAS)
def test_a_planted_frame_function_failure_names_the_lowest_failing_trial(algebra, kind, monkeypatch):
    # one probe value of trials 1 and 3 shifted: a turn of the first phase
    # probe, the first basis vector or the first verification probe
    name, n = "gleason.round_trip", 3
    count = gleason._probe_count(n, algebra, 100)
    column = {"phase": 1, "weight": 55, "verification": count - 100}[kind]
    shift = np.zeros(count)
    shift[column] = 0.5 if kind == "weight" else 1e-3
    ref = Cell(algebra, n, SplitMix64(11).derive(name), 4)
    REFERENCES[name](ref, 0)
    honest = FrameFunction.from_measure(measure_from_state(random_density(n, algebra, ref.rng)))
    shifted = FrameFunction(lambda X: np.asarray(honest.evaluate(X)) + shift)
    alone = _message(lambda: reconstruct_state(shifted, n, algebra, rng=ref.rng), NotAFrameFunction)
    line_values = gleason._line_values

    def shifted_values(states, probes, alg):
        return line_values(states, probes, alg) + np.outer(np.arange(4) % 2, shift)

    monkeypatch.setattr(gleason, "_line_values", shifted_values)
    cell = Cell(algebra, n, SplitMix64(11).derive(name), 4)
    assert _message(lambda: RUNNERS[name].runner.block(cell, np.arange(4)), NotAFrameFunction) == f"{alone} (stack entry 1)"


def _plant_uniforms(monkeypatch, rng, planted):
    """Form the uniform ``planted[p]`` from the output at each stream position
    p of ``rng``'s stream, wherever a draw forms uniforms (and so Gaussians)."""
    at = {int(rng._outputs(p, 1)[0]): u for p, u in planted.items()}
    honest = rng_module._uniforms

    def planted_uniforms(z):
        u = honest(z)
        for value, planted_u in at.items():
            u[z == np.uint64(value)] = planted_u
        return u

    monkeypatch.setattr(rng_module, "_uniforms", planted_uniforms)


@pytest.mark.parametrize("algebra", ALGEBRAS)
def test_a_lemma_draw_whose_weight_reaches_one_skips_its_branch_draw(algebra, monkeypatch):
    # weights (1, 2**-53, ...) sum to 1, so the first weight is 1.0 and the
    # draw checks nothing and draws no branch uniform; planted in the first
    # draws of trials 0 and 2
    name = "gleason.unit_lemma"
    probe = Cell(algebra, 3, SplitMix64(4).derive(name, algebra.value, 3), 4)
    planted = {}

    def plant_at(pos):
        count = 2 + int(probe.rng._outputs(pos, 1)[0]) % 6  # not rejected, with probability 1 - 2**-61
        planted.update({pos + 1 + c: 2.0**-53 if c else 1.0 for c in range(count)})
        _plant_uniforms(monkeypatch, probe.rng, planted)

    plant_at(0)
    assert REFERENCES[name](probe, 0)[0] == 0.0
    REFERENCES[name](probe, 1)
    plant_at(probe.rng._pos)
    checks = []
    checkable = suite._lemma_checkable
    monkeypatch.setattr(suite, "_lemma_checkable", lambda raw: checks.append(checkable(raw)) or checks[-1])
    rng = SplitMix64(4).derive(name, algebra.value, 3)
    ref = SplitMix64(4).derive(name, algebra.value, 3)
    _assert_the_block_is_the_reference(name, Cell(algebra, 3, rng, 4), Cell(algebra, 3, ref, 4))
    assert len(checks) == 40 and checks.count(0) == 2


@pytest.mark.parametrize("n", [1, 2, 3])
def test_a_nearly_hermitian_draw_ends_its_trial_before_any_basis_is_drawn(n, monkeypatch):
    # u1 = 1 gives both Gaussians of a Box-Muller pair the radius 0: trial 1's
    # matrix, after trial 0's matrix and twelve bases, is planted zero
    name = "trace.nonhermitian_basis_dependence_h"
    size = 4 * n * n
    rng = SplitMix64(6).derive(name, "H", n)
    _plant_uniforms(monkeypatch, rng, {13 * size + p: 1.0 for p in range(0, size, 2)})
    ref = Cell(Algebra.H, n, SplitMix64(6).derive(name, "H", n), 4)
    assert [len(REFERENCES[name](ref, t)) for t in range(4)] == [1, 0, 1, 1]
    ref = Cell(Algebra.H, n, SplitMix64(6).derive(name, "H", n), 4)
    _assert_the_block_is_the_reference(name, Cell(Algebra.H, n, rng, 4), ref)


@pytest.mark.parametrize("name", sorted(DEPENDENT))
def test_a_rejected_count_setting_integer_is_redrawn_where_the_draw_would(name, monkeypatch):
    # a rejection limit of about 2**63 rejects about half of all integer
    # outputs, among them those that set the ranks, block counts and cut
    # counts; every later position moves with them
    prop = RUNNERS[name]
    algebra = Algebra.from_letter(prop.algebras[-1])
    unpatched = SplitMix64(8).derive(name, algebra.value, 5)
    prop.runner.block(Cell(algebra, 5, unpatched, 4), np.arange(4))
    monkeypatch.setattr(rng_module, "_rejection_limit", lambda bound: (2**63 // bound) * bound)
    rng = SplitMix64(8).derive(name, algebra.value, 5)
    ref = SplitMix64(8).derive(name, algebra.value, 5)
    _assert_the_block_is_the_reference(name, Cell(algebra, 5, rng, 4), Cell(algebra, 5, ref, 4))
    # the nonhermitian runner draws no integer
    assert (rng._pos != unpatched._pos) == (name != "trace.nonhermitian_basis_dependence_h")


@pytest.mark.parametrize("name", sorted(REFERENCES))
def test_stacked_residual_is_the_worst_reference_term(name):
    prop = RUNNERS[name]
    letter = prop.algebras[-1]
    algebra = Algebra.from_letter(letter)
    rng = SplitMix64(7).derive(name, letter, 3)
    ref = Cell(algebra, 3, SplitMix64(7).derive(name, letter, 3), 5)
    want = suite._worst(term for t in range(5) for term in REFERENCES[name](ref, t))
    assert prop.runner(Cell(algebra, 3, rng, 5)) == want


_NAN, _INF = float("nan"), float("inf")


# per trial, its terms; trials 0 and 1 form the first chunk, 2 and 3 the second
@pytest.mark.parametrize("terms, want, drawn", [
    ([[], [], [], [], []], 0.0, 5),
    ([[-0.0], [-0.0, -0.0], [-0.0], [], [-0.0]], 0.0, 5),
    ([[-1.0], [-2.0, -0.5], [-3.0], [-0.0], [-1e300]], 0.0, 5),
    ([[0.25], [0.5], [0.125, 0.75], [0.0], [0.5]], 0.75, 5),
    ([[0.25], [0.5], [0.125], [0.0], [0.875, -1.0]], 0.875, 5),
    ([[1.0], [2.0], [3.0, _NAN], [9.0], [10.0]], _NAN, 4),
    ([[_NAN], [5.0], [], [], []], _NAN, 2),
    ([[5.0], [1.0, _NAN], [], [], []], _NAN, 2),
    ([[-0.0, 2.0], [_INF], [1.0], [-_INF], [3.0]], _INF, 5),
    ([[], [], [], [], [_NAN, -0.0]], _NAN, 5),
], ids=["none", "negative-zeros", "negative", "middle-chunk", "last-chunk", "nan-second-chunk",
        "nan-first-term", "nan-after-peak", "inf", "nan-last"])
def test_a_stacked_residual_reduces_its_chunks_as_worst_takes_the_terms(terms, want, drawn):
    seen = []

    def block(cell, ts):
        seen.extend(ts.tolist())
        return np.array([x for t in ts for x in terms[t]], dtype=np.float64)

    # four matrices of 2**19 entries hold two trials per chunk
    runner = suite._stacked(block, matrices=lambda n: 1 << 18)
    got = runner(Cell(Algebra.R, 1, SplitMix64(0), len(terms)))
    reference = suite._worst(x for row in terms for x in row)
    assert type(got) is float
    assert got.hex() == want.hex() == reference.hex()
    assert seen == list(range(drawn))


# every runner not named here runs its cell's trials as one stack
CELL_LEVEL = {
    "witness.basis_dependent_trace",
    "witness.cyclicity_failure",
    "witness.antisymmetric_absolute_sum",
    "gleason.dim2_obstruction",
    "quantum.continuity_trend",
}


def test_every_runner_is_stacked_or_cell_level():
    for prop in REGISTRY:
        assert hasattr(prop.runner, "block") != (prop.name in CELL_LEVEL), prop.name


# ---------------------------------------------------------------------------
# the draw plan against the draws one after another
# ---------------------------------------------------------------------------

def _count_of(item):
    """The count of a recipe item, a number or a function; None for the one
    integer of ("integer", bound)."""
    kind, size, *count = item
    return (count[0] if count else None) if kind == "integer" else size


def _one_after_another(rng, trials, recipe):
    """The draws of ``recipe_block(trials, recipe)`` made one call at a time:
    per item and trial its values, a count function reading the trial's
    earlier values."""
    out = [[] for _ in recipe]
    for _ in range(trials):
        prior = []
        for drawn, (kind, size, *_), count in zip(out, recipe, map(_count_of, recipe)):
            if count is None:
                value = rng.integer(size)
            else:
                count = count(prior) if callable(count) else count
                if kind == "gaussian":
                    value = rng.gaussian_block(count)
                elif kind == "uniform":
                    value = rng.uniform_block(count)
                else:
                    value = np.array([rng.integer(size) for _ in range(count)], dtype=np.uint64)
            drawn.append(value)
            prior.append(value)
    return out


def _assert_the_plan_is_sequential(seed, trials, recipe, before):
    rng, ref = SplitMix64(seed), SplitMix64(seed)
    # an odd count leaves a spare Gaussian held when the plan starts
    rng.gaussian_block(before)
    ref.gaussian_block(before)
    got = rng.recipe_block(trials, recipe)
    want = _one_after_another(ref, trials, recipe)
    for drawn, expected, count in zip(got, want, map(_count_of, recipe), strict=True):
        if callable(count):
            # a drawn count: each trial's values, zero-padded, and its count
            values, counts = drawn
            assert counts.tolist() == [len(x) for x in expected], (recipe, trials)
            assert values.shape == (trials, max(counts, default=0))
            for row, size, x in zip(values, counts, expected):
                assert row[:size].tobytes() == np.asarray(x, dtype=row.dtype).tobytes(), (recipe, trials)
                assert not row[size:].any()
            continue
        shape = (trials,) if count is None else (trials, count)
        assert drawn.shape == shape
        assert drawn.tobytes() == np.array(expected, dtype=drawn.dtype).reshape(shape).tobytes(), (recipe, trials)
    assert (rng._pos, rng._spare_gauss) == (ref._pos, ref._spare_gauss), (recipe, trials, before)


@pytest.mark.parametrize("before", [0, 1, 2], ids=["no-spare", "spare", "even"])
@pytest.mark.parametrize("trials", [0, 1, 4])
@pytest.mark.parametrize("recipe", [
    [("gaussian", 1), ("uniform", 2), ("gaussian", 3), ("integer", 1), ("gaussian", 0)],
    [("gaussian", 0), ("integer", 7), ("gaussian", 1), ("gaussian", 1), ("uniform", 0)],
    [("uniform", 3), ("integer", 2**64), ("gaussian", 5)],
    [("integer", 1)],
    [("integer", 5, 3), ("integer", 2**63 + 1), ("gaussian", 3)],
    [],
], ids=["odd", "zero-counts", "wide-bound", "bound-1", "integer-rows", "empty"])
def test_the_plan_serves_these_recipes_as_the_draws_one_after_another(recipe, trials, before):
    _assert_the_plan_is_sequential(20, trials, recipe, before)


@pytest.mark.parametrize("seed", range(4))
def test_the_plan_serves_random_recipes_as_the_draws_one_after_another(seed):
    pick = random.Random(seed)
    for _ in range(200):
        recipe = []
        for _ in range(pick.randint(0, 6)):
            kind = pick.choice(("gaussian", "uniform", "integer"))
            size = pick.choice((1, 2, 3, 7, 2**32 + 1, 2**64) if kind == "integer" else (0, 1, 2, 3, 5, 8))
            recipe.append((kind, size))
        _assert_the_plan_is_sequential(pick.randrange(2**64), pick.randint(0, 5), recipe, pick.randint(0, 3))


def _drawn_count(pick, items):
    """A count function of a trial's earlier values: a count read off an
    earlier integer, or a presence read off an earlier uniform or Gaussian."""
    earlier = [i for i, (kind, *_) in enumerate(items)]
    if not earlier or pick.random() < 0.2:
        return pick.choice((0, 1, 2, 3, 5))
    i, top = pick.choice(earlier), pick.choice((1, 2, 3, 5, 8))
    if items[i][0] == "integer" and len(items[i]) == 2:
        return lambda prior: int(prior[i]) % (top + 1)
    threshold = pick.choice((-0.5, 0.3, 0.5, 0.9))

    def present(prior):
        values = prior[i]
        return top if values.size and float(values[0]) % 1.0 > threshold else 0

    return present


@pytest.mark.parametrize("seed", range(4))
def test_the_plan_serves_random_dependent_recipes_as_the_draws_one_after_another(seed):
    # counts taken from integers, presences from uniforms and Gaussians; a
    # bound of 2**63 + 1 rejects about half of its outputs, each in the walk,
    # where the draw one after another rejects it
    pick = random.Random(100 + seed)
    for _ in range(200):
        recipe = []
        for _ in range(pick.randint(1, 6)):
            kind = pick.choice(("gaussian", "uniform", "integer", "integers"))
            if kind == "integer":
                recipe.append(("integer", pick.choice((1, 3, 7, 2**63 + 1, 2**64))))
            elif kind == "integers":
                recipe.append(("integer", pick.choice((1, 3, 2**63 + 1)), _drawn_count(pick, recipe)))
            else:
                recipe.append((kind, _drawn_count(pick, recipe)))
        _assert_the_plan_is_sequential(pick.randrange(2**64), pick.randint(0, 5), recipe, pick.randint(0, 2))


def test_a_rejected_integer_is_redrawn_in_its_place():
    # the rejection limit of 2**63 + 1 is 2**63 + 1 itself: about half of all
    # outputs lie above it, and each is followed by the next output, as the
    # draws one after another take it, so every later item moves with it
    bound, trials = 2**63 + 1, 12
    recipe = [("gaussian", 3), ("integer", bound), ("uniform", 2), ("integer", bound)]
    rng, ref = SplitMix64(21), SplitMix64(21)
    got = rng.recipe_block(trials, recipe)
    rejected = 0
    for t in range(trials):
        assert got[0][t].tobytes() == ref.gaussian_block(3).tobytes()
        for item in (1, 3):
            start = ref._pos
            assert int(got[item][t]) == ref.integer(bound)
            rejected += ref._pos - start - 1
            if item == 1:
                assert got[2][t].tobytes() == ref.uniform_block(2).tobytes()
    assert 4 <= rejected
    assert (rng._pos, rng._spare_gauss) == (ref._pos, ref._spare_gauss)


def _integer_message(bound) -> str:
    with pytest.raises(ValueError) as raised:
        SplitMix64(0).integer(bound)
    return str(raised.value)


@pytest.mark.parametrize("item, message", [
    (("poisson", 3), "unknown draw kind 'poisson', expected gaussian, uniform or integer"),
    (("gaussian", -1), "a gaussian count must be >= 0, got -1"),
    (("uniform", -2), "a uniform count must be >= 0, got -2"),
    (("integer", 0), _integer_message(0)),
    (("integer", -3), _integer_message(-3)),
    (("integer", 2**64 + 1), _integer_message(2**64 + 1)),
    (("uniform", lambda prior: -2), "a uniform count must be >= 0, got -2"),
    (("integer", 3, lambda prior: len(prior) - 3), "an integer count must be >= 0, got -1"),
])
def test_a_bad_recipe_raises_before_any_output_is_drawn(item, message):
    rng = SplitMix64(22)
    rng.gaussian_block(1)
    state = (rng._pos, rng._spare_gauss)
    with pytest.raises(ValueError) as raised:
        rng.recipe_block(3, [("uniform", 1), ("gaussian", 2), item])
    assert str(raised.value) == message
    assert (rng._pos, rng._spare_gauss) == state


# ---------------------------------------------------------------------------
# stacked kernels against per-matrix calls
# ---------------------------------------------------------------------------

def _stack(T, shape, algebra, seed):
    rng = SplitMix64(seed)
    return np.stack([random_matrix(*shape, algebra, rng).comps for _ in range(T)])


def _hermitian_stack(T, n, algebra, seed):
    rng = SplitMix64(seed)
    return np.stack([random_hermitian(n, algebra, rng).comps for _ in range(T)])


def _same(stacked, per_matrix) -> bool:
    return stacked.tobytes() == np.stack(per_matrix).tobytes()


@pytest.mark.parametrize("T", [1, 3, 10])
@pytest.mark.parametrize("algebra", ALGEBRAS)
@pytest.mark.parametrize("n, k, m", [(2, 2, 2), (3, 3, 3), (5, 4, 2), (17, 17, 17)])
def test_stacked_quat_matmul_is_the_per_matrix_product(T, algebra, n, k, m):
    A, B = _stack(T, (n, k), algebra, 1), _stack(T, (k, m), algebra, 2)
    count = algebra.component_count
    assert _same(kernels.quat_matmul(A, B, count), [kernels.quat_matmul(a, b, count) for a, b in zip(A, B)])
    # a shared factor, on either side, broadcasts over the stack
    assert _same(kernels.quat_matmul(A, B[0], count), [kernels.quat_matmul(a, B[0], count) for a in A])
    assert _same(kernels.quat_matmul(A[0], B, count), [kernels.quat_matmul(A[0], b, count) for b in B])


@pytest.mark.parametrize("T", [1, 3, 10])
@pytest.mark.parametrize("n", [1, 2, 3, 8, 17])
@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("vectors", [False, True], ids=["values", "vectors"])
def test_stacked_kernel_eigh_is_the_per_matrix_solve(T, n, complex_, vectors):
    c = _hermitian_stack(T, n, Algebra.C if complex_ else Algebra.R, 3)
    X = c[..., 0] + 1j * c[..., 1] if complex_ else np.ascontiguousarray(c[..., 0])
    w, V = kernels.eigh(X, vectors=vectors)
    per = [kernels.eigh(x, vectors=vectors) for x in X]
    assert _same(w, [p[0] for p in per])
    assert V is None if not vectors else _same(V, [p[1] for p in per])


@pytest.mark.parametrize("T", [1, 3, 10])
@pytest.mark.parametrize("algebra", ALGEBRAS)
@pytest.mark.parametrize("n", [1, 3, 8, 17])
@pytest.mark.parametrize("vectors", [False, True], ids=["values", "vectors"])
def test_stacked_solve_is_the_per_matrix_solve(T, algebra, n, vectors):
    c = _hermitian_stack(T, n, algebra, 4)
    w, V = spectral._solve(c, algebra, vectors)
    per = [spectral._solve(one, algebra, vectors) for one in c]
    assert _same(w, [p[0] for p in per])
    assert V is None if not vectors else _same(V, [p[1] for p in per])


def _spaced_spectra(T, n, algebra, seed):
    """T exactly Hermitian U diag(s) U*, each s descending from n with one gap
    ten times the grouping tolerance, 1e-7 max|s|, and, in the odd trials, one
    gap a tenth of it (a single gap, at n = 2, is the one or the other)."""
    rng = SplitMix64(seed)
    tol = 1e-7 * n
    out = []
    for t in range(T):
        gaps = np.ones(max(n - 1, 0))
        if n > 1:
            gaps[-1] = 10.0 * tol
            if t % 2:
                gaps[0] = 0.1 * tol
        spectrum = n - np.concatenate([[0.0], np.cumsum(gaps)])
        out.append(_hermitian_part(outer_sum(random_unitary(n, algebra, rng), spectrum).comps))
    return np.stack(out)


def _grouped(c, algebra) -> bool:
    """Whether some group of the atoms or, over H, of chi's pairs has more
    than one member (spectral._group_indices)."""
    values = eig_hermitian(Matrix(algebra, c)).values
    groups = spectral._group_indices(values, quantum._ATOM_REL_TOL * np.abs(values).max())
    if algebra is Algebra.H:
        w, _ = spectral._solve(c, algebra, vectors=False)
        groups += spectral._group_indices(0.5 * (w[0::2] + w[1::2]), spectral._GROUP_TOL * np.abs(w).max())
    return any(b - a > 1 for a, b in groups)


@pytest.mark.parametrize("T", [1, 4])
@pytest.mark.parametrize("algebra", ALGEBRAS)
@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 17])
def test_the_stacked_eigendecomposition_is_eig_hermitian_on_spaced_and_grouped_spectra(T, algebra, n):
    c = _spaced_spectra(T, n, algebra, 40 + n)
    assert [_grouped(one, algebra) for one in c] == [n > 1 and t % 2 == 1 for t in range(T)]
    values, basis = spectral._eig_stack(c, algebra)
    decs = [eig_hermitian(Matrix(algebra, one)) for one in c]
    assert _same(values, [dec.values for dec in decs])
    assert _same(basis, [dec.basis.comps for dec in decs])


@pytest.mark.parametrize("algebra", ALGEBRAS)
@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_the_stack_gives_every_basis_that_eig_hermitian_gives(algebra, n):
    # the spaced spectra, a doubled eigenvalue and the zero matrix; over H a
    # gap below the tolerance, the doubled eigenvalue and the zero matrix
    # group pairs, each lifted in the stack
    c = np.concatenate([_spaced_spectra(4, n, algebra, 50 + n), _degenerate(n, algebra, 60 + n)[None],
                        np.zeros((1, n, n, 4))])
    values, basis = spectral._eig_stack(c, algebra)
    decs = [eig_hermitian(Matrix(algebra, one)) for one in c]
    assert _same(values, [dec.values for dec in decs])
    assert _same(basis, [dec.basis.comps for dec in decs])


@pytest.mark.parametrize("T", [1, 3, 10])
@pytest.mark.parametrize("algebra", ALGEBRAS)
@pytest.mark.parametrize("n, m", [(1, 1), (3, 3), (5, 3), (8, 8), (17, 17)])
def test_stacked_orthonormalize_is_the_per_matrix_gram_schmidt(T, algebra, n, m):
    W = _stack(T, (n, m), algebra, 5)
    Q, residuals = _orthonormalize(W, 1e-10)
    per = [_orthonormalize(w, 1e-10) for w in W]
    assert _same(Q, [p[0] for p in per]) and _same(residuals, [p[1] for p in per])
    assert _same(_gram_schmidt(W), [gram_schmidt(Matrix(algebra, w)).comps for w in W])


@pytest.mark.parametrize("algebra", ALGEBRAS)
@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 17, 33])
def test_stacked_real_trace_sums_each_diagonal_as_alone(algebra, n):
    # a diagonal taken by fancy indexing comes back transposed, and numpy then
    # sums a stack column by column: from n = 8 on, the bits move
    c = _stack(10, (n, n), algebra, 6)
    assert trace._real_traces(c).tobytes() == np.array([real_trace(Matrix(algebra, one)) for one in c]).tobytes()


@pytest.mark.parametrize("algebra", ALGEBRAS)
def test_stacked_norms_and_traces_are_the_per_matrix_values(algebra):
    A, U = _stack(10, (5, 5), algebra, 7), random_unitaries(5, 10, algebra, SplitMix64(8))
    matrices = [Matrix(algebra, a) for a in A]
    assert _same(trace._trace_norms(A, algebra), [trace_norm(M) for M in matrices])
    assert _same(spectral._op_norms(A, algebra), [op_norm(M) for M in matrices])
    assert _same(trace._traces(A, U, algebra), [trace_n(M, Matrix(algebra, u)).to_array() for M, u in zip(matrices, U)])
    assert _same(trace._absolute_diagonal_sums(A, U, algebra),
                 [absolute_diagonal_sum(M, Matrix(algebra, u)) for M, u in zip(matrices, U)])


@pytest.mark.parametrize("algebra", ALGEBRAS)
def test_paired_real_pairings_are_the_per_pair_values(algebra):
    P, T = _stack(6, (4, 3), algebra, 23), _stack(6, (3, 4), algebra, 24)
    assert _same(trace._real_pairings(P, T),
                 [trace.real_pairing(Matrix(algebra, p), Matrix(algebra, t)) for p, t in zip(P, T)])


@pytest.mark.parametrize("algebra", ALGEBRAS)
def test_pvm_atoms_are_built_alone_and_certified_as_one_stack(algebra, monkeypatch):
    U = random_unitary(4, algebra, SplitMix64(25))
    A = Observable(outer_sum(U, [2.0, 1.0, 1.0, -0.5]))  # a doubled eigenvalue: atoms of ranks 1, 2, 1
    certified = []
    check = linalg._check_projectors
    monkeypatch.setattr(linalg, "_check_projectors", lambda comps, alg: certified.append(comps.shape) or check(comps, alg))
    atoms = pvm_of(A).atoms
    assert certified == [(3, 4, 4, 4)]
    dec = A.decomposition
    groups = spectral._group_indices(dec.values, quantum._ATOM_REL_TOL * np.abs(dec.values).max())
    assert [b - a for a, b in groups] == [1, 2, 1]
    for (_, P), (a, b) in zip(atoms, groups, strict=True):
        assert P.matrix.comps.tobytes() == outer_sum(Matrix(algebra, dec.basis.comps[:, a:b])).comps.tobytes()


@pytest.mark.parametrize("algebra", ALGEBRAS)
@pytest.mark.parametrize("n", [1, 3, 5])
def test_a_random_projector_is_the_outer_sum_of_unitary_columns(algebra, n):
    for rank in range(1, n + 1):
        rng, ref = SplitMix64(26 + rank), SplitMix64(26 + rank)
        P = random_projector(n, rank, algebra, rng)
        U = random_unitary(n, algebra, ref)
        assert P.matrix.comps.tobytes() == outer_sum(Matrix(algebra, U.comps[:, :rank])).comps.tobytes()
        assert (rng._pos, rng._spare_gauss) == (ref._pos, ref._spare_gauss)


@pytest.mark.parametrize("algebra", ALGEBRAS)
@pytest.mark.parametrize("seed", range(4))
def test_decomposition_parts_are_block_outer_sums_certified_as_one_stack(algebra, seed, monkeypatch):
    certified = []
    check = linalg._check_projectors
    monkeypatch.setattr(linalg, "_check_projectors", lambda comps, alg: certified.append(comps.shape) or check(comps, alg))
    parts = gleason.random_orthogonal_decomposition(5, algebra, SplitMix64(27 + seed))
    assert certified == [(len(parts), 5, 5, 4)]
    U = random_unitary(5, algebra, SplitMix64(27 + seed)).comps
    lo = 0
    for P in parts:
        hi = lo + P.rank
        assert P.matrix.comps.tobytes() == outer_sum(Matrix(algebra, U[:, lo:hi])).comps.tobytes()
        lo = hi
    assert lo == 5


@pytest.mark.parametrize("algebra", ALGEBRAS)
@pytest.mark.parametrize("n", [1, 3, 8])
def test_apply_function_certifies_no_projector_and_is_the_spectral_sum(algebra, n, monkeypatch):
    spectrum = [1.5, -0.25, 1.5, 3.0, 0.5, -2.0, 0.75, 2.25][:n]  # 1.5 doubled from n = 3 on
    A = Observable(outer_sum(random_unitary(n, algebra, SplitMix64(28)), spectrum))
    def f(s):
        return s * s * s - 2.0 * s

    certified = []
    check = linalg._check_projectors
    monkeypatch.setattr(linalg, "_check_projectors", lambda comps, alg: certified.append(comps.shape) or check(comps, alg))
    fA = quantum.apply_function(A, f).matrix
    assert certified == []
    atoms = pvm_of(A).atoms
    assert len(atoms) == len(set(spectrum))
    expect = sum((P.matrix * f(s) for s, P in atoms[1:]), atoms[0][1].matrix * f(atoms[0][0]))
    assert (fA - expect).max_abs() <= 1e-12


def test_random_unitary_is_the_one_draw_case_of_random_unitaries():
    for algebra in ALGEBRAS:
        rng, ref = SplitMix64(9), SplitMix64(9)
        stack = random_unitaries(3, 4, algebra, rng)
        assert _same(stack, [random_unitary(3, algebra, ref).comps for _ in range(4)])
        assert (rng._pos, rng._spare_gauss) == (ref._pos, ref._spare_gauss)


# ---------------------------------------------------------------------------
# guards over a stack: the one-matrix error and message, for the lowest failing matrix
# ---------------------------------------------------------------------------

def _message(call, error) -> str:
    with pytest.raises(error) as raised:
        call()
    return str(raised.value)


@pytest.mark.parametrize("algebra", ALGEBRAS)
def test_a_non_finite_entry_names_the_lowest_failing_matrix(algebra):
    c = _hermitian_stack(5, 3, algebra, 10)
    c[3, 1, 2, 0] = np.nan
    c[4, 0, 0, 0] = np.inf
    alone = _message(lambda: eigvals_hermitian(Matrix(algebra, c[3])), NotHermitian)
    assert _message(lambda: spectral._eigvals(c, algebra), NotHermitian) == f"{alone} (stack entry 3)"
    assert _message(lambda: spectral._gram(c, algebra), NotHermitian) == f"{alone} (stack entry 3)"


@pytest.mark.parametrize("algebra", ALGEBRAS)
def test_a_non_hermitian_gram_names_the_lowest_failing_matrix(algebra):
    A = _stack(4, (3, 3), algebra, 11)
    gram = spectral._gram(A, algebra)
    gram[2, 0, 1, 0] += 1.0
    alone = _message(lambda: eigvals_hermitian(Matrix(algebra, gram[2])), NotHermitian)
    assert alone.startswith("|A - A*| / max(1, max|A_rc|) = ")
    assert _message(lambda: spectral._eigvals(gram, algebra), NotHermitian) == f"{alone} (stack entry 2)"


@pytest.mark.parametrize("algebra", ALGEBRAS)
def test_dependent_gram_schmidt_columns_name_the_lowest_failing_matrix(algebra):
    W = _stack(4, (3, 3), algebra, 12)
    W[1, :, 2] = 2.0 * W[1, :, 0]
    W[3, :, 1] = W[3, :, 0]
    alone = _message(lambda: gram_schmidt(Matrix(algebra, W[1])), DegenerateInput)
    assert alone.startswith("vector numerically dependent")
    assert _message(lambda: _gram_schmidt(W), DegenerateInput) == f"{alone} (stack entry 1)"


@pytest.mark.parametrize("algebra", ALGEBRAS)
def test_a_non_unitary_factor_names_the_lowest_failing_matrix(algebra):
    U = random_unitaries(3, 4, algebra, SplitMix64(13))
    U[2] *= 1.5
    alone = _message(lambda: SymmetryOp(Matrix(algebra, U[2])), NotUnitary)
    assert alone.startswith("U*U - I has magnitude")
    assert _message(lambda: quantum._check_unitaries(U, algebra), NotUnitary) == f"{alone} (stack entry 2)"


@pytest.mark.parametrize("algebra", ALGEBRAS)
def test_the_observable_guards_name_the_lowest_failing_trial(algebra):
    A = _hermitian_stack(4, 3, algebra, 17)
    A[2, 0, 1, 0] += 1e-3
    A[3, 1, 0, 0] += 1e-2
    alone = _message(lambda: Observable(Matrix(algebra, A[2])), NotHermitian)
    assert alone.startswith("observable must be Hermitian, defect")
    assert _message(lambda: quantum._check_observables(A, algebra), NotHermitian) == f"{alone} (stack entry 2)"
    # an outcome distribution that escapes [0, 1] in trials 1 and 3
    probs = np.array([[0.5, 0.5], [1.2, -0.2], [0.25, 0.75], [-0.1, 1.1]])
    alone = _message(lambda: quantum.OutcomeMeasure(((0.0, 1.2), (1.0, -0.2))), ValueError)
    assert _message(lambda: quantum._check_probabilities(probs), ValueError) == f"{alone} (stack entry 1)"
    # Re tr(A^2 T) - Re tr(A T)^2 < 0 needs a T that is no state: -I / 3 in trials 1 and 2
    T = _state_stack(algebra, count=4)
    T[1:3] = -Matrix.identity(3, algebra).comps / 3.0
    alone = _message(lambda: quantum._std_deviations(A[1], T[1], algebra), ValueError)
    assert alone.startswith("variance radicand")
    assert _message(lambda: quantum._std_deviations(A, T, algebra), ValueError) == f"{alone} (stack entry 1)"


def _state_stack(algebra, count=5, n=3):
    rng = SplitMix64(26)
    return np.stack([random_density(n, algebra, rng).matrix.comps for _ in range(count)])


def _broken_state(kind, comps):
    broken = comps.copy()
    if kind == "non-positive":
        broken[:] = 0.0
        broken[[0, 1], [0, 1], 0] = (1.5, -0.5)
    elif kind == "wrong-trace":
        broken *= 0.9
    elif kind == "non-hermitian":
        broken[0, 1, 0] += 0.1
    else:
        broken[1, 1, 0] = np.nan
    return broken


@pytest.mark.parametrize("kind", ["non-positive", "wrong-trace", "non-hermitian", "non-finite"])
@pytest.mark.parametrize("algebra", ALGEBRAS)
def test_the_stacked_state_certificate_names_the_lowest_failing_trial(algebra, kind):
    stack = _state_stack(algebra)
    for t in (1, 3):
        stack[t] = _broken_state(kind, stack[t])
    error = {"non-positive": NotPositive, "wrong-trace": ValueError}.get(kind, NotHermitian)
    alone = _message(lambda: DensityOperator(Matrix(algebra, stack[1])), error)
    assert _message(lambda: gleason._state_spectra(stack, algebra), error) == f"{alone} (stack entry 1)"
    assert _same(gleason._state_spectra(stack[[0, 2, 4]], algebra),
                 [DensityOperator(Matrix(algebra, c)).eigenvalues for c in stack[[0, 2, 4]]])


@pytest.mark.parametrize("algebra", ALGEBRAS)
def test_the_stacked_state_builders_name_the_lowest_failing_trial(algebra):
    states = _state_stack(algebra, count=4)
    weights = np.array([[0.3, 0.5, 0.2, 0.9], [0.7, 0.6, 0.8, -0.1]])  # trials 1 and 3 fail
    alone = _message(lambda: convex_mix([DensityOperator(Matrix(algebra, c)) for c in states[:2]],
                                        list(weights[:, 1])), InvalidWeights)
    assert _message(lambda: gleason._convex_mixes([states, states[::-1]], weights), InvalidWeights) == (
        f"{alone} (stack entry 1)")
    psi = np.stack([random_unit_vector(3, algebra, SplitMix64(t)).comps for t in range(4)])
    psi[2] = 0.0
    alone = _message(lambda: pure_state(Matrix(algebra, psi[2])), DegenerateInput)
    assert _message(lambda: gleason._pure_states(psi, algebra.component_count), DegenerateInput) == (
        f"{alone} (stack entry 2)")


def _broken_projector(kind, comps):
    broken = comps.copy()
    if kind == "non-idempotent":
        broken *= 0.9
    elif kind == "non-hermitian":
        broken[0, 1, 0] += 1e-3
    else:
        broken[2, 0, 0] = np.inf
    return broken


@pytest.mark.parametrize("kind", ["non-idempotent", "non-hermitian", "non-finite"])
@pytest.mark.parametrize("algebra", ALGEBRAS)
def test_the_stacked_projector_certificate_names_the_lowest_failing_trial(algebra, kind):
    rng = SplitMix64(27)
    stack = np.stack([random_projector(3, 1 + t % 3, algebra, rng).matrix.comps for t in range(5)])
    for t in (2, 4):
        stack[t] = _broken_projector(kind, stack[t])
    alone = _message(lambda: Projector(Matrix(algebra, stack[2])), ValueError)
    assert alone.startswith("projector matrix has" if kind == "non-finite" else "not a projector")
    assert _message(lambda: _check_projectors(stack, algebra), ValueError) == f"{alone} (stack entry 2)"
    assert _message(lambda: Projector.of_stack(algebra, stack), ValueError) == f"{alone} (stack entry 2)"
    kept = Projector.of_stack(algebra, stack[[0, 1, 3]])
    assert [P.matrix.comps.tobytes() for P in kept] == [c.tobytes() for c in stack[[0, 1, 3]]]


@pytest.mark.parametrize("algebra", ALGEBRAS)
def test_a_degenerate_draw_is_redrawn_after_the_block(algebra):
    rng = SplitMix64(14)
    G = np.stack([random_matrix(3, 3, algebra, rng).comps for _ in range(3)])
    G[1] = 0.0  # Gram-Schmidt rejects a zero draw
    ref = SplitMix64(14)
    for _ in range(3):
        random_matrix(3, 3, algebra, ref)
    redraw = gram_schmidt(random_matrix(3, 3, algebra, ref)).comps
    Q = _unitaries(G, algebra, rng)
    assert Q[1].tobytes() == redraw.tobytes()
    assert _same(Q[[0, 2]], [gram_schmidt(Matrix(algebra, G[t])).comps for t in (0, 2)])
    assert (rng._pos, rng._spare_gauss) == (ref._pos, ref._spare_gauss)


class _ZeroStream:
    """A stream whose Gaussians are all zero, so that every draw is degenerate."""

    def __init__(self):
        self.blocks = 0

    def gaussian_block(self, count):
        self.blocks += 1
        return np.zeros(count)


@pytest.mark.parametrize("count", [None, 1, 3])
def test_a_draw_degenerate_four_times_raises(count):
    stream = _ZeroStream()
    with pytest.raises(DegenerateInput, match="could not draw an invertible Gaussian matrix"):
        if count is None:
            random_unitary(3, Algebra.C, stream)
        else:
            random_unitaries(3, count, Algebra.C, stream)
    # the block, then three redraws of the first degenerate draw
    assert stream.blocks == 4


# ---------------------------------------------------------------------------
# the trial axis runs in chunks within the orbit chunk budget
# ---------------------------------------------------------------------------

def _spy_on_products(monkeypatch) -> list[int]:
    """Entry counts of the operands of every quat_matmul call that are stacks
    of more than one matrix: the stacks of a chunk of trials, a trial's atoms
    and a chunk of their pair products."""
    sizes = []
    product = kernels.quat_matmul

    def spy(A, B, component_count=4):
        sizes.extend(X.size for X in (A, B) if X.size > 4 * X.shape[-3] * X.shape[-2])
        return product(A, B, component_count)

    monkeypatch.setattr(kernels, "quat_matmul", spy)
    return sizes


def test_no_stack_passes_the_chunk_budget_at_a_large_trial_count(monkeypatch):
    # 120 trials of 68 x 68 realified matrices: two chunks, of 113 and 7 trials
    sizes = _spy_on_products(monkeypatch)
    prop = RUNNERS["trace.realification_quarter"]
    rng, ref = SplitMix64(15), SplitMix64(15)
    chunked = prop.runner(Cell(Algebra.H, 17, rng, 120))
    assert sizes and max(sizes) <= suite._STACK_CHUNK_ENTRIES
    assert max(sizes) > suite._STACK_CHUNK_ENTRIES // 2
    whole = suite._worst(prop.runner.block(Cell(Algebra.H, 17, ref, 120), np.arange(120)).ravel())
    assert chunked == whole and rng._pos == ref._pos


@pytest.mark.parametrize("name", sorted(REFERENCES))
def test_chunked_trials_give_the_bits_of_one_stack(name, monkeypatch):
    prop = RUNNERS[name]
    letter = prop.algebras[-1]
    algebra = Algebra.from_letter(letter)
    rng, ref = SplitMix64(16).derive(name), SplitMix64(16).derive(name)
    whole = prop.runner.block(Cell(algebra, 3, ref, 7), np.arange(7))
    # chunks of two 3 x 3 trials, or one realified trial: a budget of 100
    # entries, of 250 where a trial holds up to three atoms or parts (108
    # entries), of 450 where it holds its twelve bases (432 entries), and of
    # 7200 where it holds 100 line projectors (3600 entries)
    budget = 250 if name in ("quantum.pvm_partition", "quantum.expectation_duality",
                             "quantum.pure_state_reduction", "gleason.sigma_additivity") else 100
    budget = 450 if name == "trace.nonhermitian_basis_dependence_h" else budget
    budget = 7200 if name == "gleason.round_trip" else budget
    monkeypatch.setattr(suite, "_STACK_CHUNK_ENTRIES", budget)
    sizes = _spy_on_products(monkeypatch)
    chunked = prop.runner(Cell(algebra, 3, rng, 7))
    assert all(size <= budget for size in sizes)
    assert chunked == suite._worst(whole.ravel()) and rng._pos == ref._pos
