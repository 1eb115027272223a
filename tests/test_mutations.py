"""Every mutant of a core kernel makes some property of the suite fail.

A mutant is a ``monkeypatch`` of one named kernel, applied in-process to every
module of the package that binds the name (or, where stated, to one module).
The kill rule: ``run_suite`` over R, C and H at dimension 3 with 2 trials must
report at least one failed record, and a raised error counts as a kill.  The
unmutated run fails none, so each kill is the mutant's doing.
"""

import sys

import numpy as np
import pytest

from gleason_lab import gleason, kernels, linalg, spectral, trace
from gleason_lab.linalg import Matrix, _mul_comps
from gleason_lab.scalars import as_quaternion
from gleason_lab.suite import REGISTRY, RunConfig, run_suite

CONFIG = RunConfig(algebras=("R", "C", "H"), dims=(3,), trials=2)


def _failed(report) -> list[str]:
    return [f"{r.name}[{r.algebra}]" for r in report.records if r.passed is False]


def _patch_every_binding(monkeypatch, original, replacement) -> None:
    """Replace ``original`` wherever a module of the package binds it."""
    bound = 0
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "gleason_lab" or name.startswith("gleason_lab.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, replacement)
                bound += 1
    assert bound, "the mutated name is bound nowhere"


def _scale_right_on_the_left(monkeypatch):
    def scale_left(self, q):  # q x in place of x q
        return Matrix(self.algebra, _mul_comps(as_quaternion(q).to_array(), self.comps))

    def reject_left(u, w):  # w - <u|w> u, the stacked sweep's twin of scale_left
        return w - _mul_comps(_mul_comps(linalg._conj_comps(u[:, :, 0]), w[:, :, 0]).sum(axis=1)[:, None, None, :], u)

    monkeypatch.setattr(Matrix, "scale_right", scale_left)
    _patch_every_binding(monkeypatch, spectral._reject, reject_left)


def _hamilton_sign_flipped(monkeypatch):
    table = kernels.HAMILTON.copy()
    table[1, 2] *= -1.0  # i j = -k
    _patch_every_binding(monkeypatch, kernels.HAMILTON, table)


def _adjoint_without_transpose(monkeypatch):
    _patch_every_binding(monkeypatch, linalg._adjoint_comps, lambda comps: comps * linalg._CONJ)


def _conjugate_keeping_i(monkeypatch):
    signs = np.array([1.0, 1.0, -1.0, -1.0])
    monkeypatch.setattr(linalg, "_conj_comps", lambda comps: comps * signs)


def _line_projectors_with_the_j_part_negated(monkeypatch):
    build = linalg._line_projectors

    def negated(U):  # (z1_r z2_c - z2_r z1_c) j: still Hermitian, so the certificate passes it
        stack = build(U)
        stack[..., 2:] *= -1.0
        return stack

    _patch_every_binding(monkeypatch, build, negated)


def _polarization_weight_doubled(monkeypatch):
    monkeypatch.setattr(gleason, "_POLAR_WEIGHT", 2.0 * gleason._POLAR_WEIGHT)


def _real_trace_reading_component_1(monkeypatch):
    def imaginary_trace(c):  # the i-part of the diagonal in place of the real part
        return np.diagonal(c[..., 1], axis1=-2, axis2=-1).sum(axis=-1)

    _patch_every_binding(monkeypatch, trace._real_traces, imaginary_trace)


def _orthonormalize_skipping_renormalization(monkeypatch):
    build = linalg._orthonormalize

    def unnormalized(W, tol, limit=None):  # each kept column comes back at its residual norm
        Q, residuals = build(W, tol, limit)
        kept = residuals > np.asarray(tol)[..., None]
        columns = kept.reshape(-1, kept.shape[-1]).any(axis=0)
        return Q * np.where(kept, residuals, 1.0)[..., columns][..., None, :, None], residuals

    _patch_every_binding(monkeypatch, build, unnormalized)


def _complex_product_reading_component_0(monkeypatch):
    product = kernels.quat_matmul

    def real_parts_only(A, B, component_count=4):  # the C branch multiplies the real parts alone
        return product(A, B, 1 if component_count == 2 else component_count)

    _patch_every_binding(monkeypatch, product, real_parts_only)


def _blocks_one_column_short(monkeypatch):
    build = linalg._block_projectors

    def short(U, blocks, algebra):  # a one-column block becomes the zero projector, which certifies
        return build(U, [(lo, hi - 1) for lo, hi in blocks], algebra)

    _patch_every_binding(monkeypatch, build, short)


def _grouping_tolerance_scaled_by_1e6(monkeypatch):
    group = spectral._group_indices
    _patch_every_binding(monkeypatch, group, lambda values, tol: group(values, tol * 1e6))


def _lemma_hypothesis_without_q(monkeypatch):
    lemma = gleason._convex_unit_lemmas

    def sum_p_only(p, q):  # the hypothesis reads sum(p) = 1 in place of sum(p q) = 1
        lemma(p, q)  # the input checks
        hypothesis = (np.abs(p.sum(axis=-1) - 1.0) <= 1e-12) & (np.abs(p.sum(axis=-1) - 1.0) <= 1e-12)
        return ~hypothesis | (np.abs(q - 1.0).max(axis=-1) <= 1e-9)

    _patch_every_binding(monkeypatch, lemma, sum_p_only)


def _witness_at_the_smallest_eigenvalue(monkeypatch):
    def smallest(diff, algebra):  # the eigenvector of the smallest |eigenvalue| of P - Q
        decs = [spectral.eig_hermitian(Matrix(algebra, d)) for d in diff]
        at = [int(np.argmin(np.abs(dec.values))) for dec in decs]
        found = np.array([abs(dec.values[a]) > 1e-8 for dec, a in zip(decs, at)])
        psi = [dec.basis.comps[:, [a]] for dec, a, f in zip(decs, at, found) if f]
        return found, np.array(psi).reshape(-1, diff.shape[-3], 1, 4)

    _patch_every_binding(monkeypatch, gleason._witnesses, smallest)


def _adapted_bases_for_the_negated_unit(monkeypatch):
    build = spectral._adapted_bases
    _patch_every_binding(monkeypatch, build, lambda J, units: build(J, -units))


def _reconstruction_with_an_empty_lower_triangle(monkeypatch):
    def upper_only(diag, entries, k, l):  # the entries are never mirrored below the diagonal
        n = diag.shape[-1]
        comps = np.zeros(diag.shape + (n, 4))
        comps[..., np.arange(n), np.arange(n), 0] = diag
        comps[..., k, l, :] = entries
        return comps

    _patch_every_binding(monkeypatch, gleason._hermitian_fill, upper_only)


MUTANTS = {
    "scale_right_on_the_left": _scale_right_on_the_left,
    "hamilton_sign_flipped": _hamilton_sign_flipped,
    "adjoint_without_transpose": _adjoint_without_transpose,
    "conjugate_keeping_i_in_linalg": _conjugate_keeping_i,
    "line_projectors_j_part_negated": _line_projectors_with_the_j_part_negated,
    "polarization_weight_doubled": _polarization_weight_doubled,
    "real_trace_reading_component_1": _real_trace_reading_component_1,
    "orthonormalize_skipping_renormalization": _orthonormalize_skipping_renormalization,
    "complex_product_reading_component_0": _complex_product_reading_component_0,
    "grouping_tolerance_scaled_by_1e6": _grouping_tolerance_scaled_by_1e6,
    "blocks_one_column_short": _blocks_one_column_short,
    "lemma_hypothesis_without_q": _lemma_hypothesis_without_q,
    "witness_at_the_smallest_eigenvalue": _witness_at_the_smallest_eigenvalue,
    "adapted_bases_for_the_negated_unit": _adapted_bases_for_the_negated_unit,
    "reconstruction_with_an_empty_lower_triangle": _reconstruction_with_an_empty_lower_triangle,
}


def test_the_unmutated_suite_fails_no_record():
    assert _failed(run_suite(CONFIG)) == []


@pytest.mark.parametrize("mutate", MUTANTS.values(), ids=MUTANTS.keys())
def test_the_mutant_fails_a_record(mutate, monkeypatch):
    mutate(monkeypatch)
    assert _failed(run_suite(CONFIG)) != []


def test_the_stacked_pvm_atoms_reach_the_block_mutant(monkeypatch):
    # pvm_partition builds the atoms of its simple spectra as one stack of blocks
    _blocks_one_column_short(monkeypatch)
    report = run_suite(RunConfig(algebras=("R", "C", "H"), dims=(3,), trials=2, only="quantum.pvm_partition"))
    assert sorted(_failed(report)) == ["quantum.pvm_partition[C]", "quantum.pvm_partition[H]", "quantum.pvm_partition[R]"]


@pytest.mark.parametrize("mutant, claim", [
    ("blocks_one_column_short", "gleason.sigma_additivity"),
    ("lemma_hypothesis_without_q", "gleason.unit_lemma"),
    ("witness_at_the_smallest_eigenvalue", "gleason.separation"),
    ("adapted_bases_for_the_negated_unit", "trace.adapted_basis_formula"),
    ("reconstruction_with_an_empty_lower_triangle", "gleason.round_trip"),
])
def test_the_stacked_runner_reaches_the_mutant_in_every_algebra(mutant, claim, monkeypatch):
    MUTANTS[mutant](monkeypatch)
    report = run_suite(RunConfig(algebras=("R", "C", "H"), dims=(3,), trials=2, only=claim))
    (prop,) = [p for p in REGISTRY if p.name == claim]
    assert sorted(_failed(report)) == [f"{claim}[{letter}]" for letter in sorted(prop.algebras)]
