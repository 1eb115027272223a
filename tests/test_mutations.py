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

from gleason_lab import kernels, linalg
from gleason_lab.linalg import Matrix, _mul_comps
from gleason_lab.scalars import as_quaternion
from gleason_lab.suite import RunConfig, run_suite

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

    monkeypatch.setattr(Matrix, "scale_right", scale_left)


def _hamilton_sign_flipped(monkeypatch):
    table = kernels.HAMILTON.copy()
    table[1, 2] *= -1.0  # i j = -k
    _patch_every_binding(monkeypatch, kernels.HAMILTON, table)


def _adjoint_without_transpose(monkeypatch):
    _patch_every_binding(monkeypatch, linalg._adjoint_comps, lambda comps: comps * linalg._CONJ)


def _conjugate_keeping_i(monkeypatch):
    signs = np.array([1.0, 1.0, -1.0, -1.0])
    monkeypatch.setattr(linalg, "_conj_comps", lambda comps: comps * signs)


MUTANTS = {
    "scale_right_on_the_left": _scale_right_on_the_left,
    "hamilton_sign_flipped": _hamilton_sign_flipped,
    "adjoint_without_transpose": _adjoint_without_transpose,
    "conjugate_keeping_i_in_linalg": _conjugate_keeping_i,
}


def test_the_unmutated_suite_fails_no_record():
    assert _failed(run_suite(CONFIG)) == []


@pytest.mark.parametrize("mutate", MUTANTS.values(), ids=MUTANTS.keys())
def test_the_mutant_fails_a_record(mutate, monkeypatch):
    mutate(monkeypatch)
    assert _failed(run_suite(CONFIG)) != []
