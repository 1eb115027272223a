"""Exception types shared across the package, and the one rule by which a
guard over a stack of matrices names the matrix that fails it (:func:`require`)."""

from __future__ import annotations

from collections.abc import Callable

import numpy as np


class GleasonLabError(Exception):
    """Base class for all errors raised by gleason_lab."""


class AlgebraMismatch(GleasonLabError):
    """Operands carry different scalar algebras, or an operation needs a specific one."""


class DegenerateInput(GleasonLabError):
    """Input vectors are numerically rank deficient."""


class NotHermitian(GleasonLabError):
    """Operator expected to equal its adjoint does not, beyond tolerance."""


class NotPositive(GleasonLabError):
    """Operator expected to be positive has an eigenvalue below -tolerance."""


class NotUnitary(GleasonLabError):
    """Operator expected to be unitary fails U*U = I beyond tolerance."""


class NotAFrameFunction(GleasonLabError):
    """Unit-vector oracle violates a frame-function requirement (phase invariance,
    basis normalization, or agreement with its quadratic form)."""


class InvalidWeights(GleasonLabError):
    """Convex weights are negative or do not sum to one."""


class ConvergenceFailure(GleasonLabError):
    """An iterative routine failed to reach its target residual."""


def require(ok: np.ndarray, error: type[Exception], message: str | Callable[[tuple], str]) -> None:
    """Raise ``error`` for the first matrix whose flag in ``ok`` is False, if any.

    ``ok`` holds one flag per matrix: a 0-d array for one matrix, one axis or
    more for a stack.  ``message`` is the one-matrix message, or a function of
    the failing index that gives it.  Over a stack the lowest failing index,
    in row-major order, fails, and the message ends by naming it; one matrix
    gets the message alone.
    """
    # bool() of a 0-d array is one flag, with no reduction to run
    if ok.all() if ok.ndim else ok:
        return
    failed = ~ok
    index = tuple(int(i) for i in np.unravel_index(int(np.argmax(failed)), failed.shape))
    text = message(index) if callable(message) else message
    if failed.ndim:
        text += f" (stack entry {index[0] if failed.ndim == 1 else index})"
    raise error(text)
