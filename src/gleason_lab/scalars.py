"""Scalar arithmetic over the three division algebras R, C and H.

Every structure in the package is generic over an :class:`Algebra` tag.  The
quaternions carry the full arithmetic; reals and complexes are the subalgebras
with vanishing (b, c, d) resp. (c, d) components, so a single implementation
serves all three cases.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import ClassVar

import numpy as np


class Algebra(enum.Enum):
    """Scalar field tag: real, complex or quaternionic."""

    R = "R"
    C = "C"
    H = "H"

    def __init__(self, letter: str):
        # a plain attribute, not a property: every matrix product reads it
        self.component_count = {"R": 1, "C": 2, "H": 4}[letter]

    @property
    def is_real(self) -> bool:
        return self is Algebra.R

    @property
    def imaginary_units(self) -> tuple["Quaternion", ...]:
        """The imaginary units available in this algebra."""
        units = (Quaternion.I, Quaternion.J, Quaternion.K)
        return units[: self.component_count - 1]

    @classmethod
    def from_letter(cls, letter: str) -> "Algebra":
        try:
            return cls(letter.upper())
        except ValueError:
            raise ValueError(f"unknown algebra {letter!r}, expected R, C or H") from None


@dataclass(frozen=True)
class Quaternion:
    """a + b*i + c*j + d*k with float64 components.

    Products follow the Hamilton rules i*i = j*j = k*k = -1, i*j = k and cyclic
    permutations.  Conjugation flips the sign of (b, c, d).
    """

    a: float = 0.0
    b: float = 0.0
    c: float = 0.0
    d: float = 0.0

    ZERO: ClassVar["Quaternion"]
    ONE: ClassVar["Quaternion"]
    I: ClassVar["Quaternion"]
    J: ClassVar["Quaternion"]
    K: ClassVar["Quaternion"]

    def __mul__(self, other) -> "Quaternion":
        q = as_quaternion(other)
        p = self
        return Quaternion(
            p.a * q.a - p.b * q.b - p.c * q.c - p.d * q.d,
            p.a * q.b + p.b * q.a + p.c * q.d - p.d * q.c,
            p.a * q.c - p.b * q.d + p.c * q.a + p.d * q.b,
            p.a * q.d + p.b * q.c - p.c * q.b + p.d * q.a,
        )

    def __rmul__(self, other) -> "Quaternion":
        return as_quaternion(other) * self

    def __add__(self, other) -> "Quaternion":
        q = as_quaternion(other)
        return Quaternion(self.a + q.a, self.b + q.b, self.c + q.c, self.d + q.d)

    __radd__ = __add__

    def __sub__(self, other) -> "Quaternion":
        q = as_quaternion(other)
        return Quaternion(self.a - q.a, self.b - q.b, self.c - q.c, self.d - q.d)

    def __rsub__(self, other) -> "Quaternion":
        return as_quaternion(other) - self

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.a, -self.b, -self.c, -self.d)

    def __abs__(self) -> float:
        return float(np.sqrt(self.a * self.a + self.b * self.b + self.c * self.c + self.d * self.d))

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.a, -self.b, -self.c, -self.d)

    @property
    def real(self) -> float:
        return self.a

    def inverse(self) -> "Quaternion":
        n2 = self.a * self.a + self.b * self.b + self.c * self.c + self.d * self.d
        if n2 == 0.0:
            raise ZeroDivisionError("zero quaternion has no inverse")
        return Quaternion(self.a / n2, -self.b / n2, -self.c / n2, -self.d / n2)

    def to_array(self) -> np.ndarray:
        return np.array([self.a, self.b, self.c, self.d])

    @classmethod
    def from_array(cls, comps) -> "Quaternion":
        # one tolist() reads an ndarray's four floats at once
        a, b, c, d = map(float, comps.tolist() if isinstance(comps, np.ndarray) else comps)
        return cls(a, b, c, d)

    def __repr__(self) -> str:
        return f"Quaternion({self.a:g}, {self.b:g}, {self.c:g}, {self.d:g})"

    def __str__(self) -> str:
        parts = []
        for value, unit in zip((self.a, self.b, self.c, self.d), ("", "i", "j", "k")):
            # NaN fails the test, so a NaN component prints as nan, not as 0
            if not abs(value) <= 1e-14:
                text = f"{value:+g}"
                if unit and abs(abs(value) - 1.0) < 1e-14:
                    text = text[0] + unit
                else:
                    text += unit
                parts.append(text)
        if not parts:
            return "0"
        joined = " ".join(parts)
        return joined[1:] if joined.startswith("+") else joined


Quaternion.ZERO = Quaternion()
Quaternion.ONE = Quaternion(1.0)
Quaternion.I = Quaternion(0.0, 1.0)
Quaternion.J = Quaternion(0.0, 0.0, 1.0)
Quaternion.K = Quaternion(0.0, 0.0, 0.0, 1.0)


def as_quaternion(value) -> Quaternion:
    """Coerce a real, complex or Quaternion value into a Quaternion."""
    if isinstance(value, Quaternion):
        return value
    if isinstance(value, complex):
        return Quaternion(value.real, value.imag)
    if isinstance(value, (int, float, np.floating, np.integer)):
        return Quaternion(float(value))
    raise TypeError(f"cannot interpret {type(value).__name__} as a scalar")

