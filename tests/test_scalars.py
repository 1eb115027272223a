import math

import pytest

from gleason_lab.rng import SplitMix64
from gleason_lab.scalars import Algebra, Quaternion, as_quaternion

from conftest import quaternions_close

ONE, I, J, K = Quaternion.ONE, Quaternion.I, Quaternion.J, Quaternion.K


def _random_quaternion(rng):
    return Quaternion(*rng.gaussian_block(4))


def test_hamilton_table():
    assert quaternions_close(I * I, -ONE)
    assert quaternions_close(J * J, -ONE)
    assert quaternions_close(K * K, -ONE)
    assert quaternions_close(I * J, K)
    assert quaternions_close(J * K, I)
    assert quaternions_close(K * I, J)
    assert quaternions_close(J * I, -K)


def test_identity_and_distributivity_example():
    q = Quaternion(0.3, -1.2, 0.7, 2.0)
    assert quaternions_close(q * ONE, q)
    # (1+i)(1+j) = 1 + i + j + k
    assert quaternions_close((ONE + I) * (ONE + J), Quaternion(1, 1, 1, 1))


def test_conjugation():
    assert quaternions_close(I.conjugate(), -I)
    assert quaternions_close(as_quaternion(2.0).conjugate(), as_quaternion(2.0))
    assert quaternions_close(Quaternion(1, 1, 1, 1).conjugate(), Quaternion(1, -1, -1, -1))
    q = Quaternion(0.5, 1.5, -2.0, 3.0)
    assert quaternions_close(q.conjugate().conjugate(), q)


def test_real_part():
    assert as_quaternion(3 + 0j).real == 3.0
    assert Quaternion(3, 0, 4, 0).real == 3.0
    assert I.real == 0.0


def test_norm_values():
    assert abs(Quaternion(1, 1, 1, 1)) == 2.0
    assert abs(Quaternion.ZERO) == 0.0
    assert math.isclose(abs(Quaternion(3, 4, 0, 0)), 5.0)


def test_algebraic_laws_on_random_samples():
    rng = SplitMix64(101)
    for _ in range(10_000):
        p, q, r = (_random_quaternion(rng) for _ in range(3))
        # conj is an anti-automorphism
        assert quaternions_close((p * q).conjugate(), q.conjugate() * p.conjugate(), tol=1e-12)
        # |pq| = |p||q| and Re(pq) = Re(qp)
        assert math.isclose(abs(p * q), abs(p) * abs(q), rel_tol=1e-13, abs_tol=1e-13)
        assert math.isclose((p * q).real, (q * p).real, rel_tol=1e-12, abs_tol=1e-12)
        # associativity and distributivity to 1e-13 relative
        scale = max(1.0, abs(p) * abs(q) * abs(r))
        assert abs((p * q) * r - p * (q * r)) <= 1e-13 * scale
        assert abs(p * (q + r) - (p * q + p * r)) <= 1e-13 * scale
        # norm(q)^2 = Re(conj(q) q)
        assert math.isclose(abs(q) ** 2, (q.conjugate() * q).real, rel_tol=1e-13)


def test_real_and_complex_embed_into_quaternions():
    rng = SplitMix64(7)
    for _ in range(200):
        za, zb = rng.gaussian_block(2)
        wa, wb = rng.gaussian_block(2)
        z, w = complex(za, zb), complex(wa, wb)
        prod = as_quaternion(z) * as_quaternion(w)
        assert quaternions_close(prod, as_quaternion(z * w), tol=1e-12)
        assert quaternions_close(as_quaternion(z).conjugate(), as_quaternion(z.conjugate()))
        assert math.isclose(abs(as_quaternion(z)), abs(z), rel_tol=1e-13)


def test_inverse():
    q = Quaternion(1, -2, 3, -4)
    assert quaternions_close(q * q.inverse(), ONE, tol=1e-12)
    with pytest.raises(ZeroDivisionError):
        Quaternion.ZERO.inverse()


def test_imaginary_units_per_algebra():
    assert Algebra.R.imaginary_units == ()
    assert Algebra.C.imaginary_units == (I,)
    assert Algebra.H.imaginary_units == (I, J, K)


def test_str_prints_a_nan_component_as_nan():
    # a NaN trace must not read as zero in a transcript
    assert str(Quaternion(math.nan)) == "nan"
    assert str(Quaternion(1.0, math.nan)) == "1 +nani"
    assert str(Quaternion(1e-15, 2.0, 0.0, -1.0)) == "2i -k"
    assert str(Quaternion.ZERO) == "0"
