"""Exact arithmetic on quadratic field elements and surds."""

import copy
import math
import pickle
import random
from fractions import Fraction

import pytest

from hilbert_ggl.errors import DomainError
from hilbert_ggl.quadratic import QuadElem, QuadSurd


def close(a: float, b: float, tol: float = 1e-12) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def test_constructor_rejects_square_or_nonpositive_d():
    with pytest.raises(DomainError):
        QuadElem(1, 1, 4)
    with pytest.raises(DomainError):
        QuadElem(1, 1, 0)
    with pytest.raises(DomainError):
        QuadElem(1, 1, -5)


def test_ring_operations_match_float_embedding():
    rng = random.Random(20260814)
    for _ in range(300):
        D = rng.choice([5, 8, 12, 13, 17, 21, 24, 229])
        a = QuadElem(Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
                     Fraction(rng.randint(-9, 9), rng.randint(1, 4)), D)
        b = QuadElem(Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
                     Fraction(rng.randint(-9, 9), rng.randint(1, 4)), D)
        assert close(float(a + b), float(a) + float(b))
        assert close(float(a - b), float(a) - float(b))
        assert close(float(a * b), float(a) * float(b))
        if not b.is_zero():
            assert close(float(a / b), float(a) / float(b))
        # distributivity, exactly
        c = QuadElem(2, Fraction(1, 2), D)
        assert (a + b) * c == a * c + b * c


def test_scalar_operations_coerce_both_sides():
    e = QuadElem(1, 1, 5)
    assert 2 + e == e + 2
    assert 2 * e == e * 2
    assert 1 - e == -(e - 1)
    assert (2 / e) * e == QuadElem(2, 0, 5)


def _random_elem(rng, D):
    return QuadElem(Fraction(rng.randint(-20, 20), rng.randint(1, 12)),
                    Fraction(rng.randint(-20, 20), rng.randint(1, 12)), D)


def test_str_matches_fraction_parts():
    rng = random.Random(7201)
    elems = [_random_elem(rng, rng.choice([5, 8, 12, 229, 99996])) for _ in range(400)]
    elems += [QuadElem(0, 0, 5), QuadElem(-3, 0, 8), QuadElem(0, Fraction(-1, 2), 13),
              QuadElem(Fraction(-7, 6), Fraction(5, 4), 229)]
    for e in elems:
        assert str(e) == f"{e.x} + {e.y}*sqrt({e.D})"
    assert str(QuadElem(Fraction(-1, 2), Fraction(3, 2), 5)) == "-1/2 + 3/2*sqrt(5)"


def test_int_scalar_product_matches_element_product():
    rng = random.Random(7202)
    for _ in range(400):
        D = rng.choice([5, 8, 12, 229])
        e = _random_elem(rng, D)
        k = rng.choice([0, 1, -1, e.c, -2 * e.c, rng.randint(-10**6, 10**6)])
        expected = QuadElem.from_rational(k, D) * e
        assert k * e == expected and e * k == expected, (k, e)


def test_mixed_fields_rejected():
    a, b = QuadElem(1, 1, 5), QuadElem(Fraction(1, 2), 1, 8)
    for op in (lambda: a + b, lambda: a - b, lambda: a * b, lambda: a / b,
               lambda: b < a, lambda: b > a):
        with pytest.raises(DomainError):
            op()


def _ref_sign(x: Fraction, y: Fraction, D: int) -> int:
    """Sign of x + y*sqrt(D) via isqrt of the cleared-denominator form."""
    L = math.lcm(x.denominator, y.denominator)
    X, Y = int(x * L), int(y * L)
    if Y == 0:
        return (X > 0) - (X < 0)
    if Y < 0:
        return -_ref_sign(-x, -y, D)
    # Y sqrt(D) is irrational, so it exceeds -X iff its floor reaches -X
    return 1 if math.isqrt(Y * Y * D) >= -X else -1


def _ref_integral(x: Fraction, y: Fraction, D: int) -> bool:
    a, b = 2 * x, 2 * y
    return a.denominator == 1 and b.denominator == 1 and (a - b * D) % 2 == 0


def _assert_is(e: QuadElem, x: Fraction, y: Fraction, D: int):
    assert (e.x, e.y, e.D) == (x, y, D)
    assert e == QuadElem(x, y, D)
    assert e.c > 0 and math.gcd(e.a, e.b, e.c) == 1


def test_integer_form_matches_fraction_pair_reference():
    rng = random.Random(20261018)

    def rand_q():
        return Fraction(rng.randint(-60, 60), rng.choice([1, 2, 3, 4, 6, 9, 12, 35]))

    for _ in range(400):
        D = rng.choice([5, 8, 12, 13, 21, 24, 60, 229, 9997])
        x1, y1, x2, y2 = rand_q(), rand_q(), rand_q(), rand_q()
        a, b = QuadElem(x1, y1, D), QuadElem(x2, y2, D)
        _assert_is(a, x1, y1, D)
        _assert_is(a + b, x1 + x2, y1 + y2, D)
        _assert_is(a - b, x1 - x2, y1 - y2, D)
        _assert_is(-a, -x1, -y1, D)
        _assert_is(a * b, x1 * x2 + y1 * y2 * D, x1 * y2 + y1 * x2, D)
        _assert_is(a.conjugate(), x1, -y1, D)
        _assert_is(a * 3 + Fraction(1, 6), 3 * x1 + Fraction(1, 6), 3 * y1, D)
        nb = x2 * x2 - y2 * y2 * D
        assert b.norm() == nb and b.trace() == 2 * x2
        if nb != 0:
            _assert_is(b.inverse(), x2 / nb, -y2 / nb, D)
            q = a / b
            _assert_is(q, (x1 * x2 - y1 * y2 * D) / nb, (y1 * x2 - x1 * y2) / nb, D)
        assert a.sign() == _ref_sign(x1, y1, D)
        assert a.sign_conjugate() == _ref_sign(x1, -y1, D)
        assert a.is_integral() == _ref_integral(x1, y1, D)
        assert float(a) == float(x1) + float(y1) * math.sqrt(D)


def test_normal_form_equality_and_hash():
    e = QuadElem(Fraction(2, 4), 1, 5)
    f = QuadElem(Fraction(1, 2), 1, 5)
    assert e == f and hash(e) == hash(f)
    assert e.x == Fraction(1, 2) and e.x.denominator == 2 and e.y.denominator == 1
    assert (e.a, e.b, e.c) == (1, 2, 2)
    g = (e * 6) / 6 - 0
    assert g == e and hash(g) == hash(e) and len({e, f, g}) == 1
    assert QuadElem(1, 1, 5) != QuadElem(1, 1, 13)
    assert QuadElem(1, 0, 5) != 1  # no equality with plain rationals
    assert repr(QuadElem(Fraction(1, 2), -3, 13)) == \
        "QuadElem(x=Fraction(1, 2), y=Fraction(-3, 1), D=13)"


def test_immutable_and_picklable():
    e = QuadElem(Fraction(-7, 6), Fraction(5, 4), 229)
    for proto in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(e, protocol=proto))
        assert back == e and hash(back) == hash(e) and str(back) == str(e)
    assert copy.deepcopy(e) == e
    with pytest.raises(AttributeError):
        e.a = 3
    with pytest.raises(AttributeError):
        e.x = 3
    with pytest.raises(AttributeError):
        del e.D


def test_norm_trace_conjugate():
    e = QuadElem.from_pq(1, 1, 5)  # golden ratio
    assert e.trace() == 1
    assert e.norm() == -1
    assert e * e.conjugate() == QuadElem(e.norm(), 0, 5)
    assert e.conjugate().conjugate() == e


def test_powers_and_inverse():
    eps = QuadElem.from_pq(1, 1, 5)
    assert eps ** 2 == eps * eps
    assert eps ** 0 == QuadElem(1, 0, 5)
    assert eps ** -3 == (eps ** 3).inverse()
    assert eps * eps.inverse() == QuadElem(1, 0, 5)
    with pytest.raises(ZeroDivisionError):
        QuadElem(0, 0, 5).inverse()


def test_exact_sign_against_float():
    rng = random.Random(7)
    for _ in range(500):
        D = rng.choice([5, 8, 13, 60, 229])
        e = QuadElem(Fraction(rng.randint(-30, 30), rng.randint(1, 9)),
                     Fraction(rng.randint(-30, 30), rng.randint(1, 9)), D)
        f, g = float(e), float(e.conjugate())
        if abs(f) > 1e-6:
            assert e.sign() == (1 if f > 0 else -1)
        if abs(f) > 1e-6 and abs(g) > 1e-6:
            assert e.is_totally_positive() == (f > 0 and g > 0)


def test_sign_near_zero_is_exact():
    # Pell convergents p/q of sqrt(5) with p^2 - 5 q^2 = 1, so p/q - sqrt(5)
    # is positive but ~1/q^2; the float embedding rounds it to noise while
    # the exact sign must stay +1 (and -1 for the mirrored element).
    p, q = 9, 4
    for _ in range(14):
        p, q = 9 * p + 20 * q, 4 * p + 9 * q
    assert p * p - 5 * q * q == 1
    above = QuadElem(Fraction(p, q), -1, 5)   # p/q - sqrt(5) > 0
    below = QuadElem(Fraction(-p, q), 1, 5)   # sqrt(5) - p/q < 0
    assert above.sign() == 1
    assert below.sign() == -1


def test_integrality_convention():
    assert QuadElem.from_pq(1, 1, 5).is_integral()
    assert not QuadElem.from_pq(1, 2, 5).is_integral()
    assert QuadElem.from_pq(2, 2, 8).is_integral()
    assert not QuadElem.from_pq(1, 1, 8).is_integral()
    assert QuadElem.from_pq(1, 1, 5).is_unit()


def test_comparisons():
    e = QuadElem.from_pq(3, 1, 5)  # (3+sqrt 5)/2 ~ 2.618
    assert e > 2
    assert e < 3
    assert e > QuadElem(1, 0, 5)


def test_surd_invariant_enforced():
    with pytest.raises(DomainError):
        QuadSurd(1, 3, 5)  # 3 does not divide 5 - 1
    QuadSurd(1, 4, 5)  # 4 | 4


def test_surd_floor_ceil_both_denominator_signs():
    rng = random.Random(99)
    for _ in range(400):
        D = rng.choice([5, 8, 13, 21, 60, 124])
        P = rng.randint(-40, 40)
        Q = rng.choice([q for q in range(-12, 13) if q and (D - P * P) % q == 0]
                       or [None])
        if Q is None:
            continue
        w = QuadSurd(P, Q, D)
        v = w.value()
        assert w.floor() == math.floor(v)
        assert w.ceil() == math.ceil(v)
        r = Fraction(rng.randint(-40, 40), rng.randint(1, 5))
        if abs(v - r) > 1e-9:
            assert w.cmp_rational(r) == (1 if v > r else -1)
        v_conj = (P - math.sqrt(D)) / Q
        if abs(v_conj - r) > 1e-9:
            assert w.conj_cmp_rational(r) == (1 if v_conj > r else -1)


def test_hj_step_is_exact_moebius_step():
    w = QuadSurd(3, 2, 5)  # (3+sqrt5)/2
    b, w1 = w.hj_step()
    assert b == 3
    # w = b - 1/w1 exactly: check numerically to float precision
    assert close(w.value(), b - 1 / w1.value())


def test_is_hj_reduced_window():
    assert QuadSurd(3, 2, 5).is_hj_reduced()       # (3+sqrt5)/2, conj ~0.38
    assert QuadSurd(4, 2, 8).is_hj_reduced()       # 2+sqrt2 as (4+sqrt8)/2
    assert not QuadSurd(2, 1, 8).is_hj_reduced()   # 2+sqrt8: conjugate < 0
    assert not QuadSurd(1, 2, 5).is_hj_reduced()   # (1+sqrt5)/2: conjugate < 0


def test_from_elem_normalizes_denominators():
    e = QuadElem(Fraction(5, 2), Fraction(1, 2), 21)  # (5 + sqrt 21)/2
    w = QuadSurd.from_elem(e)
    assert close(w.value(), float(e))
    assert w.elem(21) == e
    with pytest.raises(DomainError):
        QuadSurd.from_elem(QuadElem(1, Fraction(-1, 2), 21))
