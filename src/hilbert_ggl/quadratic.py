"""Exact arithmetic in real quadratic fields Q(sqrt(D)).

``QuadElem`` is an element x + y*sqrt(D) with rational x, y, stored as
integers in the normal form (a + b*sqrt(D))/c, c > 0, gcd(a, b, c) = 1.
All ring operations, norms, conjugation and sign/positivity predicates
work on those integers, normalized by one gcd per result (no floating
point in any comparison).  The same integers carry the exact
minus-continued-fraction step w -> 1/(ceil(w) - w) of an irrational w.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from .errors import DomainError


def _sign_a_plus_b_sqrtD(a: int, b: int, D: int) -> int:
    # sign of a + b*sqrt(D), integers a, b, D > 0 non-square
    if b == 0:
        return (a > 0) - (a < 0)
    if a == 0 or (a > 0) == (b > 0):
        return 1 if b > 0 else -1
    # opposite signs: the larger of a^2 and b^2 D wins (never equal)
    if a * a > b * b * D:
        return 1 if a > 0 else -1
    return 1 if b > 0 else -1


def is_square(n: int) -> bool:
    return n >= 0 and math.isqrt(n) ** 2 == n


def _ratio_str(n: int, d: int) -> str:
    """str(Fraction(n, d)) for d > 0."""
    g = math.gcd(n, d)
    if g == d:
        return str(n // d)
    return f"{n // g}/{d // g}"


def _elem_str(a: int, b: int, c: int, D: int) -> str:
    """str() of (a + b*sqrt(D))/c for c > 0, whether or not gcd(a, b, c) = 1:
    _ratio_str reduces each part, so the text is that of the normal form."""
    return f"{_ratio_str(a, c)} + {_ratio_str(b, c)}*sqrt({D})"


# Every D that passed QuadElem's check; derived elements skip the isqrt.
_VALID_D: set[int] = set()


def _elem(a: int, b: int, c: int, D: int) -> "QuadElem":
    """(a + b*sqrt(D))/c brought to normal form (c > 0, gcd(a, b, c) = 1)."""
    g = math.gcd(c, a, b)
    if c < 0:
        g = -g
    if g != 1:
        a //= g
        b //= g
        c //= g
    e = _new(QuadElem)
    _set_a(e, a)
    _set_b(e, b)
    _set_c(e, c)
    _set_D(e, D)
    e.__post_init__()
    return e


class QuadElem:
    """x + y*sqrt(D) with x, y rational, D a fixed positive non-square.

    Stored as integers (a + b*sqrt(D))/c in the normal form c > 0,
    gcd(a, b, c) = 1, which is unique: equality and hashing compare
    (a, b, c, D).  Instances are immutable.
    """

    __slots__ = ("a", "b", "c", "D")

    def __init__(self, x, y, D: int):
        # over the lcm of the reduced denominators gcd(a, b, c) = 1 already
        x = Fraction(x)
        y = Fraction(y)
        c = math.lcm(x.denominator, y.denominator)
        _set_a(self, x.numerator * (c // x.denominator))
        _set_b(self, y.numerator * (c // y.denominator))
        _set_c(self, c)
        # an int, so that 5.0 cannot pass the check cached for 5
        _set_D(self, operator.index(D))
        self.__post_init__()

    def __post_init__(self):
        """Validate D; every construction, public or internal, ends here."""
        D = self.D
        if D not in _VALID_D:
            if D <= 0 or is_square(D):
                raise DomainError(f"D must be a positive non-square, got {D}")
            _VALID_D.add(D)

    def __setattr__(self, name, value):
        raise AttributeError(f"QuadElem is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"QuadElem is immutable; cannot delete {name!r}")

    def __reduce__(self):
        return (QuadElem, (self.x, self.y, self.D))

    @property
    def x(self) -> Fraction:
        return Fraction(self.a, self.c)

    @property
    def y(self) -> Fraction:
        return Fraction(self.b, self.c)

    def __eq__(self, other):
        if other.__class__ is not QuadElem:
            return NotImplemented
        return (self.a == other.a and self.b == other.b
                and self.c == other.c and self.D == other.D)

    def __hash__(self) -> int:
        return hash((self.a, self.b, self.c, self.D))

    def __repr__(self) -> str:
        return f"QuadElem(x={self.x!r}, y={self.y!r}, D={self.D!r})"

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rational(cls, r, D: int) -> "QuadElem":
        return cls(r, 0, D)

    @classmethod
    def from_pq(cls, p, q, D: int) -> "QuadElem":
        """(p + q*sqrt(D)) / 2."""
        return cls(Fraction(p, 2), Fraction(q, 2), D)

    # -- ring operations ---------------------------------------------------

    def _coerce(self, other) -> "QuadElem":
        if isinstance(other, QuadElem):
            if other.D != self.D:
                raise DomainError("mixed fields")
            return other
        if type(other) is int:
            return _elem(other, 0, 1, self.D)
        return QuadElem(other, 0, self.D)

    def __add__(self, other):
        o = self._coerce(other)
        c1, c2 = self.c, o.c
        return _elem(self.a * c2 + o.a * c1, self.b * c2 + o.b * c1, c1 * c2, self.D)

    __radd__ = __add__

    def __neg__(self):
        return _elem(-self.a, -self.b, self.c, self.D)

    def __sub__(self, other):
        o = self._coerce(other)
        c1, c2 = self.c, o.c
        return _elem(self.a * c2 - o.a * c1, self.b * c2 - o.b * c1, c1 * c2, self.D)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if type(other) is int:
            return _elem(self.a * other, self.b * other, self.c, self.D)
        o = self._coerce(other)
        a1, b1, a2, b2 = self.a, self.b, o.a, o.b
        return _elem(a1 * a2 + b1 * b2 * self.D, a1 * b2 + b1 * a2, self.c * o.c, self.D)

    __rmul__ = __mul__

    def inverse(self) -> "QuadElem":
        a, b, c = self.a, self.b, self.c
        n = a * a - b * b * self.D
        if n == 0:
            raise ZeroDivisionError("inverse of zero element")
        # c / (a + b sqrt D) = c (a - b sqrt D) / n
        return _elem(c * a, -c * b, n, self.D)

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        r = _elem(1, 0, 1, self.D)
        b = self
        while k:
            if k & 1:
                r = r * b
            b = b * b
            k >>= 1
        return r

    # -- field-theoretic data ----------------------------------------------

    def conjugate(self) -> "QuadElem":
        return _elem(self.a, -self.b, self.c, self.D)

    def norm(self) -> Fraction:
        return Fraction(self.a * self.a - self.b * self.b * self.D, self.c * self.c)

    def trace(self) -> Fraction:
        return Fraction(2 * self.a, self.c)

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def sign(self) -> int:
        """Exact sign of the embedding x + y*sqrt(D)."""
        return _sign_a_plus_b_sqrtD(self.a, self.b, self.D)

    def sign_conjugate(self) -> int:
        return _sign_a_plus_b_sqrtD(self.a, -self.b, self.D)

    def is_totally_positive(self) -> bool:
        return self.sign() > 0 and self.sign_conjugate() > 0

    def is_unit(self) -> bool:
        return self.is_integral() and abs(self.norm()) == 1

    def is_integral(self) -> bool:
        """Membership in the maximal order of discriminant D (D fundamental).

        2x and 2y must be integers with 2x - 2y*D even; as gcd(a, b, c) = 1
        that leaves c = 1, or c = 2 with a - b*D even.
        """
        if self.c == 1:
            return True
        return self.c == 2 and (self.a - self.b * self.D) % 2 == 0

    # -- minus continued fraction -----------------------------------------

    def ceil(self) -> int:
        """Least integer >= w; one isqrt when w is irrational."""
        a, b, c = self.a, self.b, self.c
        if b == 0:
            return -(-a // c)
        # floor(b*sqrt(D)) for irrational b*sqrt(D)
        r = math.isqrt(b * b * self.D)
        if b < 0:
            r = -r - 1
        return (a + r) // c + 1

    def is_hj_reduced(self) -> bool:
        """w > 1 and 0 < w' < 1 (the minus-CF purely periodic window)."""
        a, b, c, D = self.a, self.b, self.c, self.D
        return (_sign_a_plus_b_sqrtD(a - c, b, D) > 0
                and _sign_a_plus_b_sqrtD(a, -b, D) > 0
                and _sign_a_plus_b_sqrtD(a - c, -b, D) < 0)

    def hj_step(self) -> tuple[int, "QuadElem"]:
        """One minus-continued-fraction step of an irrational w: (k, 1/(k - w)), k = ceil(w)."""
        k = self.ceil()
        a, b, c, D = self.a, self.b, self.c, self.D
        # c / (m - b sqrt D) = c (m + b sqrt D) / (m^2 - b^2 D), m = kc - a
        m = k * c - a
        return k, _elem(c * m, c * b, m * m - b * b * D, D)

    def __float__(self) -> float:
        return self.a / self.c + self.b / self.c * math.sqrt(self.D)

    def __gt__(self, other) -> bool:
        return (self - self._coerce(other)).sign() > 0

    def __lt__(self, other) -> bool:
        return (self - self._coerce(other)).sign() < 0

    def __str__(self) -> str:
        return _elem_str(self.a, self.b, self.c, self.D)


# QuadElem.__setattr__ refuses writes; constructors fill the slots through
# their descriptors instead.
_new = object.__new__
_set_a = QuadElem.a.__set__
_set_b = QuadElem.b.__set__
_set_c = QuadElem.c.__set__
_set_D = QuadElem.D.__set__
