"""Elliptic fixed point trace classes and upper bounds on their counts.

An elliptic fixed point of the Hilbert modular group of the field of
discriminant D has a trace s in O_K with both archimedean embeddings of
absolute value below 2, and there are finitely many such s up to sign.  For
the rational traces s in {0, +-1} the fixed points biject, up to bounded
fudge factors, with ideal-class data of the biquadratic CM extension
K' = K(sqrt(s^2 - 4)), and the class number formula for K' turns the count
into a product of three Dirichlet L-values at 1.  Irrational traces only
occur for D < 16 and contribute bounded terms.

The per-trace bound implemented here is the chain

    count(s) <= (h'R' / hR) * N(U0)^2,     N(U0)^2 * N(rel disc) = N(4 - s^2),

which collapses to the exact value (h'R'/hR) when N(U0)^2 = 1.  L(1, chi_D)
occurs in both class number formulas and cancels, so the ratio is taken from
the two CM L-values alone:

    h'R' / hR = w' sqrt|d2 d3| L(1, chi_d2) L(1, chi_d3) / (2 pi^2).

For irrational traces h'R'/hR is not computed; the reported number is the
integer N(4 - s^2) and the ratio is flagged unresolved.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

import numpy as np

from .errors import DomainError
from .field_invariants import _check_field_discriminant
from .lfunctions import (_l1_odd, closed_form_l1, fundamental_discriminant_signed,
                         is_fundamental_discriminant)
from .quadratic import QuadElem


@dataclass(frozen=True)
class EllipticTrace:
    """Canonical trace class s = (p + q sqrt(D))/2, both embeddings in (-2, 2).

    Canonical means p > 0, or p = 0 and q >= 0 (one representative of {s, -s}).
    """

    D: int
    p: int
    q: int

    @property
    def elem(self) -> QuadElem:
        return QuadElem.from_pq(self.p, self.q, self.D)

    @property
    def is_rational(self) -> bool:
        return self.q == 0

    @property
    def rationality(self) -> str:
        return "rational" if self.q == 0 else "irrational"

    @property
    def s_rational(self) -> int:
        if self.q != 0 or self.p % 2:
            raise DomainError("trace %s is not a rational integer" % (self.elem,))
        return self.p // 2

    def norm_4_minus_s2(self) -> int:
        """N(4 - s^2), a positive integer for an elliptic trace."""
        s = self.elem
        val = (QuadElem.from_rational(4, self.D) - s * s).norm()
        if val.denominator != 1 or val <= 0:
            raise RuntimeError("N(4 - s^2) = %s for s = %s is not a positive integer" % (val, s))
        return int(val)

    def __str__(self) -> str:
        # the text of str(self.elem), without building the field element
        return "%s + %s*sqrt(%d)" % (Fraction(self.p, 2), Fraction(self.q, 2), self.D)


def elliptic_traces(D: int) -> list[EllipticTrace]:
    """All canonical elliptic trace classes of the field of discriminant D.

    s = (p + q sqrt(D))/2 is integral (parity constraints below) and both
    embeddings lie in (-2, 2) iff p^2 + q^2 D < 16 and
    (16 - p^2 - q^2 D)^2 > 4 p^2 q^2 D, all checked in integers.
    """
    D = _check_field_discriminant(D)
    out = []
    q_max = isqrt(15 // D)
    for p in range(0, 4):
        for q in range(-q_max, q_max + 1):
            if p == 0 and q < 0:
                continue
            if D % 2:
                if (p - q) % 2:
                    continue
            else:
                if p % 2:
                    continue
            v = 16 - p * p - q * q * D
            if v <= 0:
                continue
            if v * v <= 4 * p * p * q * q * D:
                continue
            out.append(EllipticTrace(D=D, p=p, q=q))
    out.sort(key=lambda t: (t.p, t.q))
    return out


def imag_class_numbers(limit: int) -> np.ndarray:
    """h[k] = class number of discriminant -k, for all 0 < k <= limit.

    Counts reduced positive binary quadratic forms (a, b, c): |b| <= a <= c
    with b >= 0 whenever |b| = a or a = c, vectorized over c.  Entries at
    non-discriminant indices are 0; entries at non-fundamental discriminants
    are the form counts of the non-maximal order and must not be used.
    """
    h = np.zeros(limit + 1, dtype=np.int64)
    a_max = isqrt(limit // 3)
    for a in range(1, a_max + 1):
        for b in range(-a + 1, a + 1):
            c0 = a if b >= 0 else a + 1
            c_hi = (limit + b * b) // (4 * a)
            if c_hi < c0:
                continue
            cs = np.arange(c0, c_hi + 1, dtype=np.int64)
            h[4 * a * cs - b * b] += 1
    return h


def l1_imag(d: int, h_table: np.ndarray) -> float:
    """L(1, chi_d) for fundamental d < 0 from the class number formula."""
    if d >= 0 or not is_fundamental_discriminant(d):
        raise DomainError("need a fundamental discriminant < 0, got %d" % d)
    if -d >= len(h_table):
        raise DomainError("class number table too short for discriminant %d" % d)
    return _l1_odd(d, int(h_table[-d]))


def _closed_l1(d: int) -> float:
    """L(1, chi_d) from the finite closed form, the default L(1) source."""
    return closed_form_l1(d)[0]


def make_l1_lookup(limit: int):
    """L(1, chi_d) callable for fundamental d < 0, |d| <= limit, backed by one
    class-number sieve."""
    return functools.partial(l1_imag, h_table=imag_class_numbers(limit))


@dataclass(frozen=True)
class CMExtensionInvariants:
    """Class-number-formula data of K' = Q(sqrt(D), sqrt(s^2 - 4)), s rational.

    subfield_discs  the three quadratic subfield discriminants (D, d2, d3)
    d_Kprime        |D * d2 * d3|, the discriminant of the biquadratic K'
    w_prime         roots of unity in K' (12 iff both -3 and -4 occur)
    hR_ratio        h(K') R(K') / h(K) R(K) = w' sqrt|d2 d3| L(1,chi_d2) L(1,chi_d3) / (2 pi^2)
    N_rel_disc      norm of the relative different, d_Kprime / D^2
    N_U0_sq         N(U0)^2 with U0^2 * (rel disc) = (4 - s^2) O_K
    """

    D: int
    s: int
    subfield_discs: tuple[int, int, int]
    d_Kprime: int
    w_prime: int
    hR_ratio: float
    N_rel_disc: int
    N_U0_sq: int


def cm_extension_invariants(D: int, s: int, l1=None) -> CMExtensionInvariants:
    """Invariants of the CM extension attached to a rational elliptic trace.

    l1 optionally supplies L(1, chi_d) values (callable d -> float); it is
    asked only for d2 and d3, both negative.  By default each factor is
    evaluated by its finite closed form.
    """
    D = _check_field_discriminant(D)
    if s not in (0, 1, -1):
        raise DomainError("rational elliptic traces are 0 and +-1, got %r" % (s,))
    d2 = -4 if s == 0 else -3
    d3 = fundamental_discriminant_signed(D * (s * s - 4))
    d_kp = abs(D * d2 * d3)
    w_prime = 12 if d3 in (-3, -4) else {-4: 4, -3: 6}[d2]
    if d_kp % (D * D):
        raise RuntimeError("d_K' = %d is not divisible by D^2 = %d" % (d_kp, D * D))
    n_rel = d_kp // (D * D)
    n4s = (4 - s * s) ** 2
    if n4s % n_rel:
        raise RuntimeError("N(4-s^2) = %d not divisible by N(rel disc) = %d" % (n4s, n_rel))
    n_u0 = n4s // n_rel
    if n_u0 < 1:
        raise RuntimeError("N(U0)^2 = %d below 1" % n_u0)
    if l1 is None:
        l1 = _closed_l1
    hr_ratio = w_prime * math.sqrt(abs(d2 * d3)) * l1(d2) * l1(d3) / (2.0 * math.pi ** 2)
    return CMExtensionInvariants(
        D=D,
        s=s,
        subfield_discs=(D, d2, d3),
        d_Kprime=d_kp,
        w_prime=w_prime,
        hR_ratio=hr_ratio,
        N_rel_disc=n_rel,
        N_U0_sq=n_u0,
    )


@dataclass(frozen=True)
class TraceBound:
    """Upper bound for the number of elliptic points of one trace class.

    exact                  True when the unit sum collapses (N(U0)^2 = 1) and
                           the value is (h'R'/hR) itself
    unresolved_unit_ratio  True for irrational traces, where the reported
                           value is N(4 - s^2) and the h'R'/hR factor is
                           left as an explicit unresolved multiplier
    """

    trace: EllipticTrace
    value: float
    exact: bool
    unresolved_unit_ratio: bool
    cm: CMExtensionInvariants | None


def prestel_bound(D: int, s, l1=None) -> TraceBound:
    """Bound the count of elliptic points with trace s.

    s may be an EllipticTrace or a rational integer trace; l1 is passed on to
    cm_extension_invariants.
    """
    D = _check_field_discriminant(D)
    if isinstance(s, EllipticTrace):
        trace = s
        if trace.D != D:
            raise DomainError("trace %s belongs to D=%d, not D=%d" % (trace, trace.D, D))
    elif isinstance(s, int):
        trace = EllipticTrace(D=D, p=2 * s, q=0)
    else:
        raise DomainError("s must be an EllipticTrace or a rational integer, got %r" % (s,))

    if not trace.is_rational:
        return TraceBound(
            trace=trace,
            value=float(trace.norm_4_minus_s2()),
            exact=False,
            unresolved_unit_ratio=True,
            cm=None,
        )

    cm = cm_extension_invariants(D, trace.s_rational, l1=l1)
    return TraceBound(
        trace=trace,
        value=cm.hR_ratio * cm.N_U0_sq,
        exact=(cm.N_U0_sq == 1),
        unresolved_unit_ratio=False,
        cm=cm,
    )


@dataclass(frozen=True)
class EllipticSummary:
    """All canonical trace classes of one field with their count bounds.

    exponent_record = log(total_bound) / log(D), the per-field data point
    for the growth-exponent fit across a scan.
    """

    D: int
    bounds: tuple[TraceBound, ...]
    total_bound: float
    exponent_record: float


def elliptic_summary(D: int, l1=None) -> EllipticSummary:
    """Enumerate traces and aggregate the per-trace bounds.

    Each rational trace asks l1 for its two CM discriminants d2 and d3; the
    two traces share none of them except at D = 12 (d = -3 and -4 both
    twice), so nothing is memoized.
    """
    D = _check_field_discriminant(D)
    bounds = tuple(prestel_bound(D, t, l1=l1) for t in elliptic_traces(D))
    total = float(sum(b.value for b in bounds))
    if total <= 0:
        raise RuntimeError("total elliptic bound %g for D=%d is not positive" % (total, D))
    return EllipticSummary(
        D=D,
        bounds=bounds,
        total_bound=total,
        exponent_record=math.log(total) / math.log(D),
    )


def fit_growth_exponent(ds, totals) -> float:
    """Least-squares slope of log(total) against log(D)."""
    xs = np.log(np.asarray(ds, dtype=np.float64))
    ys = np.log(np.asarray(totals, dtype=np.float64))
    if xs.shape != ys.shape or xs.size < 2:
        raise DomainError("need matching arrays of at least two scan points")
    slope, _ = np.polyfit(xs, ys, 1)
    return float(slope)
