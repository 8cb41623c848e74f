"""Elliptic fixed point trace classes and upper bounds on their counts.

An elliptic fixed point of the Hilbert modular group of the field of
discriminant D has a trace s in O_K with both archimedean embeddings of
absolute value below 2, and there are finitely many such s up to sign.  For
the rational traces s in {0, +-1} the fixed points biject, up to bounded
fudge factors, with ideal-class data of the biquadratic CM extension
K' = K(sqrt(s^2 - 4)), and the class number formula for K' turns the count
into a product of three Dirichlet L-values at 1.  Irrational traces occur
only for D = 5, 8 and 12 and contribute bounded terms.

The per-trace bound implemented here is the chain

    count(s) <= (h'R' / hR) * N(U0)^2,     N(U0)^2 * N(rel disc) = N(4 - s^2),

which collapses to the exact value (h'R'/hR) when N(U0)^2 = 1.  L(1, chi_D)
occurs in both class number formulas and cancels, so the ratio is taken from
the two CM L-values alone:

    h'R' / hR = w' sqrt|d2 d3| L(1, chi_d2) L(1, chi_d3) / (2 pi^2).

For irrational traces h'R'/hR is not computed; the reported number is the
integer N(4 - s^2) and the ratio is flagged unresolved.

For d < 0, L(1, chi_d) = 2 pi h / (w sqrt|d|) needs only the class number
h(d), and it has three sources that give the same integer and so the same
bits: a scan reads it off one class-number sieve per worker
(make_l1_lookup), a single-field report counts the reduced forms of each d
(_reduced_form_count, the default), and lfunctions.closed_form_l1 reads it
off its character sum, the independent cross-check.  The count shares its
divisor grid with the real reduced forms; neither uses trial division.

Every elliptic number has one code path, the private arithmetic core below,
which takes a run of fields at a time: the canonical trace pairs
(_trace_pairs, a table), N(4 - s^2) (_norm_4_minus_s2, for the irrational
traces of D = 5, 8 and 12), the CM numbers of the rational traces s = 0
and 1 of every field of the run as int64 and float64 arrays, one row per
trace (_cm_run: m, d2 and d3, d_K', w', N(rel disc), N(U0)^2 and h'R'/hR,
with the norm checks over the whole run and one gather of the run's
L-values from a make_l1_lookup table), and each field's total with its
exponent record (_elliptic_bounds).  The float operations run in the order
of one-field scalar arithmetic, so every number has the same bits whatever
the run (tests/oracles.py holds that scalar arithmetic as the oracle).  A
scan calls _elliptic_bounds once per run (scan._scan_run) and builds no
report object; the public entries elliptic_traces, cm_extension_invariants,
prestel_bound and elliptic_summary validate their arguments, call the same
core with a one-field run, and wrap the numbers in EllipticTrace,
CMExtensionInvariants, TraceBound and EllipticSummary for a single-field
report.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

import numpy as np

from .errors import DomainError
from .field_invariants import _check_field_discriminant, _divisor_windows, _fundamental_mask
from .lfunctions import _INT64_MAX, _l1_odd, _l1_odd_array, is_fundamental_discriminant
from .quadratic import QuadElem


# the arithmetic core: one code path per elliptic number, over int64 and
# float64 arrays for a run of fields.  Every D is a validated field
# discriminant, which the callers check (scan._scan_run and the public
# entries); the public entries also check the trace s they are given.

_TWO_PI_SQ = 2.0 * math.pi ** 2
# |D d2 d3| <= 16 D^2 (|d2| <= 4 and |d3| <= 4 D) fits int64 up to this D
_CM_D_MAX = isqrt(_INT64_MAX // 16)
# the shift by residue mod 4 that takes a squarefree kernel k to its
# discriminant (k << 2 unless k = 1 mod 4) and a field discriminant D to m
# (D >> 2 unless D = 1 mod 4)
_SHIFT_MOD4 = np.array([2, 0, 2, 2], dtype=np.int64)
# the run core's integer operands as int64: numpy 2 converts a Python int
# operand again on every ufunc call, which a one-field run would feel
_I3, _I12, _IM4 = np.int64(3), np.int64(12), np.int64(-4)


# canonical elliptic trace classes (p, q) of s = (p + q sqrt(D))/2, in (p, q)
# order.  s is elliptic iff 4 - s^2 is totally positive: its trace
# (16 - p^2 - q^2 D)/2 and its norm (_norm_4_minus_s2) are positive.  The
# rational s = p/2 are 0 and 1 in every field.  An irrational one (q != 0)
# needs q^2 D < 16, so D is 5, 8, 12 or 13, and at 13 the only integral
# candidates, (1 +- sqrt(13))/2, have an embedding above 2 (Prestel 1968;
# Hirzebruch, Hilbert modular surfaces, 1973).  tests/oracles.py's box search
# is the check.
_RATIONAL_TRACE_PAIRS = ((0, 0), (2, 0))
_TRACE_PAIRS = {
    5: ((0, 0), (1, -1), (1, 1), (2, 0)),
    8: ((0, 0), (0, 1), (2, 0)),
    12: ((0, 0), (0, 1), (2, 0)),
}


def _trace_pairs(D: int) -> tuple[tuple[int, int], ...]:
    """(p, q) of every canonical elliptic trace class s = (p + q sqrt(D))/2
    of the field D, in (p, q) order: the table above, where only D = 5, 8
    and 12 have irrational traces."""
    return _TRACE_PAIRS.get(D, _RATIONAL_TRACE_PAIRS)


def _norm_4_minus_s2(D: int, p: int, q: int) -> int:
    """N(4 - s^2) = ((16 - p^2 - q^2 D)^2 - 4 p^2 q^2 D) / 16 for
    s = (p + q sqrt(D))/2; RuntimeError unless it is a positive integer."""
    v = 16 - p * p - q * q * D
    num = v * v - 4 * p * p * q * q * D
    if num % 16 or num <= 0:
        raise RuntimeError("N(4 - s^2) = %s for s = %s is not a positive integer"
                           % (Fraction(num, 16), _trace_text(D, p, q)))
    return num // 16


def _trace_text(D: int, p: int, q: int) -> str:
    """The text of str(QuadElem.from_pq(p, q, D)), without building it."""
    return "%s + %s*sqrt(%d)" % (Fraction(p, 2), Fraction(q, 2), D)


# read-only columns of shape (2, 1) shared by every run, row s for the
# rational traces s = 0 and 1 (s = -1 has the numbers of s = 1): -t for the
# squarefree part t of 4 - s^2, d2, N(4 - s^2) = (4 - s^2)^2, and the w' of
# K' = K(sqrt(d2)) unless d3 is -3 or -4 as well
_TRACE_COLUMNS = np.array([[[-1], [-3]], [[-4], [-3]], [[16], [9]], [[4], [6]]], dtype=np.int64)
_TRACE_COLUMNS.flags.writeable = False
_MINUS_T, _D2, _N4S, _W_BASE = _TRACE_COLUMNS


def _cm_run(ds: list[int], l1) -> tuple[np.ndarray, ...]:
    """The CM numbers of the rational traces s = 0 and 1 of every field of
    the run ds, as arrays of shape (2, len(ds)) whose row s belongs to the
    trace s: d2, d3, d_K', w', N(rel disc), N(U0)^2 (int64), then h'R'/hR
    and the trace's value (h'R'/hR) N(U0)^2 (float64).

    d3, the discriminant of Q(sqrt(D (s^2 - 4))), needs no factoring: with
    D = m or 4m, m squarefree, and t the squarefree part of 4 - s^2, the
    squarefree part of -(4 - s^2) D is -t m / gcd(t, m)^2: -m for s = 0,
    and -m/3 or -3m for s = 1 as 3 does or does not divide m.
    l1 gives L(1, chi_d) for every d2 and d3 (_l1_values), and
    h'R'/hR = w' sqrt|d2 d3| L(1, chi_d2) L(1, chi_d3) / (2 pi^2) is taken
    in that order, so each entry has the bits of the one-field float
    arithmetic.  The divisibility and positivity of the two norm quotients
    are checked for the whole run; a failure raises RuntimeError naming the
    first failing D.  |D d2 d3| <= 16 D^2 must fit int64, so a D past
    _CM_D_MAX raises DomainError.
    """
    if max(ds, default=0) > _CM_D_MAX:
        raise DomainError("D = %d is past the int64 range of |D d2 d3| <= 16 D^2"
                          % next(D for D in ds if D > _CM_D_MAX))
    D = np.array(ds, dtype=np.int64)
    m = D >> _SHIFT_MOD4[D & _I3]
    g = np.gcd(_MINUS_T, m)
    core = _MINUS_T * m // (g * g)
    d3 = core << _SHIFT_MOD4[core & _I3]
    d2d3 = _D2 * d3
    d_kp = D * d2d3
    n_rel, rest = np.divmod(d_kp, D * D)
    if rest.any():
        _fail_run(ds, [(rest != 0, "d_K' = |D d2 d3| is not divisible by D^2")])
    n_u0, rest = np.divmod(_N4S, n_rel)
    # _N4S and n_rel are positive, so an N(U0)^2 below 1 is a zero
    if rest.any() or not n_u0.all():
        _fail_run(ds, [(rest != 0, "N(4-s^2) is not divisible by N(rel disc)"),
                       (n_u0 < 1, "N(U0)^2 is below 1")])
    # d3 <= -3 is a fundamental discriminant, so d3 >= -4 means -3 or -4:
    # K' holds both sqrt(-1) and sqrt(-3)
    w_prime = np.where(d3 >= _IM4, _I12, _W_BASE)
    l1_d2, l1_d3 = _l1_values(l1, _D2, d3)
    hr_ratio = w_prime * np.sqrt(d2d3) * l1_d2 * l1_d3 / _TWO_PI_SQ
    return (_D2.repeat(len(ds), 1), d3, d_kp, w_prime, n_rel, n_u0, hr_ratio,
            hr_ratio * n_u0)


def _fail_run(ds: list[int], checks) -> None:
    """Raise the RuntimeError of a failed check of the run: checks holds
    (bad, what) pairs, bad of shape (2, len(ds)), row s for the trace s.
    The first field with a failure and, in it, the first trace of the first
    check it fails are named."""
    i = int(np.any([bad.any(axis=0) for bad, _what in checks], axis=0).argmax())
    for bad, what in checks:
        if bad[:, i].any():
            raise RuntimeError("%s at D=%d, s=%d" % (what, ds[i], int(bad[:, i].argmax())))


def _l1_values(l1, d2: np.ndarray, d3: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """L(1, chi_d) for the column d2 and the array d3 of a run, in their
    shapes: one gather from the class-number sieve of a make_l1_lookup
    table, or l1(d) element by element, d2 first, for any other callable."""
    if isinstance(l1, _L1Lookup):
        values = l1.values(np.concatenate((d2, d3), axis=1))
        return values[:, :1], values[:, 1:]
    return (np.array([[l1(d)] for d in d2.ravel().tolist()], dtype=np.float64),
            np.array([[l1(d) for d in row] for row in d3.tolist()], dtype=np.float64))


def _cm_field(cm: tuple[np.ndarray, ...], i: int) -> list[tuple]:
    """The CM numbers of field i of a run (_cm_run) as Python ints and
    floats, one tuple per trace."""
    return list(zip(*(a[:, i].tolist() for a in cm)))


def _field_rows(D: int, cms: list[tuple]) -> list[tuple]:
    """(p, q, value, cm) per canonical trace class of the field D, in (p, q)
    order, from the CM numbers cms of s = 0 and 1 (_cm_field): a rational
    trace s = p/2 takes (h'R'/hR) N(U0)^2 and its CM numbers, an irrational
    one the integer N(4 - s^2) as a float and None."""
    return [(p, q, float(_norm_4_minus_s2(D, p, q)), None) if q
            else (p, q, cms[p // 2][7], cms[p // 2])
            for p, q in _trace_pairs(D)]


def _elliptic_bounds(ds: list[int], l1):
    """(cm, totals, exponents) of the run of validated field discriminants
    ds: the CM numbers of the traces s = 0 and 1 (_cm_run), and per field
    the total bound and exponent_record = log(total_bound) / log(D), as
    lists of floats.  This is the one path of the elliptic numbers: a scan
    calls it once per run, the public entries with a one-field run.

    A field's total sums its rows in (p, q) order as float(sum(...)) does:
    the two rational values for D > 12, and with the irrational rows of
    D = 5, 8 and 12 between them.  A total that is not a positive finite
    number raises RuntimeError naming the first such D.  math.log stays per
    field: numpy's vector log need not round as libm does.
    """
    cm = _cm_run(ds, l1)
    values = cm[7]
    totals = (values[0] + values[1]).tolist()
    exponents = []
    for i, D in enumerate(ds):
        if D in _TRACE_PAIRS:
            totals[i] = float(sum(row[2] for row in _field_rows(D, _cm_field(cm, i))))
        total = totals[i]
        if not 0 < total < math.inf:
            raise RuntimeError("total elliptic bound %g for D=%d is not a positive finite number"
                               % (total, D))
        exponents.append(math.log(total) / math.log(D))
    return cm, totals, exponents


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
            raise DomainError("trace %s is not a rational integer" % (self,))
        return self.p // 2

    def norm_4_minus_s2(self) -> int:
        """N(4 - s^2), a positive integer for an elliptic trace."""
        return _norm_4_minus_s2(self.D, self.p, self.q)

    def __str__(self) -> str:
        return _trace_text(self.D, self.p, self.q)


def elliptic_traces(D: int) -> list[EllipticTrace]:
    """All canonical elliptic trace classes of the field of discriminant D,
    in (p, q) order (_trace_pairs)."""
    D = _check_field_discriminant(D)
    return [EllipticTrace(D=D, p=p, q=q) for p, q in _trace_pairs(D)]


def imag_class_numbers(limit: int) -> np.ndarray:
    """h[k] = class number of discriminant -k, for all 0 < k <= limit.

    Counts reduced positive binary quadratic forms (a, b, c): |b| <= a <= c
    with b >= 0 whenever |b| = a or a = c.  For fixed (a, b) the discriminant
    -(4ac - b^2) steps by 4a as c runs up from its least value c0 (a for
    b >= 0, a + 1 for b < 0), so each pair adds 1 along one strided slice.
    The slice of -b, 0 < b < a, is that of b less its first entry, so the
    two add 2 along one slice, and np.subtract.at takes back the 1 at each
    such start, 2^14 starts at a time.  Entries at non-discriminant indices
    are 0; entries at non-fundamental discriminants are the form counts of
    the non-maximal order and must not be used.  Scans read L(1, chi_d) off
    this table (make_l1_lookup); single-field reports count the reduced
    forms of each d alone (_reduced_form_count).  A negative limit raises
    DomainError.
    """
    if limit < 0:
        raise DomainError("class number table limit must be >= 0, got %d" % limit)
    h = np.zeros(limit + 1, dtype=np.int64)
    starts = []  # where the pairs (a, +-b) start, which -b skips
    for a in range(1, isqrt(limit // 3) + 1):
        step, top = 4 * a, 4 * a * a
        h[top::step] += 1  # b = 0
        h[top - a * a :: step] += 1  # b = a (-a is not reduced)
        # the starts top - b^2 fall as b rises; past the limit, none is taken
        b_lo = 1 if top <= limit else isqrt(top - limit - 1) + 1
        for b in range(b_lo, a):
            start = top - b * b
            h[start::step] += 2
            starts.append(start)
        if len(starts) >= 1 << 14:  # a bounded list beside the table
            np.subtract.at(h, starts, 1)
            starts.clear()
    np.subtract.at(h, starts, 1)
    return h


# h(d) of the CM discriminants d2 = -4 (s = 0) and -3 (s = +-1)
_D2_CLASS_NUMBERS = {-4: 1, -3: 1}


def _reduced_form_count(d: int) -> int:
    """h(d) for a fundamental d < 0, counted as reduced forms (H. Cohen, A
    Course in Computational Algebraic Number Theory, 5.3).

    With q = -d, a reduced form (a, b, c) has b = q (mod 2) and
    |b| <= a <= c, so a <= sqrt(q/3).  For b >= 0, (a, b, c) is reduced iff
    a | n = (b^2 + q)/4, b <= a and a^2 <= n (c = n/a >= a); then (a, -b, c)
    is another reduced form iff 0 < b < a < c.  The pairs b <= a <= sqrt(q/3),
    about q/6 divisibility tests, go through the divisor grid of the real
    reduced forms (field_invariants._divisor_windows), so memory stays flat
    for any q.  The forms of a fundamental discriminant are primitive, so the
    count is h(d): the integer closed_form_l1 reads off its character sum.
    A d >= 0 or a non-fundamental d raises DomainError.  h(-3) = h(-4) = 1,
    the class numbers of d2 that every rational trace asks for, come from
    _D2_CLASS_NUMBERS and skip the grid's fixed cost.
    """
    h = _D2_CLASS_NUMBERS.get(d)
    if h is not None:
        return h
    if d >= 0 or not is_fundamental_discriminant(d):
        raise DomainError("need a fundamental discriminant < 0, got %d" % d)
    q = -d
    a_max = isqrt(q // 3)
    # b^2 + q <= 4q/3, so below q = 3 * 2^30 every term fits (the faster) uint32
    b = np.arange(q % 2, a_max + 1, 2, dtype=np.uint32 if q < 3 << 30 else np.uint64)
    h = 0
    for b, a, n in _divisor_windows(b, (b * b + q) >> 2, lambda b0, b1: (max(b0, 1), a_max)):
        a2 = a * a
        # (a, b, c) reduced, and (a, -b, c) reduced and distinct: 0 < b < a < c
        h += int(np.count_nonzero((b <= a) & (a2 <= n)))
        h += int(np.count_nonzero((0 < b) & (b < a) & (a2 < n)))
    return h


def _reduced_form_l1(d: int) -> float:
    """L(1, chi_d) from the reduced-form count, the default L(1) source."""
    return _l1_odd(d, _reduced_form_count(d))


class _L1Lookup:
    """The L(1, chi_d) table of make_l1_lookup: a call answers one d, and
    values answers an int64 array of d by one gather, with the same
    refusals."""

    __slots__ = ("limit", "h", "fundamental")

    def __init__(self, limit: int):
        self.h = imag_class_numbers(limit)
        self.fundamental = _fundamental_mask(limit, -1)
        self.limit = limit

    def __call__(self, d: int) -> float:
        if -d > self.limit:
            raise DomainError("class number table too short for discriminant %d" % d)
        if d >= 0 or not self.fundamental[-d]:
            raise DomainError("need a fundamental discriminant < 0, got %d" % d)
        return _l1_odd(d, int(self.h[-d]))

    def values(self, d: np.ndarray) -> np.ndarray:
        """L(1, chi_d) for every entry of d, each with the bits of a call;
        the first d a call refuses raises its DomainError."""
        k = -d
        ok = (k > 0) & (k <= self.limit)
        ok &= self.fundamental[np.where(ok, k, 0)]
        if not ok.all():
            self(int(d.T[~ok.T][0]))  # column by column: field order in a run
        return _l1_odd_array(d, self.h[k])


def make_l1_lookup(limit: int) -> _L1Lookup:
    """L(1, chi_d) callable for fundamental d < 0, |d| <= limit, backed by one
    class-number sieve (imag_class_numbers); scans build it once per worker
    and read a whole run's d at once (_L1Lookup.values), and single-field
    reports count the reduced forms of each d, which gives the same h and so
    the same bits.

    d is validated by the mask of the fundamental -k, k <= limit, that
    fundamental_discriminants_up_to reads for the positive side
    (field_invariants._fundamental_mask with sign -1).  A positive d, a
    non-fundamental d and a |d| past the table raise DomainError, and so
    does a negative limit (imag_class_numbers).
    """
    return _L1Lookup(limit)


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


def _rational_trace(s, expected: str) -> int:
    """s as a Python int in {0, 1, -1}: a type other than an integer (bool
    included) raises DomainError(expected), another value DomainError."""
    if isinstance(s, bool):
        raise DomainError("%s, got %r" % (expected, s))
    try:
        s = operator.index(s)
    except TypeError:
        raise DomainError("%s, got %r" % (expected, s)) from None
    if s not in (0, 1, -1):
        raise DomainError("rational elliptic traces are 0 and +-1, got %r" % (s,))
    return s


def _cm_invariants(D: int, s: int, cm) -> CMExtensionInvariants:
    d2, d3, d_kp, w_prime, n_rel, n_u0, hr_ratio, _value = cm
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


def cm_extension_invariants(D: int, s: int, l1=None) -> CMExtensionInvariants:
    """Invariants of the CM extension attached to a rational elliptic trace.

    s is an integer of any type but bool.  l1 optionally supplies L(1, chi_d)
    values (callable d -> float); it is asked only for the d2 and d3 of the
    traces 0 and 1, all negative.  By default each factor is 2 pi h / (w sqrt|d|) with h(d)
    counted as reduced forms (_reduced_form_count).  The numbers are row |s|
    of the one-field run of _cm_run (s = -1 has the numbers of s = 1), and
    the invariants report the s given.
    """
    D = _check_field_discriminant(D)
    s = _rational_trace(s, "rational elliptic traces are 0 and +-1")
    cm = _cm_run([D], _reduced_form_l1 if l1 is None else l1)
    return _cm_invariants(D, s, _cm_field(cm, 0)[abs(s)])


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


def _trace_bound(trace: EllipticTrace, value: float, cm) -> TraceBound:
    """The TraceBound of one trace's value and CM numbers (None for an
    irrational trace), as _field_rows pairs them."""
    if cm is None:
        return TraceBound(trace=trace, value=value, exact=False,
                          unresolved_unit_ratio=True, cm=None)
    return TraceBound(trace=trace, value=value, exact=(cm[5] == 1), unresolved_unit_ratio=False,
                      cm=_cm_invariants(trace.D, trace.p // 2, cm))


def prestel_bound(D: int, s, l1=None) -> TraceBound:
    """Bound the count of elliptic points with trace s.

    s may be an EllipticTrace or a rational integer trace of any integer type
    but bool; l1 is read as by cm_extension_invariants.  A rational trace
    s takes its value from row |s| of the one-field run of _cm_run, an
    irrational one the integer N(4 - s^2).
    """
    D = _check_field_discriminant(D)
    if isinstance(s, EllipticTrace):
        trace = s
        if trace.D != D:
            raise DomainError("trace %s belongs to D=%d, not D=%d" % (trace, trace.D, D))
        if trace.is_rational:
            _rational_trace(trace.s_rational, "rational elliptic traces are 0 and +-1")
    else:
        s = _rational_trace(s, "s must be an EllipticTrace or a rational integer")
        trace = EllipticTrace(D=D, p=2 * s, q=0)
    if trace.q:
        return _trace_bound(trace, float(trace.norm_4_minus_s2()), None)
    cm = _cm_field(_cm_run([D], _reduced_form_l1 if l1 is None else l1), 0)[abs(trace.p) // 2]
    return _trace_bound(trace, cm[7], cm)


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
    """Enumerate traces and aggregate the per-trace bounds, the numbers of
    the one-field run of _elliptic_bounds; l1 is read as by
    cm_extension_invariants."""
    D = _check_field_discriminant(D)
    cm, (total,), (exponent,) = _elliptic_bounds([D], _reduced_form_l1 if l1 is None else l1)
    return EllipticSummary(
        D=D,
        bounds=tuple(_trace_bound(EllipticTrace(D=D, p=p, q=q), value, cm)
                     for p, q, value, cm in _field_rows(D, _cm_field(cm, 0))),
        total_bound=total,
        exponent_record=exponent,
    )


def fit_growth_exponent(ds, totals) -> float:
    """Least-squares slope of log(total) against log(D).

    ds and totals are matching 1-D sequences of positive finite numbers with
    at least two distinct D; anything else raises DomainError.
    """
    try:
        xs = np.asarray(ds, dtype=np.float64)
        ys = np.asarray(totals, dtype=np.float64)
    except (TypeError, ValueError):
        raise DomainError("need 1-D arrays of numbers, got %r and %r" % (ds, totals)) from None
    if xs.ndim != 1 or xs.shape != ys.shape:
        raise DomainError("need matching 1-D arrays, got shapes %s and %s" % (xs.shape, ys.shape))
    if not (np.isfinite(xs).all() and np.isfinite(ys).all() and (xs > 0).all() and (ys > 0).all()):
        raise DomainError("every D and total must be positive and finite")
    if np.unique(xs).size < 2:
        raise DomainError("need scan points at two or more distinct D")
    slope, _ = np.polyfit(np.log(xs), np.log(ys), 1)
    return float(slope)
