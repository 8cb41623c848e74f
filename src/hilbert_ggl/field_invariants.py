"""Exact invariants of real quadratic fields Q(sqrt(D)).

Everything discrete is integer arithmetic:

* fundamental unit: the classical continued fraction of
  omega = (sigma + sqrt(D))/2 run until the (P, Q) state repeats; the product
  of the period digit matrices has trace t and norm (-1)^(period length),
  and u is recovered exactly from t^2 - D u^2 = +-4.
* class numbers: cycles of reduced indefinite forms (a, b, c) under the rho
  operation.  The narrow number h+ is the cycle count; the unit norm is read
  off the principal cycle (it contains a form with a = -1 iff norm -1), which
  cross-checks the continued-fraction parity by an independent route.  One
  windowed divisor grid (_divisor_windows) finds the reduced forms of both
  signs, these and elliptic._reduced_form_count's; no trial division is left.
* regulator: log of the exact unit in 40-digit decimal arithmetic (the
  standard library's ``decimal``), so the float64 result is correctly
  rounded.

``invariants`` computes the exact zeta_K(-1) once and takes zeta_K(2) from it
(lfunctions.zeta_K2); the criterion compares L(1, chi_D) with it.
``zeta_K2_dual`` cross-checks it as zeta(2) L(2, chi_D) by two independent
float routes: characters (_zeta2_char_route: reciprocity-built table,
partial sums with Abel certificate) and ideal counts (zeta2_ideal_route:
divisor convolution of an Euler-criterion character sieve, truncation
completed exactly through the identity
sum_{d<=X} chi(d)/d^2 * (zeta(2) - H2(X//d)) and an Abel remainder).
Disagreement beyond the combined certificates raises.
"""

from __future__ import annotations

import decimal
import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

import numpy as np

from .errors import DomainError, NumericalAgreementError
from .lfunctions import (
    character_table,
    closed_form_l1,
    euler_chi_array,
    is_fundamental_discriminant,
    kronecker_table,
    max_partial_sum,
    primes_up_to,
    zeta2_constant,
    zeta_K2,
    zeta_K_minus1,
)

# degree n of the totally real fields handled here: every invariant below is
# quadratic, so the criterion is evaluated at n = 2
DEGREE = 2

# the cutoff X of zeta2_ideal_route
_IDEAL_LIMIT = 300_000

# the Abel tail that _zeta2_char_route aims its term count N at: with the
# rounding guard 5e-15 log(N + 1) added, its L(2) certificate stays within
# 2e-9 for every N <= 1e7, and D <= _IDEAL_LIMIT needs fewer than 3e6 terms
# (N^2 >= 2 M / target, M < sqrt(D) log D by Polya-Vinogradov)
_L2_TAIL_TARGET = 2e-9 - 5e-15 * math.log(10**7 + 1)

# terms per chunk of that sum, fixed so the float result is reproducible
_L2_CHUNK = 1 << 18

_REGULATOR_CONTEXT = decimal.Context(prec=40, Emax=decimal.MAX_EMAX)

# cells of one block of the divisor grid (_divisor_windows)
_FORM_CELLS = 1 << 18


def _squarefree_sieve(limit: int) -> np.ndarray:
    """sf[m] = m is squarefree, for 0 <= m <= limit (0 is not)."""
    sf = np.ones(limit + 1, dtype=bool)
    sf[0] = False
    for p in primes_up_to(isqrt(limit)):
        p2 = int(p) * int(p)
        sf[p2::p2] = False
    return sf


def _fundamental_mask(limit: int, sign: int) -> np.ndarray:
    """mask[k] = sign*k is a fundamental discriminant, for 0 <= k <= limit and
    sign = +-1: k > 1 squarefree with sign*k = 1 (mod 4), or k = 4m with m
    squarefree and sign*m = 2, 3 (mod 4)."""
    sf = _squarefree_sieve(limit)
    k = np.arange(limit + 1, dtype=np.int64)
    mask = sf & ((sign * k) % 4 == 1)
    mask[:2] = False
    m = k[: limit // 4 + 1]
    mask[4 * m] = sf[m] & ((sign * m) % 4 >= 2)
    return mask


def _divisor_windows(b: np.ndarray, n: np.ndarray, span):
    """Yield, block by block of rows, the arrays (b, a, n) of every a | n(b)
    with lo <= a <= hi, where span(b0, b1) = (lo, hi), lo >= 1, covers the
    windows of a of the block's rows b0 <= b <= b1.

    b ascends and n(b) > 0 shares its dtype.  A block tests about
    _FORM_CELLS cells, so memory stays flat; the caller drops each a outside
    its own row's window.  This grid finds the reduced forms of both signs.
    """
    lo, hi = span(int(b[0]), int(b[-1]))
    rows = max(1, _FORM_CELLS // (hi - lo + 1))
    for i in range(0, len(b), rows):
        bb, nb = b[i : i + rows], n[i : i + rows]
        lo, hi = span(int(bb[0]), int(bb[-1]))
        a = np.arange(lo, hi + 1, dtype=n.dtype)
        # a flat index is cheaper to find than a 2-d one; ravel().nonzero()
        # is np.flatnonzero without its wrapper's cost
        bi, ai = np.divmod((nb[:, None] % a == 0).ravel().nonzero()[0], len(a))
        yield bb[bi], a[ai], nb[bi]


def fundamental_discriminants_up_to(limit: int) -> list[int]:
    """All real quadratic field discriminants D <= limit, ascending."""
    if limit < 5:
        return []
    return np.flatnonzero(_fundamental_mask(limit, 1)).tolist()


def _check_field_discriminant(D) -> int:
    """D as a Python int, once it is a real quadratic field discriminant."""
    D = operator.index(D)
    if D <= 0 or not is_fundamental_discriminant(D):
        raise DomainError(f"{D} is not a real quadratic field discriminant")
    return D


def continued_fraction_unit(D: int) -> tuple[int, int, int]:
    """(t, u, norm) with epsilon = (t + u sqrt(D))/2 fundamental, t^2 - D u^2 = 4 norm."""
    D = _check_field_discriminant(D)
    s = isqrt(D)
    sigma = D % 2
    P, Q = sigma, 2
    seen: dict[tuple[int, int], int] = {}
    digits: list[int] = []
    while (P, Q) not in seen:
        seen[(P, Q)] = len(digits)
        a = (P + s) // Q
        digits.append(a)
        P = a * Q - P
        num = D - P * P
        if num <= 0 or num % Q:
            raise RuntimeError(f"continued fraction state invariant broken at D={D}")
        Q = num // Q
    word = digits[seen[(P, Q)] :]
    m00, m01, m10, m11 = 1, 0, 0, 1
    for b in word:
        m00, m01, m10, m11 = m00 * b + m01, m00, m10 * b + m11, m10
    t = m00 + m11
    norm = -1 if len(word) % 2 else 1
    u_sq, rem = divmod(t * t - 4 * norm, D)
    if rem:
        raise RuntimeError(f"trace {t} incompatible with D={D}")
    u = isqrt(u_sq)
    if u * u != u_sq:
        raise RuntimeError(f"unit coefficient not integral for D={D}")
    return t, u, norm


@dataclass(frozen=True)
class FundamentalUnit:
    D: int
    t: int
    u: int
    norm: int

    def elem(self):
        from .quadratic import QuadElem

        return QuadElem.from_pq(self.t, self.u, self.D)

    def totally_positive_generator(self):
        """Generator of the totally positive units: epsilon, or its square if norm -1."""
        e = self.elem()
        return e if self.norm == 1 else e * e

    def regulator(self) -> float:
        # t + u sqrt(D) adds two positive terms, so no digits cancel: each
        # step errs by a few units in the 40th digit, and R >= 0.48 then has
        # a relative error near 1e-39 whatever the size of t, far below
        # float precision, so float() rounds it correctly
        ctx = _REGULATOR_CONTEXT
        x = ctx.add(self.t, ctx.multiply(self.u, ctx.sqrt(self.D)))
        return float(ctx.ln(ctx.divide(x, 2)))


def fundamental_unit(D: int) -> FundamentalUnit:
    return _fundamental_unit(_check_field_discriminant(D))


@functools.lru_cache(maxsize=4)
def _fundamental_unit(D: int) -> FundamentalUnit:
    """The unit of a validated D, memoized: a field report asks for it twice,
    in exact_hr and in cusps.cusp_cycle, and runs the continued fraction once."""
    t, u, norm = continued_fraction_unit(D)
    return FundamentalUnit(D=D, t=t, u=u, norm=norm)


def regulator(D: int) -> float:
    return fundamental_unit(D).regulator()


def reduced_forms(D: int) -> list[tuple[int, int, int]]:
    """Reduced indefinite forms (a, b, c) of discriminant D: sqrt(D)-b < 2|a| < sqrt(D)+b,
    in integers s < 2|a| + b and 2|a| - b <= s, s = isqrt(D) (D is not a square)."""
    D = _check_field_discriminant(D)
    s = isqrt(D)
    # b^2 <= D, so below D = 2^32 every term fits (the faster) uint32
    b = np.arange(2 - D % 2, s + 1, 2, dtype=np.uint32 if D < 1 << 32 else np.uint64)
    out = []
    # the windows widen with b, so the last row's holds a block's others
    for b, a, n in _divisor_windows(b, (D - b * b) >> 2,
                                    lambda b0, b1: ((s + 2 - b1) // 2, (s + b1) // 2)):
        keep = (s < 2 * a + b) & (2 * a <= s + b)
        for a, b, c in zip(a[keep].tolist(), b[keep].tolist(), (n[keep] // a[keep]).tolist()):
            out += [(a, b, -c), (-a, b, c)]
    return sorted(out)


def rho_step(form: tuple[int, int, int], D: int) -> tuple[int, int, int]:
    """Right neighbor: (a, b, c) -> (c, r, (r^2 - D)/(4c)), r = -b mod 2|c| nearest sqrt(D)."""
    _a, b, c = form
    D = operator.index(D)
    s = isqrt(D)
    r = s - ((s + b) % (2 * abs(c)))
    num = r * r - D
    if num % (4 * c):
        raise RuntimeError(f"rho step not integral at {form}, D={D}")
    return (c, r, num // (4 * c))


def principal_form(D: int) -> tuple[int, int, int]:
    D = _check_field_discriminant(D)
    s = isqrt(D)
    b0 = s if (s - D) % 2 == 0 else s - 1
    return (1, b0, (b0 * b0 - D) // 4)


def form_cycles(D: int) -> list[list[tuple[int, int, int]]]:
    D = _check_field_discriminant(D)
    forms = reduced_forms(D)
    fset = set(forms)
    visited: set[tuple[int, int, int]] = set()
    cycles = []
    for f in forms:
        if f in visited:
            continue
        cyc = []
        g = f
        while True:
            cyc.append(g)
            visited.add(g)
            g = rho_step(g, D)
            if g not in fset:
                raise RuntimeError(f"rho left the reduced set at {g}, D={D}")
            if g == f:
                break
            if g in visited:
                raise RuntimeError(f"rho cycles merged at {g}, D={D}")
        cycles.append(cyc)
    return cycles


@dataclass(frozen=True)
class ClassData:
    D: int
    h: int
    h_plus: int
    unit_norm: int


def class_number(D: int) -> ClassData:
    """Wide and narrow class numbers from form cycles.

    The unit norm comes from the principal cycle (contains some (-1, b, c)
    iff the fundamental unit has norm -1), not from the continued fraction,
    so callers can compare the two routes.
    """
    D = _check_field_discriminant(D)
    cycles = form_cycles(D)
    h_plus = len(cycles)
    pf = principal_form(D)
    principal_cycle = None
    for cyc in cycles:
        if pf in cyc:
            principal_cycle = cyc
            break
    if principal_cycle is None:
        raise RuntimeError(f"principal form {pf} not reduced for D={D}")
    norm = -1 if any(a == -1 for (a, _b, _c) in principal_cycle) else 1
    if norm == -1:
        h = h_plus
    else:
        if h_plus % 2:
            raise RuntimeError(f"narrow class number parity broken at D={D}")
        h = h_plus // 2
    return ClassData(D=D, h=h, h_plus=h_plus, unit_norm=norm)


@dataclass(frozen=True)
class QuadraticFieldInvariants:
    D: int
    h: int
    h_plus: int
    t: int
    u: int
    unit_norm: int
    regulator: float
    hr: float
    l1_value: float
    l1_cert: float
    zeta2: float
    zeta2_cert: float
    zeta_m1: Fraction
    acnf_residual: float


def exact_hr(D: int, l1: float, l1_cert: float
             ) -> tuple[FundamentalUnit, ClassData, float, float]:
    """(unit, class data, regulator, residual) of Q(sqrt(D)), checked against
    L(1, chi_D) = l1 with certificate l1_cert.

    Raises NumericalAgreementError if the two unit-norm routes disagree (a
    bug, not a tolerance issue) or if the class number formula residual
    |2hR/sqrt(D) - l1| exceeds l1_cert + 8u |l1|, u = 2^-53: R is correctly
    rounded, and the product, square root and quotient add three roundings.
    """
    unit = fundamental_unit(D)
    cd = class_number(D)
    if cd.unit_norm != unit.norm:
        raise NumericalAgreementError(
            f"D={D}: unit norm {unit.norm} from continued fraction vs "
            f"{cd.unit_norm} from form cycles"
        )
    reg = unit.regulator()
    residual = abs(2.0 * (cd.h * reg) / math.sqrt(D) - l1)
    bound = l1_cert + 8 * 2.0 ** -53 * abs(l1)
    if residual > bound:
        raise NumericalAgreementError(
            f"D={D}: class number formula residual {residual:.3e} exceeds "
            f"{bound:.3e} (L(1) cert {l1_cert:.1e} + rounding)"
        )
    return unit, cd, reg, residual


def invariants(D: int) -> QuadraticFieldInvariants:
    """All field data for the criterion, with the exact_hr checks enforced."""
    D = _check_field_discriminant(D)
    table = character_table(D)
    l1, l1_cert = closed_form_l1(D, table)
    unit, cd, reg, residual = exact_hr(D, l1, l1_cert)
    zeta_m1 = zeta_K_minus1(D, table)
    zeta2, zeta2_cert = zeta_K2(D, zeta_m1)
    return QuadraticFieldInvariants(
        D=D, h=cd.h, h_plus=cd.h_plus, t=unit.t, u=unit.u, unit_norm=unit.norm,
        regulator=reg, hr=cd.h * reg, l1_value=l1, l1_cert=l1_cert,
        zeta2=zeta2, zeta2_cert=zeta2_cert, zeta_m1=zeta_m1,
        acnf_residual=residual,
    )


@functools.cache
def _invsq_h2() -> tuple[np.ndarray, np.ndarray]:
    """1/n^2 and its partial sums H2(n), n = 0.._IDEAL_LIMIT (0 at n = 0)."""
    invsq = np.zeros(_IDEAL_LIMIT + 1, dtype=np.float64)
    n = np.arange(1, _IDEAL_LIMIT + 1, dtype=np.float64)
    invsq[1:] = 1.0 / (n * n)
    return invsq, np.cumsum(invsq)


def ideal_norm_counts(chi: np.ndarray) -> np.ndarray:
    """r(n) = number of integral ideals of norm n, n = 0..limit.

    Divisor convolution of the Euler-criterion character array chi[0..limit]
    of the field: small divisors by strided scalar adds, large ones
    (quotient <= 64) by gathered index adds.
    """
    limit = len(chi) - 1
    r = np.zeros(limit + 1, dtype=np.int32)
    k_split = 64
    cut = limit // k_split
    for d in range(1, cut + 1):
        c = int(chi[d])
        if c:
            r[d::d] += c
    lo = cut + 1
    for k in range(1, k_split + 1):
        hi = limit // k
        if hi < lo:
            break
        dd = np.arange(lo, hi + 1, dtype=np.int64)
        r[k * dd] += chi[dd]
    return r


def zeta2_ideal_route(D: int) -> tuple[float, float]:
    """zeta_K(2) as sum r(n)/n^2, truncation completed exactly.

    sum_{n<=X} r(n)/n^2 counts pairs d*b = n; the missing pairs with d <= X,
    b > X//d are restored via sum chi(d)/d^2 (zeta(2) - H2(X//d)), leaving
    only the d > X tail, which Abel-bounds by 2 M zeta(2)/(X+1)^2.
    """
    D = _check_field_discriminant(D)
    limit = _IDEAL_LIMIT
    if limit < D:
        raise DomainError(f"cutoff {limit} below conductor {D}")
    z2 = zeta2_constant()
    invsq, h2 = _invsq_h2()
    chi = euler_chi_array(D, limit)
    r = ideal_norm_counts(chi)
    s1 = float(np.sum(r[1:].astype(np.float64) * invsq[1:]))
    quot = limit // np.arange(1, limit + 1, dtype=np.int64)
    comp = float(np.sum(chi[1:].astype(np.float64) * invsq[1:] * (z2 - h2[quot])))
    m_bound = max_partial_sum(chi[1 : D + 1])
    cert = z2 * 2.0 * m_bound / float(limit + 1) ** 2 + 3e-13
    return s1 + comp, cert


@dataclass(frozen=True)
class DualZeta:
    D: int
    char_value: float
    char_cert: float
    ideal_value: float
    ideal_cert: float
    difference: float


def _zeta2_char_route(D: int) -> tuple[float, float]:
    """zeta_K(2) as zeta(2) L(2, chi_D), L(2) summed to N terms of the
    reciprocity-built character table.

    Summation by parts bounds the tail past N by 2 M/(N+1)^2, M the largest
    partial sum over a period (lfunctions.max_partial_sum); 5e-15 log(N + 1)
    guards the float rounding of the chunked sum.
    """
    chi = kronecker_table(D)
    m_bound = max_partial_sum(chi)
    n_terms = math.ceil((2.0 * m_bound / _L2_TAIL_TARGET) ** 0.5)
    total = 0.0
    for start in range(1, n_terms + 1, _L2_CHUNK):
        idx = np.arange(start, min(start + _L2_CHUNK, n_terms + 1), dtype=np.int64)
        total += float(np.sum(chi[idx % D].astype(np.float64) / (idx.astype(np.float64) ** 2)))
    cert = 2.0 * m_bound / float(n_terms + 1) ** 2 + 5e-15 * math.log(n_terms + 1)
    z2 = zeta2_constant()
    return z2 * total, z2 * cert + 1e-15


def zeta_K2_dual(D: int) -> DualZeta:
    """zeta_K(2) by two routes sharing no character code; raises on disagreement.

    The ideal route goes first, as it refuses D > _IDEAL_LIMIT before any work.
    """
    D = _check_field_discriminant(D)
    ideal_value, ideal_cert = zeta2_ideal_route(D)
    char_value, char_cert = _zeta2_char_route(D)
    diff = abs(char_value - ideal_value)
    if diff > char_cert + ideal_cert + 1e-12:
        raise NumericalAgreementError(
            f"D={D}: zeta_K(2) routes differ by {diff:.3e}, "
            f"certificates {char_cert:.3e} + {ideal_cert:.3e}"
        )
    return DualZeta(D=D, char_value=char_value, char_cert=char_cert,
                    ideal_value=ideal_value, ideal_cert=ideal_cert, difference=diff)
