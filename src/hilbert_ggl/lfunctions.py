"""Dirichlet L-values for quadratic characters, and zeta_K(-1) exactly.

Discriminants: one trial division, ``_prime_factors``, serves
``is_squarefree``, ``is_fundamental_discriminant`` (x not 0 or 1 and equal
to the discriminant of Q(sqrt(x))), ``factor_fundamental``,
``fundamental_discriminant`` and ``fundamental_discriminant_signed``.

Evaluation routes:

* ``zeta_K_minus1``: zeta_K(-1) = B_{2,chi}/24 as a Fraction, and from it
  ``zeta_K2``: zeta_K(2) to float rounding, the route of scans and reports.

* ``L_value``: L(2, chi) as a truncated character sum with an Abel-summation
  tail certificate.  For non-principal chi mod q every partial sum
  S(x) = sum_{n<=x} chi(n) is bounded by M = max over one period (S is
  q-periodic since the full period sums to zero), and summation by parts
  gives

      | sum_{n>N} chi(n) n^(-2) |  <=  2 M (N+1)^(-2).

  The number of terms needed is (2M/tol)^(1/2); when that exceeds the term
  budget a BudgetExceededError is raised instead of silently degrading.

* ``closed_form_l1``: exact finite evaluation of L(1, chi_d) used by the
  analytic class-number checks and bulk scans, where the partial-sum route
  would need ~2M/tol terms.  For odd characters (d < 0) the integer sum
  gives the class number h = -w sum a chi(a) / (2q) (RuntimeError unless a
  positive integer), and the value is 2 pi h / (w sqrt(q)), the expression
  the class-number sieve of ``elliptic`` shares; for even ones (d > 0) it is
  -(1/sqrt(q)) sum chi(a) log sin(pi a / q).

Character tables are built two independent ways: ``kronecker_chi`` (the
reciprocity algorithm) and ``character_table`` (product of prime-discriminant
tables, quadratic residues found by squaring).  The ideal-counting route in
``field_invariants`` uses a third construction (Euler-criterion sieve) so the
dual zeta evaluations share no character code.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import BudgetExceededError, DomainError

_CHUNK = 1 << 18

# fixed tables for the even-conductor prime discriminants, index n mod q
_TABLE_M4 = np.array([0, 1, 0, -1], dtype=np.int8)
_TABLE_P8 = np.array([0, 1, 0, -1, 0, -1, 0, 1], dtype=np.int8)
_TABLE_M8 = np.array([0, 1, 0, 1, 0, -1, 0, -1], dtype=np.int8)

# Legendre tables up to this modulus are cached (read-only) and never
# evicted: about 1 MB for all the odd primes below it
_CACHED_MODULUS = 4096
_legendre_cache: dict[int, np.ndarray] = {}
_primes_cache: dict[int, np.ndarray] = {}

# roots of unity of the imaginary quadratic fields; w = 2 for all others
_W_IMAG = {-3: 6, -4: 4}

# largest D with sum_{a<D} a^2 < 2^63: sum chi(a) a^2 stays in int64 up to it
_INT64_SQUARES = 3_024_617


def _prime_factors(n: int) -> list[tuple[int, int]]:
    """(p, e) for each prime power p^e exactly dividing |n| != 0, p ascending."""
    n = abs(n)
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def _field_discriminant(r: int) -> int:
    """Discriminant of Q(sqrt(r)), r != 0, or 1 if r is a square."""
    k = math.prod(p for p, e in _prime_factors(r) if e % 2)
    if r < 0:
        k = -k
    return k if k % 4 == 1 else 4 * k


def is_squarefree(n: int) -> bool:
    return n != 0 and all(e == 1 for _p, e in _prime_factors(n))


@functools.lru_cache(maxsize=1024)
def is_fundamental_discriminant(x: int) -> bool:
    """Discriminant of a quadratic field (positive or negative), excluding 1.

    Memoized: a scan re-checks the discriminants its own sieve produced.
    """
    return x not in (0, 1) and x == _field_discriminant(x)


def fundamental_discriminant(m: int) -> int:
    """Discriminant of Q(sqrt(m)) for squarefree m >= 2."""
    if m < 2 or not is_squarefree(m):
        raise DomainError(f"need a squarefree integer >= 2, got {m}")
    return m if m % 4 == 1 else 4 * m


def fundamental_discriminant_signed(r: int) -> int:
    """Discriminant of Q(sqrt(r)) for any nonsquare integer r."""
    if r == 0:
        raise DomainError("radicand must be nonzero")
    d = _field_discriminant(r)
    if d == 1:
        raise DomainError(f"{r} is a perfect square")
    return d


def kronecker_chi(d: int, n: int) -> int:
    """Kronecker symbol (d / n) for n >= 0."""
    a = d
    if n == 0:
        return 1 if a in (1, -1) else 0
    result = 1
    if n < 0:
        n = -n
        if a < 0:
            result = -result
    # factor twos out of n
    t = 0
    while n % 2 == 0:
        n //= 2
        t += 1
    if t:
        if a % 2 == 0:
            return 0
        if t % 2 == 1 and a % 8 in (3, 5):
            result = -result
    a %= n
    while a:
        t = 0
        while a % 2 == 0:
            a //= 2
            t += 1
        if t % 2 == 1 and n % 8 in (3, 5):
            result = -result
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a, n = n % a, a
    return result if n == 1 else 0


def primes_up_to(limit: int) -> np.ndarray:
    for cap, arr in _primes_cache.items():
        if cap >= limit:
            return arr[arr <= limit]
    sieve = np.ones(limit + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    arr = np.nonzero(sieve)[0]
    _primes_cache.clear()
    _primes_cache[limit] = arr
    return arr


def _legendre_table(p: int) -> np.ndarray:
    """(n/p) for n = 0..p-1; the residues are the squares a^2, 1 <= a < p/2."""
    tbl = _legendre_cache.get(p)
    if tbl is None:
        tbl = np.full(p, -1, dtype=np.int8)
        tbl[0] = 0
        a = np.arange(1, (p + 1) // 2, dtype=np.int64)
        tbl[a * a % p] = 1
        if p <= _CACHED_MODULUS:
            tbl.flags.writeable = False
            _legendre_cache[p] = tbl
    return tbl


def factor_fundamental(d: int) -> list[int]:
    """Prime-discriminant factorization p* = +-p = 1 mod 4 over the odd primes
    p | d, times the 2-part (-4, 8 or -8) if d is even; raises DomainError
    unless d is fundamental."""
    if not is_fundamental_discriminant(d):
        raise DomainError(f"{d} is not a fundamental discriminant")
    parts = [p if p % 4 == 1 else -p for p, _e in _prime_factors(d) if p > 2]
    two_part = d // math.prod(parts)
    return parts if two_part == 1 else parts + [two_part]


def character_table(d: int) -> np.ndarray:
    """Values chi_d(n), n = 0..|d|-1, as the product of prime-discriminant
    tables; the returned array belongs to the caller."""
    q = abs(d)
    arr = np.ones(q, dtype=np.int8)
    for part in factor_fundamental(d):
        if part == -4:
            tbl = _TABLE_M4
        elif part == 8:
            tbl = _TABLE_P8
        elif part == -8:
            tbl = _TABLE_M8
        else:
            tbl = _legendre_table(abs(part))
        # the factor moduli multiply to q, so each table repeats a whole
        # number of times
        arr *= np.tile(tbl, q // len(tbl))
    return arr


def kronecker_table(d: int) -> np.ndarray:
    """Same values as character_table but via the reciprocity algorithm."""
    if not is_fundamental_discriminant(d):
        raise DomainError(f"{d} is not a fundamental discriminant")
    return np.array([kronecker_chi(d, n) for n in range(abs(d))], dtype=np.int8)


def max_partial_sum(table: np.ndarray) -> int:
    """Exact max |sum_{n<=x} chi(n)| over a period; valid for all x by periodicity."""
    return int(np.max(np.abs(np.cumsum(table, dtype=np.int64))))


@dataclass(frozen=True)
class LValue:
    value: float
    error_bound: float
    terms: int
    d: int


def _tail_sum(table: np.ndarray, n_terms: int) -> float:
    """sum_{n<=N} chi(n)/n^2, fixed-chunk order so results are reproducible."""
    q = len(table)
    total = 0.0
    for start in range(1, n_terms + 1, _CHUNK):
        stop = min(start + _CHUNK, n_terms + 1)
        idx = np.arange(start, stop, dtype=np.int64)
        vals = table[idx % q].astype(np.float64)
        total += float(np.sum(vals / (idx.astype(np.float64) ** 2)))
    return total


def L_value(d: int, tol: float, term_budget: int = 10**7,
            table: np.ndarray | None = None) -> LValue:
    """L(2, chi_d) by partial sums, absolute error <= tol certified by Abel tail."""
    if tol <= 0:
        raise DomainError("tol must be positive")
    if table is None:
        table = character_table(d)
    m_bound = max_partial_sum(table)
    # the certificate is Abel tail + float rounding guard; aim the tail at
    # tol minus the worst-case guard so the total stays within tol
    round_guard = 5e-15 * max(1.0, math.log(term_budget + 1))
    tail_target = tol - round_guard
    if tail_target <= 0:
        raise BudgetExceededError(
            f"L(2, chi_{d}) tolerance {tol} is below the float rounding floor "
            f"{round_guard:.1e}",
            needed=term_budget + 1, budget=term_budget,
        )
    n_needed = math.ceil((2.0 * m_bound / tail_target) ** 0.5)
    if n_needed > term_budget:
        raise BudgetExceededError(
            f"L(2, chi_{d}) to tol {tol} needs {n_needed} terms, budget {term_budget}",
            needed=n_needed, budget=term_budget,
        )
    value = _tail_sum(table, n_needed)
    cert = 2.0 * m_bound / float(n_needed + 1) ** 2 + 5e-15 * max(1.0, math.log(n_needed + 1))
    if cert > tol:
        raise BudgetExceededError(
            f"L(2, chi_{d}) certificate {cert:.3e} exceeds requested {tol:.3e}",
            needed=n_needed + 1, budget=term_budget,
        )
    return LValue(value=value, error_bound=cert, terms=n_needed, d=d)


def _l1_odd(d: int, h: int) -> float:
    """L(1, chi_d) = 2 pi h / (w sqrt|d|) for fundamental d < 0 of class number h."""
    return 2.0 * math.pi * h / (_W_IMAG.get(d, 2) * math.sqrt(-d))


def closed_form_l1(d: int, table: np.ndarray | None = None) -> tuple[float, float]:
    """Exact finite-sum evaluation of L(1, chi_d); returns (value, error bound)."""
    q = abs(d)
    if table is None:
        table = character_table(d)
    if d < 0:
        # fold a <-> q-a (chi odd): sum a*chi(a) = sum_{a<q/2} chi(a)(2a - q)
        half = (q - 1) // 2
        a = np.arange(1, half + 1, dtype=np.int64)
        s_int = int(np.sum(table[1 : half + 1].astype(np.int64) * (2 * a - q)))
        w_sum = -_W_IMAG.get(d, 2) * s_int
        h, rem = divmod(w_sum, 2 * q)
        if rem or h < 1:
            raise RuntimeError("class number %s of d=%d from the character sum is "
                               "not a positive integer" % (Fraction(w_sum, 2 * q), d))
        value = _l1_odd(d, h)
        return value, 4e-15 * (abs(value) + 1.0)
    # chi even: fold around q/2, log sin symmetric
    half = (q - 1) // 2
    a = np.arange(1, half + 1, dtype=np.float64)
    logsin = np.log(np.sin(math.pi / q * a))
    terms = table[1 : half + 1].astype(np.float64) * logsin
    value = -2.0 * float(np.sum(terms)) / math.sqrt(q)
    cert = 2.0 ** -50 * float(np.sum(np.abs(logsin))) / math.sqrt(q) + 1e-14
    return value, cert


def zeta_K_minus1(D: int, table: np.ndarray | None = None) -> Fraction:
    """zeta_K(-1) = B_{2,chi}/24 = sum_{a<D} chi_D(a) a^2 / (24 D), D > 1."""
    if D <= 1:
        raise DomainError(f"need a real quadratic field discriminant, got {D}")
    if table is None:
        table = character_table(D)
    if D > _INT64_SQUARES:  # past the int64 range: Python ints cannot wrap
        return Fraction(sum(c * a * a for a, c in enumerate(table.tolist())), 24 * D)
    a = np.arange(D, dtype=np.int64)
    return Fraction(int(np.dot(table, a * a)), 24 * D)


def zeta_K2(D: int, zeta_m1: Fraction) -> tuple[float, float]:
    """(zeta_K(2), rounding bound) from zeta_K(2) = 4 pi^4 zeta_K(-1) / D^(3/2),
    given the exact zeta_m1 = zeta_K_minus1(D).

    Twelve roundings of at most u = 2^-53 (four through math.pi, two in pi2,
    one each in float(), sqrt, the three inexact products and the quotient)
    give a relative error gamma_12 = 12u / (1 - 12u), below 13u even with
    the rounding of the bound.
    """
    pi2 = math.pi * math.pi
    value = 4.0 * pi2 * pi2 * float(zeta_m1) / (D * math.sqrt(D))
    return value, 13 * 2.0 ** -53 * value


def zeta2_constant() -> float:
    return math.pi * math.pi / 6.0


def euler_chi_array(D: int, limit: int) -> np.ndarray:
    """chi_D(n) for n = 0..limit via Euler's criterion at primes + multiplicativity.

    Independent of both kronecker_chi and character_table; feeds the
    ideal-counting route.
    """
    D = operator.index(D)
    chi = np.ones(limit + 1, dtype=np.int8)
    chi[0] = 0
    for p in primes_up_to(limit):
        p = int(p)
        if p == 2:
            val = 0 if D % 2 == 0 else (1 if D % 8 == 1 else -1)
        elif D % p == 0:
            val = 0
        else:
            val = 1 if pow(D % p, (p - 1) >> 1, p) == 1 else -1
        if val == 1:
            continue
        if val == 0:
            chi[p::p] = 0
        else:
            pk = p
            while pk <= limit:
                chi[pk::pk] *= -1
                pk *= p
    return chi
