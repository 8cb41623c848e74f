"""Dirichlet L-values for quadratic characters, and zeta_K(-1) exactly.

Discriminants: one trial division, ``_prime_factors``, serves the memoized
``_fundamental_parts``: the prime-discriminant factors of d, or None unless
d is fundamental.  ``is_fundamental_discriminant`` and ``factor_fundamental``
both read those parts, so validating a field discriminant and building its
character table factor it once.

Evaluation routes:

* ``zeta_K_minus1``: zeta_K(-1) = B_{2,chi}/24 as a Fraction, the route of
  single-field reports and the cross-check of the one scans take (Siegel's
  divisor sums, in ``scan``); the even character folds its sum onto half a
  period, taken in int64 blocks of bounded length, so memory stays flat in
  D; from either, ``zeta_K2``: zeta_K(2) to float rounding.

* ``closed_form_l1``: exact finite evaluation of L(1, chi_d), where partial
  sums would need ~2M/tol terms.  For even characters (d > 0)
  it is the route of L(1, chi_D) in every report and scan, one call per
  field: -(1/sqrt(q)) sum chi(a) log sin(pi a / q), one elementwise log-sin
  pass over half a period and two pairwise sums.  For odd ones (d < 0) the
  integer sum gives the class number h = -w sum a chi(a) / (2q)
  (RuntimeError unless a positive integer), and the value is
  2 pi h / (w sqrt(q)), the expression that the elliptic bounds share; they
  take h from the class-number sieve of a scan or the reduced-form count of
  a single-field report (both in ``elliptic``), and this route is their
  independent cross-check.

* ``max_partial_sum``: M = max |sum_{n<=x} chi(n)| over one period, which
  bounds every partial sum (they are q-periodic, as a full period sums to
  zero), so summation by parts bounds a tail of L(s, chi) at s = 2 by
  2 M (N+1)^(-2); both zeta_K(2) routes of ``field_invariants`` read it.

Character tables are built two independent ways: ``kronecker_chi`` (the
reciprocity algorithm) and ``character_table`` (product of prime-discriminant
tables, quadratic residues found by squaring; the parts |p*| <= 64 are
views of cached runs of whole periods).  The ideal-counting route in
``field_invariants`` uses a third construction (Euler-criterion sieve) so the
dual zeta evaluations share no character code.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction

import numpy as np

from .errors import DomainError

# fixed tables for the even-conductor prime discriminants, index n mod q
_EVEN_TABLES = {
    -4: np.array([0, 1, 0, -1], dtype=np.int8),
    8: np.array([0, 1, 0, -1, 0, -1, 0, 1], dtype=np.int8),
    -8: np.array([0, 1, 0, 1, 0, -1, 0, -1], dtype=np.int8),
}

# Legendre tables up to this modulus are cached (read-only) and never
# evicted: about 1 MB for all the odd primes below it
_CACHED_MODULUS = 4096
_legendre_cache: dict[int, np.ndarray] = {}
_primes_cache: dict[int, np.ndarray] = {}
# the prime discriminants |p*| <= _RUN_PART (with -4 and +-8) keep their
# tables as read-only runs of whole periods of at most _RUN_LEN entries
# (128 KiB each, about 2.6 MB for all twenty), so character_table takes a
# table of modulus q <= _RUN_LEN as run[:q] views; a longer one tiles
_RUN_PART = 64
_RUN_LEN = 1 << 17
_runs: dict[int, np.ndarray] = {}

# roots of unity of the imaginary quadratic fields; w = 2 for all others
_W_IMAG = {-3: 6, -4: 4}

_INT64_MAX = 2**63 - 1
# the longest block of zeta_K_minus1's weights, 128 KiB of int64; with
# blocks twice as long, glibc's malloc maps and unmaps fresh pages for each
# one, 160 minor page faults per call at D = 99989
_DOT_BLOCK = 1 << 14


def _prime_factors(n: int) -> list[int]:
    """The primes p dividing |n| != 0, ascending."""
    n = abs(n)
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            out.append(p)
        p += 1 if p == 2 else 2
    if n > 1:
        out.append(n)
    return out


@functools.lru_cache(maxsize=1024)
def _fundamental_parts(d: int) -> tuple[int, ...] | None:
    """Prime discriminants p* = +-p = 1 mod 4 over the odd primes p | d,
    ascending, then the 2-part (-4, 8 or -8) if d is even; None unless d is
    a fundamental discriminant (positive or negative, not 1).

    d is fundamental iff d / prod(p*) is 1, -4, 8 or -8: no odd prime then
    divides d twice, the odd part is 1 mod 4, and a 2-part of 4 leaves
    d/4 = 3 mod 4.  Memoized on Python ints (the callers coerce d with
    operator.index): a scan validates D and builds its character table from
    one factorization.
    """
    if d in (0, 1):
        return None
    parts = tuple(p if p % 4 == 1 else -p for p in _prime_factors(d) if p > 2)
    two_part = d // math.prod(parts)
    if two_part == 1:
        return parts
    return parts + (two_part,) if two_part in (-4, 8, -8) else None


def is_fundamental_discriminant(x: int) -> bool:
    """Discriminant of a quadratic field (positive or negative), excluding 1."""
    return _fundamental_parts(operator.index(x)) is not None


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
    """The primes p <= limit, ascending; empty for any limit below 2."""
    limit = max(limit, 0)
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
    """The prime discriminants of d (_fundamental_parts), as Python ints;
    raises DomainError unless d is fundamental."""
    parts = _fundamental_parts(operator.index(d))
    if parts is None:
        raise DomainError(f"{d} is not a fundamental discriminant")
    return list(parts)


def _prime_table(part: int) -> np.ndarray:
    """chi_part(n), n = 0..|part|-1, of a prime discriminant part."""
    return _EVEN_TABLES[part] if part in _EVEN_TABLES else _legendre_table(abs(part))


def _tiled(tbl: np.ndarray, copies: int) -> np.ndarray:
    """copies whole periods of tbl in a fresh array: repeating it as rows is
    np.tile without its per-call overhead."""
    return tbl.reshape(1, -1).repeat(copies, axis=0).reshape(-1)


def _period_run(part: int) -> np.ndarray:
    """The table of a small prime discriminant part (|part| <= _RUN_PART),
    repeated over the whole periods that fit in _RUN_LEN; read-only, built
    on first use and kept."""
    run = _runs.get(part)
    if run is None:
        tbl = _prime_table(part)
        run = _tiled(tbl, _RUN_LEN // len(tbl))
        run.flags.writeable = False
        _runs[part] = run
    return run


def character_table(d: int) -> np.ndarray:
    """Values chi_d(n), n = 0..|d|-1, as the product of prime-discriminant
    tables; the returned array belongs to the caller.

    A small part's factor is a view of its cached run (_period_run) while q
    fits in it; any other factor tiles its table over q // len(table) whole
    periods (the factor moduli multiply to q).  A broadcast multiply into
    arr.reshape(-1, len(tbl)) is slower than the tile for short tables at
    large q.
    """
    q = abs(d)
    arr = None
    views = []
    for part in factor_fundamental(d):
        if q <= _RUN_LEN and abs(part) <= _RUN_PART:
            views.append(_period_run(part)[:q])
            continue
        tbl = _prime_table(part)
        # the first tile is fresh, so it is the table the others multiply into
        tiled = _tiled(tbl, q // len(tbl))
        if arr is None:
            arr = tiled
        else:
            arr *= tiled
    if arr is None:
        # only views: the first product (or copy) is the caller's array
        arr = np.multiply(views.pop(), views.pop()) if len(views) > 1 else views.pop().copy()
    for view in views:
        arr *= view
    return arr


def kronecker_table(d: int) -> np.ndarray:
    """Same values as character_table but via the reciprocity algorithm."""
    if not is_fundamental_discriminant(d):
        raise DomainError(f"{d} is not a fundamental discriminant")
    return np.array([kronecker_chi(d, n) for n in range(abs(d))], dtype=np.int8)


def max_partial_sum(table: np.ndarray) -> int:
    """Exact max |sum_{n<=x} chi(n)| over a period; valid for all x by periodicity."""
    return int(np.max(np.abs(np.cumsum(table, dtype=np.int64))))


def _l1_odd(d: int, h: int) -> float:
    """L(1, chi_d) = 2 pi h / (w sqrt|d|) for fundamental d < 0 of class number h."""
    return 2.0 * math.pi * h / (_W_IMAG.get(d, 2) * math.sqrt(-d))


def _l1_odd_array(d: np.ndarray, h: np.ndarray) -> np.ndarray:
    """_l1_odd entry by entry for int64 arrays d and h, in its operation
    order, so every entry has the bits of the scalar call."""
    w = np.where(d == -3, 6, np.where(d == -4, 4, 2))
    return 2.0 * math.pi * h / (w * np.sqrt(-d))


def closed_form_l1(d: int, table: np.ndarray | None = None) -> tuple[float, float]:
    """Exact finite-sum evaluation of L(1, chi_d); returns (value, error bound).

    For d > 0, L(1, chi) = -(2/sqrt(q)) sum_{0<a<q/2} chi(a) log sin(pi a / q),
    over one float64 array of the half period: the certificate scales the
    sum of the |log sin|, then the array is multiplied by chi in place."""
    q = abs(d)
    if table is None:
        table = character_table(d)
    if d < 0:
        # fold a <-> q-a (chi odd): sum a*chi(a) = sum_{a<q/2} chi(a)(2a - q)
        half = (q - 1) // 2
        a = np.arange(1, half + 1, dtype=np.int64)
        s_int = int((table[1 : half + 1].astype(np.int64) * (2 * a - q)).sum())
        w_sum = -_W_IMAG.get(d, 2) * s_int
        h, rem = divmod(w_sum, 2 * q)
        if rem or h < 1:
            raise RuntimeError("class number %s of d=%d from the character sum is "
                               "not a positive integer" % (Fraction(w_sum, 2 * q), d))
        value = _l1_odd(d, h)
        return value, 4e-15 * (abs(value) + 1.0)
    # chi even: fold around q/2 (log sin is symmetric), one array, in place
    half = (q - 1) // 2
    root = math.sqrt(q)
    x = np.arange(1, half + 1, dtype=np.float64)
    x *= math.pi / q
    np.log(np.sin(x, out=x), out=x)
    # every log sin is <= 0, so -sum(x) is exactly the sum of their absolute values
    cert = 2.0 ** -50 * -float(x.sum()) / root + 1e-14
    x *= table[1 : half + 1]
    return -2.0 * float(x.sum()) / root, cert


def zeta_K_minus1(D: int, table: np.ndarray | None = None) -> Fraction:
    """zeta_K(-1) = B_{2,chi}/24 = sum_{a<D} chi_D(a) a^2 / (24 D), D > 1.

    The route of single-field reports and the cross-check of the Siegel
    route of scans.  chi_D is even, so a and D - a pair up: the sum is
    sum_{1 <= a <= (D-1)/2} chi_D(a) (a^2 + (D - a)^2), with chi_D(D/2) = 0
    for even D.  It is taken as int64 dot products over blocks of k terms,
    k at most _DOT_BLOCK and k ((D - 1)^2 + 1) < 2^63 (the largest weight
    is at a = 1), added as Python ints; each block builds its own weights,
    so memory stays flat in D.
    """
    if D <= 1:
        raise DomainError(f"need a real quadratic field discriminant, got {D}")
    if table is None:
        table = character_table(D)
    k = min(_DOT_BLOCK, _INT64_MAX // ((D - 1) ** 2 + 1))
    if k < 1:
        raise DomainError(f"D = {D} is past the int64 range of a^2 + (D - a)^2")
    half = (D - 1) // 2
    total = 0
    for start in range(1, half + 1, k):
        stop = min(start + k, half + 1)
        a = np.arange(start, stop, dtype=np.int64)
        b = D - a
        a *= a
        b *= b
        a += b
        total += int(np.dot(table[start:stop], a))
    return Fraction(total, 24 * D)


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
    ideal-counting route.  Euler's criterion D^((p-1)/2) mod p runs over all
    primes at once by int64 square-and-multiply (exact while p < 2^31); then
    chi(n) = chi(spf(n)) chi(n / spf(n)) from a smallest-prime-factor table.
    """
    D = operator.index(D)
    primes = primes_up_to(limit).astype(np.int64)
    base, exponent, power = D % primes, (primes - 1) >> 1, np.ones_like(primes)
    for bit in range(int(exponent.max(initial=0)).bit_length()):
        power = np.where((exponent >> bit) & 1, power * base % primes, power)
        base = base * base % primes
    chi = np.zeros(limit + 1, dtype=np.int8)
    chi[1:2] = 1
    # power is 1 at residues, p - 1 at non-residues and 0 where p | D
    chi[primes] = np.where(power == primes - 1, -1, power)
    if limit >= 2:
        chi[2] = 0 if D % 2 == 0 else (1 if D % 8 == 1 else -1)
    n = np.arange(limit + 1, dtype=np.int64)
    spf = n.copy()
    for p in primes[primes * primes <= limit][::-1]:  # the smallest prime writes last
        spf[p * p :: p] = p
    # n / spf(n) <= n / 2 lies in an earlier dyadic block than n
    for j in range(1, int(limit).bit_length()):
        block = slice(1 << j, 2 << j)
        chi[block] = chi[spf[block]] * chi[n[block] // spf[block]]
    return chi
