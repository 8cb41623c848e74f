"""Independent brute-force oracles used only by the test suite.

Every oracle recomputes a quantity through a route that shares no code with
the package: fundamental discriminants come from their definition, with
every square divisor tried, the unit search ascends u directly, class
numbers come from the analytic formula with a digamma L-value, L-values go
through mpmath digamma and Hurwitz zeta identities, zeta_K(-1) comes from
Siegel's divisor sums with each sigma_1 by trial division (scans sum a
sieved sigma_1 table), reduced indefinite forms come from the trial
divisors of each (D - b^2)/4, tested for reducedness on squares (the
package searches an integer window of a divisor grid), elliptic traces
come from a floating point box search on both embeddings, determinants
come from the Leibniz permutation sum, every cusp chart goes through the
generic wedge engine (which the package runs on two charts per cycle
only), cusp cycles are rebuilt with a QuadElem at every continued-fraction
and recurrence step (the package runs both on integers), the class-number
sieve adds through a fancy index (the package adds along strided slices,
two forms at a time), sigma_1 tables add every divisor along its own
strided slice (the package adds the large ones through their cofactors),
scan records are decoded key by key, rendered to CSV cell by cell and
encoded as cache text by the stdlib JSON encoder (the package fills one
template), the verdict is taken by the float sign tests that the exact
comparison replaced, and the elliptic numbers of a field come from scalar
int and float arithmetic, one trace at a time (the package takes a run of
fields as int64 and float64 arrays).
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
from fractions import Fraction

import mpmath
import numpy as np

from hilbert_ggl.cusps import CuspChartCheck, CuspCycle, _default_surd, _module_multiplier
from hilbert_ggl.cyclic import _wedge_check
from hilbert_ggl.quadratic import QuadElem


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a/n), textbook recursion."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    if a % 2 == 0 and n % 2 == 0:
        return 0
    t = 1
    if n < 0:
        n = -n
        if a < 0:
            t = -t
    while n % 2 == 0:
        n //= 2
        if a % 8 in (3, 5):
            t = -t
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                t = -t
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            t = -t
        a %= n
    return t if n == 1 else 0


def brute_fundamental_unit(D: int, u_limit: int = 10_000_000) -> tuple[int, int, int]:
    """Minimal (t, u, norm) with t^2 - D u^2 = 4*norm, by ascending u.

    For fixed u the norm -1 solution (smaller t) is the smaller unit, so it
    is checked first.  Only usable where the fundamental unit is modest;
    Pell-hard discriminants exceed any brute search.
    """
    for u in range(1, u_limit + 1):
        for norm in (-1, 1):
            t2 = D * u * u + 4 * norm
            if t2 > 0:
                t = math.isqrt(t2)
                if t * t == t2:
                    return t, u, norm
    raise AssertionError(f"no unit with u <= {u_limit} for D={D}")


def brute_squarefree(n: int) -> bool:
    """No k^2 > 1 divides n != 0, trying every k."""
    n = abs(n)
    return n != 0 and all(n % (k * k) for k in range(2, math.isqrt(n) + 1))


def brute_is_fundamental(d: int) -> bool:
    """The definition: d = 1 mod 4 squarefree, d != 1, or d = 4m with
    m = 2, 3 mod 4 squarefree."""
    if d % 4 == 1:
        return d != 1 and brute_squarefree(d)
    return d % 4 == 0 and (d // 4) % 4 in (2, 3) and brute_squarefree(d // 4)


def mp_regulator(D: int, t: int | None = None, u: int | None = None) -> mpmath.mpf:
    """log((t + u sqrt D)/2) at high precision; unit found by brute force
    unless supplied by the caller."""
    if t is None or u is None:
        t, u, _ = brute_fundamental_unit(D)
    with mpmath.workdps(40 + len(str(t))):
        return mpmath.log((t + u * mpmath.sqrt(D)) / 2)


def mp_l_value(s: int, d: int):
    """L(s, chi_d) at 40 digits.

    s=1 uses L(1, chi) = -(1/q) sum chi(a) psi(a/q); s>=2 uses the Hurwitz
    zeta identity L(s, chi) = q^-s sum chi(a) zeta(s, a/q).
    """
    q = abs(d)
    with mpmath.workdps(40):
        terms = []
        for a in range(1, q):
            chi = kronecker(d, a)
            if not chi:
                continue
            if s == 1:
                terms.append(-chi * mpmath.digamma(mpmath.mpf(a) / q))
            else:
                terms.append(chi * mpmath.zeta(s, mpmath.mpf(a) / q))
        total = mpmath.fsum(terms) / mpmath.mpf(q) ** s
        return +total


def brute_class_number(D: int, t: int | None = None, u: int | None = None) -> int:
    """Wide class number from the analytic formula h = sqrt(D) L(1) / (2R).

    The L-value and the logarithm are evaluated independently of the package;
    (t, u) may be passed in for fields whose unit is too large to brute."""
    with mpmath.workdps(40):
        h = mpmath.sqrt(D) * mp_l_value(1, D) / (2 * mp_regulator(D, t, u))
        hn = int(mpmath.nint(h))
        if abs(h - hn) > 1e-15:
            raise AssertionError(f"analytic h for D={D} not near an integer: {h}")
        return hn


def _sigma1(n: int) -> int:
    """Sum of the divisors of n >= 1, by trial division."""
    total = 0
    d = 1
    while d * d <= n:
        if n % d == 0:
            total += d if d * d == n else d + n // d
        d += 1
    return total


def siegel_zeta_minus1(D: int) -> Fraction:
    """zeta_K(-1) of Q(sqrt D) by Siegel's formula, no characters involved:
    (1/60) sum sigma_1((D - b^2)/4) over |b| < sqrt(D), b = D (mod 2)."""
    total = 0
    b = D % 2
    while b * b < D:
        s = _sigma1((D - b * b) // 4)
        total += s if b == 0 else 2 * s
        b += 2
    return Fraction(total, 60)


def trial_division_reduced_forms(D: int) -> list[tuple[int, int, int]]:
    """Sorted reduced forms (a, b, c) of discriminant D > 0, not a square:
    every divisor a of n = (D - b^2)/4 by trial division, for each
    0 < b < sqrt(D), b = D (mod 2), kept iff sqrt(D) - b < 2a < sqrt(D) + b,
    tested on squares, as (a, b, -n/a) and (-a, b, n/a)."""
    out = []
    b = 2 - D % 2
    while b * b < D:
        n = (D - b * b) // 4
        d = 1
        while d * d <= n:
            if n % d == 0:
                for a in {d, n // d}:
                    if (2 * a + b) ** 2 > D and (2 * a - b < 0 or (2 * a - b) ** 2 < D):
                        out += [(a, b, -(n // a)), (-a, b, n // a)]
            d += 1
        b += 2
    return sorted(out)


def strided_divisor_sums(limit: int) -> np.ndarray:
    """sigma_1(n) for 0 <= n <= limit, one strided add per divisor k <= limit
    (the package adds the divisors past isqrt(limit) through their cofactors)."""
    sigma = np.zeros(limit + 1, dtype=np.int64)
    for k in range(1, limit + 1):
        sigma[k::k] += k
    return sigma


def arange_imag_class_numbers(limit: int) -> np.ndarray:
    """h[k] = the number of reduced forms (a, b, c) of discriminant -k, for
    0 <= k <= limit, with every c of each (a, b) listed by np.arange and added
    through one fancy index (the package adds along a strided slice)."""
    h = np.zeros(limit + 1, dtype=np.int64)
    for a in range(1, math.isqrt(limit // 3) + 1):
        for b in range(-a + 1, a + 1):
            c0 = a if b >= 0 else a + 1
            c_hi = (limit + b * b) // (4 * a)
            if c_hi < c0:
                continue
            cs = np.arange(c0, c_hi + 1, dtype=np.int64)
            h[4 * a * cs - b * b] += 1
    return h


def brute_elliptic_traces(D: int) -> set[tuple[int, int]]:
    """Canonical (p, q) with s = (p + q sqrt(D))/2 integral and both
    embeddings of absolute value < 2, by floating point box search."""
    rt = math.sqrt(D)
    found = set()
    for p in range(-5, 6):
        for q in range(-5, 6):
            if D % 4 == 1:
                if (p - q) % 2:
                    continue
            else:
                if p % 2:
                    continue
            s1 = (p + q * rt) / 2
            s2 = (p - q * rt) / 2
            if abs(s1) < 2 and abs(s2) < 2:
                if p > 0 or (p == 0 and q >= 0):
                    found.add((p, q))
                else:
                    found.add((-p, -q))
    return found


_TWO_PI_SQ = 2.0 * math.pi ** 2


def scalar_cm_numbers(D: int, s: int, l1) -> tuple[int, int, int, int, int, int, float]:
    """(d2, d3, d_K', w', N(rel disc), N(U0)^2, h'R'/hR) of the rational
    trace s in {0, +-1} of the field D by Python int and float arithmetic;
    l1 gives L(1, chi_d) for d = d2 and d3.  A failed divisibility or
    positivity check raises RuntimeError."""
    d2 = -4 if s == 0 else -3
    m = D if D % 4 == 1 else D // 4
    core = -m if s == 0 else (-m // 3 if m % 3 == 0 else -3 * m)
    d3 = core if core % 4 == 1 else 4 * core
    d_kp = abs(D * d2 * d3)
    w_prime = 12 if d3 in (-3, -4) else (4 if d2 == -4 else 6)
    if d_kp % (D * D):
        raise RuntimeError("d_K' = %d is not divisible by D^2 = %d" % (d_kp, D * D))
    n_rel = d_kp // (D * D)
    n4s = (4 - s * s) ** 2
    if n4s % n_rel:
        raise RuntimeError("N(4-s^2) = %d not divisible by N(rel disc) = %d" % (n4s, n_rel))
    n_u0 = n4s // n_rel
    if n_u0 < 1:
        raise RuntimeError("N(U0)^2 = %d below 1" % n_u0)
    hr_ratio = w_prime * math.sqrt(abs(d2 * d3)) * l1(d2) * l1(d3) / _TWO_PI_SQ
    return d2, d3, d_kp, w_prime, n_rel, n_u0, hr_ratio


def scalar_trace_value(D: int, p: int, q: int, l1):
    """(value, cm) of the trace class s = (p + q sqrt(D))/2: a rational trace
    gives (h'R'/hR) N(U0)^2 and its scalar_cm_numbers, an irrational one the
    integer N(4 - s^2) = ((16 - p^2 - q^2 D)^2 - 4 p^2 q^2 D) / 16 as a
    float and None."""
    if q:
        v = 16 - p * p - q * q * D
        num = v * v - 4 * p * p * q * q * D
        assert num % 16 == 0 and num > 0, (D, p, q)
        return float(num // 16), None
    cm = scalar_cm_numbers(D, p // 2, l1)
    return cm[6] * cm[5], cm


def scalar_elliptic_bounds(D: int, pairs, l1):
    """(rows, total, exponent) of the field D with trace classes pairs, one
    trace at a time: rows holds (p, q, value, cm) per pair in the given
    order, the total is float(sum(values)) in that order and the exponent
    log(total) / log(D)."""
    rows = [(p, q) + scalar_trace_value(D, p, q, l1) for p, q in pairs]
    total = float(sum(row[2] for row in rows))
    return rows, total, math.log(total) / math.log(D)


def minus_cf_value(digits: list[int]) -> Fraction:
    """Exact value of b0 - 1/(b1 - 1/(...)), folded right to left."""
    x = Fraction(digits[-1])
    for b in reversed(digits[:-1]):
        x = b - Fraction(1, 1) / x
    return x


def rotations(word: tuple) -> list[tuple]:
    return [word[i:] + word[:i] for i in range(len(word))]


def cyclically_equal(a, b) -> bool:
    a, b = tuple(a), tuple(b)
    return len(a) == len(b) and a in rotations(b)


def leibniz_det(rows):
    """sum over permutations p of sign(p) * prod_i rows[i][p(i)], for any ring
    entries supporting +, - and *."""
    n = len(rows)
    total = None
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = rows[0][perm[0]]
        for i in range(1, n):
            term = term * rows[i][perm[i]]
        if total is None:
            total = term if inversions % 2 == 0 else -term
        else:
            total = total - term if inversions % 2 else total + term
    return total


def wedge_cusp_charts(cycle) -> tuple:
    """The CuspChartCheck of every chart (mu_k, mu_{k+1}) of a cusp cycle, by
    the generic wedge engine on the embedding rows (mu, mu') of its rays: a
    symbolic wedge of the two logarithmic forms, checked against a Bareiss
    determinant, instead of the module-determinant identity."""
    rows = [(mu, mu.conjugate()) for mu in cycle.rays + (cycle.closing_ray,)]
    out = []
    for k in range(len(cycle.rays)):
        lam, mult, degenerate = _wedge_check(rows[k:k + 2])
        assert degenerate or lam.a == 0, (cycle.D, k, lam)
        out.append(CuspChartCheck(det=lam, sqrt_coeff=lam.y, multiplicities=mult,
                                  coord_det=cycle.coord_det, degenerate=degenerate))
    return tuple(out)



def quadelem_cusp_cycle(D: int, module=None, v=None):
    """The CuspCycle of cusp_cycle by QuadElem arithmetic at every step: the
    period word by QuadElem.hj_step until the tail returns to w, the rays by
    the three-term recurrence on QuadElem, and each ray's module coordinates
    by Cramer's rule in Fractions.  The reduced w and the scaling lam come
    from the package (_default_surd, _module_multiplier).  The determinant of
    every consecutive coordinate pair is formed, and the one check made here
    is that they are a single value, which becomes coord_det."""
    if module is None:
        alpha, beta = QuadElem.from_rational(1, D), QuadElem.from_pq(D, 1, D)
        lam, w = alpha, _default_surd(D)
    else:
        alpha, beta = (g if isinstance(g, QuadElem) else QuadElem.from_rational(g, D)
                       for g in module)
        lam, w = _module_multiplier(alpha, beta)
    digits, tail = [], w
    while True:
        b, tail = tail.hj_step()
        digits.append(b)
        if tail == w:
            break
    r = len(digits)

    def rays(count):
        mus = [QuadElem.from_rational(1, D), digits[0] - w]
        for k in range(1, count):
            mus.append(digits[k % r] * mus[k] - mus[k - 1])
        return mus

    eta_period = rays(r)[r].inverse()
    if v is None:
        f = 1
    elif isinstance(v, QuadElem):
        f = next(k for k in itertools.count(1) if v in (eta_period ** k, eta_period ** -k))
    else:
        f = v
    mus = [lam * mu for mu in rays(f * r)]
    den = alpha.x * beta.y - alpha.y * beta.x
    coords = [((mu.x * beta.y - mu.y * beta.x) / den, (alpha.x * mu.y - alpha.y * mu.x) / den)
              for mu in mus]
    dets = {x1 * y2 - y1 * x2 for (x1, y1), (x2, y2) in zip(coords, coords[1:])}
    assert len(dets) == 1, (D, module, v, dets)
    (coord_det,) = dets
    return CuspCycle(D=D, digits=tuple(digits * f), period=r, v_power=f, rays=tuple(mus[:-1]),
                     closing_ray=mus[-1], eta=eta_period ** f, eta_period=eta_period,
                     module=(alpha, beta), coord_det=coord_det,
                     unimodular=abs(coord_det) == 1)


# the JSON types each FieldRecord key accepts; every key not listed holds a float
_RECORD_JSON_TYPES = {"D": (int,), "h": (int, type(None)), "R": (float, int, type(None)),
                      "verdict": (str,), "flags": (list,), "exact": (bool,)}


def record_from_dict(record_class, rec: dict):
    """A record_class (FieldRecord) from its JSON-native dict, checking the
    type of each key in field order, then the verdict, then the flags; built
    through the generated __init__."""
    values = {}
    for field in dataclasses.fields(record_class):
        name = field.name
        value = rec[name]
        # exact types, so that JSON true and false pass for no number
        if type(value) not in _RECORD_JSON_TYPES.get(name, (float, int)):
            raise ValueError("invalid %s: %r" % (name, value))
        # every key but D and h holds a float, which JSON may write as an int
        values[name] = float(value) if type(value) is int and name not in ("D", "h") else value
    if values["verdict"] not in ("Satisfied", "CandidateExceptional"):
        raise ValueError("invalid verdict: %r" % values["verdict"])
    if any(type(f) is not str for f in values["flags"]):
        raise ValueError("invalid flags: %r" % values["flags"])
    return record_class(**{**values, "flags": tuple(values["flags"])})


def canonical_record_json(record: dict) -> str:
    """Sorted, compact JSON of a JSON-native record (as from to_dict), by the
    stdlib encoder: the record text the scan cache writes and checksums."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"), allow_nan=False)


def _cell10(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return "%.10g" % x
    return str(x)


def scan_csv(records) -> str:
    """The scan CSV of JSON-native records, rendered one cell at a time: empty
    for None, 10 significant digits for a float, str() otherwise."""
    columns = ("D", "h", "R", "hR", "zeta2", "nu_max", "nu_required", "margin",
               "elliptic_total_bound", "verdict")
    lines = [",".join(columns)]
    for rec in records:
        lines.append(",".join(_cell10(rec.get("hr" if col == "hR" else col)) for col in columns))
    return "\n".join(lines) + "\n"


def float_rule_verdict(D: int, hr: float, zeta2: float, epsilon: Fraction,
                       n_orbits: int) -> str:
    """The verdict by float sign tests at n = 2: Satisfied when the margin
    nu_max - 2/b is positive and the form-count coefficient rr stays positive
    at every elliptic orbit's required ratio 2/(m b), each orbit with the
    default rotation sum 1 (so m = 1)."""
    b = 1 - 2 * epsilon
    d = float(D)
    nu_max = 2 / (8.0 * math.pi ** 2) * (4.0 * D * zeta2 / hr) ** 0.5
    margin = nu_max - float(2 / b)

    def rr(nu: float) -> float:
        return (2.0 ** -3 * math.pi ** -4 * d ** 1.5 * zeta2
                - 2.0 * (nu / 2) ** 2 * math.sqrt(d) * hr)

    orbits_ok = all(rr(float(2 / (m * b))) > 0.0 for m in [Fraction(1)] * n_orbits)
    return "Satisfied" if margin > 0.0 and orbits_ok else "CandidateExceptional"
