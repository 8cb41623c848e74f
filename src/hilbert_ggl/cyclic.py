"""Resolution of cyclic quotient surface singularities and chartwise
tangency/extension checks on exponent matrices.

A chart of a resolution pulls coordinates back monomially, z_k = prod_l
u_l^(B_lk) with B nonnegative rational (rows indexed by the chart coordinates
u_l, columns by the downstairs coordinates z_k).  The saturated logarithmic
forms are

    eta_k = (prod_j u_j) * d(log z_k) = sum_l B_lk (prod_{j != l} u_j) du_l

and their wedge is computed symbolically here (sum over systems of distinct
axes with permutation signs), then checked against the independently computed
exact determinant: eta_1 ^ ... ^ eta_m = det(B) (u_1...u_m)^(m-1) du.  The
engine is generic in the coefficient ring (Fraction entries for quotient
charts, quadratic field elements for cusp charts).

The constructive path handles the surface case (1/n)(1, q): the fan of
Z^2 + Z*(1/n)(1, q) is subdivided along the boundary rays of the convex hull,
chained by w_{k+1} = b_k w_k - w_{k-1} where the b_k run through the minus
continued fraction of n/q REVERSED (the chain starts at (1,0) and the first
interior ray is (1/n)(q_inverse, 1); equivalently the forward word for
n/q_inverse).
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .criteria import to_fraction
from .errors import DomainError
from .hj import hj_expand


def _nonzero(c) -> bool:
    probe = getattr(c, "is_zero", None)
    if probe is not None:
        return not probe()
    return c != 0


def wedge_terms(forms: list[list[tuple]]) -> dict[tuple, object]:
    """Exact wedge of m one-forms given as term lists (coeff, exponents, axis).

    Returns {total exponent tuple: coefficient}; zero coefficients dropped.
    Coefficients may be Fractions or any field elements supporting +,-,*.
    Partial products grow one form at a time over the systems of distinct
    axes, in the lexicographic order of the term choices; the permutation
    sign is counted as each axis is added.
    """
    m = len(forms)
    width = len(forms[0][0][1]) if forms and forms[0] else m
    # (axes used as a bit mask, sign, coefficient, exponent sums)
    partial = [(0, 1, None, (0,) * width)]
    for form in forms:
        terms = [(c, e, axis) for c, e, axis in form if _nonzero(c)]
        grown = []
        for used, sign, coeff, exps in partial:
            for c, e, axis in terms:
                bit = 1 << axis
                if used & bit:
                    continue
                # each axis already chosen above this one is an inversion
                flip = (used >> axis).bit_count() & 1
                grown.append((used | bit, -sign if flip else sign,
                              c if coeff is None else coeff * c,
                              tuple(map(operator.add, exps, e))))
        partial = grown
    out: dict[tuple, object] = {}
    for _used, sign, coeff, key in partial:
        cur = out.get(key)
        if cur is None:
            out[key] = coeff if sign > 0 else -coeff
        else:
            out[key] = cur + coeff if sign > 0 else cur - coeff
    return {k: v for k, v in out.items() if _nonzero(v)}


def exact_det(rows) -> object:
    """Determinant by fraction-free (Bareiss) elimination; generic field entries.

    Step k replaces each entry below and right of the pivot p_k by
    (p_k a_ij - a_ik a_kj) / p_{k-1}, an exact division (none at the first
    step), so a 2x2 costs two products and one difference.
    """
    n = len(rows)
    mat = [list(r) for r in rows]
    if any(len(r) != n for r in mat):
        raise DomainError("determinant needs a square matrix")
    sign = 1
    prev = None
    for col in range(n - 1):
        if not _nonzero(mat[col][col]):
            piv = next((r for r in range(col + 1, n) if _nonzero(mat[r][col])), None)
            if piv is None:
                return mat[0][0] - mat[0][0]
            mat[col], mat[piv] = mat[piv], mat[col]
            sign = -sign
        top = mat[col]
        p = top[col]
        for r in range(col + 1, n):
            row = mat[r]
            f = row[col]
            for c in range(col + 1, n):
                x = p * row[c] - f * top[c]
                row[c] = x if prev is None else x / prev
        prev = p
    det = mat[n - 1][n - 1]
    return -det if sign < 0 else det


def as_exponent_matrix(rows) -> tuple[tuple[Fraction, ...], ...]:
    """Validated m x m matrix of nonnegative rationals (chart map z_k = prod u_l^B_lk)."""
    mat = tuple(tuple(to_fraction(x, "matrix entry") for x in row) for row in rows)
    m = len(mat)
    if m == 0 or any(len(row) != m for row in mat):
        raise DomainError("exponent matrix must be square and nonempty")
    for row in mat:
        for x in row:
            if x < 0:
                raise DomainError(f"exponent matrix entries must be >= 0, got {x}")
    return mat


@functools.lru_cache(maxsize=None)
def _cofactor_exponents(m: int) -> tuple[tuple[int, ...], ...]:
    """Exponents of prod_{j != l} u_j for l = 0 .. m-1."""
    return tuple(tuple(0 if j == l else 1 for j in range(m)) for l in range(m))


def log_form_terms(B, k: int) -> list[tuple]:
    """Terms of eta_k = sum_l B_lk (prod_{j != l} u_j) du_l."""
    exps = _cofactor_exponents(len(B))
    return [(B[l][k], exps[l], l) for l in range(len(B))]


@dataclass(frozen=True)
class ChartTangency:
    matrix: tuple
    lam: object
    multiplicities: tuple[int, ...]
    degenerate: bool


def _wedge_check(B) -> tuple[object, tuple[int, ...], bool]:
    """Wedge the saturated log forms of B; cross-check against exact_det."""
    m = len(B)
    det = exact_det(B)
    wedge = wedge_terms([log_form_terms(B, k) for k in range(m)])
    expected = tuple([m - 1] * m)
    if not wedge:
        if _nonzero(det):
            raise RuntimeError("wedge vanished but determinant is nonzero")
        return det, expected, True
    if len(wedge) != 1:
        raise RuntimeError(f"wedge produced {len(wedge)} monomials, expected 1")
    (exps, lam), = wedge.items()
    if exps != expected:
        raise RuntimeError(f"wedge monomial {exps}, expected {expected}")
    if lam != det:
        raise RuntimeError("wedge coefficient disagrees with determinant")
    return lam, expected, False


def tangency_divisor(charts, m: int | None = None,
                     require_positive: bool = False) -> list[ChartTangency]:
    """Tangency multiplicities of the m coordinate foliations along each chart's
    exceptional axes: always m-1 per axis, with lambda = det(B).

    Accepts a ChartAtlas, a list of matrices, or a single matrix; m, when
    given, pins the expected matrix size.  A zero determinant is reported as
    a degenerate chart, not raised, unless require_positive is set
    (constructive resolutions must have det > 0).
    """
    if isinstance(charts, ChartAtlas):
        mats = [c.matrix for c in charts.charts]
    elif charts and isinstance(charts[0], (list, tuple)) and charts[0] and \
            not isinstance(charts[0][0], (list, tuple)):
        mats = [charts]
    else:
        mats = list(charts)
    out = []
    for rows in mats:
        B = as_exponent_matrix(rows)
        if m is not None and len(B) != m:
            raise DomainError(f"chart matrix is {len(B)}x{len(B)}, expected m={m}")
        lam, mults, degenerate = _wedge_check(B)
        if require_positive and not (not degenerate and lam > 0):
            raise RuntimeError(f"chart determinant {lam} not positive: {B}")
        out.append(ChartTangency(matrix=B, lam=lam, multiplicities=mults,
                                 degenerate=degenerate))
    return out


@dataclass(frozen=True)
class CyclicChart:
    index: int
    rays: tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]
    matrix: tuple[tuple[Fraction, Fraction], ...]
    exceptional_axes: tuple[bool, bool]


@dataclass(frozen=True)
class ChartAtlas:
    n: int
    q: int
    digits: tuple[int, ...]
    rays: tuple[tuple[Fraction, Fraction], ...]
    charts: tuple[CyclicChart, ...]


def hj_resolve(n: int, q: int) -> ChartAtlas:
    """Resolution fan of the quotient singularity (1/n)(1, q)."""
    if not (isinstance(n, int) and isinstance(q, int) and 0 < q < n):
        raise DomainError(f"need integers 0 < q < n, got ({n}, {q})")
    if math.gcd(n, q) != 1:
        raise DomainError(f"need gcd(n, q) = 1, got gcd({n}, {q}) = {math.gcd(n, q)}")
    digits = hj_expand(n, q)
    qbar = pow(q, -1, n)
    chain_word = hj_expand(n, qbar)
    if chain_word != digits[::-1]:
        raise RuntimeError(f"digit word of {n}/{qbar} is not the reverse of {n}/{q}")
    rays = [(Fraction(1), Fraction(0)), (Fraction(qbar, n), Fraction(1, n))]
    for b in chain_word:
        v1, v0 = rays[-1], rays[-2]
        rays.append((b * v1[0] - v0[0], b * v1[1] - v0[1]))
    if rays[-1] != (Fraction(0), Fraction(1)):
        raise RuntimeError(f"ray chain for ({n},{q}) did not close at (0,1): {rays[-1]}")
    for x, y in rays:
        nx, ny = x * n, y * n
        if nx.denominator != 1 or ny.denominator != 1 or nx < 0 or ny < 0:
            raise RuntimeError(f"ray ({x},{y}) outside the quotient lattice cone")
        if (ny - nx * q) % n:
            raise RuntimeError(f"ray ({x},{y}) not in Z^2 + Z(1/{n})(1,{q})")
    r = len(digits)
    charts = []
    for k in range(len(rays) - 1):
        pair = (rays[k], rays[k + 1])
        det = pair[0][0] * pair[1][1] - pair[0][1] * pair[1][0]
        if det != Fraction(1, n):
            raise RuntimeError(f"cone ({k},{k+1}) of ({n},{q}) not unimodular: det={det}")
        charts.append(CyclicChart(
            index=k,
            rays=pair,
            matrix=as_exponent_matrix(pair),
            exceptional_axes=(k >= 1, k + 1 <= r),
        ))
    return ChartAtlas(n=n, q=q, digits=tuple(digits), rays=tuple(rays),
                      charts=tuple(charts))


@dataclass(frozen=True)
class TaiCheck:
    m_value: Fraction
    row_sums: tuple[Fraction, ...]
    passes: tuple[bool, ...]
    ok: bool


def tai_check(S, B) -> TaiCheck:
    """Row-sum lower bound sum_i B_li >= m := min(1, sum S_i) for rotation data S."""
    svals = [to_fraction(x, "rotation number") for x in S]
    if not svals:
        raise DomainError("empty rotation data")
    for x in svals:
        if not (0 <= x < 1):
            raise DomainError(f"rotation numbers must be in [0, 1), got {x}")
    total = sum(svals)
    if total == 0:
        raise DomainError("all rotation numbers zero: not an elliptic point")
    m_value = min(Fraction(1), total)
    mat = as_exponent_matrix(B)
    row_sums = tuple(sum(row) for row in mat)
    passes = tuple(rs >= m_value for rs in row_sums)
    return TaiCheck(m_value=m_value, row_sums=row_sums, passes=passes, ok=all(passes))


@dataclass(frozen=True)
class MetricExtension:
    ord_g: tuple[Fraction, ...]
    c: Fraction
    lhs: tuple[Fraction, ...]
    slack: tuple[Fraction, ...]
    passes: tuple[bool, ...]
    ok: bool


def metric_extension_at_elliptic(ord_f, l: int, b, B) -> MetricExtension:
    """Pseudo-metric extension over an elliptic chart.

    ord_{u_j} G = sum_i (ordF_i + l) B_ji exactly; with c = min_i ordF_i the
    verdict per divisor is 2*b*c*(row sum) > 2, slack reported.
    """
    if not (isinstance(l, int) and l >= 1):
        raise DomainError(f"weight parameter l must be an integer >= 1, got {l}")
    bq = to_fraction(b, "growth exponent b")
    if not (0 < bq <= 1):
        raise DomainError(f"need b in (0, 1], got {bq}")
    orders = [to_fraction(x, "vanishing order") for x in ord_f]
    if any(x < 0 for x in orders):
        raise DomainError("vanishing orders must be >= 0")
    mat = as_exponent_matrix(B)
    m = len(mat)
    if len(orders) != m:
        raise DomainError(f"got {len(orders)} orders for an {m}x{m} chart")
    ord_g = tuple(sum((orders[i] + l) * mat[j][i] for i in range(m)) for j in range(m))
    c = min(orders)
    row_sums = [sum(row) for row in mat]
    lhs = tuple(2 * bq * c * rs for rs in row_sums)
    slack = tuple(v - 2 for v in lhs)
    passes = tuple(v > 2 for v in lhs)
    return MetricExtension(ord_g=ord_g, c=c, lhs=lhs, slack=slack,
                           passes=passes, ok=all(passes))


def parse_matrices(text: str) -> list[tuple[tuple[Fraction, ...], ...]]:
    """Plain-text exponent matrices: rows of rationals like 3 1/2 0,
    one blank line between charts."""
    blocks: list[list[str]] = [[]]
    for line in text.splitlines():
        if line.strip():
            blocks[-1].append(line)
        elif blocks[-1]:
            blocks.append([])
    if blocks and not blocks[-1]:
        blocks.pop()
    if not blocks:
        raise DomainError("no matrices found in input")
    out = []
    for i, block in enumerate(blocks):
        rows = [[to_fraction(tok, f"entry in chart {i}") for tok in line.split()]
                for line in block]
        out.append(as_exponent_matrix(rows))
    return out
