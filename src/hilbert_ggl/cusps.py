"""Cusp resolution cycles for Hilbert modular surfaces.

A cusp of the surface is described by a fractional module M = Z*alpha + Z*beta
together with a finite-index subgroup V of the totally positive units
preserving M.  The boundary of the minimal resolution is a cycle of rational
curves whose combinatorics are read off from the periodic minus continued
fraction ("HJ expansion", digits all >= 2) of a reduced quadratic
irrational w attached to (M, V).

Everything here is exact: w, each tail of its expansion and the boundary
rays are field elements held as integers (a + b*sqrt(D))/c (QuadElem), the
rays with integer coordinates in the module basis, and the unit eta
identified by the cycle is compared against the fundamental unit computed
independently in field_invariants.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .cyclic import _wedge_check
from .errors import DomainError
from .field_invariants import _check_field_discriminant, fundamental_unit
from .quadratic import QuadElem

_MAX_PREPERIOD = 100_000
_MAX_PERIOD = 100_000
_MAX_V_POWER = 512


def periodic_hj(w: QuadElem) -> list[int]:
    """Period word of the minus continued fraction of a reduced irrational w.

    Requires w > 1 and 0 < w' < 1 (purely periodic case).  For other
    irrationals call find_equivalent_reduced first.  The period closes when
    the tail returns to w itself; equality of normal forms is exact.
    """
    if w.b == 0:
        raise DomainError("%s is rational and has no periodic continued fraction; "
                          "find_equivalent_reduced rejects it too" % (w,))
    if not w.is_hj_reduced():
        raise DomainError(
            "%s is not reduced (need w > 1 and 0 < w' < 1); "
            "apply find_equivalent_reduced first" % (w,)
        )
    digits = []
    cur = w
    while True:
        b, cur = cur.hj_step()
        digits.append(b)
        if cur == w:
            return digits
        if len(digits) > _MAX_PERIOD:
            raise RuntimeError("period of %s did not close within %d steps" % (w, _MAX_PERIOD))


def find_equivalent_reduced(w: QuadElem) -> QuadElem:
    """Iterate the expansion of an irrational w until the tail is reduced."""
    return _expand_to_reduced(w)[0]


def _expand_to_reduced(theta: QuadElem) -> tuple[QuadElem, tuple[int, int, int, int]]:
    """Expand theta until reduced, tracking the Moebius head.

    Returns (w, (a, b, c, d)) with theta = (a*w + b) / (c*w + d) and
    a*d - b*c = 1.
    """
    if theta.b == 0:
        raise DomainError("find_equivalent_reduced: %s is rational and has no "
                          "periodic continued fraction" % (theta,))
    w = theta
    a, b, c, d = 1, 0, 0, 1
    for _ in range(_MAX_PREPERIOD):
        if w.is_hj_reduced():
            return w, (a, b, c, d)
        digit, w = w.hj_step()
        a, b, c, d = a * digit + b, -a, c * digit + d, -c
    raise RuntimeError("find_equivalent_reduced: no reduced number equivalent to %s "
                       "found within %d steps" % (theta, _MAX_PREPERIOD))


def _default_surd(D: int) -> QuadElem:
    """Reduced number for the standard cusp module O_K with V = all totally
    positive units: (p + sqrt(D))/2 with p the least integer above sqrt(D)
    of the parity of D, so that 0 < p - sqrt(D) < 2.
    """
    s = isqrt(D)
    w = QuadElem.from_pq(s + 1 + (s + 1 + D) % 2, 1, D)
    if not w.is_hj_reduced():
        raise RuntimeError("default surd %s for D=%d is not reduced" % (w, D))
    return w


def _coerce_elem(x, D: int, what: str) -> QuadElem:
    if isinstance(x, QuadElem):
        if x.D != D:
            raise DomainError("%s lives in the field of discriminant %d, expected %d" % (what, x.D, D))
        return x
    if isinstance(x, (int, Fraction)):
        return QuadElem.from_rational(Fraction(x), D)
    raise DomainError("%s must be a field element or a rational, got %r" % (what, x))


def _module_multiplier(alpha: QuadElem, beta: QuadElem):
    """Reduced number w and scaling factor for the module Z*alpha + Z*beta.

    Writes beta/alpha = (a*w + b)/(c*w + d) with w reduced, then lam =
    alpha / (c*w + d) turns the intrinsic rays mu_k of w into totally
    positive module elements lam * mu_k.  The sign of lam is free; if
    neither lam nor -lam is totally positive the roles of alpha and beta
    are swapped (which conjugates the orientation).
    """

    def attempt(al: QuadElem, be: QuadElem):
        theta = be / al
        if theta.b == 0:
            raise DomainError("module generators are rationally dependent")
        if theta.b < 0:
            theta = -theta
        w, (_, _, c, d) = _expand_to_reduced(theta)
        denom = c * w + d
        if denom.is_zero():
            raise RuntimeError("degenerate Moebius head while reducing %s" % (theta,))
        lam = al / denom
        if lam.is_totally_positive():
            return lam, w
        neg = -lam
        if neg.is_totally_positive():
            return neg, w
        return None

    got = attempt(alpha, beta)
    if got is None:
        got = attempt(beta, alpha)
    if got is None:
        raise DomainError(
            "module basis (%s, %s) admits no totally positive ray scaling; "
            "pass the generators of the conjugate module" % (alpha, beta)
        )
    return got


def _cramer(e: QuadElem, alpha: QuadElem, beta: QuadElem) -> tuple[int, int, int]:
    """Coordinates (u, v) of e in the basis (alpha, beta) as integers
    (u * den, v * den, den), den != 0.

    Cramer's rule on the integer parts of (a + b*sqrt(D))/c: with
    [p, q] = p.a*q.b - p.b*q.a, u = [e, beta] alpha.c / (e.c [alpha, beta])
    and v = [alpha, e] beta.c / (e.c [alpha, beta]).
    """
    den = alpha.a * beta.b - alpha.b * beta.a
    if den == 0:
        raise DomainError("module generators are linearly dependent over Q")
    den *= e.c
    return ((e.a * beta.b - e.b * beta.a) * alpha.c,
            (alpha.a * e.b - alpha.b * e.a) * beta.c, den)


def _coords_in_basis(e: QuadElem, alpha: QuadElem, beta: QuadElem) -> tuple[Fraction, Fraction]:
    """Coordinates of e in the basis (alpha, beta), solved exactly."""
    nu, nv, den = _cramer(e, alpha, beta)
    return Fraction(nu, den), Fraction(nv, den)


def _rays_from_cycle(w: QuadElem, digits: list[int], count: int) -> list[QuadElem]:
    """mu_0 .. mu_count from the three-term recurrence mu_{k+1} = b_k mu_k - mu_{k-1}."""
    mus = [QuadElem.from_rational(1, w.D), digits[0] - w]
    for k in range(1, count):
        b = digits[k % len(digits)]
        mus.append(b * mus[k] - mus[k - 1])
    return mus


@dataclass(frozen=True)
class CuspCycle:
    """Resolution cycle of one cusp.

    digits      period word of V (the module period repeated v_power times)
    period      length of the module period word
    v_power     index of V inside the full totally positive unit group
    rays        mu_0 .. mu_{len(digits)-1}, totally positive module elements
    closing_ray eta^{-1} * mu_0, the ray that would follow rays[-1]
    eta         generator of V picked out by the cycle (mu_0 / mu_{fr})
    eta_period  generator for v_power = 1 (eta = eta_period ** v_power)
    module      the basis (alpha, beta) the rays live in
    coord_dets  determinant of each consecutive ray pair (mu_k, mu_{k+1}),
                closing ray included, in module coordinates (integral
                Fractions); verify_cusp_tangency reports them per chart
    unimodular  True when every entry of coord_dets is +-1
    """

    D: int
    digits: tuple[int, ...]
    period: int
    v_power: int
    rays: tuple[QuadElem, ...]
    closing_ray: QuadElem
    eta: QuadElem
    eta_period: QuadElem
    module: tuple[QuadElem, QuadElem]
    coord_dets: tuple[Fraction, ...]
    unimodular: bool

    def self_intersections(self) -> tuple[int, ...]:
        """Self-intersection numbers of the cycle curves are -digits."""
        return tuple(-b for b in self.digits)


def cusp_cycle(D: int, module=None, v=None) -> CuspCycle:
    """Resolve the cusp attached to (module, V) over the field of discriminant D.

    module  pair (alpha, beta) of field elements spanning the cusp module,
            default the full ring of integers (1, (D + sqrt(D))/2)
    v       generator of V: either a totally positive unit (QuadElem) or an
            integer f meaning V = eta^f for the cycle unit eta; default the
            full totally positive unit group (f = 1)
    """
    _check_field_discriminant(D)
    unit = fundamental_unit(D)
    eta_field = unit.totally_positive_generator()

    omega = QuadElem.from_pq(D, 1, D)
    if module is None:
        alpha = QuadElem.from_rational(1, D)
        beta = omega
        w = _default_surd(D)
        lam = None  # the rays of O_K need no scaling
    else:
        try:
            raw_alpha, raw_beta = module
        except (TypeError, ValueError):
            raise DomainError("module must be a pair (alpha, beta) of generators") from None
        alpha = _coerce_elem(raw_alpha, D, "alpha")
        beta = _coerce_elem(raw_beta, D, "beta")
        if alpha.is_zero() or beta.is_zero():
            raise DomainError("module generators must be nonzero")
        lam, w = _module_multiplier(alpha, beta)

    digits = periodic_hj(w)
    r = len(digits)
    mus = _rays_from_cycle(w, digits, r)
    eta_period = mus[r].inverse()
    if not eta_period.is_totally_positive() or not eta_period.is_unit():
        raise RuntimeError("cycle of %s closed on %s, not a totally positive unit" % (w, eta_period))
    if module is None and eta_period != eta_field:
        raise RuntimeError(
            "cycle unit %s disagrees with the totally positive fundamental unit %s"
            % (eta_period, eta_field)
        )

    f = 1
    if v is not None:
        if isinstance(v, int):
            if v < 1:
                raise DomainError("v as an index must be a positive integer, got %d" % v)
            f = v
        else:
            gen = _coerce_elem(v, D, "v")
            if not gen.is_unit() or not gen.is_totally_positive():
                raise DomainError("v = %s is not a totally positive unit" % (gen,))
            acc = QuadElem.from_rational(1, D)
            f = 0
            for k in range(1, _MAX_V_POWER + 1):
                acc = acc * eta_period
                if gen == acc or gen == acc.inverse():
                    f = k
                    break
            if f == 0:
                raise DomainError(
                    "v = %s is not a power of the cycle unit eta = %s (checked up to eta^%d)"
                    % (gen, eta_period, _MAX_V_POWER)
                )

    digits_v = digits * f
    total = f * r
    if f > 1:
        mus = _rays_from_cycle(w, digits, total)
    eta = eta_period ** f

    rays, closing = mus[:total], mus[total]
    if lam is not None:
        rays = [lam * mu for mu in rays]
        closing = lam * closing
    for mu in rays:
        if not mu.is_totally_positive():
            raise RuntimeError("ray %s is not totally positive" % (mu,))
    if closing != eta.inverse() * rays[0]:
        raise RuntimeError("cycle did not close: mu_%d != eta^-1 * mu_0" % total)

    # three-term recurrence holds cyclically with the eta twist at the seam
    for k in range(total):
        prev = eta * rays[total - 1] if k == 0 else rays[k - 1]
        nxt = closing if k == total - 1 else rays[k + 1]
        if digits_v[k] * rays[k] != prev + nxt:
            raise RuntimeError("ray recurrence broken at position %d" % k)

    if any(b < 2 for b in digits_v):
        raise RuntimeError("period word %s has a digit below 2" % (digits_v,))
    if all(b == 2 for b in digits_v):
        raise RuntimeError("period word is all 2s, which no quadratic surd produces")

    # module membership: both Cramer numerators divide by the denominator
    coords = []
    for mu in rays + [closing]:
        nu, nv, den = _cramer(mu, alpha, beta)
        (u_c, ru), (v_c, rv) = divmod(nu, den), divmod(nv, den)
        if ru or rv:
            raise RuntimeError("ray %s does not lie in the module (coords %s, %s)"
                               % ((mu,) + _coords_in_basis(mu, alpha, beta)))
        coords.append((u_c, v_c))

    if v is not None and not isinstance(v, int):
        for gen_img in (eta * alpha, eta * beta):
            nu, nv, den = _cramer(gen_img, alpha, beta)
            if nu % den or nv % den:
                raise DomainError("v = eta^%d does not preserve the module" % f)

    dets = [u1 * v2 - v1 * u2 for (u1, v1), (u2, v2) in zip(coords, coords[1:])]

    return CuspCycle(
        D=D,
        digits=tuple(digits_v),
        period=r,
        v_power=f,
        rays=tuple(rays),
        closing_ray=closing,
        eta=eta,
        eta_period=eta_period,
        module=(alpha, beta),
        coord_dets=tuple(map(Fraction, dets)),
        unimodular=all(abs(d) == 1 for d in dets),
    )


@dataclass(frozen=True)
class CuspChartCheck:
    """Wedge check for one toric chart (mu_k, mu_{k+1}) of a cusp cycle.

    det          exact chart determinant mu_k mu'_{k+1} - mu'_k mu_{k+1}
    sqrt_coeff   det = sqrt_coeff * sqrt(D); rational part is always zero
    multiplicities  exponent of each boundary coordinate in the wedge
    coord_det    determinant of the two rays in module coordinates (if known)
    degenerate   True when the wedge vanished (rays proportional)
    """

    index: int
    det: QuadElem
    sqrt_coeff: Fraction
    multiplicities: tuple[int, ...]
    coord_det: Fraction | None
    degenerate: bool

    @property
    def ok(self) -> bool:
        return not self.degenerate


def chart_tangency(mu1: QuadElem, mu2: QuadElem, index: int = 0, coord_det=None) -> CuspChartCheck:
    """Wedge the two logarithmic boundary forms of a chart spanned by mu1, mu2.

    The rows fed to the wedge engine are the embeddings of each ray, so the
    wedge coefficient is the exact determinant mu1 mu2' - mu1' mu2, a pure
    sqrt(D) multiple.  A vanishing wedge means the rays are proportional and
    the chart is degenerate; that is reported, not raised.
    """
    return _chart_check((mu1, mu1.conjugate()), (mu2, mu2.conjugate()), index, coord_det)


def _chart_check(row1, row2, index, coord_det) -> CuspChartCheck:
    # the wedge check of chart_tangency on the embedding rows (mu, mu')
    lam, mult, degenerate = _wedge_check([row1, row2])
    if not degenerate and lam.a != 0:
        raise RuntimeError("chart determinant %s has a rational part" % (lam,))
    return CuspChartCheck(
        index=index,
        det=lam,
        sqrt_coeff=lam.y,
        multiplicities=mult,
        coord_det=coord_det,
        degenerate=degenerate,
    )


@dataclass(frozen=True)
class CuspTangencyReport:
    D: int
    charts: tuple[CuspChartCheck, ...]
    unimodular: bool
    ok: bool


def verify_cusp_tangency(cycle: CuspCycle) -> CuspTangencyReport:
    """Run the wedge check on every chart of a resolved cusp cycle.

    Each consecutive ray pair (including the seam pair ending in
    eta^{-1} mu_0) spans a chart; the wedge of its two logarithmic forms
    must be a single monomial with multiplicity one in each coordinate and
    coefficient equal to the exact ray determinant.  The module-coordinate
    determinants come from cycle.coord_dets, formed once by cusp_cycle.
    """
    # each ray is conjugated once, though it spans two charts
    rows = [(mu, mu.conjugate()) for mu in cycle.rays + (cycle.closing_ray,)]
    checks = tuple(
        _chart_check(rows[k], rows[k + 1], k, cycle.coord_dets[k])
        for k in range(len(cycle.rays))
    )
    ok = all(c.ok for c in checks) and cycle.unimodular
    return CuspTangencyReport(D=cycle.D, charts=checks, unimodular=cycle.unimodular, ok=ok)
