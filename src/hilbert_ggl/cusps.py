"""Cusp resolution cycles for Hilbert modular surfaces.

A cusp of the surface is described by a fractional module M = Z*alpha + Z*beta
together with a finite-index subgroup V of the totally positive units
preserving M.  The boundary of the minimal resolution is a cycle of rational
curves whose combinatorics are read off from the periodic minus continued
fraction ("HJ expansion", digits all >= 2) of a reduced quadratic
irrational w attached to (M, V).

Everything here is exact.  The period word and the rays run on integers:
the rays mu_k = X_k + Y_k*w of M = lam*(Z + Z*w) are integer pairs, with
module coordinates X_k*coords(lam) + Y_k*coords(lam*w).  Each ray is built
as a QuadElem (a + b*sqrt(D))/c once, for total positivity, the closing ray,
the recurrence at the two seams (where eta enters) and Cramer's rule, which
must give back its coordinates; the unit eta identified by the cycle is
compared against the fundamental unit computed independently in
field_invariants.  Only the preperiod steps QuadElem.hj_step: an irrational
that is not reduced is expanded to its first reduced tail
(_expand_to_reduced), whose period word periodic_hj reads.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .cyclic import _wedge_check
from .errors import DomainError
from .field_invariants import _check_field_discriminant, fundamental_unit
from .quadratic import QuadElem, _elem

_MAX_PREPERIOD = 100_000
_MAX_PERIOD = 100_000
_MAX_V_POWER = 512


def periodic_hj(w: QuadElem) -> list[int]:
    """Period word of the minus continued fraction of a reduced irrational w.

    Requires w > 1 and 0 < w' < 1 (purely periodic case); other irrationals
    reach a reduced tail by _expand_to_reduced.  On integers: each tail
    is (P + sqrt(Delta))/Q, from P = a*c, Q = c^2, Delta = b^2 c^2 D for
    w = (a + b*sqrt(D))/c (b > 0); a step is k = (P + isqrt(Delta))//Q + 1,
    P <- k*Q - P, Q <- (P^2 - Delta)/Q, and the period closes when (P, Q)
    returns to its start.
    """
    if w.b == 0:
        raise DomainError("%s is rational and has no periodic continued fraction" % (w,))
    if not w.is_hj_reduced():
        raise DomainError(
            "%s is not reduced (need w > 1 and 0 < w' < 1); "
            "expand it to a reduced tail first" % (w,)
        )
    P, Q, delta = w.a * w.c, w.c * w.c, (w.b * w.c) ** 2 * w.D
    P0, Q0, s = P, Q, isqrt(delta)
    digits = []
    while True:
        k = (P + s) // Q + 1
        P = k * Q - P
        Q, rem = divmod(P * P - delta, Q)
        if rem:
            raise RuntimeError("tail of %s left the form (P + sqrt(Delta))/Q" % (w,))
        digits.append(k)
        if P == P0 and Q == Q0:
            return digits
        if len(digits) > _MAX_PERIOD:
            raise RuntimeError("period of %s did not close within %d steps" % (w, _MAX_PERIOD))


def _expand_to_reduced(theta: QuadElem) -> tuple[QuadElem, tuple[int, int, int, int]]:
    """Expand theta until reduced, tracking the Moebius head.

    Returns (w, (a, b, c, d)) with theta = (a*w + b) / (c*w + d) and
    a*d - b*c = 1.
    """
    if theta.b == 0:
        raise DomainError("%s is rational and has no periodic continued fraction"
                          % (theta,))
    w = theta
    a, b, c, d = 1, 0, 0, 1
    for _ in range(_MAX_PREPERIOD):
        if w.is_hj_reduced():
            return w, (a, b, c, d)
        digit, w = w.hj_step()
        a, b, c, d = a * digit + b, -a, c * digit + d, -c
    raise RuntimeError("no reduced number equivalent to %s "
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


def _v_index(v) -> int | None:
    """The index f of V = eta^f when v is an integer, None when v is not.

    Integers of any type go through operator.index; bool is refused, and f
    is capped at _MAX_V_POWER like the unit path.
    """
    if isinstance(v, bool):
        raise DomainError("v must be an integer index or a totally positive unit, got %r" % (v,))
    try:
        f = operator.index(v)
    except TypeError:
        return None
    if f < 1:
        raise DomainError("v as an index must be a positive integer, got %d" % f)
    if f > _MAX_V_POWER:
        raise DomainError("v = %d exceeds the largest supported index %d" % (f, _MAX_V_POWER))
    return f


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


def _rays_from_cycle(digits: list[int], count: int) -> list[tuple[int, int]]:
    """mu_0 .. mu_count of the reduced w with period word digits, as integer
    pairs (X_k, Y_k) with mu_k = X_k + Y_k*w.

    mu_0 = 1 and mu_1 = b_0 - w are (1, 0) and (b_0, -1), and both follow
    mu_{k+1} = b_k mu_k - mu_{k-1}, the digits read cyclically.
    """
    pairs = [(1, 0), (digits[0], -1)]
    for k in range(1, count):
        b = digits[k % len(digits)]
        (x0, y0), (x1, y1) = pairs[k - 1], pairs[k]
        pairs.append((b * x1 - x0, b * y1 - y0))
    return pairs


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
    coord_det   determinant x_k y_{k+1} - y_k x_{k+1} of the consecutive ray
                pairs (mu_k, mu_{k+1}), closing ray included, in module
                coordinates mu = x alpha + y beta, as an integral Fraction: one
                value for the whole cycle, since the recurrence
                mu_{k-1} + mu_{k+1} = b_k mu_k holds it constant; every chart's
                determinant mu_k mu'_{k+1} - mu'_k mu_{k+1} is
                coord_det * (alpha beta' - alpha' beta), which is how
                verify_cusp_tangency checks it
    unimodular  True when that determinant is +-1
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
    coord_det: Fraction
    unimodular: bool

    def self_intersections(self) -> tuple[int, ...]:
        """Self-intersection numbers of the cycle curves are -digits."""
        return tuple(-b for b in self.digits)


def cusp_cycle(D: int, module=None, v=None) -> CuspCycle:
    """Resolve the cusp attached to (module, V) over the field of discriminant D.

    module  pair (alpha, beta) of field elements spanning the cusp module,
            default the full ring of integers (1, (D + sqrt(D))/2)
    v       generator of V: either a totally positive unit (QuadElem) or an
            integer 1 <= f <= _MAX_V_POWER meaning V = eta^f for the cycle
            unit eta; default the full totally positive unit group (f = 1)

    The period word and the rays run on integers (see the module docstring);
    every check of the QuadElem route is kept.
    """
    D = _check_field_discriminant(D)
    # an integer v is validated before any work; a unit v is resolved below
    f = 1 if v is None else _v_index(v)
    unit = fundamental_unit(D)
    eta_field = unit.totally_positive_generator()

    if module is None:
        alpha = lam = QuadElem.from_rational(1, D)
        beta = QuadElem.from_pq(D, 1, D)
        w = _default_surd(D)
        # lam = 1 and w = (p + sqrt(D))/2 = (p - D)/2 + beta
        basis_coords = ((1, 0), ((w.a - D) // 2, 1))
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
        basis_coords = []
        for e in (lam, lam * w):
            nu, nv, den = _cramer(e, alpha, beta)
            if nu % den or nv % den:
                raise RuntimeError("lam = %s or lam*w does not lie in the module" % (lam,))
            basis_coords.append((nu // den, nv // den))

    digits = periodic_hj(w)
    r = len(digits)
    pairs = _rays_from_cycle(digits, (f or 1) * r)
    x_r, y_r = pairs[r]
    eta_period = (y_r * w + x_r).inverse()
    if not eta_period.is_totally_positive() or not eta_period.is_unit():
        raise RuntimeError("cycle of %s closed on %s, not a totally positive unit" % (w, eta_period))
    if module is None and eta_period != eta_field:
        raise RuntimeError(
            "cycle unit %s disagrees with the totally positive fundamental unit %s"
            % (eta_period, eta_field)
        )

    v_unit = f is None
    if v_unit:
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
        if f > 1:
            pairs = _rays_from_cycle(digits, f * r)

    digits_v = digits * f
    total = f * r
    eta = eta_period ** f

    # lam*(X + Y*w) = ((X*la + Y*ma) + (X*lb + Y*mb)*sqrt(D)) / den
    lam_w = lam * w
    den = lam.c * lam_w.c
    la, lb = lam.a * lam_w.c, lam.b * lam_w.c
    ma, mb = lam_w.a * lam.c, lam_w.b * lam.c
    (u1, v1), (u2, v2) = basis_coords
    coords = [(X * u1 + Y * u2, X * v1 + Y * v2) for X, Y in pairs]
    built = [_elem(X * la + Y * ma, X * lb + Y * mb, den, D) for X, Y in pairs]
    rays, closing = built[:total], built[total]
    for mu in rays:
        if not mu.is_totally_positive():
            raise RuntimeError("ray %s is not totally positive" % (mu,))
    if closing != eta.inverse() * rays[0]:
        raise RuntimeError("cycle did not close: mu_%d != eta^-1 * mu_0" % total)

    # the recurrence on QuadElem at the seams 0 (where eta enters) and
    # total - 1, on module coordinates between them
    if digits_v[0] * rays[0] != eta * rays[-1] + (rays[1] if total > 1 else closing):
        raise RuntimeError("ray recurrence broken at position 0")
    for k, b, (x0, y0), (x1, y1), (x2, y2) in zip(range(1, total - 1), digits_v[1:],
                                                  coords, coords[1:], coords[2:]):
        if b * x1 != x0 + x2 or b * y1 != y0 + y2:
            raise RuntimeError("ray recurrence broken at position %d" % k)
    if total > 1 and digits_v[-1] * rays[-1] != rays[-2] + closing:
        raise RuntimeError("ray recurrence broken at position %d" % (total - 1))

    if any(b < 2 for b in digits_v):
        raise RuntimeError("period word %s has a digit below 2" % (digits_v,))
    if all(b == 2 for b in digits_v):
        raise RuntimeError("period word is all 2s, which no quadratic surd produces")

    # module membership: Cramer's rule on each built ray gives its coordinates
    for mu, (x, y) in zip(built, coords):
        nu, nv, den = _cramer(mu, alpha, beta)
        if nu != x * den or nv != y * den:
            raise RuntimeError("ray %s does not lie in the module at (%d, %d) (coords %s, %s)"
                               % (mu, x, y, Fraction(nu, den), Fraction(nv, den)))

    if v_unit:
        for gen_img in (eta * alpha, eta * beta):
            nu, nv, den = _cramer(gen_img, alpha, beta)
            if nu % den or nv % den:
                raise DomainError("v = eta^%d does not preserve the module" % f)

    # one determinant per cycle: the recurrence checked above at every position
    # gives det(c_k, b_k c_k - c_{k-1}) = det(c_{k-1}, c_k) on module coordinates
    (x0, y0), (x1, y1) = coords[0], coords[1]
    coord_det = Fraction(x0 * y1 - y0 * x1)

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
        coord_det=coord_det,
        unimodular=abs(coord_det) == 1,
    )


@dataclass(frozen=True)
class CuspChartCheck:
    """Tangency check for one toric chart (mu_k, mu_{k+1}) of a cusp cycle.

    det          exact chart determinant mu_k mu'_{k+1} - mu'_k mu_{k+1}
    sqrt_coeff   det = sqrt_coeff * sqrt(D); rational part is always zero
    multiplicities  exponent of each boundary coordinate in the wedge
    coord_det    determinant of the two rays in module coordinates, one for
                 every chart of the cycle (CuspCycle.coord_det)
    degenerate   True when det, and so the wedge, vanishes (rays proportional)
    """

    det: QuadElem
    sqrt_coeff: Fraction
    multiplicities: tuple[int, ...]
    coord_det: Fraction
    degenerate: bool

    @property
    def ok(self) -> bool:
        return not self.degenerate


def _chart_check(mu1: QuadElem, mu2: QuadElem, coord_det: Fraction) -> CuspChartCheck:
    """Wedge the two logarithmic boundary forms of the chart spanned by mu1, mu2.

    The rows fed to the generic wedge engine are the embeddings (mu, mu') of
    each ray, so the wedge coefficient is the exact determinant
    mu1 mu2' - mu1' mu2, a pure sqrt(D) multiple.  A vanishing wedge means
    the rays are proportional and the chart is degenerate; that is
    reported, not raised.
    """
    lam, mult, degenerate = _wedge_check([(mu1, mu1.conjugate()), (mu2, mu2.conjugate())])
    if not degenerate and lam.a != 0:
        raise RuntimeError("chart determinant %s has a rational part" % (lam,))
    return CuspChartCheck(
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
    """Check every chart of a resolved cusp cycle by the module-determinant identity.

    Each consecutive ray pair (mu_k, mu_{k+1}), the seam pair ending in
    eta^{-1} mu_0 included, spans a chart.  With mu = x alpha + y beta in the
    module basis, its determinant is

        mu_k mu'_{k+1} - mu'_k mu_{k+1} = coord_det * delta,
        delta = alpha beta' - alpha' beta,

    where coord_det = x_k y_{k+1} - y_k x_{k+1} is the same for every k (the
    recurrence holds it constant), so the cycle carries it once.  delta must
    be a pure sqrt(D) multiple.  For a 2x2 exponent matrix the wedge of the
    two logarithmic forms is det * u_0 u_1 du_0 ^ du_1, so every chart has
    multiplicities (1, 1) and is degenerate exactly when det = 0: the charts
    share one check, and the report lists it once per ray, chart k at
    position k.

    The generic wedge engine (_chart_check) still runs on chart 0 and on the
    seam chart, whatever the period; a disagreement with the identity raises
    RuntimeError.
    """
    alpha, beta = cycle.module
    delta = alpha * beta.conjugate() - alpha.conjugate() * beta
    if delta.a != 0:
        raise RuntimeError("module determinant %s has a rational part" % (delta,))
    det = delta * cycle.coord_det
    check = CuspChartCheck(det=det, sqrt_coeff=det.y, multiplicities=(1, 1),
                           coord_det=cycle.coord_det, degenerate=det.is_zero())
    rays = cycle.rays + (cycle.closing_ray,)
    for k in sorted({0, len(cycle.rays) - 1}):
        wedge = _chart_check(rays[k], rays[k + 1], cycle.coord_det)
        if wedge != check:
            raise RuntimeError("chart %d: the wedge engine gives det %s, the module identity %s"
                               % (k, wedge.det, det))
    ok = not check.degenerate and cycle.unimodular
    return CuspTangencyReport(D=cycle.D, charts=(check,) * len(cycle.rays),
                              unimodular=cycle.unimodular, ok=ok)
