"""Sufficient criterion for strong Green-Griffiths-Lang on Hilbert modular
varieties: existence thresholds for cusp forms with prescribed vanishing and
the per-field verdict.

The dimension count for weight-2l forms vanishing to order at least nu*l at
the cusps has leading coefficient (in l^n)

    rr(nu) = 2^(1-2n) pi^(-2n) d^(3/2) zeta_K(2) - 2^(n-1) (nu/n)^n d^(1/2) h R

which is positive exactly for nu below

    nu_max = (n / (8 pi^2)) * (4 d zeta_K(2) / (h R))^(1/n),

the unique positive root.  Extension over the cusps needs nu > n/b with
b = 1 - n*epsilon; extension over an elliptic orbit with rotation sums
S needs the analogous ratio n/(m*b), m = min(1, sum S_i).  The verdict is
Satisfied when nu_max clears the cusp threshold and the form count stays
positive at every elliptic threshold.

Anything that can be exact is exact: epsilon, b and the thresholds are
Fractions; only d^(3/2), zeta_K(2), h R and the final comparisons are floats.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, NumericalAgreementError

_HR_FLOOR = 1e-12


def to_fraction(x, what: str = "value") -> Fraction:
    """Exact coercion; floats convert by their exact binary value."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str, float)):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise DomainError(f"cannot parse {what} {x!r} as a rational") from exc
    raise DomainError(f"{what} must be rational, got {type(x).__name__}")


@dataclass(frozen=True)
class FieldInputs:
    """Minimal invariant data the criterion consumes.

    Any object with attributes D, hr, zeta2 works (the full invariant record
    does); this class is the lightweight carrier for scans and synthetic
    inputs.
    """

    D: int
    hr: float
    zeta2: float


def rr_leading_coeff(inv, n: int, nu: float) -> float:
    """Leading coefficient of the form count at vanishing-order ratio nu."""
    if n < 2:
        raise DomainError("degree n must be >= 2, got %r" % (n,))
    if nu < 0:
        raise DomainError("vanishing-order ratio nu must be >= 0, got %r" % (nu,))
    d = float(inv.D)
    main = 2.0 ** (1 - 2 * n) * math.pi ** (-2 * n) * d ** 1.5 * inv.zeta2
    defect = 2.0 ** (n - 1) * (nu / n) ** n * math.sqrt(d) * inv.hr
    return main - defect


def nu_max(inv, n: int) -> float:
    """Supremum of admissible vanishing-order ratios, the positive rr root."""
    if n < 2:
        raise DomainError("degree n must be >= 2, got %r" % (n,))
    if not (inv.hr > _HR_FLOOR):
        raise NumericalAgreementError(
            "regulator-class product hR = %r for D=%r is below tolerance" % (inv.hr, inv.D)
        )
    return n / (8.0 * math.pi ** 2) * (4.0 * inv.D * inv.zeta2 / inv.hr) ** (1.0 / n)


@dataclass(frozen=True)
class Thresholds:
    """Vanishing-order thresholds for metric extension at degree n.

    b = 1 - n*epsilon; forms need nu > nu_cusp = n/b over the cusps and
    order ratio c = 1/(m*b) per elliptic orbit, m = min(1, sum S_i).
    """

    n: int
    epsilon: Fraction
    b: Fraction
    nu_cusp: Fraction
    m_values: tuple[Fraction, ...]
    c_elliptic: tuple[Fraction, ...]


def thresholds(n: int, epsilon, s_sums=()) -> Thresholds:
    """Exact thresholds from degree, epsilon and per-orbit rotation sums."""
    if not isinstance(n, int) or n < 2:
        raise DomainError("degree n must be an integer >= 2, got %r" % (n,))
    eps = to_fraction(epsilon, "epsilon")
    if not (0 < eps < Fraction(1, n)):
        raise DomainError("epsilon must lie in (0, 1/%d), got %s" % (n, eps))
    b = 1 - n * eps
    ms = []
    cs = []
    for i, raw in enumerate(s_sums):
        total = to_fraction(raw, "rotation sum")
        if total <= 0:
            raise DomainError(
                "orbit %d has rotation sum %s; a zero sum means a smooth point "
                "misclassified as elliptic" % (i, total)
            )
        m = min(Fraction(1), total)
        ms.append(m)
        cs.append(1 / (m * b))
    return Thresholds(
        n=n,
        epsilon=eps,
        b=b,
        nu_cusp=Fraction(n) / b,
        m_values=tuple(ms),
        c_elliptic=tuple(cs),
    )


# a scan asks for the same (n, epsilon, rotation sums) on every field; typed
# keeps 2 and 2.0 apart so a float degree is still rejected
_thresholds_memo = functools.lru_cache(maxsize=32, typed=True)(thresholds)


def _cached_thresholds(n, epsilon, sums: tuple) -> Thresholds:
    try:
        return _thresholds_memo(n, epsilon, sums)
    except TypeError:
        # unhashable input: let thresholds() validate it uncached
        return thresholds(n, epsilon, sums)


def beta_constant(epsilon, n: int, sup_norm) -> Fraction:
    """Scaling constant beta = (epsilon/2) / sup_norm for the cutoff metric."""
    eps = to_fraction(epsilon, "epsilon")
    if not isinstance(n, int) or n < 2:
        raise DomainError("degree n must be an integer >= 2, got %r" % (n,))
    if not (0 < eps < Fraction(1, n)):
        raise DomainError("epsilon must lie in (0, 1/%d), got %s" % (n, eps))
    sup = to_fraction(sup_norm, "sup_norm")
    if sup <= 0:
        raise DomainError("sup_norm must be positive, got %s" % (sup,))
    return (eps / 2) / sup


@dataclass(frozen=True)
class OrbitCheck:
    """Form-count feasibility at one elliptic orbit's required order ratio."""

    label: str
    m: Fraction
    nu_required: float
    rr_coefficient: float
    ok: bool


@dataclass(frozen=True)
class CriterionReport:
    D: int
    n: int
    epsilon: Fraction
    nu_max: float
    nu_required: float
    margin: float
    rr_coefficient_at_required: float
    elliptic_feasible: bool
    elliptic_detail: tuple[OrbitCheck, ...]
    verdict: str
    flags: tuple[str, ...]


def verdict(inv, n: int, epsilon, elliptic=None, s_sums=None) -> CriterionReport:
    """Decide Satisfied vs CandidateExceptional for one field.

    elliptic  optional trace-class summary; its classes become the orbits
    s_sums    optional per-orbit rotation sums; when omitted for a field with
              elliptic orbits, each sum defaults to 1 (the common case of the
              extension bound) and the report is flagged rotation_defaulted

    The elliptic side reuses the cusp form count with nu replaced by the
    orbit's required ratio; that joint accounting is an engine assumption and
    every report with orbits carries the joint_existence_assumed flag.
    """
    flags = []
    labels: list[str]
    if s_sums is not None:
        sums = list(s_sums)
        if elliptic is not None and len(elliptic.bounds) == len(sums):
            labels = [str(b.trace) for b in elliptic.bounds]
        else:
            labels = ["orbit %d" % i for i in range(len(sums))]
    elif elliptic is not None and elliptic.bounds:
        sums = [Fraction(1)] * len(elliptic.bounds)
        labels = [str(b.trace) for b in elliptic.bounds]
        flags.append("rotation_defaulted")
    else:
        sums = []
        labels = []
    if sums:
        flags.append("joint_existence_assumed")

    th = _cached_thresholds(n, epsilon, tuple(sums))
    top = nu_max(inv, n)
    required = float(th.nu_cusp)
    rr_at_required = rr_leading_coeff(inv, n, required)

    detail = []
    feasible = True
    for label, m, c in zip(labels, th.m_values, th.c_elliptic):
        nu_ell = float(c * n)
        rr_ell = rr_leading_coeff(inv, n, nu_ell)
        ok = rr_ell > 0.0
        feasible = feasible and ok
        detail.append(
            OrbitCheck(label=label, m=m, nu_required=nu_ell, rr_coefficient=rr_ell, ok=ok)
        )

    margin = top - required
    satisfied = margin > 0.0 and feasible
    return CriterionReport(
        D=inv.D,
        n=n,
        epsilon=th.epsilon,
        nu_max=top,
        nu_required=required,
        margin=margin,
        rr_coefficient_at_required=rr_at_required,
        elliptic_feasible=feasible,
        elliptic_detail=tuple(detail),
        verdict="Satisfied" if satisfied else "CandidateExceptional",
        flags=tuple(flags),
    )
