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
S needs the analogous ratio n/(m*b), m = min(1, sum S_i).

For real quadratic fields (n = 2), hR = sqrt(D) L(1, chi_D) / 2 and
zeta_K(2) = 4 pi^4 zeta_K(-1) / D^(3/2) turn nu_max > 2/b into

    L(1, chi_D) < T_D = b^2 zeta_K(-1) / (2D),

an exact rational on the right.  The verdict decides this one inequality by
exact integer comparisons against the certified L(1) and, where h and R are
known, against h R; nu_max and the margin are reported floats only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, NumericalAgreementError
from .field_invariants import DEGREE

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
    """Invariant data the criterion consumes.

    Any object with these attributes works (the full invariant record does);
    this class is the lightweight carrier for scans and synthetic inputs.
    zeta_m1 is the exact zeta_K(-1); h and regulator are None where unknown.
    """

    D: int
    hr: float
    zeta2: float
    zeta_m1: Fraction
    l1_value: float
    l1_cert: float
    h: int | None = None
    regulator: float | None = None


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


def _degree_and_epsilon(n: int, epsilon) -> Fraction:
    """epsilon as a Fraction, once n is an integer >= 2 and 0 < epsilon < 1/n."""
    if not isinstance(n, int) or n < 2:
        raise DomainError("degree n must be an integer >= 2, got %r" % (n,))
    eps = to_fraction(epsilon, "epsilon")
    # integer tests on eps = p/q in lowest terms, since a scan asks for the
    # thresholds of every field
    if not (0 < eps.numerator and n * eps.numerator < eps.denominator):
        raise DomainError("epsilon must lie in (0, 1/%d), got %s" % (n, eps))
    return eps


def thresholds(n: int, epsilon, s_sums=()) -> Thresholds:
    """Exact thresholds from degree, epsilon and per-orbit rotation sums."""
    eps = _degree_and_epsilon(n, epsilon)
    # one gcd each for b and nu_cusp
    p, q = eps.numerator, eps.denominator
    b = Fraction(q - n * p, q)
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
        nu_cusp=Fraction(n * q, q - n * p),
        m_values=tuple(ms),
        c_elliptic=tuple(cs),
    )


def beta_constant(epsilon, n: int, sup_norm) -> Fraction:
    """Scaling constant beta = (epsilon/2) / sup_norm for the cutoff metric."""
    eps = _degree_and_epsilon(n, epsilon)
    sup = to_fraction(sup_norm, "sup_norm")
    if sup <= 0:
        raise DomainError("sup_norm must be positive, got %s" % (sup,))
    return (eps / 2) / sup


# every real quadratic field has the elliptic trace s = 0, and the verdict
# assumes each orbit's rotation sum is at least 1, so these hold for every report
ASSUMPTION_FLAGS = ("rotation_defaulted", "joint_existence_assumed")

# R is correctly rounded, so R (1 -+ 2^-52) brackets the true regulator
_R_SCALE = 1 << 52


@dataclass(frozen=True)
class CriterionReport:
    D: int
    n: int
    epsilon: Fraction
    nu_max: float
    nu_required: float
    margin: float
    rr_coefficient_at_required: float
    verdict: str
    flags: tuple[str, ...]


def _below(lo: int, hi: int, den: int, limit_num: int, limit_den: int) -> bool | None:
    """True if [lo, hi] / den lies below limit_num / limit_den, False if above,
    None if it straddles; both denominators are positive."""
    if hi * limit_den < limit_num * den:
        return True
    if lo * limit_den > limit_num * den:
        return False
    return None


def _threshold(inv, b: Fraction) -> tuple[int, int]:
    """T_D = b^2 zeta_K(-1) / (2D) as (numerator, denominator)."""
    z = inv.zeta_m1
    return (b.numerator ** 2 * z.numerator,
            2 * inv.D * b.denominator ** 2 * z.denominator)


def _l1_below(inv, t_num: int, t_den: int) -> bool:
    l1_num, l1_den = inv.l1_value.as_integer_ratio()
    cert_num, cert_den = inv.l1_cert.as_integer_ratio()
    mid, half = l1_num * cert_den, cert_num * l1_den
    below = _below(mid - half, mid + half, l1_den * cert_den, t_num, t_den)
    if below is None:
        raise NumericalAgreementError(
            "D=%d: L(1, chi_D) = %r +- %.1e straddles the threshold %.17g"
            % (inv.D, inv.l1_value, inv.l1_cert, t_num / t_den)
        )
    return below


def l1_below_threshold(inv, epsilon) -> bool:
    """Whether the certified L(1, chi_D) lies below T_D = b^2 zeta_K(-1)/(2D),
    b = 1 - 2 epsilon, which is the criterion at n = 2.

    inv needs D, zeta_m1 (exact zeta_K(-1)), l1_value and l1_cert.  Raises
    NumericalAgreementError if l1_value +- l1_cert straddles T_D.
    """
    return _l1_below(inv, *_threshold(inv, thresholds(DEGREE, epsilon).b))


def verdict(inv, epsilon) -> CriterionReport:
    """Decide Satisfied vs CandidateExceptional for one real quadratic field.

    inv carries D, zeta_m1, l1_value and l1_cert (see l1_below_threshold),
    hr and zeta2 for the reported floats, and h and regulator, or None for
    both where they are unknown.  With hR = sqrt(D) L(1)/2 the criterion
    L(1) < T_D reads 16 D (hR)^2 < b^4 zeta_K(-1)^2, so known h and R decide
    it a second time, without L(1); the two answers must agree.  Both
    comparisons are exact, in integers.  A straddle or a disagreement raises
    NumericalAgreementError.

    nu_max, nu_required, margin and the form-count coefficient are reported
    floats; they do not enter the decision.  Every report carries
    ASSUMPTION_FLAGS: an elliptic orbit with rotation sum at least 1 needs
    the cusp ratio nu_required, and its forms are assumed to be the cusp ones.
    """
    th = thresholds(DEGREE, epsilon)
    t_num, t_den = _threshold(inv, th.b)
    below = _l1_below(inv, t_num, t_den)
    if inv.h is not None:
        r_num, r_den = inv.regulator.as_integer_ratio()
        hr = inv.h * r_num
        # L(1) < T_D  <=>  4 (hR)^2 < D T_D^2
        hr_below = _below(4 * (hr * (_R_SCALE - 1)) ** 2, 4 * (hr * (_R_SCALE + 1)) ** 2,
                          (r_den * _R_SCALE) ** 2, inv.D * t_num ** 2, t_den ** 2)
        if hr_below is not below:
            raise NumericalAgreementError(
                "D=%d: h R = %d * %r and L(1, chi_D) = %r +- %.1e do not certify "
                "the same side of the threshold %.17g"
                % (inv.D, inv.h, inv.regulator, inv.l1_value, inv.l1_cert, t_num / t_den)
            )
    top = nu_max(inv, DEGREE)
    required = float(th.nu_cusp)
    return CriterionReport(
        D=inv.D,
        n=DEGREE,
        epsilon=th.epsilon,
        nu_max=top,
        nu_required=required,
        margin=top - required,
        rr_coefficient_at_required=rr_leading_coeff(inv, DEGREE, required),
        verdict="Satisfied" if below else "CandidateExceptional",
        flags=ASSUMPTION_FLAGS,
    )
