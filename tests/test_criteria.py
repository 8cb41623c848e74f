"""Form-count thresholds, nu_max, beta constant and the per-field verdict."""

import dataclasses
import math
import random
from fractions import Fraction
from types import SimpleNamespace

import mpmath
import pytest

from hilbert_ggl.criteria import (
    FieldInputs,
    beta_constant,
    l1_below_threshold,
    nu_max,
    rr_leading_coeff,
    thresholds,
    verdict,
)
from hilbert_ggl.errors import DomainError, NumericalAgreementError
from hilbert_ggl.field_invariants import invariants
from hilbert_ggl.lfunctions import zeta_K2, zeta_K_minus1


def bisect_root(f, lo: float, hi: float, tol: float) -> float:
    assert f(lo) > 0 > f(hi)
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def test_nu_max_is_the_rr_root_for_d5():
    inv = invariants(5)
    top = nu_max(inv, 2)
    # frozen: 40-digit evaluation of (2/(8 pi^2)) sqrt(4*5*zeta_K(2)/(hR))
    assert abs(top - 0.1760065078159474) < 1e-9
    assert abs(top - 0.17602) < 2e-5
    root = bisect_root(lambda nu: rr_leading_coeff(inv, 2, nu), 0.01, 1.0, 1e-12)
    assert abs(top - root) < 1e-9
    # rr changes sign exactly at nu_max
    assert rr_leading_coeff(inv, 2, top * (1 - 1e-9)) > 0
    assert rr_leading_coeff(inv, 2, top * (1 + 1e-9)) < 0


def test_nu_max_is_the_rr_root_for_100_random_fields():
    rng = random.Random(8128)
    checked = 0
    while checked < 100:
        D = rng.randint(5, 5000)
        hr = rng.uniform(0.3, 50.0)
        zeta2 = rng.uniform(1.0, 2.0)
        inv = SimpleNamespace(D=D, hr=hr, zeta2=zeta2)
        n = rng.choice([2, 2, 2, 3, 4])
        top = nu_max(inv, n)
        hi = top * 2
        root = bisect_root(lambda nu: rr_leading_coeff(inv, n, nu), 0.0, hi, 1e-12)
        assert abs(top - root) <= 1e-9 * max(1.0, top), (D, n)
        checked += 1


def test_rr_leading_coeff_validates_input():
    inv = SimpleNamespace(D=5, hr=0.5, zeta2=1.2)
    with pytest.raises(DomainError):
        rr_leading_coeff(inv, 1, 0.1)
    with pytest.raises(DomainError):
        rr_leading_coeff(inv, 2, -0.1)
    with pytest.raises(NumericalAgreementError):
        nu_max(SimpleNamespace(D=5, hr=0.0, zeta2=1.2), 2)


def test_thresholds_examples():
    th = thresholds(2, Fraction(1, 10))
    assert th.b == Fraction(4, 5)
    assert th.nu_cusp == Fraction(5, 2)
    # rotation sum >= 1 collapses m to 1, so c = 1/b
    th = thresholds(2, Fraction(1, 10), [Fraction(14, 10)])
    assert th.m_values == (Fraction(1),)
    assert th.c_elliptic == (Fraction(5, 4),)
    # rotation sum 0.6 with b = 0.8: c = 1/0.48 = 25/12
    th = thresholds(2, Fraction(1, 10), [Fraction(6, 10)])
    assert th.m_values == (Fraction(3, 5),)
    assert th.c_elliptic == (Fraction(25, 12),)
    assert float(th.c_elliptic[0]) == pytest.approx(2.0833333333, abs=1e-9)


def test_thresholds_validation():
    with pytest.raises(DomainError):
        thresholds(2, Fraction(1, 2))  # epsilon = 1/n
    with pytest.raises(DomainError):
        thresholds(2, 0)
    with pytest.raises(DomainError):
        thresholds(2, Fraction(-1, 10))
    with pytest.raises(DomainError):
        thresholds(1, Fraction(1, 10))
    with pytest.raises(DomainError) as info:
        thresholds(2, Fraction(1, 10), [Fraction(0)])
    assert "smooth point" in str(info.value)


def test_beta_constant_examples():
    assert beta_constant(Fraction(1, 10), 2, 1) == Fraction(1, 20)
    assert beta_constant(Fraction(1, 5), 3, Fraction(1, 2)) == Fraction(1, 5)
    # beta scales inversely with sup_norm
    assert beta_constant(Fraction(1, 10), 2, 2) == beta_constant(Fraction(1, 10), 2, 1) / 2
    with pytest.raises(DomainError):
        beta_constant(Fraction(1, 10), 2, 0)
    with pytest.raises(DomainError):
        beta_constant(Fraction(1, 10), 2, -3)
    with pytest.raises(DomainError):
        beta_constant(Fraction(1, 2), 2, 1)


@pytest.mark.parametrize("n, epsilon", [
    (1, Fraction(1, 10)), (2.0, Fraction(1, 10)), ("2", Fraction(1, 10)),
    (2, 0), (2, Fraction(-1, 10)), (2, Fraction(1, 2)), (3, Fraction(1, 3)),
    (2, "one tenth"), (2, None),
])
def test_thresholds_and_beta_constant_reject_alike(n, epsilon):
    # one validation of (n, epsilon) serves both, with the same message
    with pytest.raises(DomainError) as from_thresholds:
        thresholds(n, epsilon)
    with pytest.raises(DomainError) as from_beta:
        beta_constant(epsilon, n, 1)
    assert str(from_thresholds.value) == str(from_beta.value)


def _inputs(D, l1, zeta_m1, l1_cert=None):
    """Consistent fast-path inputs: hR from L(1), zeta_K(2) from zeta_K(-1)."""
    return FieldInputs(D=D, hr=math.sqrt(D) * l1 / 2.0, zeta2=zeta_K2(D, zeta_m1)[0],
                       zeta_m1=zeta_m1, l1_value=l1,
                       l1_cert=1e-12 * l1 if l1_cert is None else l1_cert)


def test_verdict_d5_candidate_exceptional():
    inv = invariants(5)
    rep = verdict(inv, Fraction(1, 20))
    assert rep.verdict == "CandidateExceptional"
    assert abs(rep.nu_max - 0.176) < 1e-3
    assert abs(rep.nu_required - 2.0 / 0.9) < 1e-12
    assert rep.margin < 0
    assert rep.flags == ("rotation_defaulted", "joint_existence_assumed")
    # epsilon must lie in (0, 1/2)
    for eps in (Fraction(1, 2), 0, [Fraction(1, 100)]):
        with pytest.raises(DomainError):
            verdict(inv, eps)


def test_verdict_synthetic_satisfied():
    # the first Satisfied field, decided by L(1) alone and by h R as well
    inv = invariants(46373)
    fast = _inputs(inv.D, inv.l1_value, inv.zeta_m1, inv.l1_cert)
    for data in (inv, fast):
        rep = verdict(data, Fraction(1, 100))
        assert rep.verdict == "Satisfied"
        assert rep.margin > 0 and rep.rr_coefficient_at_required > 0
        assert rep.flags == ("rotation_defaulted", "joint_existence_assumed")
    assert l1_below_threshold(fast, Fraction(1, 100))
    # a larger epsilon lowers T_D below L(1)
    assert verdict(inv, Fraction(1, 10)).verdict == "CandidateExceptional"


def test_verdict_monotone_in_zeta2():
    # increasing zeta_K(-1), and with it zeta_K(2), with everything else fixed
    # never flips Satisfied -> CandidateExceptional
    rng = random.Random(314)
    flips = 0
    for _ in range(200):
        D = rng.randint(5, 10**7)
        l1 = rng.uniform(0.1, 5.0)
        eps = Fraction(rng.randint(1, 49), 100)
        b = 1 - 2 * eps
        # zeta_K(-1) within a factor 2 of the threshold value 2 D L(1) / b^2
        z1 = Fraction(l1) * 2 * D / b ** 2 * Fraction(rng.randint(500, 2000), 1000)
        z2 = z1 * Fraction(rng.randint(1000, 4000), 1000)
        r1 = verdict(_inputs(D, l1, z1), eps)
        r2 = verdict(_inputs(D, l1, z2), eps)
        if r1.verdict == "Satisfied":
            assert r2.verdict == "Satisfied"
        flips += r1.verdict != r2.verdict
        assert r2.nu_max >= r1.nu_max
    assert flips > 0


def _threshold(D, zeta_m1, eps):
    return (1 - 2 * eps) ** 2 * zeta_m1 / (2 * D)


def test_verdict_straddle_raises():
    eps = Fraction(1, 100)
    zeta_m1 = zeta_K_minus1(64277)
    t = _threshold(64277, zeta_m1, eps)
    # L(1) on the threshold, up to the rounding of float(T_D)
    on = _inputs(64277, float(t), zeta_m1, l1_cert=1e-15)
    with pytest.raises(NumericalAgreementError, match="straddles"):
        verdict(on, eps)
    with pytest.raises(NumericalAgreementError, match="straddles"):
        l1_below_threshold(on, eps)
    # a certificate that reaches T_D from either side
    for l1 in (float(t) * (1 - 1e-6), float(t) * (1 + 1e-6)):
        with pytest.raises(NumericalAgreementError):
            verdict(_inputs(64277, l1, zeta_m1, l1_cert=2e-6 * l1), eps)
        assert verdict(_inputs(64277, l1, zeta_m1, l1_cert=1e-7 * l1), eps).verdict == (
            "Satisfied" if l1 < t else "CandidateExceptional")


def test_verdict_doctored_hr_raises():
    eps = Fraction(1, 100)
    # Satisfied by L(1), but h R moved above T_D; CandidateExceptional by
    # L(1), but h R moved below T_D
    for D in (46373, 5):
        inv = invariants(D)
        t = _threshold(D, inv.zeta_m1, eps)
        # R with hR = sqrt(D) L / 2 for L = T_D (1 -+ 1e-3): the other side of T_D
        factor = 1 + 1e-3 if verdict(inv, eps).verdict == "Satisfied" else 1 - 1e-3
        far = math.sqrt(D) * float(t) * factor / 2.0 / inv.h
        with pytest.raises(NumericalAgreementError, match="same side"):
            verdict(dataclasses.replace(inv, regulator=far), eps)
        # R rounded from the exact sqrt(D) T_D / (2h): R (1 +- 2^-52) straddles T_D
        with mpmath.workdps(50):
            on = float(mpmath.sqrt(D) * t.numerator / (2 * inv.h * t.denominator))
        with pytest.raises(NumericalAgreementError, match="same side"):
            verdict(dataclasses.replace(inv, regulator=on), eps)
