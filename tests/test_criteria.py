"""Form-count thresholds, nu_max, beta constant and the per-field verdict."""

import random
from fractions import Fraction

import pytest

from hilbert_ggl.criteria import (
    FieldInputs,
    beta_constant,
    nu_max,
    rr_leading_coeff,
    thresholds,
    verdict,
)
from hilbert_ggl.elliptic import elliptic_summary
from hilbert_ggl.errors import DomainError, NumericalAgreementError
from hilbert_ggl.field_invariants import invariants


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
        inv = FieldInputs(D=D, hr=hr, zeta2=zeta2)
        n = rng.choice([2, 2, 2, 3, 4])
        top = nu_max(inv, n)
        hi = top * 2
        root = bisect_root(lambda nu: rr_leading_coeff(inv, n, nu), 0.0, hi, 1e-12)
        assert abs(top - root) <= 1e-9 * max(1.0, top), (D, n)
        checked += 1


def test_rr_leading_coeff_validates_input():
    inv = FieldInputs(D=5, hr=0.5, zeta2=1.2)
    with pytest.raises(DomainError):
        rr_leading_coeff(inv, 1, 0.1)
    with pytest.raises(DomainError):
        rr_leading_coeff(inv, 2, -0.1)
    with pytest.raises(NumericalAgreementError):
        nu_max(FieldInputs(D=5, hr=0.0, zeta2=1.2), 2)


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


def test_verdict_d5_candidate_exceptional():
    inv = invariants(5)
    ell = elliptic_summary(5)
    rep = verdict(inv, 2, Fraction(1, 20), ell)
    assert rep.verdict == "CandidateExceptional"
    assert abs(rep.nu_max - 0.176) < 1e-3
    assert abs(rep.nu_required - 2.0 / 0.9) < 1e-12
    assert rep.margin < 0
    assert "rotation_defaulted" in rep.flags
    assert "joint_existence_assumed" in rep.flags
    assert len(rep.elliptic_detail) == len(ell.bounds)


def test_verdict_synthetic_satisfied():
    # d zeta / hR = 1e8 makes nu_max = (2/(8 pi^2)) sqrt(4e8) = 506.6 >> nu_cusp
    inv = FieldInputs(D=10**8, hr=1.0, zeta2=1.0)
    rep = verdict(inv, 2, Fraction(1, 100))
    assert rep.nu_max > 500
    assert rep.verdict == "Satisfied"
    assert rep.elliptic_feasible
    assert rep.flags == ()


def test_verdict_monotone_in_zeta2():
    # increasing zeta_K(2) with everything else fixed never flips
    # Satisfied -> CandidateExceptional
    rng = random.Random(314)
    for _ in range(200):
        D = rng.randint(5, 10**7)
        hr = rng.uniform(0.3, 30.0)
        z = rng.uniform(1.0, 2.0)
        eps = Fraction(rng.randint(1, 49), 100)
        r1 = verdict(FieldInputs(D, hr, z), 2, eps)
        r2 = verdict(FieldInputs(D, hr, z * rng.uniform(1.0, 4.0)), 2, eps)
        if r1.verdict == "Satisfied":
            assert r2.verdict == "Satisfied"
        assert r2.nu_max >= r1.nu_max


def test_verdict_orbit_labels_and_s_sums():
    inv = invariants(5)
    ell = elliptic_summary(5)
    k = len(ell.bounds)
    sums = [Fraction(1, 2)] * k
    rep = verdict(inv, 2, Fraction(1, 20), ell, s_sums=sums)
    assert "rotation_defaulted" not in rep.flags
    assert "joint_existence_assumed" in rep.flags
    assert [o.m for o in rep.elliptic_detail] == [Fraction(1, 2)] * k
    assert [o.label for o in rep.elliptic_detail] == [str(b.trace) for b in ell.bounds]
    # nu for the orbit is c*n = n/(m*b)
    b = 1 - 2 * Fraction(1, 20)
    assert all(abs(o.nu_required - float(2 / (Fraction(1, 2) * b))) < 1e-12
               for o in rep.elliptic_detail)


def test_verdict_no_elliptic_input():
    inv = invariants(5)
    rep = verdict(inv, 2, Fraction(1, 100))
    assert rep.elliptic_detail == ()
    assert rep.flags == ()
    assert rep.verdict == "CandidateExceptional"


def test_verdict_satisfied_requires_elliptic_feasibility():
    # nu_max just above nu_cusp but elliptic order far beyond it: infeasible
    inv = FieldInputs(D=10**4, hr=1.0, zeta2=1.0)
    base = verdict(inv, 2, Fraction(1, 100))
    assert base.verdict == "Satisfied"
    tiny = [Fraction(1, 1000)]
    rep = verdict(inv, 2, Fraction(1, 100), s_sums=tiny)
    assert not rep.elliptic_feasible
    assert rep.verdict == "CandidateExceptional"
    assert rep.elliptic_detail[0].label == "orbit 0"


def test_verdict_memo_keeps_validation():
    # the thresholds memo caches results, never exceptions: bad input raises
    # on every call
    inv = FieldInputs(D=10**4, hr=1.0, zeta2=1.0)
    for _ in range(2):
        with pytest.raises(DomainError):
            verdict(inv, 2, Fraction(1, 2))
        with pytest.raises(DomainError):
            verdict(inv, 2, Fraction(1, 100), s_sums=[Fraction(1), Fraction(0)])
        with pytest.raises(DomainError):
            verdict(inv, 2, [Fraction(1, 100)])  # unhashable, so never memoized
    # a float degree equal to 2 is still rejected after an integer call
    verdict(inv, 2, Fraction(1, 100))
    with pytest.raises(DomainError):
        verdict(inv, 2.0, Fraction(1, 100))
    first = verdict(inv, 2, Fraction(1, 100), s_sums=[Fraction(1, 2)])
    again = verdict(inv, 2, Fraction(1, 100), s_sums=[Fraction(1, 2)])
    assert first == again
    assert first.elliptic_detail[0].m == Fraction(1, 2)
