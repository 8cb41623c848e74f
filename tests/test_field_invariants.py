"""Units, class numbers, regulators and the analytic cross-checks."""

import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from hilbert_ggl import field_invariants
from hilbert_ggl.cusps import cusp_cycle
from hilbert_ggl.elliptic import elliptic_summary
from hilbert_ggl.errors import DomainError, NumericalAgreementError
from hilbert_ggl.field_invariants import (
    FundamentalUnit,
    class_number,
    exact_hr,
    form_cycles,
    fundamental_discriminants_up_to,
    fundamental_unit,
    invariants,
    principal_form,
    reduced_forms,
    regulator,
    rho_step,
    zeta_K2_dual,
)
from hilbert_ggl.lfunctions import (
    _fundamental_parts,
    closed_form_l1,
    euler_chi_array,
    factor_fundamental,
    is_fundamental_discriminant,
)
from hilbert_ggl.scan import scan_field

from oracles import (
    brute_class_number,
    brute_fundamental_unit,
    mp_l_value,
    mp_regulator,
    trial_division_reduced_forms,
)

# (D, t, u, norm, h, h_plus): unit data cross-checked against the ascending-u
# brute force oracle below; h from the analytic-formula oracle.
KNOWN_FIELDS = [
    (5, 1, 1, -1, 1, 1),
    (8, 2, 1, -1, 1, 1),
    (12, 4, 1, 1, 1, 2),
    (13, 3, 1, -1, 1, 1),
    (17, 8, 2, -1, 1, 1),
    (24, 10, 2, 1, 1, 2),
    (40, 6, 1, -1, 2, 2),
    (229, 15, 1, -1, 3, 3),
]


def test_fundamental_discriminants_up_to():
    ds = fundamental_discriminants_up_to(50)
    assert list(ds) == [5, 8, 12, 13, 17, 21, 24, 28, 29, 33, 37, 40, 41, 44]
    assert fundamental_discriminants_up_to(4) == []


def test_known_units_and_class_numbers():
    for D, t, u, norm, h, h_plus in KNOWN_FIELDS:
        eps = fundamental_unit(D)
        assert (eps.t, eps.u, eps.norm) == (t, u, norm), D
        assert eps.t ** 2 - D * eps.u ** 2 == 4 * eps.norm
        cd = class_number(D)
        assert (cd.h, cd.h_plus, cd.unit_norm) == (h, h_plus, norm), D


def test_units_match_brute_force_oracle():
    # every fundamental D <= 100 has a small unit, safe for ascending-u brute
    for D in [int(d) for d in fundamental_discriminants_up_to(100)]:
        eps = fundamental_unit(D)
        assert (eps.t, eps.u, eps.norm) == brute_fundamental_unit(D), D


def test_class_numbers_match_analytic_oracle():
    # h from form cycles vs h from the analytic formula with an independent
    # digamma L-value; the package unit (verified elsewhere) feeds the log
    rng = random.Random(51)
    ds = [int(d) for d in fundamental_discriminants_up_to(600)]
    for D in rng.sample(ds, 25) + [229, 401]:
        eps = fundamental_unit(D)
        assert class_number(D).h == brute_class_number(D, eps.t, eps.u), D


def test_regulator_high_precision():
    for D in (5, 8, 97, 229):
        r = float(mp_regulator(D))
        assert abs(regulator(D) - r) < 1e-14 * r
    # Pell-hard field: unit verified exactly, log checked at high precision
    eps = fundamental_unit(1093)
    assert eps.t ** 2 - 1093 * eps.u ** 2 == 4 * eps.norm
    r = float(mp_regulator(1093, eps.t, eps.u))
    assert abs(regulator(1093) - r) < 1e-14 * r
    assert abs(regulator(5) - 0.4812118250596034) < 1e-15
    assert abs(regulator(8) - math.log(1 + math.sqrt(2))) < 1e-15


def test_regulator_is_correctly_rounded():
    # decimal logarithm against mpmath's, at every field D <= 10^4
    for D in fundamental_discriminants_up_to(10_000):
        eps = fundamental_unit(D)
        assert regulator(D) == float(mp_regulator(D, eps.t, eps.u)), D


def test_field_functions_take_numpy_integers(tables):
    # fundamental_discriminants_up_to once handed out np.int64, whose fixed
    # width wrapped in the unit recurrence; every entry point takes the D it
    # is given as a Python int
    eps = Fraction(1, 100)
    for D in (5, 409, 64277, 99996):
        for f in (fundamental_unit, regulator, class_number, invariants,
                  elliptic_summary, cusp_cycle, lambda d: scan_field(d, eps, *tables)):
            assert f(np.int64(D)) == f(D), (f, D)
    assert type(fundamental_unit(np.int64(409)).t) is int
    assert type(cusp_cycle(np.int64(5)).digits[0]) is int
    # the reduced-form cycle and the Euler-criterion character, too
    for D in (5, 409):
        cycles = form_cycles(np.int64(D))
        assert cycles == form_cycles(D)
        assert all(type(x) is int for cyc in cycles for form in cyc for x in form), D
        pf = principal_form(np.int64(D))
        assert pf == principal_form(D) and all(type(x) is int for x in pf), D
        step = rho_step(pf, np.int64(D))
        assert step == rho_step(pf, D) and all(type(x) is int for x in step), D
        assert np.array_equal(euler_chi_array(np.int64(D), 1000), euler_chi_array(D, 1000)), D
    # the factorization memo is keyed on Python ints, so a numpy D gets the
    # same Python-int parts
    _fundamental_parts.cache_clear()
    for D in (5, 409, 64277, 99996, -20):
        parts = factor_fundamental(np.int64(D))
        assert parts == factor_fundamental(D) and all(type(p) is int for p in parts), D


def test_unit_is_minimal():
    # no unit (t', u') with smaller u solves t^2 - D u^2 = +-4
    for D in (5, 8, 12, 13, 17, 24, 40, 229, 316):
        eps = fundamental_unit(D)
        for u in range(1, eps.u):
            for norm in (-1, 1):
                t2 = D * u * u + 4 * norm
                assert not (t2 > 0 and math.isqrt(t2) ** 2 == t2), (D, u)


def test_totally_positive_generator():
    eps5 = fundamental_unit(5)
    gen = eps5.totally_positive_generator()
    assert gen.is_totally_positive()
    assert gen == eps5.elem() * eps5.elem()
    eps12 = fundamental_unit(12)
    assert eps12.totally_positive_generator() == eps12.elem()
    assert eps12.elem().is_totally_positive()


def test_reduced_forms_are_reduced_and_closed_under_rho():
    # reduced: sqrt(D) - b < 2|a| < sqrt(D) + b, checked in exact integers
    for D in (5, 8, 40, 229, 316):
        forms = reduced_forms(D)
        for (a, b, c) in forms:
            assert b * b - 4 * a * c == D
            assert b > 0 and b * b < D
            assert a * c < 0
            assert (2 * abs(a) + b) ** 2 > D
            t = 2 * abs(a) - b
            assert t <= 0 or t * t < D
        fset = set(forms)
        for f in forms:
            assert rho_step(f, D) in fset


def test_reduced_forms_equal_trial_division_oracle():
    # every fundamental D <= 5000, and past it where the grid takes blocks
    Ds = [int(D) for D in fundamental_discriminants_up_to(5000)]
    for D in Ds + [1_000_005, 1_000_013, 1_000_037, 4_000_037]:
        assert reduced_forms(D) == trial_division_reduced_forms(D), D


def test_class_number_memory_stays_flat():
    # the divisor grid of D = 4000037 has about 1e6 cells, tested in blocks
    tracemalloc.start()
    try:
        cd = class_number(4_000_037)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cd.h >= 1
    assert peak < 32 * 2**20, peak


def test_form_cycles_partition():
    for D in (40, 229):
        cycles = form_cycles(D)
        forms = reduced_forms(D)
        assert sum(len(c) for c in cycles) == len(forms)
        seen = [f for c in cycles for f in c]
        assert len(seen) == len(set(seen))


def test_invariants_record():
    inv = invariants(5)
    assert (inv.h, inv.h_plus, inv.t, inv.u, inv.unit_norm) == (1, 1, 1, 1, -1)
    assert abs(inv.regulator - 0.4812118250596034) < 1e-15
    assert abs(inv.hr - inv.h * inv.regulator) == 0
    assert abs(inv.l1_value - 0.4304089409640040) < 1e-12
    assert abs(inv.zeta2 - 1.1616711956186385) <= inv.zeta2_cert + 1e-12
    assert inv.acnf_residual <= inv.l1_cert + 8 * 2.0 ** -53 * inv.l1_value
    with pytest.raises(DomainError):
        invariants(6)


def test_exact_hr_catches_a_regulator_off_by_1e_12(monkeypatch):
    # the residual bound l1_cert + 8u |L(1)| leaves no room for a relative
    # error of 1e-12 in R
    for D in (5, 8, 229, 9997, 64277, 99996):
        l1, l1_cert = closed_form_l1(D)
        exact_hr(D, l1, l1_cert)
    original = FundamentalUnit.regulator
    monkeypatch.setattr(FundamentalUnit, "regulator",
                        lambda unit: original(unit) * (1 + 1e-12))
    for D in (5, 8, 229, 9997, 64277, 99996):
        l1, l1_cert = closed_form_l1(D)
        with pytest.raises(NumericalAgreementError, match="class number formula residual"):
            exact_hr(D, l1, l1_cert)


def test_zeta_k2_dual_agreement():
    # both certificates against mpmath, the character route's included
    for D in fundamental_discriminants_up_to(120) + [229]:
        dual = zeta_K2_dual(D)
        assert dual.difference <= dual.char_cert + dual.ideal_cert
        oracle = float(mpmath.zeta(2)) * float(mp_l_value(2, D))
        assert abs(dual.char_value - oracle) <= dual.char_cert + 1e-12
        assert abs(dual.ideal_value - oracle) <= dual.ideal_cert + 1e-12


def test_zeta_k2_dual_refuses_past_the_cutoff_before_any_work(monkeypatch):
    def refuse(*args):
        raise AssertionError("a character table was built past the cutoff")

    monkeypatch.setattr(field_invariants, "kronecker_table", refuse)
    monkeypatch.setattr(field_invariants, "euler_chi_array", refuse)
    D = next(d for d in itertools.count(field_invariants._IDEAL_LIMIT + 1)
             if is_fundamental_discriminant(d))
    with pytest.raises(DomainError, match="cutoff"):
        zeta_K2_dual(D)


def test_unit_norm_two_routes_agree():
    for D in [int(d) for d in fundamental_discriminants_up_to(400)]:
        assert fundamental_unit(D).norm == class_number(D).unit_norm, D
