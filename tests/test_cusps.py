"""Cusp resolution cycles: period words, rays, units, and wedge checks."""

import contextlib
import dataclasses
import hashlib
import io
import types
from fractions import Fraction

import numpy as np
import pytest

import hilbert_ggl.cusps as cusps_mod
import hilbert_ggl.cyclic as cyclic_mod
from hilbert_ggl.cli import main
from hilbert_ggl.cusps import (
    _MAX_V_POWER,
    _expand_to_reduced,
    cusp_cycle,
    periodic_hj,
    verify_cusp_tangency,
)
from hilbert_ggl.elliptic import imag_class_numbers
from hilbert_ggl.errors import DomainError
from hilbert_ggl.field_invariants import (
    class_number,
    fundamental_discriminants_up_to,
    fundamental_unit,
)
from hilbert_ggl.lfunctions import primes_up_to
from hilbert_ggl.quadratic import QuadElem, _elem_str

from oracles import cusp_cycle_fields, cyclically_equal, quadelem_cusp_cycle, wedge_cusp_charts


def test_periodic_hj_known_surds():
    # (3 + sqrt5)/2 = 2.618...: ceil 3, and 1/(3 - w) = w again
    assert periodic_hj(QuadElem.from_pq(3, 1, 5)) == [3]
    # 2 + sqrt2 as (4 + sqrt8)/2
    assert cyclically_equal(periodic_hj(QuadElem.from_pq(4, 1, 8)), [4, 2])
    # (5 + sqrt21)/2 is purely periodic with word [5]
    assert periodic_hj(QuadElem.from_pq(5, 1, 21)) == [5]


def test_periodic_hj_word_reconstructs_fixed_point():
    # iterating x -> b0 - 1/(b1 - 1/(... - 1/x)) from the period word must
    # converge back to the value of w
    for w in (QuadElem.from_pq(3, 1, 5), QuadElem.from_pq(4, 1, 8), QuadElem.from_pq(5, 1, 21)):
        word = periodic_hj(w)
        x = float(w)
        for _ in range(60):
            for b in reversed(word):
                x = b - 1 / x
        assert abs(x - float(w)) < 1e-9


def test_periodic_hj_rejects_non_reduced():
    golden = QuadElem.from_pq(1, 1, 5)  # (1 + sqrt5)/2: conjugate negative
    with pytest.raises(DomainError, match="expand it to a reduced tail first"):
        periodic_hj(golden)
    red = _expand_to_reduced(golden)[0]
    assert red.is_hj_reduced()
    assert red == QuadElem.from_pq(3, 1, 5)
    assert periodic_hj(red) == [3]


def test_continued_fraction_rejects_rational_input():
    for r in (QuadElem(3, 0, 5), QuadElem(Fraction(7, 2), 0, 13)):
        for expand in (periodic_hj, _expand_to_reduced):
            with pytest.raises(DomainError) as info:
                expand(r)
            assert str(info.value) == "%s is rational and has no periodic continued fraction" % r


def test_cusp_cycle_frozen_small_fields():
    c5 = cusp_cycle(5)
    assert c5.digits == (3,)
    assert c5.period == 1 and c5.v_power == 1
    assert c5.eta == QuadElem.from_pq(3, 1, 5)
    assert c5.self_intersections() == (-3,)

    c8 = cusp_cycle(8)
    assert cyclically_equal(list(c8.digits), [4, 2])
    assert c8.period == 2
    assert c8.eta == QuadElem(3, 1, 8)  # (1 + sqrt2)^2 = 3 + 2*sqrt2

    c12 = cusp_cycle(12)
    assert c12.digits == (4,)
    assert c12.eta == QuadElem(2, Fraction(1, 2), 12)  # 2 + sqrt3


def test_cusp_cycle_properties_over_range():
    for D in fundamental_discriminants_up_to(300):
        D = int(D)
        c = cusp_cycle(D)
        assert all(b >= 2 for b in c.digits), D
        assert any(b >= 3 for b in c.digits), D
        assert c.eta == fundamental_unit(D).totally_positive_generator(), D
        assert c.eta == c.eta_period ** c.v_power
        assert c.unimodular, D
        assert len(c.rays) == len(c.digits) == c.period * c.v_power
        assert c.closing_ray == c.eta.inverse() * c.rays[0], D
        # recurrence b_k mu_k = mu_{k-1} + mu_{k+1} away from the seam
        for k in range(1, len(c.rays) - 1):
            assert c.digits[k] * c.rays[k] == c.rays[k - 1] + c.rays[k + 1], (D, k)


def test_cusp_cycle_custom_module_scaled_basis():
    # Z*2 + Z*(6 + sqrt12) is 2*O_K: same combinatorics as the standard cusp,
    # chart determinant scaled by the norm of the factor
    c = cusp_cycle(12, module=(2, QuadElem(6, 1, 12)))
    assert c.digits == (4,)
    assert c.eta == QuadElem(2, Fraction(1, 2), 12)
    rep = verify_cusp_tangency(c)
    assert rep.ok and rep.unimodular
    assert [ch.sqrt_coeff for ch in rep.charts] == [4]
    assert all(ch.det.x == 0 for ch in rep.charts)


def test_cusp_cycle_nonmaximal_module():
    # Z + Z*sqrt5 has multiplier ring Z[sqrt5]; its totally positive unit
    # group is generated by (2 + sqrt5)^2 = 9 + 4*sqrt5 and the cycle is
    # longer than the one of O_K
    c = cusp_cycle(5, module=(1, QuadElem(0, 1, 5)))
    assert cyclically_equal(list(c.digits), [2, 2, 2, 6])
    assert c.eta == QuadElem(9, 4, 5)
    assert c.unimodular
    # seam identity: digit * mu_0 = eta * mu_last + mu_1
    assert c.digits[0] * c.rays[0] == c.eta * c.rays[-1] + c.rays[1]
    rep = verify_cusp_tangency(c)
    assert rep.ok
    assert [ch.sqrt_coeff for ch in rep.charts] == [2, 2, 2, 2]


def test_cusp_cycle_v_power_paths():
    c = cusp_cycle(5, v=2)
    assert c.digits == (3, 3)
    assert c.period == 1 and c.v_power == 2
    assert c.eta == QuadElem.from_pq(7, 3, 5)  # ((3 + sqrt5)/2)^2
    assert c.eta_period == QuadElem.from_pq(3, 1, 5)
    assert verify_cusp_tangency(c).ok

    # same subgroup handed over as an explicit unit
    cu = cusp_cycle(5, v=QuadElem.from_pq(7, 3, 5))
    assert cu.v_power == 2 and cu.digits == (3, 3)

    cu1 = cusp_cycle(5, v=QuadElem.from_pq(3, 1, 5))
    assert cu1.v_power == 1


def test_cusp_cycle_v_validation():
    with pytest.raises(DomainError):
        cusp_cycle(5, v=0)
    with pytest.raises(DomainError):
        cusp_cycle(5, v=-2)
    # (1 + sqrt5)/2 is a unit of norm -1, not totally positive
    with pytest.raises(DomainError):
        cusp_cycle(5, v=QuadElem.from_pq(1, 1, 5))
    # 2 is not a unit
    with pytest.raises(DomainError):
        cusp_cycle(5, v=QuadElem.from_rational(2, 5))
    with pytest.raises(DomainError, match="got True"):
        cusp_cycle(5, v=True)


def test_cusp_cycle_integer_v_through_operator_index():
    c = cusp_cycle(5, v=np.int64(2))
    assert c == cusp_cycle(5, v=2)
    assert type(c.v_power) is int and c.v_power == 2


def test_cusp_cycle_v_above_cap_raises_before_building_rays(monkeypatch):
    def no_rays(*args):
        raise AssertionError("rays built for an index above the cap")

    monkeypatch.setattr(cusps_mod, "_rays_from_cycle", no_rays)
    with pytest.raises(DomainError, match="exceeds the largest supported index"):
        cusp_cycle(5, v=_MAX_V_POWER + 1)


def test_cusp_cycle_module_validation():
    with pytest.raises(DomainError):
        cusp_cycle(6)
    with pytest.raises(DomainError):
        cusp_cycle(5, module=(1,))
    with pytest.raises(DomainError):
        cusp_cycle(5, module=(0, QuadElem(0, 1, 5)))
    with pytest.raises(DomainError):
        cusp_cycle(5, module=(1, QuadElem(0, 1, 8)))
    with pytest.raises(DomainError):
        cusp_cycle(5, module=(1, 3))  # rationally dependent generators
    # a bool is no generator, as it is no index v
    with pytest.raises(DomainError, match="alpha must be a field element or a rational, got True"):
        cusp_cycle(5, module=(True, QuadElem(0, 1, 5)))
    with pytest.raises(DomainError, match="beta must be a field element or a rational, got False"):
        cusp_cycle(5, module=(QuadElem(0, 1, 5), False))


def test_chart_tangency_degenerate_reported():
    # the generic wedge engine behind verify_cusp_tangency's spot checks
    mu = QuadElem(1, 1, 5)
    rep = cusps_mod._chart_check(mu, 3 * mu, None)
    assert rep.degenerate and not rep.ok
    assert rep.det.is_zero() and rep.multiplicities == (1, 1)
    good = cusps_mod._chart_check(QuadElem.from_rational(1, 5), QuadElem.from_pq(3, -1, 5), None)
    assert good.ok
    # det = 1 * (3 + sqrt5)/2 - 1 * (3 - sqrt5)/2 = sqrt5
    assert good.det.x == 0 and good.sqrt_coeff == 1


def test_verify_cusp_tangency_range():
    for D in (5, 8, 12, 13, 17, 24, 40, 229):
        rep = verify_cusp_tangency(cusp_cycle(D))
        assert rep.ok and rep.unimodular, D
        for ch in rep.charts:
            assert ch.multiplicities == (1, 1), D
            assert ch.det.x == 0 and ch.sqrt_coeff != 0, D
            assert abs(ch.coord_det) == 1, D


def test_coord_dets_formed_once_match_recomputation():
    cycles = [cusp_cycle(D) for D in (5, 8, 12, 229, 9997)]
    cycles.append(cusp_cycle(5, module=(1, QuadElem(0, 1, 5))))
    cycles.append(cusp_cycle(5, v=2))
    for cyc in cycles:
        assert isinstance(cyc.coord_det, Fraction)
        charts = verify_cusp_tangency(cyc).charts
        assert [c.coord_det for c in charts] == [cyc.coord_det] * len(cyc.rays)
        # recompute the determinant of every chart from scratch, closing ray included
        alpha, beta = cyc.module
        den = alpha.x * beta.y - alpha.y * beta.x
        coords = [((mu.x * beta.y - mu.y * beta.x) / den, (alpha.x * mu.y - alpha.y * mu.x) / den)
                  for mu in cyc.rays + (cyc.closing_ray,)]
        for k in range(len(cyc.rays)):
            (u1, v1), (u2, v2) = coords[k], coords[k + 1]
            assert cyc.coord_det == u1 * v2 - v1 * u2, (cyc.D, k)
        assert cyc.unimodular == (abs(cyc.coord_det) == 1)


def test_charts_share_one_check():
    # the period of D = 95881 is 3769: one chart per ray, all one object
    cyc = cusp_cycle(95881)
    charts = verify_cusp_tangency(cyc).charts
    assert len(charts) == len(cyc.rays) == 3769
    assert all(c is charts[0] for c in charts)


def _pinned_modules(D):
    # the four modules of test_cusp_module_pin_up_to_600
    root = QuadElem(0, 1, D)
    return ((1, root), (2, QuadElem(1, 1, D)), (3, QuadElem(1, 2, D)), (root, 5))


def _fields_up_to_2000_as_cases():
    return [(D, None) for D in map(int, fundamental_discriminants_up_to(2000))]


def _pinned_modules_up_to_600_as_cases():
    return [(D, module) for D in map(int, fundamental_discriminants_up_to(600))
            for module in _pinned_modules(D)]


def _all_fields_up_to_2000():
    return [cusp_cycle(D) for D in map(int, fundamental_discriminants_up_to(2000))]


def _pinned_modules_up_to_600():
    # the pinned modules with V of index 1 and 2
    return [cusp_cycle(D, module=module, v=v)
            for D, module in _pinned_modules_up_to_600_as_cases() for v in (None, 2)]


@pytest.mark.parametrize("cycles, count", [(_all_fields_up_to_2000, 21331),
                                           (_pinned_modules_up_to_600, 86184)],
                         ids=["fields_2000", "modules_600"])
def test_chart_identity_matches_wedge_oracle(cycles, count):
    """Every chart det = delta * coord_det equals the CuspChartCheck of the
    generic wedge engine run on that chart."""
    charts = 0
    for cyc in cycles():
        got = verify_cusp_tangency(cyc).charts
        assert got == wedge_cusp_charts(cyc), (cyc.D, cyc.module, cyc.v_power)
        charts += len(got)
    assert charts == count


def test_wedge_engine_runs_on_a_fixed_number_of_charts(monkeypatch):
    calls = []
    wedge = cusps_mod._wedge_check
    monkeypatch.setattr(cusps_mod, "_wedge_check", lambda rows: calls.append(rows) or wedge(rows))
    for D, spot_checks in ((5, 1), (229, 2), (9997, 2), (40801, 2)):
        calls.clear()
        cyc = cusp_cycle(D)
        assert verify_cusp_tangency(cyc).ok
        assert len(calls) == spot_checks, (D, len(cyc.rays))
    # the count stays at 2 for a period of 1683
    assert len(cyc.rays) == 1683


def test_cusp_path_builds_a_fixed_number_of_field_elements(monkeypatch):
    # the rays stay integers: a field element is built for the closing ray
    # and the seam rays 0, 1, r-2, r-1 in cusp_cycle, and for rays 0, 1 and
    # r-1 of the spot charts in verify_cusp_tangency, whatever the period r;
    # the ray strings build none
    calls = []
    elem = cusps_mod._elem
    monkeypatch.setattr(cusps_mod, "_elem", lambda *args: calls.append(args) or elem(*args))
    for D, period in ((40801, 1683), (95881, 3769)):
        calls.clear()
        cyc = cusp_cycle(D)
        assert verify_cusp_tangency(cyc).ok
        assert len(cyc.ray_strings()) == cyc.period == period
        assert len(calls) == 5 + 3, (D, len(calls))


@pytest.mark.parametrize("v", [None, 2, "eta"], ids=["v_none", "v_2", "v_eta"])
@pytest.mark.parametrize("cases, count", [(_fields_up_to_2000_as_cases, 607),
                                          (_pinned_modules_up_to_600_as_cases, 728)],
                         ids=["fields_2000", "modules_600"])
def test_cusp_cycle_matches_quadelem_oracle(cases, count, v):
    """The integer period word, rays and module coordinates give the
    CuspCycle of the QuadElem route; v = "eta" hands over the cycle's own
    unit."""
    n = 0
    for D, module in cases():
        given = quadelem_cusp_cycle(D, module=module)["eta"] if v == "eta" else v
        want = quadelem_cusp_cycle(D, module=module, v=given)
        assert cusp_cycle_fields(cusp_cycle(D, module=module, v=given)) == want, (D, module, v)
        n += 1
    assert n == count


def test_cusp_cycle_unit_v_of_higher_index_matches_quadelem_oracle():
    # a unit v = eta^2 or eta^-3 builds the rays of one period, then of f periods
    for D in (5, 8, 229, 1009):
        eta = cusp_cycle(D).eta
        for v, f in ((eta ** 2, 2), (eta ** -3, 3)):
            c = cusp_cycle(D, v=v)
            assert c.v_power == f and c == cusp_cycle(D, v=f), D
            assert cusp_cycle_fields(c) == quadelem_cusp_cycle(D, v=v), D


def _rational_modules_up_to_200_as_cases():
    # generators with denominators 3, 5 and 7: rays over a shared denominator 105 or 315
    return [(D, (Fraction(1, 3), QuadElem(Fraction(1, 5), Fraction(1, 7), D)))
            for D in map(int, fundamental_discriminants_up_to(200))]


def test_ray_strings_match_str_of_the_quadelem_oracle():
    """The integer formatter gives str() of the oracle's QuadElem for every
    ray, and for the closing ray put over the rays' shared denominator."""
    shared, denominators, negative, integral = set(), set(), False, False
    for cases, count in ((_fields_up_to_2000_as_cases, 607), (_pinned_modules_up_to_600_as_cases, 728),
                         (_rational_modules_up_to_200_as_cases, 60)):
        n = 0
        for D, module in cases():
            cyc = cusp_cycle(D, module=module)
            want = quadelem_cusp_cycle(D, module=module)
            assert cyc.ray_strings() == [str(mu) for mu in want["rays"]], (D, module)
            scale, rem = divmod(cyc.ray_den, cyc.closing_ray.c)
            assert rem == 0, (D, module)
            closing = (cyc.closing_ray.a * scale, cyc.closing_ray.b * scale)
            assert _elem_str(*closing, cyc.ray_den, D) == str(want["closing_ray"]), (D, module)
            mus = want["rays"] + (want["closing_ray"],)
            shared.add(cyc.ray_den)
            denominators.update(mu.c for mu in mus)
            negative |= any(min(nums) < 0 for nums in cyc.ray_nums + (closing,))
            integral |= any(mu.b == 0 and mu.c == 1 for mu in mus)
            n += 1
        assert n == count
    # the shared denominators 1, 2, 105 and 315; reduced ones past 2, negative
    # numerators and rays that are rational integers all occur
    assert shared == {1, 2, 105, 315}, shared
    assert negative and integral and denominators - {1, 2}, denominators


# Fault injection: each check of the cusp path must still fire when the
# quantity it guards is corrupted, on a real cycle.

def test_fault_det_disagreeing_with_wedge_raises(monkeypatch):
    cyc = cusp_cycle(229)
    det = cyclic_mod.exact_det
    monkeypatch.setattr(cyclic_mod, "exact_det", lambda rows: det(rows) + 1)
    with pytest.raises(RuntimeError, match="disagrees"):
        verify_cusp_tangency(cyc)


def test_fault_wedge_with_two_monomials_raises(monkeypatch):
    cyc = cusp_cycle(229)
    wedge = cyclic_mod.wedge_terms

    def two_monomials(forms):
        out = wedge(forms)
        (coeff,) = out.values()
        return {**out, (0, 2): coeff}

    monkeypatch.setattr(cyclic_mod, "wedge_terms", two_monomials)
    with pytest.raises(RuntimeError, match="2 monomials"):
        verify_cusp_tangency(cyc)


def test_fault_conjugate_with_rational_part_raises(monkeypatch):
    cyc = cusp_cycle(229)
    conj = QuadElem.conjugate
    monkeypatch.setattr(QuadElem, "conjugate", lambda e: conj(e) + 1)
    with pytest.raises(RuntimeError, match="rational part"):
        verify_cusp_tangency(cyc)


def test_fault_identity_conjugate_gives_degenerate_charts(monkeypatch, capsys):
    cyc = cusp_cycle(229)
    monkeypatch.setattr(QuadElem, "conjugate", lambda e: e)
    rep = verify_cusp_tangency(cyc)
    assert all(ch.degenerate and ch.det.is_zero() for ch in rep.charts)
    assert not rep.ok
    assert main(["field", "229"]) == 1
    assert "cusp tangency verification failed for D=229" in capsys.readouterr().err


@pytest.mark.parametrize("chart", [0, -1])
def test_fault_corrupted_coord_det_at_spot_checked_chart_raises(chart):
    # each spot-checked chart, 0 and the seam, sees the wrong determinant on its own
    cyc = cusp_cycle(229)
    bad = dataclasses.replace(cyc, coord_det=cyc.coord_det + 1)
    alpha, beta = cyc.module
    delta = alpha * beta.conjugate() - alpha.conjugate() * beta
    rays = cyc.rays + (cyc.closing_ray,)
    k = chart % len(cyc.rays)
    wedge = cusps_mod._chart_check(rays[k], rays[k + 1], bad.coord_det)
    assert wedge.det == verify_cusp_tangency(cyc).charts[k].det
    assert wedge.det != delta * bad.coord_det
    with pytest.raises(RuntimeError, match="module identity"):
        verify_cusp_tangency(bad)


@pytest.mark.parametrize("k, message", [(0, "did not close"), (1, "recurrence broken at position 0"),
                                        (3, "recurrence broken at position 2")])
def test_fault_perturbed_ray_breaks_cusp_cycle(monkeypatch, k, message):
    rays = cusps_mod._rays_from_cycle

    def perturbed(*args):
        # mu_k = X_k + Y_k w: adding 1 to X_k adds 1 to the ray
        pairs = rays(*args)
        x, y = pairs[k]
        pairs[k] = (x + 1, y)
        return pairs

    monkeypatch.setattr(cusps_mod, "_rays_from_cycle", perturbed)
    with pytest.raises(RuntimeError, match=message):
        cusp_cycle(229)


def test_fault_last_digit_breaks_the_recurrence_at_the_end_seam(monkeypatch):
    rays = cusps_mod._rays_from_cycle

    def relabelled(digits, count):
        # the checks read a last digit the rays were not built with; only the
        # recurrence at position r - 1 (D = 229 has r = 15) reads it
        pairs = rays(digits, count)
        digits[-1] += 1
        return pairs

    monkeypatch.setattr(cusps_mod, "_rays_from_cycle", relabelled)
    with pytest.raises(RuntimeError, match="recurrence broken at position 14"):
        cusp_cycle(229)


@pytest.mark.parametrize("word, message", [([1, 3], "has a digit below 2"), ([2, 2], "all 2s")],
                         ids=["digit_below_2", "all_2s"])
def test_fault_period_word_digits_raise(monkeypatch, word, message):
    monkeypatch.setattr(cusps_mod, "periodic_hj", lambda w: list(word))
    with pytest.raises(RuntimeError, match=message):
        cusp_cycle(229)


def test_fault_cycle_unit_disagreeing_with_the_fundamental_unit_raises(monkeypatch):
    # the unit of the field's own continued fraction, squared
    eta = cusp_cycle(229).eta
    monkeypatch.setattr(cusps_mod, "fundamental_unit", lambda D: types.SimpleNamespace(
        totally_positive_generator=lambda: eta ** 2))
    with pytest.raises(RuntimeError, match="disagrees with the totally positive fundamental unit"):
        cusp_cycle(229)


@pytest.mark.parametrize("chart", [0, 14], ids=["chart_0", "seam_chart"])
def test_fault_ray_read_by_one_spot_chart_raises(chart):
    # doubling ray 0 changes chart 0 alone and doubling the closing ray the
    # seam chart r - 1 alone: the wedge engine runs on each of them
    cyc = cusp_cycle(229)
    if chart == 0:
        (A, B), rest = cyc.ray_nums[0], cyc.ray_nums[1:]
        bad = dataclasses.replace(cyc, ray_nums=((2 * A, 2 * B),) + rest)
    else:
        bad = dataclasses.replace(cyc, closing_ray=2 * cyc.closing_ray)
    with pytest.raises(RuntimeError, match="chart %d: the wedge engine gives" % chart):
        verify_cusp_tangency(bad)


def test_fault_negated_ray_is_not_totally_positive(monkeypatch):
    rays = cusps_mod._rays_from_cycle

    def negated(*args):
        # -mu_2 is totally negative
        pairs = rays(*args)
        x, y = pairs[2]
        pairs[2] = (-x, -y)
        return pairs

    monkeypatch.setattr(cusps_mod, "_rays_from_cycle", negated)
    with pytest.raises(RuntimeError, match="is not totally positive"):
        cusp_cycle(229)


def test_hirzebruch_class_number_identity():
    """Hirzebruch: for a prime p = 3 (mod 4), p > 3, with h(4p) = 1, the cusp
    cycle of Q(sqrt p) gives h(-p) = (1/3) sum (b_i - 3)."""
    h_imag = imag_class_numbers(5000)
    gated = other = 0
    fails_ungated = False
    for p in primes_up_to(5000):
        p = int(p)
        if p % 4 != 3 or p == 3:
            continue
        holds = 3 * int(h_imag[p]) == sum(b - 3 for b in cusp_cycle(4 * p).digits)
        if class_number(4 * p).h == 1:
            assert holds, p
            gated += 1
        else:
            fails_ungated |= not holds
            other += 1
    assert (gated, other) == (288, 50)
    # without the h(4p) = 1 gate the identity does not hold
    assert fails_ungated


def _off_module(calls_before_fault: int):
    """A _cramer that answers truthfully for the first calls, then shifts u
    by 1/(2 den) so the element seems to leave the module."""
    real = cusps_mod._cramer
    calls = []

    def fake(a, b, c, basis):
        nu, nv, den = real(a, b, c, basis)
        calls.append((a, b, c))
        if len(calls) > calls_before_fault:
            return 2 * nu + 1, 2 * nv, 2 * den
        return nu, nv, den

    return fake


def test_fault_ray_outside_module_raises(monkeypatch):
    # the first two Cramer calls give the coordinates of lam and lam*w, for
    # the default module too; the third is mu_0's
    monkeypatch.setattr(cusps_mod, "_cramer", _off_module(0))
    with pytest.raises(RuntimeError, match="^lam = .* does not lie in the module"):
        cusp_cycle(229)
    monkeypatch.undo()
    monkeypatch.setattr(cusps_mod, "_cramer", _off_module(2))
    with pytest.raises(RuntimeError, match="^ray .* does not lie in the module"):
        cusp_cycle(229)


def test_fault_closing_ray_outside_module_raises(monkeypatch):
    # D = 229 has period 15: after lam's and lam*w's, the 18th Cramer call
    # is the closing ray's, the last one
    monkeypatch.setattr(cusps_mod, "_cramer", _off_module(17))
    with pytest.raises(RuntimeError, match="does not lie in the module"):
        cusp_cycle(229)


def test_fault_v_not_preserving_module_raises(monkeypatch):
    cyc = cusp_cycle(5, v=cusp_cycle(5).eta)
    # lam, lam*w, the rays and the closing ray pass; the images of alpha
    # and beta do not
    monkeypatch.setattr(cusps_mod, "_cramer", _off_module(2 + len(cyc.rays) + 1))
    with pytest.raises(DomainError, match="does not preserve the module"):
        cusp_cycle(5, v=cyc.eta)


# sha256 of the stdout of `cusp D --json` over the 607 fundamental D <= 2000
CUSP_JSON_SHA256 = "9df6a8fedf0d64bbff79067ff395e5bdc34970d57cbe0374fc123a4c347af643"
# sha256 of one line per (D <= 600, module) for four modules, some of whose
# reductions start from elements (a + b sqrt(D))/c with b > 1
CUSP_MODULES_SHA256 = "360ecee00a4f912280f48005fa7f9bc469351da1833353c7f7fe11f8b92eeefb"


def test_cusp_json_pin_up_to_2000():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for D in fundamental_discriminants_up_to(2000):
            assert main(["cusp", str(D), "--json"]) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == CUSP_JSON_SHA256


def test_cusp_module_pin_up_to_600():
    lines = []
    for D in map(int, fundamental_discriminants_up_to(600)):
        root = QuadElem(0, 1, D)
        for module in ((1, root), (2, QuadElem(1, 1, D)), (3, QuadElem(1, 2, D)), (root, 5)):
            c = cusp_cycle(D, module=module)
            lines.append(" ".join([
                str(D), str(c.digits), str(c.eta), "; ".join(map(str, c.rays)),
                str(c.closing_ray), ",".join([str(c.coord_det)] * len(c.rays)),
                ",".join(str(ch.sqrt_coeff) for ch in verify_cusp_tangency(c).charts),
            ]))
    assert len(lines) == 728
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == CUSP_MODULES_SHA256
