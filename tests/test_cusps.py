"""Cusp resolution cycles: period words, rays, units, and wedge checks."""

import contextlib
import hashlib
import io
from fractions import Fraction

import pytest

import hilbert_ggl.cusps as cusps_mod
import hilbert_ggl.cyclic as cyclic_mod
from hilbert_ggl.cli import main
from hilbert_ggl.cusps import (
    _coords_in_basis,
    chart_tangency,
    cusp_cycle,
    find_equivalent_reduced,
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
from hilbert_ggl.quadratic import QuadElem

from oracles import cyclically_equal


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
    with pytest.raises(DomainError, match="find_equivalent_reduced"):
        periodic_hj(golden)
    red = find_equivalent_reduced(golden)
    assert red.is_hj_reduced()
    assert red == QuadElem.from_pq(3, 1, 5)
    assert periodic_hj(red) == [3]


def test_continued_fraction_rejects_rational_input():
    for r in (QuadElem(3, 0, 5), QuadElem(Fraction(7, 2), 0, 13)):
        for expand in (periodic_hj, find_equivalent_reduced, cusps_mod._expand_to_reduced):
            with pytest.raises(DomainError, match="rational") as info:
                expand(r)
            assert "find_equivalent_reduced" in str(info.value)


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


def test_chart_tangency_degenerate_reported():
    mu = QuadElem(1, 1, 5)
    rep = chart_tangency(mu, 3 * mu)
    assert rep.degenerate and not rep.ok
    good = chart_tangency(QuadElem.from_rational(1, 5), QuadElem.from_pq(3, -1, 5))
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
        assert len(cyc.coord_dets) == len(cyc.rays)
        charts = verify_cusp_tangency(cyc).charts
        assert [c.coord_det for c in charts] == list(cyc.coord_dets)
        # recompute the determinants from scratch, closing ray included
        coords = [_coords_in_basis(mu, *cyc.module) for mu in cyc.rays + (cyc.closing_ray,)]
        for k, got in enumerate(cyc.coord_dets):
            (u1, v1), (u2, v2) = coords[k], coords[k + 1]
            assert isinstance(got, Fraction)
            assert got == u1 * v2 - v1 * u2, (cyc.D, k)
        assert cyc.unimodular == all(abs(d) == 1 for d in cyc.coord_dets)


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


@pytest.mark.parametrize("k, message", [(0, "did not close"), (1, "recurrence broken at position 0"),
                                        (3, "recurrence broken at position 2")])
def test_fault_perturbed_ray_breaks_cusp_cycle(monkeypatch, k, message):
    rays = cusps_mod._rays_from_cycle

    def perturbed(*args):
        mus = rays(*args)
        mus[k] = mus[k] + 1
        return mus

    monkeypatch.setattr(cusps_mod, "_rays_from_cycle", perturbed)
    with pytest.raises(RuntimeError, match=message):
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

    def fake(e, alpha, beta):
        nu, nv, den = real(e, alpha, beta)
        calls.append(e)
        if len(calls) > calls_before_fault:
            return 2 * nu + 1, 2 * nv, 2 * den
        return nu, nv, den

    return fake


def test_fault_ray_outside_module_raises(monkeypatch):
    monkeypatch.setattr(cusps_mod, "_cramer", _off_module(0))
    with pytest.raises(RuntimeError, match="does not lie in the module"):
        cusp_cycle(229)


def test_fault_v_not_preserving_module_raises(monkeypatch):
    cyc = cusp_cycle(5, v=cusp_cycle(5).eta)
    # the rays and the closing ray pass; the images of alpha and beta do not
    monkeypatch.setattr(cusps_mod, "_cramer", _off_module(len(cyc.rays) + 1))
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
                str(c.closing_ray), ",".join(map(str, c.coord_dets)),
                ",".join(str(ch.sqrt_coeff) for ch in verify_cusp_tangency(c).charts),
            ]))
    assert len(lines) == 728
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == CUSP_MODULES_SHA256
