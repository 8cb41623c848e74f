"""Elliptic trace enumeration and the CM-extension count bounds."""

import dataclasses
import math
import tracemalloc
from fractions import Fraction
from math import isqrt

import numpy as np
import pytest

import hilbert_ggl.elliptic as elliptic_module
from hilbert_ggl.elliptic import (
    EllipticTrace,
    _cm_field,
    _cm_run,
    _elliptic_bounds,
    _field_rows,
    _reduced_form_count,
    _trace_pairs,
    cm_extension_invariants,
    elliptic_summary,
    elliptic_traces,
    fit_growth_exponent,
    imag_class_numbers,
    make_l1_lookup,
    prestel_bound,
)
from hilbert_ggl.errors import DomainError
from hilbert_ggl.field_invariants import (_FORM_CELLS, _fundamental_mask,
                                          fundamental_discriminants_up_to)
from hilbert_ggl.lfunctions import _l1_odd, closed_form_l1, is_fundamental_discriminant
from hilbert_ggl.scan import _RUN

from oracles import (arange_imag_class_numbers, brute_elliptic_traces, mp_l_value,
                     scalar_elliptic_bounds)

# class numbers of imaginary quadratic fields, textbook values
KNOWN_IMAG_H = {3: 1, 4: 1, 7: 1, 8: 1, 11: 1, 15: 2, 19: 1, 20: 2, 23: 3,
                24: 2, 35: 2, 47: 5, 84: 4, 163: 1, 427: 2}


def test_trace_enumeration_small_fields():
    assert [(t.p, t.q) for t in elliptic_traces(5)] == [(0, 0), (1, -1), (1, 1), (2, 0)]
    assert [(t.p, t.q) for t in elliptic_traces(8)] == [(0, 0), (0, 1), (2, 0)]
    assert [(t.p, t.q) for t in elliptic_traces(12)] == [(0, 0), (0, 1), (2, 0)]
    assert [(t.p, t.q) for t in elliptic_traces(13)] == [(0, 0), (2, 0)]
    # for D > 16 only rational traces remain
    assert [(t.p, t.q) for t in elliptic_traces(17)] == [(0, 0), (2, 0)]
    assert [(t.p, t.q) for t in elliptic_traces(21)] == [(0, 0), (2, 0)]


def test_trace_enumeration_matches_float_box_oracle():
    # the table of elliptic_traces against a box search, on every field to 2000
    for D in fundamental_discriminants_up_to(2000):
        got = {(t.p, t.q) for t in elliptic_traces(D)}
        assert got == brute_elliptic_traces(D), D


def test_trace_embeddings_really_below_two():
    for D in (5, 8, 12, 13, 17, 60):
        for t in elliptic_traces(D):
            assert abs(float(t.elem)) < 2
            assert abs(float(t.elem.conjugate())) < 2
            assert t.elem.is_integral()


def test_trace_helpers():
    t = EllipticTrace(D=5, p=2, q=0)
    assert t.is_rational and t.rationality == "rational"
    assert t.s_rational == 1
    assert t.norm_4_minus_s2() == 9
    w = EllipticTrace(D=5, p=1, q=1)
    assert not w.is_rational
    assert w.norm_4_minus_s2() == 5  # N((5 - sqrt5)/2 ... ) for s = golden ratio
    with pytest.raises(DomainError):
        w.s_rational


def test_imag_class_numbers_against_known_values():
    h = imag_class_numbers(500)
    for k, hk in KNOWN_IMAG_H.items():
        assert int(h[k]) == hk, -k


def test_strided_class_number_sieve_equals_arange_sieve():
    # every small limit cuts the pairs (a, +-b) at a different start, and
    # 200016 (27223 pairs) takes their starts back in two batches
    for limit in [*range(301), 20016, 40016, 200016]:
        assert np.array_equal(imag_class_numbers(limit), arange_imag_class_numbers(limit)), limit


def test_l1_lookup_matches_digamma_oracle():
    l1 = make_l1_lookup(600)
    for d in (-3, -4, -7, -8, -15, -20, -23, -24, -84, -163, -427, -499):
        assert abs(l1(d) - float(mp_l_value(1, d))) < 1e-12, d
    with pytest.raises(DomainError, match="fundamental"):
        l1(-12)  # not fundamental
    with pytest.raises(DomainError, match="fundamental"):
        l1(5)
    with pytest.raises(DomainError, match="too short"):
        l1(-607)  # fundamental, past the table


def test_l1_lookup_mask_equals_fundamental_predicate():
    # the lookup answers exactly for the fundamental -k; everything else it
    # refuses, by its mask and without factoring
    limit = 40016
    l1 = make_l1_lookup(limit)
    for k in range(limit + 1):
        try:
            l1(-k)
            answered = True
        except DomainError:
            answered = False
        assert answered == is_fundamental_discriminant(-k), k
    for d in (-limit - 1, -4 * limit - 3, -(10**12) - 3):
        with pytest.raises(DomainError, match="too short"):
            l1(d)


def test_reduced_form_count_equals_class_number_sieve():
    limit = 40016
    h = imag_class_numbers(limit)
    n = 0
    for k in range(3, limit + 1):
        if is_fundamental_discriminant(-k):
            assert _reduced_form_count(-k) == h[k], -k
            n += 1
    assert n == 12166


def test_reduced_form_l1_equals_closed_form_across_blocks():
    # the count and the character sum give the same h, so the same L(1) bits;
    # at these |d| the (b, a) grid takes several blocks
    for d in (-3999971, -4000036, -15999923):
        assert isqrt(-d // 3) ** 2 // 4 > _FORM_CELLS, d
        assert _l1_odd(d, _reduced_form_count(d)) == closed_form_l1(d)[0], d


def test_reduced_form_count_refuses_what_the_closed_form_refuses():
    # d >= 0 is the closed form's other branch; the count serves only d < 0
    for d in (0, 5, -12, -16):
        with pytest.raises(DomainError, match="fundamental"):
            _reduced_form_count(d)
    for d in (0, -12, -16):
        with pytest.raises(DomainError, match="fundamental"):
            closed_form_l1(d)


def test_elliptic_summary_memory_stays_flat():
    # |d3| = 4e7 and 3e7; one character table of that size is about 0.5 GB
    tracemalloc.start()
    try:
        summary = elliptic_summary(10_000_001)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert summary.total_bound > 0
    assert peak < 32 * 2**20, peak


def test_field_and_scan_elliptic_bounds_agree_up_to_20000():
    # the default count and the scan's sieve lookup give the same bits
    dmax = 20_000
    lookup = make_l1_lookup(4 * dmax + 16)
    for D in fundamental_discriminants_up_to(dmax):
        own, sieve = elliptic_summary(int(D)), elliptic_summary(int(D), l1=lookup)
        assert [b.value for b in own.bounds] == [b.value for b in sieve.bounds], D
        assert own.total_bound == sieve.total_bound, D
        assert own.exponent_record == sieve.exponent_record, D


def test_cm_d3_equals_field_discriminant_up_to_1e5():
    # d3 is read off the squarefree kernel of D; the factoring route agrees:
    # the discriminant of Q(sqrt(r)) is the fundamental d with r d a square.
    # Both rows of d3 come from one run over all the fields, and the sieve
    # of the fundamental d < 0 checks them
    unit_l1 = lambda d: 1.0
    ds = [int(D) for D in fundamental_discriminants_up_to(100_000)]
    d3 = _cm_run(ds, unit_l1)[1]
    assert d3.shape == (2, 30394)
    fundamental = _fundamental_mask(4 * 100_000, -1)
    assert (d3 < 0).all() and fundamental[-d3].all()
    # r d3 <= 16 D^2 < 2^53, so the float square root of a square is exact
    r_d3 = np.array(ds) * np.array([[-4], [-3]]) * d3
    root = np.sqrt(r_d3).astype(np.int64)
    assert np.array_equal(root * root, r_d3)
    for D in (5, 12, 13, 24, 4001, 99996):
        for s in (0, 1):
            d3_D = cm_extension_invariants(D, s, l1=unit_l1).subfield_discs[2]
            r = D * (s * s - 4) * d3_D
            assert is_fundamental_discriminant(d3_D) and isqrt(r) ** 2 == r, (D, s)
            assert d3_D == d3[s, ds.index(D)], (D, s)


def test_trace_argument_types():
    for bad in (1.0, True, False, "1", None):
        with pytest.raises(DomainError):
            cm_extension_invariants(13, bad)
        with pytest.raises(DomainError):
            prestel_bound(13, bad)
    cm = cm_extension_invariants(13, np.int64(1))
    assert cm == cm_extension_invariants(13, 1)
    assert type(cm.s) is int and all(type(d) is int for d in cm.subfield_discs)
    assert prestel_bound(13, np.int64(1)) == prestel_bound(13, 1)


def test_make_l1_lookup_both_signs():
    l1 = make_l1_lookup(200)
    assert abs(l1(-4) - math.pi / 4) < 1e-12
    # the elliptic bounds ask only for negative d; there is no d > 0 branch
    with pytest.raises(DomainError):
        l1(5)


def test_cm_extension_d5_s0():
    cm = cm_extension_invariants(5, 0)
    assert cm.subfield_discs == (5, -4, -20)
    assert cm.d_Kprime == 400
    assert cm.w_prime == 4
    assert cm.N_rel_disc == 16
    assert cm.N_U0_sq == 1
    # h'R'/hR = w' sqrt(80) L(1,chi_-4) L(1,chi_-20) / (2 pi^2): L(1,chi_5) cancels
    expect = 4 * math.sqrt(80) * float(mp_l_value(1, -4) * mp_l_value(1, -20)) \
        / (2 * math.pi ** 2)
    assert abs(cm.hR_ratio - expect) < 1e-12


def test_cm_extension_d12_s0_has_twelve_roots_of_unity():
    # K' contains both sqrt(-1) and sqrt(-3): w' = 12
    cm = cm_extension_invariants(12, 0)
    assert cm.subfield_discs == (12, -4, -3)
    assert cm.w_prime == 12
    assert cm.d_Kprime == 144
    assert cm.N_rel_disc == 1
    assert cm.N_U0_sq == 16


def test_cm_extension_validation():
    with pytest.raises(DomainError):
        cm_extension_invariants(5, 2)
    with pytest.raises(DomainError):
        cm_extension_invariants(6, 0)


def test_trace_minus_one_has_the_numbers_of_one():
    # s = -1 reads the row of s = 1 (4 - s^2 is the same) and reports -1
    for D in (5, 8, 12, 13, 4001, 99996):
        minus, plus = cm_extension_invariants(D, -1), cm_extension_invariants(D, 1)
        assert (minus.s, plus.s) == (-1, 1)
        assert dataclasses.replace(minus, s=1) == plus, D
        assert minus.hR_ratio.hex() == plus.hR_ratio.hex(), D
        bounds = prestel_bound(D, -1), prestel_bound(D, EllipticTrace(D=D, p=-2, q=0))
        for bound in bounds:
            assert (bound.trace.p, bound.trace.q, bound.cm) == (-2, 0, minus), D
            assert bound.value.hex() == prestel_bound(D, 1).value.hex(), D
            assert bound.exact == prestel_bound(D, 1).exact, D


def test_prestel_bound_rational_collapse_is_exact_rational():
    # Bounds for rational traces are ratios of class number formula products;
    # with the shared L(1, chi_D) cancelling they are exactly rational.
    # Frozen values verified at 40 digits: D=5 gives 2 and 2, D=13 gives 2 and 4.
    for D, s, expect in [(5, 0, 2), (5, 1, 2), (13, 0, 2), (13, 1, 4)]:
        tb = prestel_bound(D, s)
        assert tb.exact, (D, s)
        assert not tb.unresolved_unit_ratio
        assert abs(tb.value - expect) < 1e-9, (D, s, tb.value)


STANDARD_D = (5, 8, 12, 13, 24, 229, 401, 997, 9997, 12345, 64277, 99996)


def test_l1_is_asked_only_for_the_cm_discriminants():
    # L(1, chi_D) cancels in h'R'/hR, so the bounds never ask for d >= 0
    for D in STANDARD_D:
        asked = []

        def spy(d):
            asked.append(d)
            return closed_form_l1(d)[0]

        elliptic_summary(D, l1=spy)
        for s in (0, 1):
            prestel_bound(D, s, l1=spy)
        assert asked and all(d < 0 for d in asked), (D, asked)


def test_rational_bounds_equal_class_number_ratio_up_to_20000():
    # h'R'/hR * N(U0)^2 = 2 w' h(d3) N(U0)^2 / (w(d2) w(d3)), since
    # h(d2) = 1 for d2 in {-3, -4}; every rational trace, every field
    dmax = 20_000
    h = imag_class_numbers(4 * dmax + 16)
    l1 = make_l1_lookup(4 * dmax + 16)
    w = {-3: 6, -4: 4}
    n_traces = 0
    for D in fundamental_discriminants_up_to(dmax):
        for b in elliptic_summary(int(D), l1=l1).bounds:
            if b.cm is None:
                continue
            _, d2, d3 = b.cm.subfield_discs
            exact = Fraction(2 * b.cm.w_prime * int(h[-d3]) * b.cm.N_U0_sq,
                             w.get(d2, 2) * w.get(d3, 2))
            assert abs(Fraction(b.value) - exact) <= exact * Fraction(1, 10**15), (D, d3)
            n_traces += 1
    assert n_traces == 2 * len(fundamental_discriminants_up_to(dmax))


def test_prestel_bound_consistent_across_l_routes():
    # the same rational collapse value through three L(1) routes: closed form,
    # class-number sieve, and the digamma oracle
    sieve = make_l1_lookup(600)
    oracle = lambda d: float(mp_l_value(1, d))
    for D, s in [(5, 0), (5, 1), (13, 0), (13, 1), (17, 0), (24, 0)]:
        values = {route: prestel_bound(D, s, l1=route).value
                  for route in (None, sieve, oracle)}
        vs = list(values.values())
        assert max(vs) - min(vs) < 1e-9, (D, s, vs)


def test_prestel_bound_irrational():
    tb = prestel_bound(5, EllipticTrace(D=5, p=1, q=1))
    assert tb.unresolved_unit_ratio and not tb.exact
    assert tb.value == 5.0
    assert tb.cm is None
    with pytest.raises(DomainError):
        prestel_bound(8, EllipticTrace(D=5, p=1, q=1))
    with pytest.raises(DomainError):
        prestel_bound(5, 0.5)


def test_elliptic_summary_frozen_totals():
    # D=5: rational traces give 2 + 2, irrational give N(4-s^2) = 5 + 5
    summary = elliptic_summary(5)
    assert abs(summary.total_bound - 14.0) < 1e-9
    assert len(summary.bounds) == 4
    # D=13 keeps only the rational traces 0 and 1: check composition explicitly
    s13 = elliptic_summary(13)
    by_trace = {(b.trace.p, b.trace.q): b.value for b in s13.bounds}
    assert len(s13.bounds) == 2
    assert abs(by_trace[(0, 0)] - 2.0) < 1e-9
    assert abs(by_trace[(2, 0)] - 4.0) < 1e-9
    assert abs(s13.total_bound - 6.0) < 1e-9
    assert summary.exponent_record == pytest.approx(math.log(14) / math.log(5))


def test_elliptic_summary_irrational_values():
    # irrational traces fall back to the norm bound: N(4 - s^2) = 5 for the
    # two golden-ratio traces of D=5 and 4 for the sqrt(2) trace of D=8
    s5 = elliptic_summary(5)
    irr = [b for b in s5.bounds if b.unresolved_unit_ratio]
    assert [b.trace.norm_4_minus_s2() for b in irr] == [5, 5]
    assert [b.value for b in irr] == [5.0, 5.0]
    s8 = elliptic_summary(8)
    irr8 = [b for b in s8.bounds if b.unresolved_unit_ratio]
    assert [b.trace.norm_4_minus_s2() for b in irr8] == [4]
    assert [b.value for b in irr8] == [4.0]


def test_growth_exponent_below_bound():
    ds, totals = [], []
    l1 = make_l1_lookup(4 * 3000 + 16)
    for D in fundamental_discriminants_up_to(3000):
        D = int(D)
        summary = elliptic_summary(D, l1=l1)
        ds.append(D)
        totals.append(summary.total_bound)
    slope = fit_growth_exponent(ds, totals)
    assert slope <= 0.6, slope
    with pytest.raises(DomainError):
        fit_growth_exponent([5.0], [2.0])
    # a total or D that is not positive and finite, fewer than two distinct
    # D, and input that is not 1-D
    nan, inf = float("nan"), float("inf")
    for bad_ds, bad_totals in [([5, 8, 12], [1.0, 0.0, 2.0]), ([5, 8, 12], [1.0, -3.0, 2.0]),
                               ([5, 8, 12], [1.0, nan, 2.0]), ([5, 8, 12], [1.0, inf, 2.0]),
                               ([5, 0, 12], [1.0, 2.0, 3.0]), ([5, nan, 12], [1.0, 2.0, 3.0]),
                               ([5, inf, 12], [1.0, 2.0, 3.0]), ([5, 5], [1.0, 2.0]),
                               ([8, 8, 8], [1.0, 2.0, 3.0]),
                               ([[5, 8], [12, 13]], [[1, 2], [3, 4]]),
                               ([[5, 8], [12]], [1.0, 2.0]), ([5, 8], [1.0, 2.0, 3.0]),
                               ("58", [1.0, 2.0])]:
        with pytest.raises(DomainError):
            fit_growth_exponent(bad_ds, bad_totals)


def test_elliptic_total_must_be_finite_and_positive():
    # NaN compares false with 0, so a bare "total <= 0" let these through
    for bad in (float("nan"), float("inf")):
        with pytest.raises(RuntimeError, match="total elliptic bound"):
            elliptic_summary(13, l1=lambda d: bad)
    with pytest.raises(RuntimeError, match="total elliptic bound"):
        elliptic_summary(13, l1=lambda d: 0.0)


def test_table_builders_refuse_a_negative_limit():
    for build in (imag_class_numbers, make_l1_lookup):
        with pytest.raises(DomainError, match="limit"):
            build(-5)
        with pytest.raises(DomainError, match="limit"):
            build(-1)
    assert imag_class_numbers(0).tolist() == [0]


def test_trace_str_matches_field_element():
    for D in (5, 8, 12, 13, 21, 24, 28, 40, 1009, 99996):
        for t in elliptic_traces(D):
            assert str(t) == str(t.elem), (D, t.p, t.q)


def _bits(values) -> np.ndarray:
    """The int64 bit patterns of a sequence of floats: equal patterns are
    equal float.hex texts."""
    return np.asarray(values, dtype=np.float64).view(np.int64)


def test_run_core_equals_scalar_oracle_bit_for_bit(tables):
    # every CM number, row value, total and exponent of the array core
    # against one-trace scalar arithmetic, bit for bit, on every field to
    # 1e5, for runs cut at any field: runs of _RUN from offsets 0, 1, 3 and
    # 7, and one run of all
    lookup = tables[0]
    ds = fundamental_discriminants_up_to(100_000)
    assert ds[:3] == [5, 8, 12] and len(ds) == 30394
    oracle = [scalar_elliptic_bounds(D, _trace_pairs(D), lookup) for D in ds]
    # the rational rows s = 0 and 1 of every field, one array per CM number
    rational = [[row[2:] for row in rows if row[3] is not None] for rows, _, _ in oracle]
    want_ints = np.array([[[cm[k] for _, cm in pair] for pair in rational] for k in range(6)])
    want_floats = _bits([[[pair[j][1][6], pair[j][0]] for pair in rational] for j in (0, 1)])
    want_sums = _bits([[total, exponent] for _, total, exponent in oracle])
    layouts = [[ds[:offset]] + [ds[i:i + _RUN] for i in range(offset, len(ds), _RUN)]
               for offset in (0, 1, 3, 7)] + [[ds]]
    for runs in layouts:
        parts = [(run, _elliptic_bounds(run, lookup)) for run in runs if run]
        cm = [np.concatenate([out[0][k] for _, out in parts], axis=1) for k in range(8)]
        assert np.array_equal(np.stack(cm[:6]).transpose(0, 2, 1), want_ints), len(runs)
        floats = np.stack(cm[6:]).transpose(1, 2, 0)
        assert np.array_equal(_bits(floats), want_floats), len(runs)
        sums = [[t, e] for _, out in parts for t, e in zip(out[1], out[2])]
        assert np.array_equal(_bits(sums), want_sums), len(runs)
        # the rows of the fields with irrational traces, in (p, q) order
        for run, out in parts[:3]:
            for i, D in enumerate(run[:3]):
                rows = _field_rows(D, _cm_field(out[0], i))
                got = [(p, q, value.hex()) for p, q, value, _ in rows]
                want = [(p, q, value.hex()) for p, q, value, _ in oracle[ds.index(D)][0]]
                assert got == want, D


def _first_d3(ds, reach):
    """The first CM discriminant d3 of the run ds, field by field and s = 0
    before s = 1, for which reach(d3) is false."""
    unit = lambda d: 1.0
    return next(d3 for D in ds for s in (0, 1)
                if not reach(d3 := cm_extension_invariants(D, s, l1=unit).subfield_discs[2]))


def test_run_lookup_refusals_name_the_first_failing_d():
    # the run's one gather keeps the lookup's refusals, and names the first
    # d in field order, not in trace order
    ds = [int(D) for D in fundamental_discriminants_up_to(4100) if D > 3990]
    lookup = make_l1_lookup(4 * 4100 + 16)
    d_late = cm_extension_invariants(ds[-1], 0, l1=lookup).subfield_discs[2]
    d_early = cm_extension_invariants(ds[1], 1, l1=lookup).subfield_discs[2]
    for d in (d_late, d_early):
        lookup.fundamental[-d] = False
    with pytest.raises(DomainError, match="fundamental discriminant < 0, got %d$" % d_early):
        _elliptic_bounds(ds, lookup)
    short = make_l1_lookup(4 * 1000 + 16)
    ds = [int(D) for D in fundamental_discriminants_up_to(1100) if D > 990]
    d = _first_d3(ds, lambda d3: -d3 <= 4 * 1000 + 16)
    with pytest.raises(DomainError, match="too short for discriminant %d$" % d):
        _elliptic_bounds(ds, short)


def test_run_norm_checks_name_the_first_failing_field(monkeypatch):
    # 20 = 4 * 5 is no field discriminant, and d_K' of its trace s = 1 is
    # not divisible by D^2: the core does not validate D again, but its norm
    # checks still catch such a D
    unit = lambda d: 1.0
    with pytest.raises(RuntimeError, match="not divisible by D\\^2 at D=20, s=1"):
        _elliptic_bounds([13, 17, 20, 6], unit)
    monkeypatch.setattr(elliptic_module, "_N4S", elliptic_module._N4S + 1)
    with pytest.raises(RuntimeError, match="not divisible by N\\(rel disc\\) at D=13, s=0"):
        _elliptic_bounds([13, 17], unit)


def test_run_core_refuses_d_past_the_int64_range(monkeypatch):
    # |D d2 d3| <= 16 D^2 fits int64 exactly up to _CM_D_MAX
    top = elliptic_module._CM_D_MAX
    assert 16 * top**2 <= 2**63 - 1 < 16 * (top + 1) ** 2
    monkeypatch.setattr(elliptic_module, "_CM_D_MAX", 1000)
    with pytest.raises(DomainError, match="D = 1009 is past the int64 range"):
        _elliptic_bounds([997, 1009, 1013], lambda d: 1.0)
    for call in (elliptic_summary, lambda D: prestel_bound(D, 0),
                 lambda D: cm_extension_invariants(D, 1)):
        with pytest.raises(DomainError, match="int64"):
            call(1009)
    assert elliptic_summary(997).total_bound > 0
