"""Cyclic quotient resolutions, wedge checks, and chartwise criteria."""

import math
import random
from fractions import Fraction

import pytest

from hilbert_ggl.cyclic import (
    as_exponent_matrix,
    exact_det,
    hj_resolve,
    log_form_terms,
    metric_extension_at_elliptic,
    parse_matrices,
    tai_check,
    tangency_divisor,
    wedge_terms,
)
from hilbert_ggl.errors import DomainError
from hilbert_ggl.quadratic import QuadElem

from oracles import leibniz_det

IDENT2 = ((1, 0), (0, 1))


def test_hj_resolve_smallest_case():
    atlas = hj_resolve(2, 1)
    assert atlas.digits == (2,)
    assert atlas.rays == ((1, 0), (Fraction(1, 2), Fraction(1, 2)), (0, 1))
    assert len(atlas.charts) == 2
    assert atlas.charts[0].exceptional_axes == (False, True)
    assert atlas.charts[1].exceptional_axes == (True, False)


def test_hj_resolve_12_5():
    atlas = hj_resolve(12, 5)
    assert atlas.digits == (3, 2, 3)
    assert len(atlas.charts) == 4
    assert atlas.rays == (
        (1, 0),
        (Fraction(5, 12), Fraction(1, 12)),
        (Fraction(1, 4), Fraction(1, 4)),
        (Fraction(1, 12), Fraction(5, 12)),
        (0, 1),
    )
    for chart in atlas.charts:
        (x1, y1), (x2, y2) = chart.rays
        assert x1 * y2 - y1 * x2 == Fraction(1, 12)
        assert chart.matrix == chart.rays


def test_hj_resolve_known_words():
    assert hj_resolve(7, 3).digits == (3, 2, 2)
    assert hj_resolve(7, 1).digits == (7,)
    assert hj_resolve(5, 2).digits == (3, 2)


def test_hj_resolve_lattice_properties():
    rng = random.Random(4242)
    cases = [(n, q) for n in range(2, 31) for q in range(1, n) if math.gcd(n, q) == 1]
    for n, q in rng.sample(cases, 60):
        atlas = hj_resolve(n, q)
        assert all(b >= 2 for b in atlas.digits), (n, q)
        assert atlas.rays[0] == (1, 0) and atlas.rays[-1] == (0, 1)
        assert len(atlas.charts) == len(atlas.rays) - 1
        for x, y in atlas.rays:
            assert x >= 0 and y >= 0
            assert (x * n).denominator == 1 and (y * n).denominator == 1
        for chart in atlas.charts:
            (x1, y1), (x2, y2) = chart.rays
            assert x1 * y2 - y1 * x2 == Fraction(1, n), (n, q)
        # interior rays hit every exceptional curve exactly twice as an axis
        axis_count = sum(chart.exceptional_axes.count(True) for chart in atlas.charts)
        assert axis_count == 2 * len(atlas.digits)


def test_hj_resolve_validation():
    for n, q in ((5, 0), (5, 5), (5, 7), (6, 3), (1, 1)):
        with pytest.raises(DomainError):
            hj_resolve(n, q)


def test_exact_det_and_wedge_terms():
    assert exact_det([[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]]) == -2
    assert exact_det([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]) == 0
    with pytest.raises(DomainError):
        exact_det([[Fraction(1), Fraction(2)]])

    B = as_exponent_matrix([[2, 1], [3, 4]])
    wedge = wedge_terms([log_form_terms(B, 0), log_form_terms(B, 1)])
    assert wedge == {(1, 1): Fraction(5)}  # det = 8 - 3
    Bs = as_exponent_matrix([[1, 2], [2, 4]])
    assert wedge_terms([log_form_terms(Bs, 0), log_form_terms(Bs, 1)]) == {}


def _frac(rng):
    # small numerators, so zero entries and vanishing pivots come up often
    return Fraction(rng.randint(-3, 3), rng.randint(1, 4))


def test_exact_det_matches_leibniz_on_fractions():
    rng = random.Random(7101)
    mats = [[[_frac(rng) for _ in range(n)] for _ in range(n)]
            for n in range(1, 6) for _ in range(60)]
    for n in range(2, 6):
        # singular: the last row is a combination of the first two
        M = [[_frac(rng) for _ in range(n)] for _ in range(n)]
        M[-1] = [2 * a - b for a, b in zip(M[0], M[1])]
        mats.append(M)
        # zero leading pivot, so the first step must swap rows
        M = [[_frac(rng) for _ in range(n)] for _ in range(n)]
        M[0][0], M[1][0] = Fraction(0), Fraction(5, 3)
        mats.append(M)
        # an all-zero first column
        mats.append([[Fraction(0)] + [_frac(rng) for _ in range(n - 1)] for _ in range(n)])
    # a zero second pivot after the first step, forcing a swap at step two
    mats.append([[Fraction(1), Fraction(2), Fraction(3)],
                 [Fraction(2), Fraction(4), Fraction(1)],
                 [Fraction(1), Fraction(3), Fraction(2)]])
    for M in mats:
        assert exact_det(M) == leibniz_det(M), M
    assert exact_det([[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]) == -1
    assert exact_det([[Fraction(-7, 3)]]) == Fraction(-7, 3)
    assert sum(exact_det(M) == 0 for M in mats) >= 20


def test_exact_det_matches_leibniz_on_quadratic_entries():
    rng = random.Random(7102)

    def entry(D):
        if rng.random() < 0.2:
            return QuadElem(0, 0, D)
        return QuadElem(_frac(rng), _frac(rng), D)

    for D in (5, 8, 229):
        for n in (2, 3):
            for _ in range(40):
                M = [[entry(D) for _ in range(n)] for _ in range(n)]
                assert exact_det(M) == leibniz_det(M), M
        M = [[QuadElem(0, 0, D), QuadElem(1, 1, D)], [QuadElem(2, -1, D), QuadElem(3, 0, D)]]
        assert exact_det(M) == leibniz_det(M) == -(QuadElem(1, 1, D) * QuadElem(2, -1, D))


def test_wedge_of_log_forms_is_the_determinant_monomial():
    rng = random.Random(7103)
    for m in range(1, 5):
        for trial in range(40):
            B = as_exponent_matrix([[abs(_frac(rng)) for _ in range(m)] for _ in range(m)])
            if trial == 0 and m > 1:
                B = as_exponent_matrix([[1] * m] * m)  # rank one
            det = leibniz_det(B)
            wedge = wedge_terms([log_form_terms(B, k) for k in range(m)])
            assert wedge == ({(m - 1,) * m: det} if det != 0 else {}), B


def test_tangency_divisor_identity_chart():
    reports = tangency_divisor(IDENT2, m=2)
    assert len(reports) == 1
    rep = reports[0]
    assert not rep.degenerate
    assert rep.lam == 1
    assert rep.multiplicities == (1, 1)


def test_tangency_divisor_on_resolution_atlas():
    atlas = hj_resolve(12, 5)
    reports = tangency_divisor(atlas, m=2)
    assert len(reports) == 4
    for rep in reports:
        assert not rep.degenerate
        assert rep.lam == Fraction(1, 12)
        assert rep.lam > 0
        assert rep.multiplicities == (1, 1)
    # every coprime pair gives lam = 1/n on every chart
    for n, q in ((7, 3), (11, 4), (25, 7)):
        for rep in tangency_divisor(hj_resolve(n, q), require_positive=True):
            assert rep.lam == Fraction(1, n)


def test_tangency_divisor_three_dimensional_chart():
    B = [[2, 1, 0], [0, 3, 0], [0, 0, Fraction(1, 2)]]
    rep, = tangency_divisor(B, m=3)
    assert rep.multiplicities == (2, 2, 2)
    assert rep.lam == 3
    assert not rep.degenerate


def test_tangency_divisor_degenerate_and_validation():
    rep, = tangency_divisor([[1, 2], [2, 4]])
    assert rep.degenerate and rep.lam == 0
    with pytest.raises(RuntimeError):
        tangency_divisor([[1, 2], [2, 4]], require_positive=True)
    with pytest.raises(DomainError):
        tangency_divisor(IDENT2, m=3)
    with pytest.raises(DomainError):
        tangency_divisor([[1, -1], [0, 1]])
    with pytest.raises(DomainError):
        tangency_divisor([[1, 2, 3], [4, 5, 6]])
    two = tangency_divisor([IDENT2, [[2, 0], [0, 2]]])
    assert [rep.lam for rep in two] == [1, 4]


def test_tai_check_resolution_charts():
    S = (Fraction(1, 5), Fraction(2, 5))
    atlas = hj_resolve(5, 2)
    for chart in atlas.charts:
        res = tai_check(S, chart.matrix)
        assert res.m_value == Fraction(3, 5)
        assert res.ok, chart.index
        assert all(rs >= Fraction(3, 5) for rs in res.row_sums)


def test_tai_check_saturation_and_failure():
    res = tai_check((Fraction(2, 3), Fraction(2, 3)), IDENT2)
    assert res.m_value == 1 and res.ok
    assert tai_check((0.5, 0.5), IDENT2).m_value == 1
    bad = tai_check((Fraction(2, 3), Fraction(2, 3)),
                    [[Fraction(1, 4), Fraction(1, 4)], [1, 1]])
    assert bad.passes == (False, True)
    assert not bad.ok


def test_tai_check_validation():
    with pytest.raises(DomainError):
        tai_check((), IDENT2)
    with pytest.raises(DomainError):
        tai_check((1,), IDENT2)
    with pytest.raises(DomainError):
        tai_check((Fraction(-1, 2),), IDENT2)
    with pytest.raises(DomainError):
        tai_check((0, 0), IDENT2)


def test_metric_extension_identity_chart():
    res = metric_extension_at_elliptic((2, 2), 1, 1, IDENT2)
    assert res.ord_g == (3, 3)
    assert res.c == 2
    assert res.lhs == (4, 4)
    assert res.slack == (2, 2)
    assert res.ok


def test_metric_extension_zero_order_fails():
    res = metric_extension_at_elliptic((0, 0), 1, 1, IDENT2)
    assert res.c == 0
    assert res.lhs == (0, 0)
    assert res.slack == (-2, -2)
    assert not res.ok


def test_metric_extension_marginal_slack():
    # rows sum to 3/2, b = 2/3: threshold is c > 1, so c = 101/100 squeaks by
    B = [[1, Fraction(1, 2)], [Fraction(1, 2), 1]]
    res = metric_extension_at_elliptic((Fraction(101, 100), 2), 1, Fraction(2, 3), B)
    assert res.c == Fraction(101, 100)
    assert res.slack == (Fraction(1, 50), Fraction(1, 50))
    assert res.ok
    assert res.ord_g == (Fraction(351, 100), Fraction(801, 200))
    # at c = 1 exactly the strict inequality fails
    flat = metric_extension_at_elliptic((1, 2), 1, Fraction(2, 3), B)
    assert flat.slack == (0, 0)
    assert not flat.ok


def test_metric_extension_validation():
    with pytest.raises(DomainError):
        metric_extension_at_elliptic((1, 1), 0, 1, IDENT2)
    with pytest.raises(DomainError):
        metric_extension_at_elliptic((1, 1), Fraction(3, 2), 1, IDENT2)
    with pytest.raises(DomainError):
        metric_extension_at_elliptic((1, 1), 1, 0, IDENT2)
    with pytest.raises(DomainError):
        metric_extension_at_elliptic((1, 1), 1, 2, IDENT2)
    with pytest.raises(DomainError):
        metric_extension_at_elliptic((-1, 1), 1, 1, IDENT2)
    with pytest.raises(DomainError):
        metric_extension_at_elliptic((1, 1, 1), 1, 1, IDENT2)


def test_parse_and_format_matrices():
    text = "1 0\n0 1\n\n3 1/2\n0 2\n"
    mats = parse_matrices(text)
    assert len(mats) == 2
    assert mats[0] == IDENT2
    assert mats[1] == ((3, Fraction(1, 2)), (0, 2))
    # extra blank lines are harmless
    assert parse_matrices("\n\n1 0\n0 1\n\n\n") == [IDENT2]
    with pytest.raises(DomainError):
        parse_matrices("   \n\n")
    with pytest.raises(DomainError):
        parse_matrices("1 x\n0 1\n")
    with pytest.raises(DomainError):
        parse_matrices("1 0 0\n0 1 0\n")
