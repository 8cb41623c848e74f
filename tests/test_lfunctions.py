"""Certified L-values, exact zeta_K(-1) and the three independent character
constructions."""

import math
import random
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from hilbert_ggl import lfunctions
from hilbert_ggl.elliptic import make_l1_lookup
from hilbert_ggl.errors import DomainError
from hilbert_ggl.field_invariants import fundamental_discriminants_up_to
from hilbert_ggl.lfunctions import (
    character_table,
    closed_form_l1,
    euler_chi_array,
    factor_fundamental,
    is_fundamental_discriminant,
    kronecker_chi,
    kronecker_table,
    max_partial_sum,
    zeta2_constant,
    zeta_K2,
    zeta_K_minus1,
)

from oracles import brute_is_fundamental, kronecker, mp_l_value, siegel_zeta_minus1


def negative_fundamental_discriminants(limit: int) -> list[int]:
    return [-m for m in range(3, limit + 1) if is_fundamental_discriminant(-m)]


def test_is_fundamental_discriminant():
    good = [5, 8, 12, 13, -3, -4, -7, -8, -11, -15, -20, 21, 24]
    bad = [0, 1, 2, 3, 4, 6, 7, 9, -1, -2, -5, -6, -9, -12, 16, 25, 45]
    assert all(is_fundamental_discriminant(d) for d in good)
    assert not any(is_fundamental_discriminant(d) for d in bad)
    # factor_fundamental decides by the same factorization, so the definition
    # and the sieve are the independent routes
    for m in range(1, 5001):
        for d in (m, -m):
            assert is_fundamental_discriminant(d) == brute_is_fundamental(d), d
    assert fundamental_discriminants_up_to(5000) == [
        d for d in range(1, 5001) if is_fundamental_discriminant(d)]


def test_kronecker_chi_examples():
    assert kronecker_chi(5, 2) == -1
    assert kronecker_chi(-4, 3) == -1
    for d in (5, -4, 13, -8):
        assert kronecker_chi(d, 1) == 1


def test_kronecker_chi_matches_oracle():
    rng = random.Random(31415)
    ds = [int(x) for x in fundamental_discriminants_up_to(300)]
    ds += negative_fundamental_discriminants(300)
    for _ in range(2000):
        d = rng.choice(ds)
        n = rng.randint(0, 3 * abs(d))
        assert kronecker_chi(d, n) == kronecker(d, n), (d, n)


def test_kronecker_chi_completely_multiplicative():
    rng = random.Random(99)
    for _ in range(500):
        d = rng.choice([5, -4, 12, -8, 21, -20, 229])
        m, n = rng.randint(1, 500), rng.randint(1, 500)
        assert kronecker_chi(d, m * n) == kronecker_chi(d, m) * kronecker_chi(d, n)


def test_factor_fundamental():
    assert factor_fundamental(5) == [5]
    assert sorted(factor_fundamental(12)) == [-4, -3]
    assert sorted(factor_fundamental(40)) == [5, 8]
    assert sorted(factor_fundamental(-20)) == [-4, 5]
    assert factor_fundamental(-3) == [-3]
    assert factor_fundamental(-4) == [-4]
    for d in (5, 8, -3, -4, 60, -84, 229, 7057):
        assert math.prod(factor_fundamental(d)) == d
        for part in factor_fundamental(d):
            assert is_fundamental_discriminant(part)
    with pytest.raises(DomainError):
        factor_fundamental(6)


def test_factor_fundamental_decides_fundamentality():
    for m in range(1, 5001):
        for d in (m, -m):
            if is_fundamental_discriminant(d):
                parts = factor_fundamental(d)
                assert math.prod(parts) == d, d
            else:
                with pytest.raises(DomainError):
                    factor_fundamental(d)
    with pytest.raises(DomainError):
        factor_fundamental(0)


def test_three_character_constructions_agree():
    ds = [int(x) for x in fundamental_discriminants_up_to(300)]
    ds += negative_fundamental_discriminants(150)
    for d in ds:
        q = abs(d)
        t1 = character_table(d)
        t2 = kronecker_table(d)
        assert np.array_equal(t1, t2), d
        if d > 0:
            t3 = euler_chi_array(d, q - 1)
            assert np.array_equal(t1, t3[:q]), d


def test_character_table_against_euler_and_kronecker_to_large_modulus(monkeypatch):
    # an empty cache, so every Legendre table below is built here and not by
    # another test
    monkeypatch.setattr(lfunctions, "_legendre_cache", {})
    rng = random.Random(4096)
    pos = [int(x) for x in fundamental_discriminants_up_to(100_000)]
    big = [d for d in pos if d > 10_000]
    composite_big_prime = [
        d for d in big
        if len(factor_fundamental(d)) > 1 and max(map(abs, factor_fundamental(d))) > 4096
    ]
    primes_1_mod_4 = [d for d in pos if factor_fundamental(d) == [d]]
    neg_large = [-m for m in range(100_001, 400_001, 37) if is_fundamental_discriminant(-m)]
    ds = rng.sample(big, 6) + rng.sample(composite_big_prime, 2)
    ds += [max(p for p in primes_1_mod_4 if p <= 4096), max(primes_1_mod_4)]
    ds += rng.sample(neg_large, 3) + [max(neg_large, key=abs)]
    assert min(ds) < -390_000
    for d in ds:
        q = abs(d)
        t1 = character_table(d)
        assert t1.dtype == np.int8 and t1.shape == (q,), d
        assert np.array_equal(t1, euler_chi_array(d, q - 1)), d
    for d in (ds[6], ds[8], ds[9], ds[10]):
        assert np.array_equal(character_table(d), kronecker_table(d)), d

    # a prime discriminant is a single factor: its table is a copy, never
    # the cached Legendre table itself
    p = ds[8]
    assert p <= 4096 and p in lfunctions._legendre_cache
    assert not np.shares_memory(character_table(p), lfunctions._legendre_cache[p])
    # prime factors above 4096 are built on each call and not cached
    assert all(abs(part) > 4096 for part in factor_fundamental(ds[9]))
    assert ds[9] not in lfunctions._legendre_cache


def test_character_table_against_euler_for_every_small_discriminant():
    # every part of |d| <= 3000 below the run cutoff is a view of its run
    for m in range(3, 3001):
        for d in (m, -m):
            if is_fundamental_discriminant(d):
                assert np.array_equal(character_table(d), euler_chi_array(d, m - 1)), d


def test_character_table_mixes_runs_and_tiles():
    # near 1e5 a modulus takes run views of its parts up to the cutoff (59,
    # 61) and tiles beside them (67); past the run length every part tiles
    assert lfunctions._RUN_PART == 64 and 1e5 < lfunctions._RUN_LEN < 2e5

    def mixed(lo, hi):
        return [d for m in range(lo, hi) for d in (m, -m) if is_fundamental_discriminant(d)
                and {59, 61} & set(map(abs, factor_fundamental(d)))
                and 67 in map(abs, factor_fundamental(d))]

    near = mixed(90_000, 110_000)
    past = mixed(lfunctions._RUN_LEN + 1, lfunctions._RUN_LEN + 40_000)
    assert min(near) < 0 < max(near) and len(past) >= 2
    # the first moduli past the run length whose parts all have runs
    small_only = [131365, 131560, -131560]
    assert all(max(map(abs, factor_fundamental(d))) <= 64 for d in small_only)
    for d in near + past[:2] + small_only:
        assert np.array_equal(character_table(d), euler_chi_array(d, abs(d) - 1)), d


def test_character_table_shares_no_memory_with_the_runs():
    runs = lfunctions._runs
    for d in (5, -4, 8, -8, -3 * 8, 5 * 13 * 17, -7 * 11 * 4, 4201, -61 * 67, 99996):
        table = character_table(d)
        assert table.flags.writeable, d
        cached = [*runs.values(), *lfunctions._legendre_cache.values()]
        assert not any(np.shares_memory(table, run) for run in cached), d
        expected = table.copy()
        table[:] = 7
        assert np.array_equal(character_table(d), expected), d
    assert {-4, 8, -8, -3, 5, -7, -11, 13, 17, 61} <= set(runs)
    for part, run in runs.items():
        assert abs(part) <= lfunctions._RUN_PART and len(run) <= lfunctions._RUN_LEN
        assert len(run) % abs(part) == 0, part
        with pytest.raises(ValueError):
            run[0] = 1


def test_legendre_cache_survives_many_distinct_primes(monkeypatch):
    monkeypatch.setattr(lfunctions, "_legendre_cache", {})
    # d = -p for 80 primes p = 3 mod 4 in a row: more distinct primes than
    # any fixed-size cache would hold
    ds = [d for d in negative_fundamental_discriminants(4096)
          if factor_fundamental(d) == [d]][-80:]
    first = character_table(ds[0])
    first_legendre = lfunctions._legendre_cache[-ds[0]]
    for d in ds:
        q = abs(d)
        assert np.array_equal(character_table(d), euler_chi_array(d, q - 1)), d
    assert len(lfunctions._legendre_cache) == 80
    assert lfunctions._legendre_cache[-ds[0]] is first_legendre
    assert np.array_equal(first, kronecker_table(ds[0]))


def test_cached_tables_are_read_only():
    character_table(-7 * 11 * 4)
    assert lfunctions._legendre_cache
    for p, legendre in lfunctions._legendre_cache.items():
        with pytest.raises(ValueError):
            legendre[0] = 1
    # character tables are not cached: each one belongs to the caller
    for d in (5, -4, 4201):
        own = character_table(d)
        own[0] = 7
        assert character_table(d)[0] == 0, d


def test_character_period_and_parity():
    for d in (5, -4, 12, -8, 21):
        tbl = character_table(d)
        q = abs(d)
        assert int(tbl.sum()) == 0  # non-principal over a full period
        sign = 1 if d > 0 else -1
        for n in range(1, q):
            assert tbl[(q - n) % q] == sign * tbl[n], (d, n)


def test_max_partial_sum_exact():
    tbl = character_table(5)  # 0, 1, -1, -1, 1
    assert max_partial_sum(tbl) == 1
    assert max_partial_sum(character_table(-4)) == 1


def test_l_value_known_points():
    assert abs(closed_form_l1(-4)[0] - math.pi / 4) < 1e-12


def test_closed_form_l1_matches_oracle():
    rng = random.Random(5050)
    ds = [int(x) for x in fundamental_discriminants_up_to(400)]
    ds += negative_fundamental_discriminants(400)
    for d in rng.sample(ds, 60) + [5, -3, -4, 8, -8]:
        value, cert = closed_form_l1(d)
        oracle = float(mp_l_value(1, d))
        assert abs(value - oracle) <= cert, (d, value, oracle, cert)
        assert cert < 1e-10


def test_closed_form_l1_even_memory_stays_at_one_array():
    # the even branch needs one float64 array of (D - 1)/2 entries, 38 MiB here
    D = 10_000_001
    table = character_table(D)
    tracemalloc.start()
    try:
        value, cert = closed_form_l1(D, table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value > 0 and cert < 1e-11
    assert peak < 48 * 2**20, peak


def test_closed_form_l1_odd_equals_class_number_sieve():
    # d < 0 has one float expression, 2 pi h / (w sqrt|d|): the closed form
    # reads h off its integer sum, the sieve counts reduced forms
    l1 = make_l1_lookup(40016)
    ds = negative_fundamental_discriminants(40016)
    assert len(ds) == 12166
    for d in ds:
        assert closed_form_l1(d)[0] == l1(d), d


def test_closed_form_l1_rejects_a_flipped_odd_character():
    # one flipped chi(a), 0 < a < |d|/2, gcd(a, d) = 1, moves the class
    # number -w sum a chi(a) / (2|d|) by w (2a - |d|) chi(a) / |d|: off the
    # integers, or below 1 for d = -3, -4
    rng = random.Random(808)
    for d in [-3, -4, -8] + rng.sample(negative_fundamental_discriminants(5000), 40):
        table = character_table(d).copy()
        a = rng.choice([a for a in range(1, (-d + 1) // 2) if table[a]])
        table[a] = -table[a]
        with pytest.raises(RuntimeError, match="not a positive integer"):
            closed_form_l1(d, table)


def _zeta_sample() -> list[int]:
    """Every 50th real discriminant up to 1e5 and a few named fields (612 D)."""
    ds = [int(x) for x in fundamental_discriminants_up_to(100_000)]
    return sorted(set(ds[::50]) | {5, 8, 12, 64277, 99996})


def test_zeta_K_minus1_equals_siegel():
    assert zeta_K_minus1(5) == Fraction(1, 30)
    assert zeta_K_minus1(8) == Fraction(1, 12)
    ds = _zeta_sample()
    assert len(ds) == 612
    for D in ds:
        assert zeta_K_minus1(D) == siegel_zeta_minus1(D), D


def test_zeta_K_minus1_rejects_non_real_fields():
    for D in (-4, 0, 1, 6, 9):
        with pytest.raises(DomainError):
            zeta_K_minus1(D)


def test_zeta_K_minus1_past_the_int64_bound():
    n = 3_024_617
    # the largest D whose squares a^2, a < D, sum below 2^63: past it one
    # int64 dot product over the period would wrap
    assert (n - 1) * n * (2 * n - 1) // 6 < 2**63 <= n * (n + 1) * (2 * n + 1) // 6
    # the first real discriminant above the bound, and one near 4e6: several
    # int64 blocks each
    for D in (3024620, 4000037):
        assert D > n and is_fundamental_discriminant(D)
        assert lfunctions._INT64_MAX // (D - 1) ** 2 < D // 2
        assert zeta_K_minus1(D) == siegel_zeta_minus1(D), D


def test_zeta_K_minus1_blocked_route(monkeypatch):
    # a small int64 ceiling cuts small fields into several blocks as well
    # (of 40 terms at D = 4997)
    monkeypatch.setattr(lfunctions, "_INT64_MAX", 10**9)
    for D in (5, 8, 12, 13, 229, 1001, 4997):
        assert zeta_K_minus1(D) == siegel_zeta_minus1(D), D
    # a ceiling below (D - 1)^2 leaves no block size
    monkeypatch.setattr(lfunctions, "_INT64_MAX", 15)
    with pytest.raises(DomainError):
        zeta_K_minus1(5)


@pytest.mark.parametrize("D", [99989, 4000037])
def test_zeta_K_minus1_memory_is_flat(D):
    # blocks of folded weights, never a whole period of int64 squares
    # (those alone would be 8 D bytes: 781 KiB and 31 MiB here)
    table = character_table(D)
    tracemalloc.start()
    try:
        zeta_K_minus1(D, table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak


def test_zeta_K2_rounding_bound():
    """zeta_K(2) = 4 pi^4 zeta_K(-1) / D^(3/2) within its rounding bound of a
    50-digit evaluation, and of the Hurwitz-zeta L(2) oracle."""
    for D in (5, 8, 12, 13, 229, 7057, 64277, 99996):
        z = zeta_K_minus1(D)
        value, cert = zeta_K2(D, z)
        with mpmath.workdps(50):
            exact = 4 * mpmath.pi ** 4 * z.numerator / (z.denominator * mpmath.mpf(D) ** 1.5)
            assert abs(value - exact) <= cert, D
        assert 0 < cert <= 2e-15 * value
        if D < 300:
            oracle = zeta2_constant() * float(mp_l_value(2, D))
            assert abs(value - oracle) <= 1e-14 * value, D


def test_zeta2_constant():
    assert abs(zeta2_constant() - math.pi ** 2 / 6) == 0
    assert abs(2 * zeta2_constant() - math.pi ** 2 / 3) < 1e-15
    series = sum(1.0 / (n * n) for n in range(1, 3_000_000))
    assert abs(zeta2_constant() - series) < 1e-6


def test_euler_chi_array_multiplicative_route():
    for D in (5, 8, 12, 13, 40):
        chi = euler_chi_array(D, 5 * D)
        tbl = character_table(D)
        for n in range(5 * D + 1):
            assert chi[n] == tbl[n % D], (D, n)


def test_primes_up_to_negative_limit_whatever_the_cache(monkeypatch):
    # a cold cache sieves, a warm one slices; both give no primes below 2
    for warm in (False, True):
        monkeypatch.setattr(lfunctions, "_primes_cache", {})
        if warm:
            lfunctions.primes_up_to(100)
        for limit in (-1, -7, 0, 1):
            assert lfunctions.primes_up_to(limit).tolist() == [], (warm, limit)
        assert lfunctions.euler_chi_array(5, -1).tolist() == [], warm
        assert lfunctions.primes_up_to(13).tolist() == [2, 3, 5, 7, 11, 13], warm
