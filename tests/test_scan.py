"""Bulk scans: determinism, worker independence, caching hooks."""

import dataclasses
import hashlib
import json
import math
import multiprocessing
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import hilbert_ggl
import hilbert_ggl.lfunctions as lfunctions
import hilbert_ggl.scan as scan_module
from hilbert_ggl.criteria import FieldInputs, verdict
from hilbert_ggl.elliptic import elliptic_summary
from hilbert_ggl.errors import DomainError, NumericalAgreementError
from hilbert_ggl.field_invariants import (
    FundamentalUnit,
    class_number,
    exact_hr,
    fundamental_discriminants_up_to,
    regulator,
)
from hilbert_ggl.lfunctions import closed_form_l1, zeta_K_minus1
from hilbert_ggl.reports import _record_text, csv_rows
from hilbert_ggl.scan import (_RUN, DyadicBlock, FieldRecord, _divisor_sums, _dyadic_blocks,
                              _scan_run, _siegel_zeta_minus1, scan, scan_field, scan_tables)

from oracles import (canonical_record_json, float_rule_verdict, siegel_zeta_minus1,
                     strided_divisor_sums)

# the first Satisfied field: its record always comes from the exact path
FIRST_SATISFIED = 46373


def test_scan_field_fast_path_matches_closed_form(tables):
    rec = scan_field(5, Fraction(1, 100), *tables)
    assert rec.h is None and rec.R is None and not rec.exact
    assert rec.hr == math.sqrt(5) * closed_form_l1(5)[0] / 2.0
    # zeta_K(2) is exact up to rounding, so nu_max is too
    assert abs(rec.nu_max - 0.1760065078159474) < 1e-12
    assert rec.zeta2_cert < 1e-14
    assert abs(rec.nu_required - 2 / 0.98) < 1e-15
    assert abs(rec.margin - (rec.nu_max - rec.nu_required)) < 1e-15
    assert rec.verdict == "CandidateExceptional"
    assert abs(rec.elliptic_total_bound - 14.0) < 1e-9


def test_scan_field_factors_its_discriminant_once(tables, monkeypatch):
    # validating D and building its character table read one factorization
    calls = []
    factor = lfunctions._prime_factors
    monkeypatch.setattr(lfunctions, "_prime_factors", lambda n: calls.append(n) or factor(n))
    lfunctions._fundamental_parts.cache_clear()
    for D in (5, 12, 4001, FIRST_SATISFIED, 99996):
        calls.clear()
        scan_field(D, Fraction(1, 100), *tables)
        assert calls == [D], D


def test_scan_field_exact_path_consistent(tables):
    D = FIRST_SATISFIED
    exact = scan_field(D, Fraction(1, 100), *tables)
    assert exact.exact and exact.verdict == "Satisfied"
    assert exact.h == class_number(D).h
    assert exact.R == regulator(D)
    assert exact.hr == exact.h * exact.R
    assert abs(exact.hr - math.sqrt(D) * exact.l1 / 2.0) <= 1e-9 * exact.hr
    # the fast records of other fields agree with the exact h*R check
    for D in (5, 8, 40, 229):
        fast = scan_field(D, Fraction(1, 100), *tables)
        _unit, classes, reg, _residual = exact_hr(D, fast.l1, fast.l1_cert)
        assert classes.h == class_number(D).h
        assert abs(classes.h * reg - fast.hr) <= 1e-9 * fast.hr


def test_scan_field_elliptic_numbers_equal_elliptic_summary_up_to_20000():
    # scan_field reads the arithmetic core; elliptic_summary wraps it in
    # report objects: the same bits, irrational traces (D < 16) included
    lookup, sigma = scan_tables(20_000)
    ds = fundamental_discriminants_up_to(20_000)
    assert ds[:4] == [5, 8, 12, 13]
    for D in ds:
        rec = scan_field(D, Fraction(1, 100), lookup, sigma)
        ell = elliptic_summary(D, l1=lookup)
        assert rec.elliptic_total_bound.hex() == ell.total_bound.hex(), D
        assert rec.elliptic_exponent.hex() == ell.exponent_record.hex(), D


def test_scan_field_builds_no_elliptic_report_object(monkeypatch, tables):
    import hilbert_ggl.elliptic as elliptic_module

    expected = [scan_field(D, Fraction(1, 100), *tables) for D in (5, 8, 12, 13, 229, 46373)]

    def refuse(*args, **kwargs):
        raise AssertionError("scan_field built an elliptic report object")

    for name in ("EllipticTrace", "TraceBound", "CMExtensionInvariants", "EllipticSummary"):
        monkeypatch.setattr(elliptic_module, name, refuse)
    got = [scan_field(D, Fraction(1, 100), *tables) for D in (5, 8, 12, 13, 229, 46373)]
    assert got == expected


def test_scan_field_refuses_a_total_that_is_not_finite(tables):
    _lookup, sigma = tables
    for bad in (float("nan"), float("inf")):
        with pytest.raises(RuntimeError, match="total elliptic bound"):
            scan_field(13, Fraction(1, 100), lambda d: bad, sigma)


def test_siegel_route_equals_bernoulli_route():
    # the scan route to zeta_K(-1) (Siegel's divisor sums on a sieved sigma_1
    # table) and the report route (B_{2,chi}/24) give the same Fraction
    sigma = _divisor_sums(100_000 // 4 + 1)
    ds = fundamental_discriminants_up_to(100_000)
    sample = sorted(set(d for d in ds if d <= 20_000) | set(ds[::10]))
    for D, zeta_m1 in zip(sample, _siegel_zeta_minus1(sample, sigma), strict=True):
        assert zeta_m1 == zeta_K_minus1(D), D


def test_divisor_sums_equal_one_strided_add_per_divisor():
    # 9999, 10000 and 10001 put isqrt(limit) at and around a square, where
    # the divisors past it change hands; at 140000 the cofactors j = 1 and 2
    # add their divisors in more than one block
    for limit in [*range(301), 1251, 25001, 9999, 10000, 10001, 140000]:
        assert np.array_equal(_divisor_sums(limit), strided_divisor_sums(limit)), limit


def test_siegel_route_refuses_a_short_table():
    sigma = _divisor_sums(100)
    assert _siegel_zeta_minus1([401], sigma) == [zeta_K_minus1(401)]  # needs sigma_1(100)
    for D in (404, 405, 99996):
        with pytest.raises(DomainError, match="too short"):
            _siegel_zeta_minus1([D], sigma)
        with pytest.raises(DomainError, match="too short"):
            _siegel_zeta_minus1([5, 401, D], sigma)


def _batching_mismatches(dmax: int) -> list:
    """(D, how) for each fundamental D <= dmax where a run's record is not
    the one-field record of D, or L(1) and its certificate are not the bits
    of closed_form_l1, or where Siegel's zeta_K(-1) over one run of all the
    fields is not the trial-division oracle's.  Runs of _RUN fields start
    at offsets 0, 1, 3 and 7 (the first `offset` fields form a run of their
    own), so that Siegel's gather and the elliptic core see every D at
    several places in a run."""
    lookup, sigma = scan_tables(dmax)
    ds = fundamental_discriminants_up_to(dmax)
    eps = Fraction(1, 100)
    single = [vars(scan_field(D, eps, lookup, sigma)) for D in ds]
    bad = []
    for D, rec in zip(ds, single):
        value, cert = closed_form_l1(D)
        if (rec["l1"].hex(), rec["l1_cert"].hex()) != (value.hex(), cert.hex()):
            bad.append((D, "closed_form_l1"))
    for offset in (0, 1, 3, 7):
        runs = [ds[:offset]] + [ds[i:i + _RUN] for i in range(offset, len(ds), _RUN)]
        got = [vars(r) for run in runs if run for r in _scan_run(run, eps, lookup, sigma)]
        bad += [(D, "offset %d" % offset) for D, a, b in zip(ds, got, single, strict=True)
                if a != b]
    bad += [(D, "siegel") for D, z in zip(ds, _siegel_zeta_minus1(ds, sigma), strict=True)
            if z != siegel_zeta_minus1(D)]
    return bad


def test_scan_run_records_do_not_depend_on_batching():
    assert _batching_mismatches(20_000) == []


# the numpy dispatch targets that run float64 sin and log on an AVX-512 host
AVX512 = "AVX512_SKX AVX512_CLX AVX512_CNL AVX512_ICL AVX512_SPR X86_V4"


def test_scan_run_records_do_not_depend_on_batching_without_avx512():
    # numpy reads the variable once, at import: a child process takes the
    # other loops, and only the child
    src = os.path.dirname(os.path.dirname(hilbert_ggl.__file__))
    path = os.pathsep.join(p for p in (src, os.path.dirname(__file__),
                                       os.environ.get("PYTHONPATH")) if p)
    code = ("import json; from numpy._core._multiarray_umath import __cpu_features__ as f; "
            "from test_scan import _batching_mismatches; "
            "print(json.dumps([f.get('AVX512_SKX'), _batching_mismatches(20000)]))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=path, NPY_DISABLE_CPU_FEATURES=AVX512),
                         timeout=300, check=True)
    avx512, bad = json.loads(out.stdout.splitlines()[-1])
    assert avx512 is False and bad == []


def test_scan_run_memory_stays_flat(tables):
    # one field's log sines (half a period at D ~ 1e5), one character table
    # and the Siegel terms of a run, whatever the run's length; seven of
    # these fields take the exact path
    ds = fundamental_discriminants_up_to(100_000)[-64:]
    assert ds[-1] == 99996
    tracemalloc.start()
    try:
        records = _scan_run(ds, Fraction(1, 100), *tables)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(r.exact for r in records) == 7
    assert peak < 4 * 2**20, peak


def test_scan_run_straddle_raises(monkeypatch, tables):
    # the run decides through the same core as verdict: an L(1) on T_D raises
    D, eps = 64277, Fraction(1, 100)
    t = (1 - 2 * eps) ** 2 * zeta_K_minus1(D) / (2 * D)
    monkeypatch.setattr(scan_module, "closed_form_l1", lambda d, table: (float(t), 1e-15))
    with pytest.raises(NumericalAgreementError, match="straddles"):
        _scan_run([D], eps, *tables)


def test_scan_deterministic_reruns():
    a = scan(200)
    b = scan(200)
    assert a.records == b.records
    assert a.dyadic == b.dyadic
    assert a.epsilon == Fraction(1, 100)
    assert [r.D for r in a.records] == sorted(r.D for r in a.records)


def test_scan_worker_count_does_not_change_records():
    serial = scan(1000, workers=1)
    assert len(serial.records) > 2 * _RUN  # several runs, so a pool starts
    pooled = scan(1000, workers=2)
    assert serial.records == pooled.records
    assert multiprocessing.active_children() == []  # the pool is shut down
    # a single run is computed in-process, whatever the worker count
    assert scan(20, workers=3).records == scan(20, workers=1).records


def test_scan_precomputed_and_streaming():
    base = scan(500)
    done = {r.D: r for r in base.records[:10]}
    for workers in (1, 2):
        runs = []
        resumed = scan(500, workers=workers, precomputed=done, on_records=runs.append)
        assert resumed.records == base.records
        # one call per finished run, in ascending D, only the non-cached fields
        assert len(runs) > 1 and all(0 < len(run) <= _RUN for run in runs)
        assert [r.D for run in runs for r in run] == [r.D for r in base.records[10:]]
    # records handed in via precomputed are trusted verbatim
    doctored = base.records[0].to_dict()
    doctored["verdict"] = "Satisfied"
    injected = scan(150, precomputed={doctored["D"]: FieldRecord.from_dict(doctored)})
    assert injected.records[0].verdict == "Satisfied"
    assert doctored["D"] in injected.satisfied


def test_scan_with_every_record_cached_builds_no_sieve_or_pool(monkeypatch):
    base = scan(500)

    def refuse(*args, **kwargs):
        raise AssertionError("a complete cache needs no sieve and no pool")

    monkeypatch.setattr(scan_module, "_init_worker", refuse)
    monkeypatch.setattr(scan_module, "ProcessPoolExecutor", refuse)
    runs = []
    resumed = scan(500, workers=2, precomputed={r.D: r for r in base.records},
                   on_records=runs.append)
    assert resumed.records == base.records and runs == []


def _brute_dyadic(records):
    # each block [lo, 2 lo) counted by filtering every record
    blocks = []
    lo = 4
    while lo <= max(r.D for r in records):
        in_block = [r for r in records if lo <= r.D < 2 * lo]
        if in_block:
            failing = sum(r.verdict != "Satisfied" for r in in_block)
            blocks.append(DyadicBlock(lo=lo, hi=2 * lo, n_fields=len(in_block),
                                      n_failing=failing))
        lo *= 2
    return tuple(blocks)


def test_dyadic_blocks_match_brute_count():
    records = scan(3000).records
    assert _dyadic_blocks(records) == _brute_dyadic(records)
    # no field up to 3000 is Satisfied, so mark some that way to count them
    marked = [dataclasses.replace(r, verdict="Satisfied") if r.D % 3 == 0 else r
              for r in records]
    assert _dyadic_blocks(marked) == _brute_dyadic(marked)
    assert [b.n_failing for b in _dyadic_blocks(marked)] != [
        b.n_failing for b in _dyadic_blocks(records)]


def test_scan_small_epsilon_example():
    res = scan(100, epsilon="0.05")
    assert all(r.verdict == "CandidateExceptional" for r in res.records)
    assert res.n_exceptional == len(res.records)
    assert res.largest_failing_D == 97
    assert res.satisfied == ()
    assert sum(b.n_fields for b in res.dyadic) == len(res.records)
    assert all(b.failing_fraction == 1.0 for b in res.dyadic)


def test_scan_margin_shrinks_with_epsilon():
    tight = scan(100, epsilon="0.01")
    loose = scan(100, epsilon="0.2")
    failing_tight = {r.D for r in tight.records if r.verdict != "Satisfied"}
    failing_loose = {r.D for r in loose.records if r.verdict != "Satisfied"}
    assert failing_tight <= failing_loose
    for rt, rl in zip(tight.records, loose.records):
        assert rl.nu_required > rt.nu_required
        assert rl.margin < rt.margin
        assert rl.nu_max == rt.nu_max


def test_scan_validation_and_workers():
    with pytest.raises(DomainError):
        scan(4)
    with pytest.raises(DomainError):
        scan(100, workers=0)


def test_scan_refuses_epsilon_before_building_tables(monkeypatch):
    # an epsilon out of (0, 1/2) costs no sieve, no sigma_1 table and no pool
    def no_tables(dmax):
        raise AssertionError("scan_tables(%d) called" % dmax)

    monkeypatch.setattr(scan_module, "scan_tables", no_tables)
    for eps in ("0.6", "1/2", "0", "-0.01"):
        for workers in (1, 2):
            with pytest.raises(DomainError, match="epsilon must lie in \\(0, 1/2\\)"):
                scan(400_000, epsilon=eps, workers=workers)


def test_field_record_round_trip(tables):
    rec = scan_field(FIRST_SATISFIED, Fraction(1, 100), *tables)
    assert rec.exact
    assert FieldRecord.from_dict(rec.to_dict()) == rec
    assert list(rec.to_dict()) == [
        "D", "h", "R", "hr", "zeta2", "zeta2_cert", "l1", "l1_cert", "nu_max",
        "nu_required", "margin", "elliptic_total_bound", "elliptic_exponent",
        "verdict", "flags", "exact",
    ]
    assert rec.to_dict()["flags"] == list(rec.flags)
    fast = scan_field(13, Fraction(1, 100), *tables)
    assert FieldRecord.from_dict(fast.to_dict()) == fast
    # scan_field writes the instance dict itself: every field, in field order
    names = [f.name for f in dataclasses.fields(FieldRecord)]
    assert list(vars(rec)) == list(vars(fast)) == names


def test_exact_recheck_disagreement_raises_specific_error(monkeypatch, tables):
    original = FundamentalUnit.regulator
    monkeypatch.setattr(FundamentalUnit, "regulator", lambda unit: 2 * original(unit))
    with pytest.raises(NumericalAgreementError, match="class number formula residual"):
        scan_field(FIRST_SATISFIED, Fraction(1, 100), *tables)


# sha256 of the records of every field in [64000, 65000] at epsilon 1/100,
# built as a scan to 65000 builds them, as CSV and as canonical record JSON
# lines; recorded when the verdict moved to one exact comparison, and the
# band holds four exact-path records, which the scan --dmax 2000 golden lacks
BAND_CSV_SHA256 = "a20da48a18a7f9608243346bfebac2cb3ef0cf3310e44db3f19c99ab877f4890"
BAND_JSON_SHA256 = "848051c2f4e70f42abedea0a6aba57f7b11c927a13441667613c2980b60945db"
BAND_SATISFIED = [64253, 64277, 64517, 64973]


@pytest.fixture(scope="module")
def band():
    lookup, sigma = scan_tables(65000)
    ds = [int(d) for d in fundamental_discriminants_up_to(65000) if d >= 64000]
    return [scan_field(D, Fraction(1, 100), lookup, sigma) for D in ds], lookup


def test_scan_band_bytes(band):
    records, _lookup = band
    assert len(records) == 304
    assert [r.D for r in records if r.exact] == BAND_SATISFIED
    csv = csv_rows([r.to_dict() for r in records])
    assert hashlib.sha256(csv.encode("utf-8")).hexdigest() == BAND_CSV_SHA256
    lines = "".join(canonical_record_json(r.to_dict()) + "\n" for r in records)
    assert hashlib.sha256(lines.encode("utf-8")).hexdigest() == BAND_JSON_SHA256


def test_record_text_equals_the_stdlib_encoder(band):
    records = list(scan(20_000).records) + band[0]
    assert sum(r.exact for r in records) == len(BAND_SATISFIED)
    for rec in records:
        assert _record_text(rec) == canonical_record_json(rec.to_dict()), rec.D


def test_run_decisions_equal_verdict(band):
    # the run's fast path calls the verdict's arithmetic core directly; the
    # public verdict on the same numbers gives the same bits
    records = list(scan(3_000).records) + band[0]
    for rec in records:
        rep = verdict(FieldInputs(D=rec.D, hr=rec.hr, zeta2=rec.zeta2,
                                  zeta_m1=zeta_K_minus1(rec.D), l1_value=rec.l1,
                                  l1_cert=rec.l1_cert, h=rec.h, regulator=rec.R),
                      Fraction(1, 100))
        assert (rep.nu_max.hex(), rep.margin.hex(), rep.verdict) == (
            rec.nu_max.hex(), rec.margin.hex(), rec.verdict), rec.D


def test_verdict_matches_float_rule_on_the_band(band):
    # the float rule the exact comparison replaced (margin > 0 and every
    # elliptic orbit's rr > 0) gives the same verdict on every field
    records, lookup = band
    for rec in records:
        n_orbits = len(elliptic_summary(rec.D, l1=lookup).bounds)
        assert n_orbits > 0, rec.D
        expected = float_rule_verdict(rec.D, rec.hr, rec.zeta2, Fraction(1, 100), n_orbits)
        assert rec.verdict == expected, rec.D
    assert [r.D for r in records if r.verdict == "Satisfied"] == BAND_SATISFIED
