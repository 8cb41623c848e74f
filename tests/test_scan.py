"""Bulk scans: determinism, worker independence, caching hooks."""

import dataclasses
import hashlib
import math
import multiprocessing
from fractions import Fraction

import pytest

import hilbert_ggl.scan as scan_module
from hilbert_ggl.elliptic import elliptic_summary, make_l1_lookup
from hilbert_ggl.errors import DomainError, NumericalAgreementError
from hilbert_ggl.field_invariants import (
    FundamentalUnit,
    class_number,
    exact_hr,
    fundamental_discriminants_up_to,
    regulator,
)
from hilbert_ggl.lfunctions import closed_form_l1
from hilbert_ggl.reports import canonical_record_json, csv_rows
from hilbert_ggl.scan import _RUN, DyadicBlock, FieldRecord, _dyadic_blocks, scan, scan_field

from oracles import float_rule_verdict

# the first Satisfied field: its record always comes from the exact path
FIRST_SATISFIED = 46373


def test_scan_field_fast_path_matches_closed_form():
    rec = scan_field(5, Fraction(1, 100))
    assert rec.h is None and rec.R is None and not rec.exact
    assert rec.hr == math.sqrt(5) * closed_form_l1(5)[0] / 2.0
    # zeta_K(2) is exact up to rounding, so nu_max is too
    assert abs(rec.nu_max - 0.1760065078159474) < 1e-12
    assert rec.zeta2_cert < 1e-14
    assert abs(rec.nu_required - 2 / 0.98) < 1e-15
    assert abs(rec.margin - (rec.nu_max - rec.nu_required)) < 1e-15
    assert rec.verdict == "CandidateExceptional"
    assert abs(rec.elliptic_total_bound - 14.0) < 1e-9


def test_scan_field_exact_path_consistent():
    D = FIRST_SATISFIED
    exact = scan_field(D, Fraction(1, 100))
    assert exact.exact and exact.verdict == "Satisfied"
    assert exact.h == class_number(D).h
    assert exact.R == regulator(D)
    assert exact.hr == exact.h * exact.R
    assert abs(exact.hr - math.sqrt(D) * exact.l1 / 2.0) <= 1e-9 * exact.hr
    # the fast records of other fields agree with the exact h*R check
    for D in (5, 8, 40, 229):
        fast = scan_field(D, Fraction(1, 100))
        _unit, classes, reg, _residual = exact_hr(D, fast.l1, fast.l1_cert)
        assert classes.h == class_number(D).h
        assert abs(classes.h * reg - fast.hr) <= 1e-9 * fast.hr


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


def test_field_record_round_trip():
    rec = scan_field(FIRST_SATISFIED, Fraction(1, 100))
    assert rec.exact
    assert FieldRecord.from_dict(rec.to_dict()) == rec
    assert list(rec.to_dict()) == [
        "D", "h", "R", "hr", "zeta2", "zeta2_cert", "l1", "l1_cert", "nu_max",
        "nu_required", "margin", "elliptic_total_bound", "elliptic_exponent",
        "verdict", "flags", "exact",
    ]
    assert rec.to_dict()["flags"] == list(rec.flags)
    fast = scan_field(13, Fraction(1, 100))
    assert FieldRecord.from_dict(fast.to_dict()) == fast


def test_exact_recheck_disagreement_raises_specific_error(monkeypatch):
    original = FundamentalUnit.regulator
    monkeypatch.setattr(FundamentalUnit, "regulator", lambda unit: 2 * original(unit))
    with pytest.raises(NumericalAgreementError, match="class number formula residual"):
        scan_field(FIRST_SATISFIED, Fraction(1, 100))


# sha256 of the records of every field in [64000, 65000] at epsilon 1/100,
# built as a scan to 65000 builds them, as CSV and as canonical record JSON
# lines; recorded when the verdict moved to one exact comparison, and the
# band holds four exact-path records, which the scan --dmax 2000 golden lacks
BAND_CSV_SHA256 = "a20da48a18a7f9608243346bfebac2cb3ef0cf3310e44db3f19c99ab877f4890"
BAND_JSON_SHA256 = "848051c2f4e70f42abedea0a6aba57f7b11c927a13441667613c2980b60945db"
BAND_SATISFIED = [64253, 64277, 64517, 64973]


@pytest.fixture(scope="module")
def band():
    lookup = make_l1_lookup(4 * 65000 + 16)
    ds = [int(d) for d in fundamental_discriminants_up_to(65000) if d >= 64000]
    return [scan_field(D, Fraction(1, 100), l1_lookup=lookup) for D in ds], lookup


def test_scan_band_bytes(band):
    records, _lookup = band
    assert len(records) == 304
    assert [r.D for r in records if r.exact] == BAND_SATISFIED
    csv = csv_rows([r.to_dict() for r in records])
    assert hashlib.sha256(csv.encode("utf-8")).hexdigest() == BAND_CSV_SHA256
    lines = "".join(canonical_record_json(r.to_dict()) + "\n" for r in records)
    assert hashlib.sha256(lines.encode("utf-8")).hexdigest() == BAND_JSON_SHA256


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
