"""Command line behavior: golden outputs, exit codes, file flows."""

import hashlib
import json
import os
import random
import re
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest
from conftest import scan_record

import hilbert_ggl
import hilbert_ggl.cli as cli_module
import hilbert_ggl.scan as scan_module
from hilbert_ggl import field_invariants, lfunctions
from hilbert_ggl.cli import main
from hilbert_ggl.errors import CacheError
from hilbert_ggl.elliptic import elliptic_summary
from hilbert_ggl.field_invariants import fundamental_discriminants_up_to
from hilbert_ggl.lfunctions import closed_form_l1
from hilbert_ggl.reports import ScanCache
from hilbert_ggl.scan import _RUN

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def golden_text(name: str) -> str:
    with open(os.path.join(GOLDEN, name), encoding="utf-8") as fh:
        return fh.read()


def test_field_5_golden(capsys):
    assert main(["field", "5"]) == 0
    assert capsys.readouterr().out == golden_text("field_5.txt")


def _run_python(code: str, *args: str, **kwargs) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter that imports this hilbert_ggl."""
    src = os.path.dirname(os.path.dirname(hilbert_ggl.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, **kwargs)


def test_cli_import_leaves_out_mpmath():
    # mpmath is a test dependency only; the package must not import it
    code = "import sys, hilbert_ggl.cli; print('mpmath' in sys.modules)"
    out = _run_python(code, check=True, timeout=60)
    assert out.stdout.strip() == "False"


def test_hj_12_5_golden(capsys):
    assert main(["hj", "12", "5"]) == 0
    assert capsys.readouterr().out == golden_text("hj_12_5.txt")


def test_cusp_8_golden(capsys):
    assert main(["cusp", "8"]) == 0
    assert capsys.readouterr().out == golden_text("cusp_8.txt")


@pytest.mark.parametrize("D", [12, 9997, 99996])
def test_cusp_golden_half_integral_and_long_period(D, capsys):
    # D=12 has half-integer ray coordinates; 9997 and 99996 have long periods
    assert main(["cusp", str(D)]) == 0
    assert capsys.readouterr().out == golden_text("cusp_%d.txt" % D)


def test_field_squarefree_value_normalized(capsys):
    assert main(["field", "6", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["params"]["value"] == 6
    assert doc["params"]["D"] == 24
    assert doc["records"][0]["D"] == 24


@pytest.mark.parametrize("value, D", [("6", 24), ("5", 5)])
def test_field_value_factors_its_discriminant_once(value, D, monkeypatch, capsys):
    # normalizing the value and validating the field read one factorization;
    # the negative arguments are the CM discriminants of the elliptic bounds
    calls = []
    factor = lfunctions._prime_factors
    monkeypatch.setattr(lfunctions, "_prime_factors", lambda n: calls.append(n) or factor(n))
    lfunctions._fundamental_parts.cache_clear()
    assert main(["field", value]) == 0
    assert capsys.readouterr().out.startswith("field D=%d\n" % D)
    assert [n for n in calls if n > 0] == [D]


def test_field_json_schema(capsys):
    assert main(["field", "5", "--json", "--timings"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"schema_version", "command", "params", "records",
                        "tolerances", "timings"}
    assert doc["schema_version"] == 3
    assert set(doc["tolerances"]) == {"l1_cert", "zeta2_cert"}
    assert doc["params"]["epsilon"] == "1/100"
    assert set(doc["timings"]) == {"invariants", "elliptic_criterion", "cusp_cycle",
                                   "cusp_tangency", "cusp", "total"}
    rec = doc["records"][0]
    assert rec["criterion"]["verdict"] == "CandidateExceptional"
    assert rec["cusp"]["tangency"]["ok"] is True


def test_usage_exit_codes(capsys):
    assert main(["field", "4"]) == 2  # 4 = 2^2 is neither fundamental nor squarefree
    assert main(["field", "9"]) == 2
    assert main(["scan", "--dmax", "4"]) == 2
    assert main(["scan", "--dmax", "100", "--workers", "0"]) == 2
    assert main(["scan", "--dmax", "100", "--workers", "-1"]) == 2
    # the criterion is evaluated at degree 2 only; there is no degree option
    assert main(["field", "5", "--n", "3"]) == 2
    assert main(["scan", "--dmax", "10", "--n", "3"]) == 2
    # zeta_K(2) is exact up to rounding; there is no tolerance option
    assert main(["field", "5", "--zeta-tol", "1e-9"]) == 2
    assert main(["scan", "--dmax", "10", "--zeta-tol", "1e-6"]) == 2
    # the class number formula residual bound follows from the L(1) certificate
    assert main(["field", "5", "--acnf-tol", "1e-8"]) == 2
    assert main(["unknown"]) == 2
    assert main([]) == 2
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_domain_errors_exit_one(capsys):
    assert main(["hj", "12", "0"]) == 1
    assert "error:" in capsys.readouterr().err
    assert main(["hj", "12", "8"]) == 1  # gcd(12, 8) != 1
    assert main(["tangency", os.path.join(GOLDEN, "no_such_file.txt")]) == 1
    assert "error:" in capsys.readouterr().err


def test_epsilon_out_of_range_exits_one_before_any_invariant(monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("computed before epsilon was checked")

    monkeypatch.setattr(cli_module, "invariants", refuse)
    monkeypatch.setattr(scan_module, "scan_tables", refuse)
    for argv in (["field", "95881", "--epsilon", "0.6"],
                 ["scan", "--dmax", "400000", "--epsilon", "0.6"]):
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: epsilon must lie in (0, 1/2), got 3/5\n"


def test_d_past_the_int64_range_exits_one_before_any_table(monkeypatch, capsys):
    # 759250129 is the first fundamental D past elliptic._CM_D_MAX: field and
    # scan refuse it before any invariant, mask or table is built
    D = 759250129
    assert lfunctions.is_fundamental_discriminant(D)
    assert not any(map(lfunctions.is_fundamental_discriminant, range(D - 4, D)))

    def refuse(*args):
        raise AssertionError("built before D was checked")

    monkeypatch.setattr(cli_module, "invariants", refuse)
    monkeypatch.setattr(scan_module, "fundamental_discriminants_up_to", refuse)
    monkeypatch.setattr(scan_module, "scan_tables", refuse)
    for argv in (["field", str(D)], ["scan", "--dmax", str(D)]):
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            "error: D = %d is past the int64 range of |D d2 d3| <= 16 D^2\n" % D)


def test_scan_checks_epsilon_before_reading_the_cache(tmp_path, monkeypatch, capsys):
    # a cache written at epsilon 1/100 is neither read nor written by a scan
    # whose epsilon is out of range: the epsilon message, not the header's
    path = tmp_path / "scan.cache"
    assert main(["scan", "--dmax", "30", "--cache", str(path)]) == 0
    written = path.read_bytes()
    capsys.readouterr()

    def refuse(self):
        raise AssertionError("the cache was read before epsilon was checked")

    monkeypatch.setattr(ScanCache, "load", refuse)
    for eps in ("0.6", "0", "1/2"):
        assert main(["scan", "--dmax", "30", "--epsilon", eps, "--cache", str(path)]) == 1
        assert capsys.readouterr().err == (
            "error: epsilon must lie in (0, 1/2), got %s\n" % Fraction(eps))
        assert path.read_bytes() == written


def test_scan_stdout_csv(capsys):
    assert main(["scan", "--dmax", "100"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == "D,h,R,hR,zeta2,nu_max,nu_required,margin,elliptic_total_bound,verdict"
    assert lines[1] == ("5,,,0.4812118251,1.161671196,0.1760065078,2.040816327,"
                        "-1.864809819,14,CandidateExceptional")
    n_fields = len(fundamental_discriminants_up_to(100))
    assert len(lines) == n_fields + 1


def test_field_evaluates_l1_of_d_once(monkeypatch, capsys):
    # hR needs L(1, chi_D); the elliptic bounds cancel it and must not ask,
    # and they count their CM class numbers, so no d < 0 takes the closed form
    for D in (5, 229, 9997):
        asked = []

        def counting(d, table=None):
            asked.append(d)
            return closed_form_l1(d, table)

        for module in (lfunctions, field_invariants):
            monkeypatch.setattr(module, "closed_form_l1", counting)
        assert main(["field", str(D)]) == 0
        capsys.readouterr()
        assert asked.count(D) == 1, (D, asked)
        assert all(d > 0 for d in asked), (D, asked)
        monkeypatch.undo()


def test_field_runs_the_continued_fraction_once(monkeypatch, capsys):
    # exact_hr and cusp_cycle both need the fundamental unit; one continued
    # fraction serves both, and cusp_cycle still checks its cycle unit by it
    original = field_invariants.continued_fraction_unit
    for D in (5, 229, 9997):
        runs = []

        def counting(d):
            runs.append(d)
            return original(d)

        monkeypatch.setattr(field_invariants, "continued_fraction_unit", counting)
        field_invariants._fundamental_unit.cache_clear()
        assert main(["field", str(D)]) == 0
        capsys.readouterr()
        assert runs == [D], (D, runs)
        monkeypatch.undo()


def test_scan_out_file_and_json(tmp_path, capsys):
    out_csv = str(tmp_path / "scan.csv")
    assert main(["scan", "--dmax", "100", "--out", out_csv]) == 0
    summary = capsys.readouterr().out
    assert summary.startswith("scanned 30 fields to D<=100 (0 from cache):")
    assert "largest failing D=97" in summary
    with open(out_csv, encoding="utf-8") as fh:
        assert fh.readline().startswith("D,h,R,")

    out_json = str(tmp_path / "scan.json")
    assert main(["scan", "--dmax", "100", "--format", "json", "--out", out_json]) == 0
    capsys.readouterr()
    with open(out_json, encoding="utf-8") as fh:
        doc = json.load(fh)
    assert doc["command"] == "scan"
    assert doc["summary"]["fields"] == 30


def test_scan_out_file_has_no_newline_translation(monkeypatch, tmp_path, capsys):
    # a text-mode file would write os.linesep for each "\n", "\r\n" on
    # Windows; this open gives every text-mode file that translation
    def windows_open(file, mode="r", *args, **kwargs):
        if "b" not in mode:
            kwargs["newline"] = "\r\n"
        return open(file, mode, *args, **kwargs)

    monkeypatch.setattr(cli_module, "open", windows_open, raising=False)
    assert main(["scan", "--dmax", "100"]) == 0
    expected = capsys.readouterr().out.encode("ascii")
    out_csv = tmp_path / "scan.csv"
    assert main(["scan", "--dmax", "100", "--out", str(out_csv)]) == 0
    assert out_csv.read_bytes() == expected


def test_scan_timings(tmp_path, capsys):
    cache = str(tmp_path / "scan.cache")
    out = str(tmp_path / "scan.csv")
    for _ in range(2):  # a cold scan, then a resume from its cache
        assert main(["scan", "--dmax", "100", "--cache", cache, "--out", out,
                     "--timings"]) == 0
        line = capsys.readouterr().out.splitlines()[-1]
        assert re.fullmatch(r"timing load=\d+\.\d{3}s scan=\d+\.\d{3}s", line), line
    out_json = str(tmp_path / "scan.json")
    assert main(["scan", "--dmax", "100", "--cache", cache, "--format", "json",
                 "--out", out_json, "--timings"]) == 0
    capsys.readouterr()
    with open(out_json, encoding="utf-8") as fh:
        timings = json.load(fh)["timings"]
    assert set(timings) == {"load", "scan"}
    assert all(secs >= 0 for secs in timings.values())
    # without --out the CSV keeps its bytes on stdout and the timing goes to stderr
    assert main(["scan", "--dmax", "100", "--cache", cache]) == 0
    plain = capsys.readouterr()
    assert main(["scan", "--dmax", "100", "--cache", cache, "--timings"]) == 0
    timed = capsys.readouterr()
    assert plain.out.startswith("D,h,R,") and timed.out == plain.out
    assert plain.err == ""
    assert re.fullmatch(r"timing load=\d+\.\d{3}s scan=\d+\.\d{3}s\n", timed.err), timed.err


def test_scan_cache_resume_identical(tmp_path, capsys):
    cache = str(tmp_path / "scan.cache")
    out1 = str(tmp_path / "a.csv")
    out2 = str(tmp_path / "b.csv")
    assert main(["scan", "--dmax", "150", "--cache", cache, "--out", out1]) == 0
    first = capsys.readouterr().out
    assert "(0 from cache)" in first
    assert main(["scan", "--dmax", "150", "--cache", cache, "--out", out2]) == 0
    second = capsys.readouterr().out
    n_fields = len(fundamental_discriminants_up_to(150))
    assert "(%d from cache)" % n_fields in second
    with open(out1, "rb") as fa, open(out2, "rb") as fb:
        assert fa.read() == fb.read()


def test_scan_cache_hits_count_only_fields_up_to_dmax(tmp_path, capsys):
    # the cache is not keyed on --dmax: a smaller rerun finds more records
    # in it than it uses, and reports only the ones it uses
    cache = str(tmp_path / "scan.cache")
    out = str(tmp_path / "scan.csv")
    assert main(["scan", "--dmax", "300", "--cache", cache, "--out", out]) == 0
    capsys.readouterr()
    assert main(["scan", "--dmax", "100", "--cache", cache, "--out", out]) == 0
    assert capsys.readouterr().out.startswith("scanned 30 fields to D<=100 (30 from cache):")
    assert main(["scan", "--dmax", "100", "--out", out]) == 0
    assert capsys.readouterr().out.startswith("scanned 30 fields to D<=100 (0 from cache):")


def test_cusp_json(capsys):
    assert main(["cusp", "8", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["D"] == 8
    assert doc["digits"] == [4, 2]
    assert doc["tangency_ok"] is True
    assert doc["chart_sqrt_coeffs"] == ["1", "1"]


def test_tangency_file_flows(tmp_path, capsys):
    good = tmp_path / "charts.txt"
    good.write_text("1 0\n0 1\n\n3 1/2\n0 2\n", encoding="utf-8")
    assert main(["tangency", str(good), "--m", "2"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["chart 0: mult=1 lambda=1", "chart 1: mult=1 lambda=6"]

    assert main(["tangency", str(good), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [row["lam"] for row in doc["charts"]] == ["1", "6"]

    assert main(["tangency", str(good), "--m", "3"]) == 1
    assert "error:" in capsys.readouterr().err

    bad = tmp_path / "degenerate.txt"
    bad.write_text("1 2\n2 4\n", encoding="utf-8")
    assert main(["tangency", str(bad)]) == 1
    captured = capsys.readouterr()
    assert "chart 0: degenerate (det=0)" in captured.out
    assert "degenerate chart" in captured.err

    binary = tmp_path / "binary.txt"
    binary.write_bytes(b"1 0\n0 \xff\n")
    assert main(["tangency", str(binary)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: %s is not UTF-8 text" % binary)


# sha256 of `scan --dmax 2000 --cache C --out O`: the CSV digest was recorded
# when zeta_K(2) moved to the exact zeta_K(-1) (schema 2), the cache digest
# when the elliptic bounds dropped L(1, chi_D) (schema 3, last bits of the
# elliptic floats); the cache digest pins the exact bytes of every entry line
SCAN_2000_CSV_SHA256 = "a3cfe0c8ec4a40f9b28b1c218871c38d79b8fe1c2889dffbdd501284bb3b4198"
SCAN_2000_CACHE_SHA256 = "b402ab899988a2cb1fca89e27d15878595124ce05057d14c22eaa91837847248"


def _assert_scan_2000_golden(out, cache):
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SCAN_2000_CSV_SHA256
    assert hashlib.sha256(cache.read_bytes()).hexdigest() == SCAN_2000_CACHE_SHA256


@pytest.mark.parametrize("workers", ["1", "2"])
def test_scan_2000_csv_and_cache_golden(workers, tmp_path, capsys):
    cache = tmp_path / "scan.cache"
    out = tmp_path / "scan.csv"
    argv = ["scan", "--dmax", "2000", "--cache", str(cache), "--out", str(out),
            "--workers", workers]
    assert main(argv) == 0
    assert capsys.readouterr().out.startswith("scanned 607 fields to D<=2000 (0 from cache)")
    _assert_scan_2000_golden(out, cache)
    # a resume reads every record back from those bytes and writes nothing
    assert main(argv) == 0
    assert capsys.readouterr().out.startswith("scanned 607 fields to D<=2000 (607 from cache)")
    _assert_scan_2000_golden(out, cache)


def test_scan_killed_mid_run_keeps_finished_runs(tmp_path, capsys):
    # a scan killed after its third cache append has written three whole runs;
    # the rerun takes them from the cache and ends with the golden bytes
    cache = tmp_path / "scan.cache"
    out = tmp_path / "scan.csv"
    argv = ["scan", "--dmax", "2000", "--cache", str(cache), "--out", str(out)]
    code = textwrap.dedent("""
        import os, sys
        from hilbert_ggl.cli import main
        from hilbert_ggl.reports import ScanCache
        append, calls = ScanCache.append, []
        def dying_append(self, *records):
            append(self, *records)
            calls.append(len(records))
            if len(calls) == 3:
                os._exit(3)
        ScanCache.append = dying_append
        sys.exit(main(sys.argv[1:]))
    """)
    killed = _run_python(code, *argv, timeout=120)
    assert killed.returncode == 3, killed.stderr
    assert not out.exists()
    assert len(cache.read_text(encoding="utf-8").splitlines()) == 1 + 3 * _RUN
    assert main(argv) == 0
    assert capsys.readouterr().out.startswith(
        "scanned 607 fields to D<=2000 (%d from cache)" % (3 * _RUN))
    _assert_scan_2000_golden(out, cache)


@pytest.fixture(scope="module")
def scan_2000_cache(tmp_path_factory):
    """The bytes of the `scan --dmax 2000` golden cache."""
    tmp = tmp_path_factory.mktemp("scan_2000")
    cache, out = tmp / "scan.cache", tmp / "scan.csv"
    assert main(["scan", "--dmax", "2000", "--cache", str(cache), "--out", str(out)]) == 0
    _assert_scan_2000_golden(out, cache)
    return cache.read_bytes()


@pytest.mark.parametrize("part", range(3))
def test_scan_resumes_from_a_torn_last_line(part, scan_2000_cache, tmp_path, capsys):
    # a scan killed while it appends leaves a prefix of its last line; cut at
    # every byte of that line (a third of them per part), the rerun drops the
    # torn record, computes it again and ends with the golden bytes
    cache, out = tmp_path / "scan.cache", tmp_path / "scan.csv"
    argv = ["scan", "--dmax", "2000", "--cache", str(cache), "--out", str(out)]
    start = scan_2000_cache.rindex(b"\n", 0, -1) + 1
    cuts = range(start + part, len(scan_2000_cache), 3)
    assert len(cuts) > 100
    for cut in cuts:
        cache.write_bytes(scan_2000_cache[:cut])
        assert main(argv) == 0, cut
        assert capsys.readouterr().out.startswith("scanned 607 fields to D<=2000 (606 from cache)")
        _assert_scan_2000_golden(out, cache)


def test_scan_resumes_from_a_torn_header(tmp_path, capsys):
    # a scan killed during its first append leaves a prefix of the header
    # line, the empty file included; cut at every byte of that line, the
    # rerun starts the file again and ends with the bytes of a cold scan
    cold, cold_out = tmp_path / "cold.cache", tmp_path / "cold.csv"
    assert main(["scan", "--dmax", "50", "--cache", str(cold), "--out", str(cold_out)]) == 0
    want_cache, want_csv = cold.read_bytes(), cold_out.read_bytes()
    header_len = want_cache.index(b"\n") + 1
    cache, out = tmp_path / "scan.cache", tmp_path / "scan.csv"
    argv = ["scan", "--dmax", "50", "--cache", str(cache), "--out", str(out)]
    for cut in range(header_len):
        cache.write_bytes(want_cache[:cut])
        assert main(argv) == 0, cut
        assert " (0 from cache)" in capsys.readouterr().out, cut
        assert cache.read_bytes() == want_cache, cut
        assert out.read_bytes() == want_csv, cut
    # a one-line file that is no prefix of the header stays a CacheError,
    # and the scan leaves it as it was
    for line in (b'{"format": "other"}', want_cache[:header_len - 2] + b"X"):
        cache.write_bytes(line)
        with pytest.raises(CacheError) as err:
            ScanCache(str(cache), {"n": 2, "epsilon": "1/100"}).load()
        assert err.value.key == "header"
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert cache.read_bytes() == line


def test_scan_resumes_twice_after_a_lost_newline(scan_2000_cache, tmp_path, capsys):
    # the last entry and the newline before it gone: the entry before lost
    # only its newline, and the next append once wrote onto that line, so
    # that the second resume failed on "unexpected text after the record"
    cache, out = tmp_path / "scan.cache", tmp_path / "scan.csv"
    argv = ["scan", "--dmax", "2000", "--cache", str(cache), "--out", str(out)]
    cache.write_bytes(scan_2000_cache[:scan_2000_cache.rindex(b"\n", 0, -1)])
    for _ in range(2):
        assert main(argv) == 0
        capsys.readouterr()
        _assert_scan_2000_golden(out, cache)


def test_scan_cache_damage_before_the_last_line_still_raises(scan_2000_cache, tmp_path):
    # a line that lost its newline inside the file is joined to the next
    # one, and a damaged last line that kept its newline is no tear
    lines = scan_2000_cache.split(b"\n")
    cache = tmp_path / "scan.cache"
    params = {"n": 2, "epsilon": "1/100"}
    for k in (1, 300, len(lines) - 3):
        cache.write_bytes(b"\n".join(lines[:k] + [lines[k] + lines[k + 1]] + lines[k + 2:]))
        with pytest.raises(CacheError) as err:
            ScanCache(str(cache), params).load()
        assert err.value.key == "line %d" % (k + 1)
    cache.write_bytes(scan_2000_cache[:-2] + b"\n")
    with pytest.raises(CacheError) as err:
        ScanCache(str(cache), params).load()
    assert err.value.key == "line %d" % (len(lines) - 1)


# sha256 of `field D --json`: these pin the chart det strings, sqrt_coeff,
# coord_det and rays, which the cusp_*.txt goldens omit; recorded when the
# criterion block lost its per-orbit rows (the documents of the elliptic
# bounds from h'R'/hR of schema 3, minus "orbits" and "elliptic_feasible")
FIELD_JSON_SHA256 = {
    229: "4422dde700178b8d1be6fdbabdbe862c995f721ec8fe0e0f4b0f1c5039638c2d",
    9997: "09e31732daecdbc1e790c4f0a5a1054927a4ff84ec30e8437275682d463264eb",
    99996: "0f52126d0819f02c427de267b11dd3f60b5e9a1b8cced61e9bfbcf8513c95a2e",
}


@pytest.mark.parametrize("D", sorted(FIELD_JSON_SHA256))
def test_field_json_bytes_golden(D, capsys):
    assert main(["field", str(D), "--json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == FIELD_JSON_SHA256[D]


# `field D` text, the layout the field benchmark reads, up to 1e5: the 40
# fundamental D <= 1e5 with the longest cusp periods (3323 to 3769 rays), then
# every 1000th fundamental D from 5; 71 reports, about 83 MB of text
FIELD_TEXT_LONGEST_PERIODS = (
    80809, 81649, 82009, 83449, 85009, 85201, 85369, 87049, 87481, 87649,
    87721, 88321, 89041, 89209, 90841, 91009, 91081, 91129, 91249, 91921,
    92041, 92761, 93529, 93889, 94201, 95089, 95881, 95929, 96001, 96289,
    96601, 96769, 97441, 97561, 97729, 98641, 99241, 99289, 99409, 99529,
)
FIELD_TEXT_SHA256 = "ce52fc3b38559b0f42e739c13eff0fb9aae33066575055d168937dbe99242d63"


def test_field_text_pin_up_to_1e5(capsys):
    every_1000th = [int(D) for D in fundamental_discriminants_up_to(100000)[::1000]]
    assert len(every_1000th) == 31
    digest = hashlib.sha256()
    for D in sorted(FIELD_TEXT_LONGEST_PERIODS + tuple(every_1000th)):
        assert main(["field", str(D)]) == 0
        # one report at a time, so that the 83 MB are never held at once
        digest.update(capsys.readouterr().out.encode("utf-8"))
    assert digest.hexdigest() == FIELD_TEXT_SHA256


STANDARD_D = (5, 8, 12, 13, 24, 229, 401, 997, 9997, 12345, 64277, 99996)


def test_field_json_elliptic_block_equals_scan_record(capsys, tables):
    # the elliptic bounds use only L(1, chi_d) for the CM discriminants d < 0,
    # which has one float expression whether h(d) comes from a report's
    # reduced-form count or the scan sieve, so the two agree bit for bit
    rng = random.Random(4242)
    ds = [int(d) for d in fundamental_discriminants_up_to(100_000)]
    sample = sorted(set(STANDARD_D) | set(rng.sample(ds, 20)))
    # the sieve of the largest scan holds the same class numbers as 4 D + 16
    lookup, sigma = tables
    for D in sample:
        assert main(["field", str(D), "--json"]) == 0
        ell = json.loads(capsys.readouterr().out)["records"][0]["elliptic"]
        rec = scan_record(D, Fraction(1, 100), lookup, sigma)
        assert ell["total_bound"] == rec.elliptic_total_bound, D
        assert ell["exponent_record"] == rec.elliptic_exponent, D
        summary = elliptic_summary(D, l1=lookup)
        assert summary.total_bound == rec.elliptic_total_bound, D
        assert [c["bound"] for c in ell["classes"]] == [b.value for b in summary.bounds], D
