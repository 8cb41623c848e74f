"""Command line behavior: golden outputs, exit codes, file flows."""

import hashlib
import json
import os

import pytest

from hilbert_ggl.cli import main
from hilbert_ggl.field_invariants import fundamental_discriminants_up_to

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def golden_text(name: str) -> str:
    with open(os.path.join(GOLDEN, name), encoding="utf-8") as fh:
        return fh.read()


def test_field_5_golden(capsys):
    assert main(["field", "5"]) == 0
    assert capsys.readouterr().out == golden_text("field_5.txt")


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


def test_field_json_schema(capsys):
    assert main(["field", "5", "--json", "--timings"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"schema_version", "command", "params", "records",
                        "tolerances", "timings"}
    assert doc["schema_version"] == 2
    assert set(doc["tolerances"]) == {"acnf_tol", "l1_cert", "zeta2_cert"}
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
    # the criterion is evaluated at degree 2 only; there is no degree option
    assert main(["field", "5", "--n", "3"]) == 2
    assert main(["scan", "--dmax", "10", "--n", "3"]) == 2
    # zeta_K(2) is exact up to rounding; there is no tolerance option
    assert main(["field", "5", "--zeta-tol", "1e-9"]) == 2
    assert main(["scan", "--dmax", "10", "--zeta-tol", "1e-6"]) == 2
    assert main(["unknown"]) == 2
    assert main([]) == 2
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_domain_errors_exit_one(capsys, monkeypatch):
    assert main(["hj", "12", "0"]) == 1
    assert "error:" in capsys.readouterr().err
    assert main(["hj", "12", "8"]) == 1  # gcd(12, 8) != 1
    assert main(["tangency", os.path.join(GOLDEN, "no_such_file.txt")]) == 1
    assert "error:" in capsys.readouterr().err
    monkeypatch.setenv("HILBERT_GGL_WORKERS", "abc")
    assert main(["scan", "--dmax", "10"]) == 1
    assert "HILBERT_GGL_WORKERS" in capsys.readouterr().err


def test_scan_stdout_csv(capsys):
    assert main(["scan", "--dmax", "100"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == "D,h,R,hR,zeta2,nu_max,nu_required,margin,elliptic_total_bound,verdict"
    assert lines[1] == ("5,,,0.4812118251,1.161671196,0.1760065078,2.040816327,"
                        "-1.864809819,14,CandidateExceptional")
    n_fields = len(fundamental_discriminants_up_to(100))
    assert len(lines) == n_fields + 1


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


# sha256 of `scan --dmax 2000 --cache C --out O`, recorded when zeta_K(2)
# moved to the exact zeta_K(-1) (schema 2); the cache digest pins the exact
# bytes of every ScanCache entry line
SCAN_2000_CSV_SHA256 = "a3cfe0c8ec4a40f9b28b1c218871c38d79b8fe1c2889dffbdd501284bb3b4198"
SCAN_2000_CACHE_SHA256 = "4919e4a7e55b21dca242d4870ec0d1ecc4cbaaf26ec995093eccdd61d14649dc"


def test_scan_2000_csv_and_cache_golden(tmp_path, capsys):
    cache = tmp_path / "scan.cache"
    out = tmp_path / "scan.csv"
    assert main(["scan", "--dmax", "2000", "--cache", str(cache), "--out", str(out)]) == 0
    assert capsys.readouterr().out.startswith("scanned 607 fields to D<=2000 (0 from cache)")
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SCAN_2000_CSV_SHA256
    assert hashlib.sha256(cache.read_bytes()).hexdigest() == SCAN_2000_CACHE_SHA256


# sha256 of `field D --json`: these pin the chart det strings, sqrt_coeff,
# coord_det and rays, which the cusp_*.txt goldens omit
FIELD_JSON_SHA256 = {
    229: "8a6a057aff6976a4339e2e4e1180eab2344bc0229dcc48684039e4404d53ef2f",
    9997: "569b0a6f41229856986dcf86d91e6ea0d037eee2c380042d2184486f60177e86",
    99996: "ba2339e212e263a40aa6eaed1230e2c4236ab3ce5ff44ce8a618ed1deb4873b0",
}


@pytest.mark.parametrize("D", sorted(FIELD_JSON_SHA256))
def test_field_json_bytes_golden(D, capsys):
    assert main(["field", str(D), "--json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == FIELD_JSON_SHA256[D]
