"""Report documents, CSV layout, and the checksummed scan cache."""

import dataclasses
import json
import zlib
from fractions import Fraction

import numpy as np
import pytest
from oracles import canonical_record_json, record_from_dict, scan_csv

from hilbert_ggl.cli import main
from hilbert_ggl.criteria import verdict
from hilbert_ggl.cusps import cusp_cycle, verify_cusp_tangency
from hilbert_ggl.elliptic import elliptic_summary
from hilbert_ggl.errors import CacheError
from hilbert_ggl.field_invariants import invariants
from hilbert_ggl.reports import (
    CSV_COLUMNS,
    FieldRecord,
    ScanCache,
    build_field_document,
    build_scan_document,
    csv_rows,
    fmt10,
    json_dumps,
    render_field_text,
)
from hilbert_ggl.scan import scan, scan_field


def test_fmt10():
    assert fmt10(None) == ""
    assert fmt10(0.4812118250596034) == "0.4812118251"
    assert fmt10(14.0) == "14"
    assert fmt10(12345678901.2345) == "1.23456789e+10"
    assert fmt10(3) == "3"
    assert fmt10(Fraction(1, 3)) == "1/3"
    assert fmt10("CandidateExceptional") == "CandidateExceptional"


def test_json_dumps_fractions_and_floats():
    doc = {"eps": Fraction(1, 100), "vals": (Fraction(2, 3), 0.1), "n": 2}
    parsed = json.loads(json_dumps(doc))
    assert parsed == {"eps": "1/100", "vals": ["2/3", 0.1], "n": 2}
    # full-precision floats survive a round trip bit for bit
    x = 0.17600650779927407
    assert json.loads(json_dumps({"x": x}))["x"] == x
    with pytest.raises(ValueError):
        json_dumps({"x": float("nan")})
    assert "\n" not in json_dumps({"a": 1}, indent=None)


def test_csv_rows_frozen_layout(tables):
    fast = scan_field(5, Fraction(1, 100), *tables)
    assert csv_rows([fast.to_dict()]) == (
        "D,h,R,hR,zeta2,nu_max,nu_required,margin,elliptic_total_bound,verdict\n"
        "5,,,0.4812118251,1.161671196,0.1760065078,2.040816327,"
        "-1.864809819,14,CandidateExceptional\n"
    )
    exact = scan_field(46373, Fraction(1, 100), *tables)  # Satisfied: the exact path fills h and R
    assert csv_rows([exact.to_dict()]).splitlines()[1] == (
        "46373,1,31.146314,31.146314,1.092508677,2.043205146,2.040816327,"
        "0.002388819678,532,Satisfied"
    )
    assert csv_rows([]) == ",".join(CSV_COLUMNS) + "\n"


def test_canonical_record_json_is_stable():
    rec = {"b": 1, "a": "1/2", "c": [1.5, None]}
    canon = canonical_record_json(rec)
    assert canon == '{"a":"1/2","b":1,"c":[1.5,null]}'
    assert canonical_record_json(dict(reversed(list(rec.items())))) == canon
    # records are JSON-native by the time they are canonicalized
    with pytest.raises(TypeError):
        canonical_record_json({"a": Fraction(1, 2)})


def test_scan_cache_round_trip(tmp_path, tables):
    path = str(tmp_path / "scan.cache")
    cache = ScanCache(path, params={"n": 2, "epsilon": "1/100"})
    assert cache.load() == {}
    records = [scan_field(D, Fraction(1, 100), *tables) for D in (5, 8, 12)]
    cache.append(records[0])
    cache.append(records[1])
    assert cache.load() == {5: records[0], 8: records[1]}
    cache.append(records[2])
    assert cache.load() == {5: records[0], 8: records[1], 12: records[2]}
    # a second handle with identical params reads the same file
    again = ScanCache(path, params={"n": 2, "epsilon": "1/100"})
    assert again.load() == cache.load()


@pytest.mark.parametrize("key", ["margin", "R", "l1_cert"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_scan_cache_append_refuses_non_finite_floats(tmp_path, tables, key, value):
    # the stdlib encoder with allow_nan=False raises ValueError, and so does
    # the writer, before it touches the file: a new file is not created, an
    # old one keeps its bytes, and a torn last line stays for the next append
    good = [scan_field(D, Fraction(1, 100), *tables) for D in (5, 8)]
    bad = dataclasses.replace(scan_field(46373, Fraction(1, 100), *tables), **{key: value})
    with pytest.raises(ValueError):
        canonical_record_json(bad.to_dict())
    path = tmp_path / "scan.cache"
    cache = ScanCache(str(path), CLI_PARAMS)
    with pytest.raises(ValueError):
        cache.append(*good, bad)
    assert not path.exists()
    cache.append(*good)
    torn = path.read_bytes()[:-5]
    path.write_bytes(torn)
    assert cache.load() == {5: good[0]}
    with pytest.raises(ValueError):
        cache.append(bad)
    assert path.read_bytes() == torn
    cache.append(good[1])
    assert cache.load() == {5: good[0], 8: good[1]}


def test_scan_cache_writes_numpy_floats_as_floats(tmp_path, tables):
    # numpy 2 reprs a float64 as np.float64(...); the cache writes the float
    # it holds, so the bytes are those of the plain-float record
    records = [scan_field(D, Fraction(1, 100), *tables) for D in (5, 12, 46373)]
    assert records[-1].R is not None
    as_numpy = [dataclasses.replace(rec, **{
        f.name: np.float64(getattr(rec, f.name)) for f in dataclasses.fields(rec)
        if type(getattr(rec, f.name)) is float}) for rec in records]
    assert type(as_numpy[-1].R) is np.float64 and type(as_numpy[0].margin) is np.float64
    for name, recs in (("float", records), ("numpy", as_numpy)):
        ScanCache(str(tmp_path / name), CLI_PARAMS).append(*recs)
    assert (tmp_path / "numpy").read_bytes() == (tmp_path / "float").read_bytes()
    assert ScanCache(str(tmp_path / "numpy"), CLI_PARAMS).load() == {r.D: r for r in records}
    # the type test admits no other number in a float key
    with pytest.raises(TypeError):
        ScanCache(str(tmp_path / "int"), CLI_PARAMS).append(dataclasses.replace(records[0], hr=2))


def test_record_text_memo_stays_small_and_exact(tables, monkeypatch):
    # the flags and verdict texts come from a bounded memo; flags held as a
    # list, which no memo can key, and memos that are full still give the
    # encoder's text
    from hilbert_ggl import reports

    monkeypatch.setattr(reports, "_FLAGS_TEXT", {})
    monkeypatch.setattr(reports, "_VERDICT_TEXT", {})
    rec = scan_field(13, Fraction(1, 100), *tables)
    variants = [dataclasses.replace(rec, flags=("f%d" % k, 'q"\u00e9'), verdict="v%d" % k)
                for k in range(3 * reports._TEXT_MEMO_SIZE)]
    variants.append(dataclasses.replace(rec, flags=list(rec.flags)))
    for r in variants + variants:
        assert reports._record_text(r) == canonical_record_json(r.to_dict())
    assert len(reports._FLAGS_TEXT) == len(reports._VERDICT_TEXT) == reports._TEXT_MEMO_SIZE


def test_scan_cache_append_many_matches_one_by_one(tmp_path, tables):
    params = {"n": 2, "epsilon": "1/100"}
    records = [scan_field(D, Fraction(1, 100), *tables) for D in (5, 8, 12)]
    one_by_one = ScanCache(str(tmp_path / "a.cache"), params)
    for rec in records:
        one_by_one.append(rec)
    batched = ScanCache(str(tmp_path / "b.cache"), params)
    batched.append(*records[:2])
    batched.append(records[2])
    assert (tmp_path / "a.cache").read_bytes() == (tmp_path / "b.cache").read_bytes()


def test_scan_cache_header_mismatch(tmp_path, capsys, tables):
    path = str(tmp_path / "scan.cache")
    ScanCache(path, params={"epsilon": "1/100"}).append(scan_field(5, Fraction(1, 100), *tables))
    other = ScanCache(path, params={"epsilon": "1/20"})
    with pytest.raises(CacheError) as err:
        other.load()
    assert err.value.key == "header"
    assert err.value.path == path

    # the headers older `scan --cache` runs wrote, whose records must not be
    # reused: schema 1 took zeta2 from a partial sum of L(2), and schema 2
    # divided L(1, chi_D) back out of the elliptic bounds (other last bits)
    for version, old_params in ((1, {"epsilon": "1/100", "n": 2, "zeta_tol": 1e-6}),
                                (2, CLI_PARAMS)):
        old = tmp_path / ("v%d.cache" % version)
        old.write_text(json.dumps({
            "cache_version": 1, "format": "hilbert-ggl-scan-cache",
            "schema_version": version, "params": old_params,
        }, sort_keys=True) + "\n", encoding="utf-8")
        with pytest.raises(CacheError) as err:
            ScanCache(str(old), CLI_PARAMS).load()
        assert err.value.key == "header"
        assert main(["scan", "--dmax", "20", "--cache", str(old)]) == 1
        assert "error: cache header" in capsys.readouterr().err


def test_field_record_from_dict_checks_types(tables):
    good = scan_field(46373, Fraction(1, 100), *tables).to_dict()  # exact path: Satisfied
    # a JSON int is a valid float value
    assert FieldRecord.from_dict({**good, "margin": -2}).margin == -2.0
    assert FieldRecord.from_dict({**good, "h": None, "R": None}).h is None
    for key, value in [("margin", True), ("margin", "1.5"), ("zeta2", None),
                       ("h", True), ("h", 1.0), ("R", "0.5"), ("D", 13.0),
                       ("exact", 1), ("exact", "false"), ("flags", "ab"),
                       ("flags", [1]), ("flags", None), ("verdict", "Maybe"),
                       ("verdict", "satisfied"), ("verdict", None)]:
        with pytest.raises(ValueError, match="invalid %s" % key):
            FieldRecord.from_dict({**good, key: value})


def _decoded(rec):
    """What from_dict and the key-by-key oracle make of rec: the record's
    values with their types, or the exception each raises."""
    out = []
    for decode in (FieldRecord.from_dict, lambda r: record_from_dict(FieldRecord, r)):
        try:
            record = decode(rec)
        except (KeyError, ValueError) as exc:
            out.append((type(exc), str(exc)))
        else:
            out.append((record, hash(record), [(k, type(v)) for k, v in vars(record).items()]))
    return out


# one wrong value of each JSON kind, and a JSON int where a key holds a float
WRONG_VALUES = (True, False, "1.5", None, [1], ["flag"], 1.0, -2, {})


@pytest.mark.parametrize("D", [5, 46373])  # fast path, and exact path (Satisfied)
def test_field_record_from_dict_matches_key_by_key_oracle(D, tables):
    good = scan_field(D, Fraction(1, 100), *tables)
    rec = good.to_dict()
    assert list(rec) == [f.name for f in dataclasses.fields(FieldRecord)]
    new, old = _decoded(rec)
    assert new == old and new[0] == good and new[1] == hash(good)
    for key in rec:
        for value in WRONG_VALUES:
            new, old = _decoded({**rec, key: value})
            assert new == old, (key, value)
        dropped = {k: v for k, v in rec.items() if k != key}
        new, old = _decoded(dropped)
        assert new == old == (KeyError, repr(key)), key


def test_csv_rows_matches_cell_by_cell_oracle(tables):
    # exact-path (Satisfied) records fill h and R; R = 8.251403133 at D = 50837
    # takes all 10 digits
    exact = [scan_field(D, Fraction(1, 100), *tables) for D in (46373, 50837)]
    assert all(r.h is not None and r.R is not None for r in exact)
    records = list(scan(3000).records) + exact
    exact = exact[-1]
    # either empty cell alone, which no scan writes but a mapping may hold
    records += [dataclasses.replace(exact, h=None), dataclasses.replace(exact, R=None)]
    dicts = [r.to_dict() for r in records]
    expected = scan_csv(dicts)
    assert csv_rows(dicts) == expected
    # the scan command passes each record's attribute dict
    assert csv_rows(map(vars, records)) == expected


def test_scan_cache_corruption(tmp_path, tables):
    path = str(tmp_path / "scan.cache")
    cache = ScanCache(path, params={"epsilon": "1/100"})
    cache.append(scan_field(5, Fraction(1, 100), *tables))

    with open(path, "a", encoding="utf-8") as fh:
        fh.write("this is not json\n")
    with pytest.raises(CacheError) as err:
        cache.load()
    assert err.value.key == "line 3"

    lines = open(path, encoding="utf-8").read().splitlines()[:2]
    tampered = lines[1].replace("CandidateExceptional", "Satisfied")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(lines[0] + "\n" + tampered + "\n")
    with pytest.raises(CacheError) as err:
        cache.load()
    assert err.value.key == "D=5"

    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n")
    with pytest.raises(CacheError) as err:
        cache.load()
    assert err.value.key == "header"


CLI_PARAMS = {"n": 2, "epsilon": "1/100"}


def _scan_cache_lines(tmp_path, dmax):
    path = str(tmp_path / "scan.cache")
    assert main(["scan", "--dmax", str(dmax), "--cache", path, "--out",
                 str(tmp_path / "scan.csv")]) == 0
    with open(path, encoding="utf-8") as fh:
        return path, fh.read().splitlines()


def _write_lines(path, lines):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(line + "\n" for line in lines))


def _entry(d, record):
    canon = canonical_record_json(record)
    return json.dumps({"D": d, "crc": zlib.crc32(canon.encode("ascii")), "record": record},
                      sort_keys=True, separators=(",", ":"))


def _load_error_key(path):
    with pytest.raises(CacheError) as err:
        ScanCache(path, CLI_PARAMS).load()
    return err.value.key


def test_scan_cache_load_reads_the_stored_record_text(tmp_path, monkeypatch, tables):
    # the CRC is checked against the record text as written, so loading
    # serializes nothing
    path, _lines = _scan_cache_lines(tmp_path, 20)

    def no_serializing(record):
        raise AssertionError("load re-serialized a record")

    monkeypatch.setattr("hilbert_ggl.reports._record_text", no_serializing)
    loaded = ScanCache(path, CLI_PARAMS).load()
    assert loaded == {D: scan_field(D, Fraction(1, 100), *tables) for D in (5, 8, 12, 13, 17)}


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_scan_cache_rejects_non_finite_floats(tmp_path, constant):
    path, lines = _scan_cache_lines(tmp_path, 20)
    entry = json.loads(lines[1])
    text = canonical_record_json({**entry["record"], "margin": 0.5})
    text = text.replace('"margin":0.5', '"margin":%s' % constant)
    # the CRC covers the stored text, so only the constant is at fault
    lines[1] = '{"D":%d,"crc":%d,"record":%s}' % (
        entry["D"], zlib.crc32(text.encode("ascii")), text)
    _write_lines(path, lines)
    assert _load_error_key(path) == "line 2"


@pytest.mark.parametrize("number", ["1e400", "-1e400", "1" + "0" * 400])
def test_scan_cache_rejects_overflowing_floats(tmp_path, capsys, number):
    # JSON reads 1e400 as inf and a 401-digit int does not fit a float: a
    # CRC-valid line holding either is corrupt, and the scan exits 1
    path, lines = _scan_cache_lines(tmp_path, 20)
    capsys.readouterr()
    entry = json.loads(lines[1])
    text = canonical_record_json({**entry["record"], "margin": 0.5})
    text = text.replace('"margin":0.5', '"margin":%s' % number)
    lines[1] = '{"D":%d,"crc":%d,"record":%s}' % (
        entry["D"], zlib.crc32(text.encode("ascii")), text)
    _write_lines(path, lines)
    assert _load_error_key(path) == "line 2"
    assert main(["scan", "--dmax", "20", "--cache", path, "--format", "json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cache line 2 ")


def _respaced(line):
    # default json.dumps spacing, record included, around the canonical CRC
    return json.dumps(json.loads(line))


def _extra_key(line):
    return line[:-1] + ',"note":1}'


@pytest.mark.parametrize("rewrite", [_respaced, _extra_key])
def test_scan_cache_rejects_line_outside_writer_layout(tmp_path, rewrite):
    path, lines = _scan_cache_lines(tmp_path, 20)
    original = json.loads(lines[2])
    lines[2] = rewrite(lines[2])
    # the data and its CRC are intact; only the layout is not the writer's
    assert {k: json.loads(lines[2])[k] for k in original} == original
    _write_lines(path, lines)
    assert _load_error_key(path) == "line 3"


def test_scan_cache_rejects_blank_line(tmp_path):
    # the writer never writes a blank line, so load does not skip one
    path, lines = _scan_cache_lines(tmp_path, 20)
    _write_lines(path, lines[:3] + [""] + lines[3:])
    assert _load_error_key(path) == "line 4"


def test_scan_cache_one_digit_float_change_fails_checksum(tmp_path):
    path, lines = _scan_cache_lines(tmp_path, 20)
    entry = json.loads(lines[4])
    stored = '"hr":%r' % entry["record"]["hr"]
    changed = stored[:-1] + ("1" if stored.endswith("0") else "0")
    assert lines[4].count(stored) == 1
    lines[4] = lines[4].replace(stored, changed)
    _write_lines(path, lines)
    assert _load_error_key(path) == "D=%d" % entry["D"]


def test_scan_cache_mis_keyed_line(tmp_path, capsys):
    path, lines = _scan_cache_lines(tmp_path, 20)
    capsys.readouterr()
    ds = [json.loads(line)["D"] for line in lines[1:]]
    assert ds == [5, 8, 12, 13, 17]
    # drop D=13 and file the intact D=8 record under the key 13
    rekeyed = lines[2].replace('{"D":8,', '{"D":13,', 1)
    lines = [lines[0], lines[1], rekeyed, lines[3], lines[5]]
    _write_lines(path, lines)
    with pytest.raises(CacheError) as err:
        ScanCache(path, CLI_PARAMS).load()
    assert err.value.key == "line 3"
    assert main(["scan", "--dmax", "20", "--cache", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: cache line 3" in captured.err


def test_scan_cache_non_ascii_byte(tmp_path, capsys):
    # a stray 0xff is a corrupt line, found in the line that holds it, or the
    # tear of a last line without its newline
    path, _lines = _scan_cache_lines(tmp_path, 60)
    capsys.readouterr()
    with open(path, "rb") as fh:
        good = fh.read()
    lines = good.split(b"\n")

    def load_with(body):
        with open(path, "wb") as fh:
            fh.write(body)
        return ScanCache(path, CLI_PARAMS).load()

    for k, key in ((0, "header"), (2, "line 3")):
        mid = len(lines[k]) // 2
        damaged = lines[:k] + [lines[k][:mid] + b"\xff" + lines[k][mid + 1:]] + lines[k + 1:]
        with pytest.raises(CacheError) as err:
            load_with(b"\n".join(damaged))
        assert err.value.key == key

    torn = good[:-30] + b"\xff"
    assert len(load_with(torn)) == len(lines) - 3
    assert main(["scan", "--dmax", "60", "--cache", path]) == 0
    capsys.readouterr()
    with open(path, "rb") as fh:
        assert fh.read() == good


_DROP = object()


@pytest.mark.parametrize("key, value", [
    pytest.param("exact", _DROP, id="drop_exact"),
    pytest.param("margin", "abc", id="bad_margin"),
    # the next three loaded silently while decoding coerced each value
    pytest.param("exact", "false", id="exact_string"),
    pytest.param("verdict", "Maybe", id="unknown_verdict"),
    pytest.param("flags", "ab", id="flags_string"),
])
def test_scan_cache_undecodable_record(tmp_path, capsys, key, value):
    path, lines = _scan_cache_lines(tmp_path, 20)
    capsys.readouterr()
    entry = json.loads(lines[2])
    record = entry["record"]
    if value is _DROP:
        del record[key]
    else:
        record[key] = value
    lines[2] = _entry(entry["D"], record)  # checksum still valid
    _write_lines(path, lines)
    with pytest.raises(CacheError) as err:
        ScanCache(path, CLI_PARAMS).load()
    assert err.value.key == "line 3"
    assert main(["scan", "--dmax", "20", "--cache", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cache line 3 ")


def _field_pipeline(D=5, eps=Fraction(1, 100)):
    inv = invariants(D)
    ell = elliptic_summary(D)
    rep = verdict(inv, eps)
    cyc = cusp_cycle(D)
    tan = verify_cusp_tangency(cyc)
    return inv, rep, ell, cyc, tan


def test_build_field_document_and_text():
    inv, rep, ell, cyc, tan = _field_pipeline()
    params = {"D": 5, "n": 2, "epsilon": "1/100"}
    doc = build_field_document(params, inv, rep, ell, cyc, tan,
                               timings={"total": 0.25})
    assert doc["schema_version"] == 3
    assert doc["command"] == "field"
    rec = doc["records"][0]
    assert rec["D"] == 5
    assert rec["invariants"]["h"] == 1
    assert rec["criterion"]["verdict"] == "CandidateExceptional"
    assert list(rec["criterion"]) == ["n", "epsilon", "nu_max", "nu_required", "margin",
                                      "rr_coefficient_at_required", "flags", "verdict"]
    assert len(rec["elliptic"]["classes"]) == 4
    assert rec["cusp"]["digits"] == [3]
    assert rec["cusp"]["tangency"]["ok"]
    # the whole document serializes and parses back
    parsed = json.loads(json_dumps(doc))
    assert parsed["records"][0]["invariants"]["hr"] == inv.hr

    text = render_field_text(doc)
    assert text.startswith("field D=5\n")
    assert "  h=1  h_plus=1\n" in text
    assert "  fundamental unit: t=1 u=1 norm=-1\n" in text
    assert "  nu_max=0.1760065078\n" in text
    assert "  tangency: ok (1 charts, unimodular=True)\n" in text
    assert "timing total=0.250s\n" in text
    assert text.endswith("verdict: CandidateExceptional\n")


def test_build_scan_document():
    result = scan(100, epsilon="0.05")
    params = {"dmax": 100, "n": 2, "epsilon": "1/20"}
    doc = build_scan_document(result, params, timings={"total": 0.1})
    assert doc["command"] == "scan"
    assert doc["summary"]["fields"] == len(result.records)
    assert doc["summary"]["satisfied"] == []
    assert doc["summary"]["largest_failing_D"] == 97
    assert [b["lo"] for b in doc["summary"]["dyadic"]] == [4, 8, 16, 32, 64]
    parsed = json.loads(json_dumps(doc))
    assert parsed["records"][0]["D"] == 5
