"""Report documents, CSV rendering, and the single-file scan cache.

Documents are plain dicts serialized as JSON; floats keep full repr precision
so a written report parses back to identical values.  Human-facing numbers
carry 10 significant digits (fmt10, and the CSV row templates).  The scan
cache is a line-oriented file: one JSON header carrying the parameters that
key the cache, then one JSON line per field record protected by a CRC32 of
its canonical form, the sorted, compact JSON text that the writer fills in
from one %-template per record, generated from FieldRecord's fields
(_record_text; the tests hold the stdlib encoder's text as its oracle).
"""

from __future__ import annotations

import json
import math
import operator
import os
import re
import zlib
from dataclasses import dataclass, fields
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .errors import CacheError

# 3: the elliptic bounds take h'R'/hR from the two CM L-values alone
SCHEMA_VERSION = 3
CACHE_FORMAT = "hilbert-ggl-scan-cache"
CSV_COLUMNS = (
    "D",
    "h",
    "R",
    "hR",
    "zeta2",
    "nu_max",
    "nu_required",
    "margin",
    "elliptic_total_bound",
    "verdict",
)


@dataclass(frozen=True)
class FieldRecord:
    """One scanned field; h and R are filled only on the exact path."""

    D: int
    h: int | None
    R: float | None
    hr: float
    zeta2: float
    zeta2_cert: float
    l1: float
    l1_cert: float
    nu_max: float
    nu_required: float
    margin: float
    elliptic_total_bound: float
    elliptic_exponent: float
    verdict: str
    flags: tuple[str, ...]
    exact: bool

    def to_dict(self) -> dict:
        """JSON-native dict in field order (flags as a list)."""
        rec = {name: getattr(self, name) for name in _RECORD_KEYS}
        rec["flags"] = list(self.flags)
        return rec

    @classmethod
    def from_dict(cls, rec: dict) -> "FieldRecord":
        """Inverse of to_dict; a missing key raises KeyError, a wrong JSON
        type, an unknown verdict or a non-string flag ValueError."""
        # the values go straight into the instance dict: FieldRecord has no
        # __post_init__ to miss, and the generated __init__ would pay one
        # frozen setattr per field
        record = object.__new__(cls)
        values = record.__dict__
        for name, decode in _DECODERS:
            value = rec[name]
            decoded = decode(value)
            if decoded is _INVALID:
                raise ValueError("invalid %s: %r" % (name, value))
            values[name] = decoded
        return record


_RECORD_KEYS = tuple(f.name for f in fields(FieldRecord))
# what a decoder returns for a value its key does not accept (None is valid for h and R)
_INVALID = object()


# Decoders from a JSON value to a FieldRecord value, or _INVALID.  Types are
# tested exactly, so that JSON true and false pass for no number.
def _as_float(value):
    kind = type(value)
    if kind is float:
        # JSON reads 1e400 as inf; x - x is 0.0 for every finite x and NaN otherwise
        return value if value - value == 0.0 else _INVALID
    if kind is not int:
        return _INVALID
    # a float key may be written by JSON as an int, even one past the float range
    try:
        return float(value)
    except OverflowError:
        return _INVALID


def _as_float_or_none(value):
    return None if value is None else _as_float(value)


def _as_int(value):
    return value if type(value) is int else _INVALID


def _as_int_or_none(value):
    return value if value is None or type(value) is int else _INVALID


def _as_verdict(value):
    return value if type(value) is str and value in _VERDICTS else _INVALID


def _as_flags(value):
    if type(value) is list and all(type(flag) is str for flag in value):
        return tuple(value)
    return _INVALID


def _as_bool(value):
    return value if type(value) is bool else _INVALID


_VERDICTS = frozenset(("Satisfied", "CandidateExceptional"))
_SPECIAL_DECODERS = {"D": _as_int, "h": _as_int_or_none, "R": _as_float_or_none,
                     "verdict": _as_verdict, "flags": _as_flags, "exact": _as_bool}
# one (key, decoder) pair per field, in field order; every key not listed holds a float
_DECODERS = tuple((name, _SPECIAL_DECODERS.get(name, _as_float)) for name in _RECORD_KEYS)


def fmt10(x) -> str:
    """10-significant-digit rendering for human output."""
    if x is None:
        return ""
    if isinstance(x, float):
        return "%.10g" % x
    return str(x)


def _fraction_str(x):
    if isinstance(x, Fraction):
        return str(x)
    raise TypeError("Object of type %s is not JSON serializable" % type(x).__name__)


def json_dumps(doc, indent: int | None = 2) -> str:
    """JSON with full-precision floats and Fractions rendered as 'p/q'."""
    return json.dumps(doc, indent=indent, allow_nan=False, default=_fraction_str)


def csv_rows(records) -> str:
    """Fixed-column CSV for scan records (mappings keyed like FieldRecord,
    such as to_dict() or vars() of a record).

    h and R are empty on fast-path records; floats keep 10 significant
    digits.
    """
    lines = [",".join(CSV_COLUMNS)]
    for rec in records:
        cells = _CSV_CELLS(rec)
        lines.append(_CSV_ROW[cells[1] is None, cells[2] is None] % cells)
    return "\n".join(lines) + "\n"


# the record key behind each CSV column, in column order
_CSV_CELLS = operator.itemgetter(*("hr" if col == "hR" else col for col in CSV_COLUMNS))
# one row template for each (h is None, R is None); "%.0s" renders None as
# an empty cell, and every float column takes 10 significant digits
_CSV_ROW = {
    (h_none, r_none): ",".join(
        ("%d", "%.0s" if h_none else "%d", "%.0s" if r_none else "%.10g")
        + ("%.10g",) * 6 + ("%s",)
    )
    for h_none in (False, True)
    for r_none in (False, True)
}


def _string_list(values) -> str:
    return "[" + ",".join(map(encode_basestring_ascii, values)) + "]"


# The record text the cache writes and checksums: the sorted, compact JSON
# of the record, as json.dumps(to_dict(), sort_keys=True, separators=(",",
# ":"), allow_nan=False) writes it, from one %-template per (h is None,
# R is None) generated from FieldRecord's fields.  D and h take %d, the
# string keys their JSON text, and R and the float keys %r, float.__repr__
# as the encoder writes a float; "null%.0s" writes null and swallows None.
_STRING_KEYS = ("exact", "flags", "verdict")
_TEXT_KEYS = sorted(_RECORD_KEYS)
_FLOAT_KEYS = tuple(name for name in _TEXT_KEYS if name not in ("D", "h", "R") + _STRING_KEYS)
_FLOAT_VALUES = operator.itemgetter(*_FLOAT_KEYS)
_TEXT_VALUES = operator.itemgetter(*_TEXT_KEYS)


def _text_slot(name: str, h_none: bool, r_none: bool) -> str:
    if name in _STRING_KEYS:
        return "%s"
    if (name == "h" and h_none) or (name == "R" and r_none):
        return "null%.0s"
    return "%d" if name in ("D", "h") else "%r"


_RECORD_TEMPLATES = {
    (h_none, r_none): "{%s}" % ",".join(
        encode_basestring_ascii(name) + ":" + _text_slot(name, h_none, r_none)
        for name in _TEXT_KEYS)
    for h_none in (False, True)
    for r_none in (False, True)
}
_JSON_BOOL = {True: "true", False: "false"}
_EXACT_FLOAT = frozenset((float,))
# the JSON texts of the flags tuples and of the verdicts met so far, each
# memo at most _TEXT_MEMO_SIZE entries: a scan writes one flags tuple and
# two verdicts
_FLAGS_TEXT: dict = {}
_VERDICT_TEXT: dict = {}
_TEXT_MEMO_SIZE = 64


def _memo_text(memo: dict, value, encode) -> str:
    """encode(value), kept in memo while it has room; an unhashable value
    (flags held as a list) is encoded without the memo."""
    text = encode(value)
    try:
        if len(memo) < _TEXT_MEMO_SIZE:
            memo[value] = text
    except TypeError:
        pass
    return text


def _record_text(record: FieldRecord) -> str:
    """The canonical JSON text of a record; a NaN or infinite value raises
    ValueError, as the encoder with allow_nan=False does."""
    values = record.__dict__
    R = values["R"]
    floats = _FLOAT_VALUES(values) + (() if R is None else (R,))
    if not _EXACT_FLOAT.issuperset(map(type, floats)):
        # %r writes a float subclass by its own repr, numpy's float64 as
        # np.float64(...): write the plain float each one holds, as
        # float.__repr__ does (float.__float__ refuses a non-float)
        floats = tuple(map(float.__float__, floats))
        values = dict(values)
        values.update(zip(_FLOAT_KEYS + ("R",), floats))
    # a sum of finite floats is finite unless it overflows
    if not math.isfinite(sum(floats)) and not all(map(math.isfinite, floats)):
        raise ValueError("Out of range float values are not JSON compliant: D=%r" % values["D"])
    (D, R, ell_exp, ell_total, exact, flags, h, hr, l1, l1_cert, margin, nu_max, nu_required,
     verdict, zeta2, zeta2_cert) = _TEXT_VALUES(values)
    try:
        flags_text = _FLAGS_TEXT[flags]
    except (KeyError, TypeError):
        flags_text = _memo_text(_FLAGS_TEXT, flags, _string_list)
    try:
        verdict_text = _VERDICT_TEXT[verdict]
    except (KeyError, TypeError):
        verdict_text = _memo_text(_VERDICT_TEXT, verdict, encode_basestring_ascii)
    return _RECORD_TEMPLATES[h is None, R is None] % (
        D, R, ell_exp, ell_total, _JSON_BOOL[exact], flags_text, h, hr, l1, l1_cert,
        margin, nu_max, nu_required, verdict_text, zeta2, zeta2_cert)


def _reject_constant(name: str):
    raise ValueError("%s is not a valid cache value" % name)


# one decoder for every cache line; it refuses NaN and Infinity, which the
# writer (allow_nan=False) never emits
_CACHE_DECODER = json.JSONDecoder(parse_constant=_reject_constant)
# what _entry_line writes before the record text, which runs to the closing brace
_ENTRY_PREFIX = re.compile(r'\{"D":(0|[1-9][0-9]*),"crc":(0|[1-9][0-9]*),"record":')


class ScanCache:
    """Append-only scan cache in one file, keyed by scan parameters.

    Layout: first line a JSON header {format, cache_version, schema_version,
    params}; every further line exactly {"D":<D>,"crc":<crc>,"record":<text>}
    where text is the record's canonical JSON and crc the CRC32 of that text
    as stored.  A parameter mismatch, a checksum mismatch, a line in any other
    layout or a record holding NaN or Infinity raises CacheError naming the
    file and offending key, except a last line without its newline (a torn
    append): load stops before it, and the next append cuts it off.
    """

    CACHE_VERSION = 1

    def __init__(self, path: str, params: dict):
        self.path = path
        # JSON-native, as load reads the header back
        self.params = json.loads(json_dumps(params, indent=None))
        self._resume_at: int | None = None  # where a torn last line starts

    def _header(self) -> dict:
        return {
            "format": CACHE_FORMAT,
            "cache_version": self.CACHE_VERSION,
            "schema_version": SCHEMA_VERSION,
            "params": self.params,
        }

    def load(self) -> dict[int, FieldRecord]:
        """Records already present, or {} when the file does not exist yet."""
        self._resume_at = None
        if not os.path.exists(self.path):
            return {}
        out: dict[int, FieldRecord] = {}
        # bytes, decoded line by line: a text layer decodes whole chunks, so a
        # stray non-ASCII byte would fail outside the line that holds it
        with open(self.path, "rb") as fh:
            header_line = fh.readline()
            if not header_line.strip():
                raise CacheError("cache file is empty", path=self.path, key="header")
            try:
                header = json.loads(header_line.decode("ascii"))
            except ValueError as exc:
                raise CacheError(
                    "cache header is not valid JSON: %s" % exc, path=self.path, key="header"
                ) from exc
            if header != self._header():
                raise CacheError(
                    "cache header %r does not match requested parameters %r"
                    % (header, self._header()),
                    path=self.path,
                    key="header",
                )
            for lineno, raw in enumerate(fh, start=2):
                try:
                    line = raw.decode("ascii")
                    prefix = _ENTRY_PREFIX.match(line)
                    if prefix is None:
                        raise ValueError("not a cache entry line")
                    start = prefix.end()
                    record, end = _CACHE_DECODER.raw_decode(line, start)
                    if line[end:] != "}\n":
                        raise ValueError("unexpected text after the record: %r" % line[end:])
                    d, crc = int(prefix[1]), int(prefix[2])
                    # ASCII: the character offsets are byte offsets
                    actual = zlib.crc32(raw[start:end])
                    if actual != crc:
                        raise CacheError(
                            "checksum mismatch for D=%s (stored %s, computed %s)"
                            % (d, crc, actual),
                            path=self.path,
                            key="D=%s" % d,
                        )
                    rec = FieldRecord.from_dict(record)
                except (KeyError, TypeError, ValueError) as exc:
                    if not raw.endswith(b"\n"):
                        # only the last line can lack its newline: a torn
                        # write, whose record the scan computes again
                        self._resume_at = os.fstat(fh.fileno()).st_size - len(raw)
                        break
                    raise CacheError(
                        "cache line %d is corrupt: %s: %s" % (lineno, type(exc).__name__, exc),
                        path=self.path,
                        key="line %d" % lineno,
                    ) from exc
                # the checksum covers only the record, so the key is checked here
                if rec.D != d:
                    raise CacheError(
                        "cache line %d is keyed D=%s but holds D=%d" % (lineno, d, rec.D),
                        path=self.path,
                        key="line %d" % lineno,
                    )
                out[rec.D] = rec
        return out

    def append(self, *records: FieldRecord) -> None:
        """Append records in the given order, writing the header first if the
        file is new and cutting off a torn last line that load found.  The
        lines are built before the file is touched, so a record that cannot
        be written (ValueError for a NaN) leaves the file as it was."""
        # bytes, as load reads them: every line is ASCII and ends in "\n" alone
        lines = "".join(map(_entry_line, records)).encode("ascii")
        new = not os.path.exists(self.path)
        if self._resume_at is not None:
            os.truncate(self.path, self._resume_at)
            self._resume_at = None
        with open(self.path, "ab") as fh:
            if new:
                fh.write((json.dumps(self._header(), sort_keys=True) + "\n").encode("ascii"))
            fh.write(lines)


def _entry_line(record: FieldRecord) -> str:
    """The sorted, compact dump of {"D", "crc", "record"}, spliced around the
    record text, so the record is serialized once."""
    text = _record_text(record)
    return '{"D":%d,"crc":%d,"record":%s}\n' % (record.D, zlib.crc32(text.encode("ascii")), text)


def build_field_document(params: dict, inv, rep, ell, cyc, tan, timings=None) -> dict:
    """Single-field report document (full invariant, criterion, elliptic,
    cusp and tangency data); everything JSON-serializable."""
    classes = []
    for b in ell.bounds:
        cm = None
        if b.cm is not None:
            cm = {
                "subfield_discs": list(b.cm.subfield_discs),
                "d_Kprime": b.cm.d_Kprime,
                "w_prime": b.cm.w_prime,
                "hR_ratio": b.cm.hR_ratio,
                "N_rel_disc": b.cm.N_rel_disc,
                "N_U0_sq": b.cm.N_U0_sq,
            }
        classes.append(
            {
                "s": str(b.trace),
                "p": b.trace.p,
                "q": b.trace.q,
                "rationality": b.trace.rationality,
                "bound": b.value,
                "exact": b.exact,
                "unresolved_unit_ratio": b.unresolved_unit_ratio,
                "cm": cm,
            }
        )
    # every chart of the cycle shares one check (verify_cusp_tangency)
    c = tan.charts[0]
    chart = {"det": str(c.det), "sqrt_coeff": c.sqrt_coeff,
             "multiplicities": list(c.multiplicities), "coord_det": c.coord_det,
             "degenerate": c.degenerate}
    record = {
        "D": inv.D,
        "invariants": {
            "h": inv.h,
            "h_plus": inv.h_plus,
            "t": inv.t,
            "u": inv.u,
            "unit_norm": inv.unit_norm,
            "regulator": inv.regulator,
            "hr": inv.hr,
            "l1": inv.l1_value,
            "l1_cert": inv.l1_cert,
            "zeta2": inv.zeta2,
            "zeta2_cert": inv.zeta2_cert,
            "acnf_residual": inv.acnf_residual,
        },
        "criterion": {
            "n": rep.n,
            "epsilon": rep.epsilon,
            "nu_max": rep.nu_max,
            "nu_required": rep.nu_required,
            "margin": rep.margin,
            "rr_coefficient_at_required": rep.rr_coefficient_at_required,
            "flags": list(rep.flags),
            "verdict": rep.verdict,
        },
        "elliptic": {
            "classes": classes,
            "total_bound": ell.total_bound,
            "exponent_record": ell.exponent_record,
        },
        "cusp": {
            "digits": list(cyc.digits),
            "period": cyc.period,
            "v_power": cyc.v_power,
            "eta": str(cyc.eta),
            "rays": [str(r) for r in cyc.rays],
            "module": [str(g) for g in cyc.module],
            "unimodular": cyc.unimodular,
            "tangency": {
                "ok": tan.ok,
                "unimodular": tan.unimodular,
                "charts": [{"index": k, **chart} for k in range(len(tan.charts))],
            },
        },
    }
    return {
        "schema_version": SCHEMA_VERSION,
        "command": "field",
        "params": params,
        "records": [record],
        "tolerances": {"l1_cert": inv.l1_cert, "zeta2_cert": inv.zeta2_cert},
        "timings": timings,
    }


def _digits_str(digits) -> str:
    return "(" + ", ".join(str(b) for b in digits) + ")"


def render_field_text(doc: dict) -> str:
    """Human layout of a field document; floats at 10 significant digits."""
    rec = doc["records"][0]
    inv = rec["invariants"]
    cri = rec["criterion"]
    ell = rec["elliptic"]
    cusp = rec["cusp"]
    tan = cusp["tangency"]
    lines = []
    lines.append("field D=%d" % rec["D"])
    lines.append("invariants:")
    lines.append("  h=%d  h_plus=%d" % (inv["h"], inv["h_plus"]))
    lines.append(
        "  fundamental unit: t=%d u=%d norm=%+d" % (inv["t"], inv["u"], inv["unit_norm"])
    )
    lines.append("  regulator R=%s" % fmt10(inv["regulator"]))
    lines.append("  hR=%s" % fmt10(inv["hr"]))
    lines.append("  L(1,chi_D)=%s (cert %s)" % (fmt10(inv["l1"]), "%.3e" % inv["l1_cert"]))
    lines.append(
        "  zeta_K(2)=%s (cert %s)" % (fmt10(inv["zeta2"]), "%.3e" % inv["zeta2_cert"])
    )
    lines.append("  class number formula residual=%s" % ("%.3e" % inv["acnf_residual"]))
    lines.append("criterion: n=%d epsilon=%s" % (cri["n"], cri["epsilon"]))
    lines.append("  nu_max=%s" % fmt10(cri["nu_max"]))
    lines.append("  nu_required=%s" % fmt10(cri["nu_required"]))
    lines.append("  margin=%s" % fmt10(cri["margin"]))
    lines.append(
        "  rr coefficient at nu_required=%s" % fmt10(cri["rr_coefficient_at_required"])
    )
    if cri["flags"]:
        lines.append("  flags: %s" % ", ".join(cri["flags"]))
    lines.append("elliptic classes:")
    for c in ell["classes"]:
        note = "exact" if c["exact"] else (
            "unit ratio unresolved" if c["unresolved_unit_ratio"] else "upper bound"
        )
        lines.append("  s=%s (%s): bound=%s (%s)" % (c["s"], c["rationality"], fmt10(c["bound"]), note))
    lines.append(
        "  total=%s  exponent record=%s"
        % (fmt10(ell["total_bound"]), fmt10(ell["exponent_record"]))
    )
    lines.append(
        "cusp cycle: digits %s period=%d v_power=%d"
        % (_digits_str(cusp["digits"]), cusp["period"], cusp["v_power"])
    )
    lines.append("  eta=%s" % cusp["eta"])
    lines.append("  rays: %s" % "; ".join(cusp["rays"]))
    lines.append("  module: (%s, %s)" % (cusp["module"][0], cusp["module"][1]))
    lines.append(
        "  tangency: %s (%d charts, unimodular=%s)"
        % ("ok" if tan["ok"] else "FAILED", len(tan["charts"]), tan["unimodular"])
    )
    if doc.get("timings"):
        for name, secs in doc["timings"].items():
            lines.append("timing %s=%.3fs" % (name, secs))
    lines.append("verdict: %s" % cri["verdict"])
    return "\n".join(lines) + "\n"


def build_scan_document(result, params: dict, timings=None) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": "scan",
        "params": params,
        "records": [r.to_dict() for r in result.records],
        "summary": {
            "fields": len(result.records),
            "satisfied": list(result.satisfied),
            "n_exceptional": result.n_exceptional,
            "largest_failing_D": result.largest_failing_D,
            "dyadic": [
                {
                    "lo": b.lo,
                    "hi": b.hi,
                    "n_fields": b.n_fields,
                    "n_failing": b.n_failing,
                }
                for b in result.dyadic
            ],
        },
        "timings": timings,
    }
