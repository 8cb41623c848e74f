"""Report documents, CSV rendering, and the single-file scan cache.

Documents are plain dicts serialized as JSON; floats keep full repr precision
so a written report parses back to identical values.  Human-facing numbers
carry 10 significant digits (fmt10, and the CSV row template).  The scan
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

from .criteria import ASSUMPTION_FLAGS
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
        h, R = rec["h"], rec["R"]
        lines.append(_CSV_ROW % ((rec["D"], "" if h is None else "%d" % h,
                                  "" if R is None else "%.10g" % R) + _CSV_CELLS(rec)))
    return "\n".join(lines) + "\n"


# the record keys behind the columns after D, h and R, in column order
_CSV_CELLS = operator.itemgetter(*("hr" if col == "hR" else col for col in CSV_COLUMNS[3:]))
# the row template: h and R come rendered (empty for None), every other
# float column takes 10 significant digits
_CSV_ROW = ",".join({"D": "%d", "h": "%s", "R": "%s", "verdict": "%s"}.get(col, "%.10g")
                    for col in CSV_COLUMNS)


def _string_list(values) -> str:
    return "[" + ",".join(map(encode_basestring_ascii, values)) + "]"


# The record text the cache writes and checksums: the sorted, compact JSON
# of the record, as json.dumps(to_dict(), sort_keys=True, separators=(",",
# ":"), allow_nan=False) writes it, from one %-template generated from
# FieldRecord's fields.  D takes %d and the float keys %r, float.__repr__ as
# the encoder writes a float; h, R and the string keys come rendered as
# their JSON text.
_TEXT_KEYS = sorted(_RECORD_KEYS)
_TEXT_SLOTS = {"D": "%d", "h": "%s", "R": "%s", "exact": "%s", "flags": "%s", "verdict": "%s"}
_RECORD_TEMPLATE = "{%s}" % ",".join(
    encode_basestring_ascii(name) + ":" + _TEXT_SLOTS.get(name, "%r") for name in _TEXT_KEYS)
_FLOAT_KEYS = tuple(name for name in _TEXT_KEYS if name not in _TEXT_SLOTS)
_FLOAT_VALUES = operator.itemgetter(*_FLOAT_KEYS)
_TEXT_VALUES = operator.itemgetter(*_TEXT_KEYS)
_JSON_BOOL = {True: "true", False: "false"}
_EXACT_FLOAT = frozenset((float,))
# the JSON texts of the two verdicts from_dict accepts, and of the flags
# every scan record holds; other flags are encoded per record
_VERDICT_TEXT = {verdict: encode_basestring_ascii(verdict) for verdict in _VERDICTS}
_ASSUMPTION_FLAGS_TEXT = _string_list(ASSUMPTION_FLAGS)


def _record_text(record: FieldRecord) -> str:
    """The canonical JSON text of a record.  What the encoder with
    allow_nan=False refuses, a NaN or infinite value, raises ValueError, and
    so does what from_dict would refuse to read back: a D that is not an
    int, an h that is neither None nor an int, an exact that is not a bool,
    a verdict other than Satisfied and CandidateExceptional, or a flag that
    is not a string."""
    values = record.__dict__
    # the reader's own decoders: %d would write a float D or h truncated,
    # and the bool table takes 1 for True
    D = values["D"]
    if _as_int(D) is _INVALID:
        raise ValueError("invalid D: %r" % (D,))
    if _as_int_or_none(values["h"]) is _INVALID:
        raise ValueError("invalid h for D=%d: %r" % (D, values["h"]))
    if _as_bool(values["exact"]) is _INVALID:
        raise ValueError("invalid exact for D=%d: %r" % (D, values["exact"]))
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
        verdict_text = _VERDICT_TEXT[verdict]
    except (KeyError, TypeError):
        raise ValueError("invalid verdict for D=%r: %r" % (D, verdict)) from None
    if flags == ASSUMPTION_FLAGS:
        flags_text = _ASSUMPTION_FLAGS_TEXT
    else:
        try:
            flags_text = _string_list(flags)
        except TypeError:
            raise ValueError("invalid flags for D=%r: %r" % (D, flags)) from None
    return _RECORD_TEMPLATE % (
        D, "null" if R is None else repr(R), ell_exp, ell_total, _JSON_BOOL[exact], flags_text,
        "null" if h is None else "%d" % h, hr, l1, l1_cert, margin, nu_max, nu_required,
        verdict_text, zeta2, zeta2_cert)


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
    append): load stops before it, and the next append cuts it off.  A
    header line without its newline is a torn first append if it is a
    prefix of the header the writer writes (an empty file included): load
    returns {} and the next append rewrites the file from the start.
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

    def _header_line(self) -> bytes:
        """The first line append writes to a new file."""
        return (json.dumps(self._header(), sort_keys=True) + "\n").encode("ascii")

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
            if not header_line.endswith(b"\n") and self._header_line().startswith(header_line):
                # a torn first append, which wrote no record: start again
                self._resume_at = 0
                return out
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
        file is new or load found its header torn, and cutting off a torn
        last line that load found.  The lines are built before the file is
        touched, so a record that cannot be written (ValueError for a NaN)
        leaves the file as it was."""
        # bytes, as load reads them: every line is ASCII and ends in "\n" alone
        lines = "".join(map(_entry_line, records)).encode("ascii")
        new = self._resume_at == 0 or not os.path.exists(self.path)
        if self._resume_at is not None:
            os.truncate(self.path, self._resume_at)
            self._resume_at = None
        with open(self.path, "ab") as fh:
            if new:
                fh.write(self._header_line())
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
            "rays": cyc.ray_strings(),
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
