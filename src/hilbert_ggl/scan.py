"""Bulk criterion scans over fundamental discriminants.

The per-field fast path never computes h and R separately: the class number
formula gives hR = sqrt(D) L(1, chi_D) / 2 from the finite closed form, and
zeta_K(2) comes from the exact zeta_K(-1), rounded once (lfunctions.zeta_K2).
A scan takes zeta_K(-1) from Siegel's divisor sums (C. L. Siegel, 1969),

    zeta_K(-1) = (1/60) sum sigma_1((D - b^2)/4),  b^2 < D, b = D (mod 2),

O(sqrt D) lookups in a table of sigma_1 that each worker builds once, next
to the class-number sieve its elliptic bounds read (scan_tables builds the
pair); single-field reports take B_{2,chi}/24 instead
(lfunctions.zeta_K_minus1), the cross-check of the same Fraction.
The criterion is one exact comparison of the certified L(1, chi_D) with
T_D = b^2 zeta_K(-1) / (2D).  Fields below T_D, the Satisfied ones, are
recomputed on the exact path (field_invariants.exact_hr), which runs the same
unit-norm and class number formula checks as a single-field report, and the
verdict's core then decides them by h R as well; none occur below D = 5000,
and 458 of the 30394 fields up to D = 1e5 do.

Records come from one path, _scan_run, which takes a run of fields at a
time: L(1) per field from lfunctions.closed_form_l1, one gather of Siegel's
terms per run, one array pass of the elliptic core per run
(elliptic._elliptic_bounds), and the verdict's core (criteria._decide),
which forms the verdict fields, with the thresholds taken once per run.

Scans are deterministic: per-field work is a pure function of (D, parameters).
The fields still to compute are split into contiguous ascending runs, and one
loop maps the runs in order, in-process or over a process pool (the workers
argument); each finished run reaches the caller as soon as it lands, so the
CLI's cache grows run by run and a killed scan keeps the runs it finished.
"""

from __future__ import annotations

import contextlib
import itertools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

import numpy as np

from .criteria import _cusp_thresholds, _decide, to_fraction
from .elliptic import _check_cm_range, _elliptic_bounds, make_l1_lookup
from .errors import DomainError
from .field_invariants import _check_field_discriminant, exact_hr, fundamental_discriminants_up_to
from .lfunctions import character_table, closed_form_l1, zeta_K2
from .reports import FieldRecord

# a scan computes its missing fields in contiguous ascending runs of this
# many: small enough that a pool stays balanced and a killed scan loses
# little, large enough that each run's cache append stays cheap
_RUN = 64
# the most divisors k > isqrt(limit) that _divisor_sums adds in one strided
# slice (512 KiB of int64)
_SIGMA_BLOCK = 1 << 16


def _divisor_sums(limit: int) -> np.ndarray:
    """sigma_1(n) for 0 <= n <= limit (sigma_1(0) = 0), by strided adds.

    Each divisor k <= s = isqrt(limit) adds k along its multiples; each
    k > s is added through its cofactor j = n / k < limit / s, as
    sigma[j k] += k for s < k <= limit // j, one strided slice per block of
    at most _SIGMA_BLOCK values of k.  That is about 2 sqrt(limit) strided
    adds in place of limit, and memory stays within one block beside the
    table.
    """
    sigma = np.zeros(limit + 1, dtype=np.int64)
    s = isqrt(limit)
    for k in range(1, s + 1):
        sigma[k::k] += k
    for j in range(1, limit // (s + 1) + 1):
        k_end = limit // j + 1
        for lo in range(s + 1, k_end, _SIGMA_BLOCK):
            hi = min(lo + _SIGMA_BLOCK, k_end)
            # sigma[j k] += k for lo <= k < hi
            sigma[j * lo : j * (hi - 1) + 1 : j] += np.arange(lo, hi, dtype=np.int64)
    return sigma


def _siegel_zeta_minus1(ds: list[int], sigma: np.ndarray) -> list[Fraction]:
    """zeta_K(-1) of the real quadratic fields of discriminants ds by Siegel's
    formula, from a sigma_1 table (_divisor_sums) reaching max(ds) // 4.

    Writing b = p + 2k, p = D mod 2 (so D = p mod 4), the terms of a field
    are sigma_1(D // 4 - k (k + p)), 0 <= k <= (isqrt(D) - p) / 2; b and -b
    count once each, so the sum is twice theirs less the term of b = 0 for
    even D.  One gather reads the terms of every field, and one exact int64
    np.add.reduceat sums each field's contiguous slice.
    """
    if not ds:
        return []
    top = max(ds)
    if len(sigma) <= top // 4:
        raise DomainError("divisor sum table too short for discriminant %d" % top)
    counts = [(isqrt(D) - D % 2) // 2 + 1 for D in ds]
    starts = np.zeros(len(ds), dtype=np.int64)
    np.cumsum(counts[:-1], out=starts[1:])
    # k = 0 .. count - 1 of each field, one field after the other
    k = np.arange(sum(counts), dtype=np.int64)
    k -= np.repeat(starts, counts)
    parity = np.array(ds, dtype=np.int64) & 1
    index = np.repeat(np.array(ds, dtype=np.int64) >> 2, counts)
    index -= k * (k + np.repeat(parity, counts))
    vals = sigma[index]
    totals = 2 * np.add.reduceat(vals, starts) - (1 - parity) * vals[starts]
    return [Fraction(total, 60) for total in totals.tolist()]


def scan_tables(dmax: int):
    """(l1_lookup, sigma), the tables _scan_run reads for every field
    D <= dmax: the class-number sieve of the CM discriminants |d3| <= 4 D
    (elliptic.make_l1_lookup) and the sigma_1 table of Siegel's formula up to
    D // 4 (_divisor_sums)."""
    return make_l1_lookup(4 * dmax + 16), _divisor_sums(dmax // 4 + 1)


def _scan_run(ds: list[int], epsilon, l1_lookup, sigma) -> list[FieldRecord]:
    """The records of the fields ds, in order: the one path of scan records.

    Each D is validated once.  L(1, chi_D) comes from closed_form_l1 on the
    field's character table, and zeta_K(-1) from one gather of Siegel's
    terms per run.  The elliptic totals and exponents of the whole run come
    from one call of the arithmetic core of elliptic_summary
    (elliptic._elliptic_bounds), which reads L(1, chi_d) for the run's
    negative CM discriminants off l1_lookup in one gather, and the L(1) < T_D
    decision and the verdict fields come from the core of verdict
    (criteria._decide), with the cusp thresholds taken once; neither builds
    a report object.  A Satisfied field is rechecked on the exact path
    (field_invariants.exact_hr) and decided again by the same core with
    h R, which raises unless h R certifies the same side.  Both tables come
    from scan_tables and must reach every D; a short one raises DomainError.
    """
    ds = [_check_field_discriminant(D) for D in ds]
    cut = _cusp_thresholds(to_fraction(epsilon, "epsilon"))
    _cm, ell_totals, ell_exponents = _elliptic_bounds(ds, l1_lookup)
    records = []
    for D, zeta_m1, ell_total, ell_exponent in zip(
            ds, _siegel_zeta_minus1(ds, sigma), ell_totals, ell_exponents):
        l1_val, l1_cert = closed_form_l1(D, character_table(D))
        zeta2, zeta2_cert = zeta_K2(D, zeta_m1)
        hr = math.sqrt(D) * l1_val / 2.0
        decided = _decide(D, zeta_m1, l1_val, l1_cert, hr, zeta2, cut)
        h = reg = None
        if decided[0]:
            _unit, classes, reg, _residual = exact_hr(D, l1_val, l1_cert)
            h, hr = classes.h, classes.h * reg
            decided = _decide(D, zeta_m1, l1_val, l1_cert, hr, zeta2, cut, h, reg)
        below, top, required, margin, verdict, flags = decided
        # the values go straight into the instance dict, in field order, as
        # FieldRecord.from_dict writes them: the generated __init__ would pay
        # one frozen setattr per field
        record = object.__new__(FieldRecord)
        record.__dict__.update(
            D=D,
            h=h,
            R=reg,
            hr=hr,
            zeta2=zeta2,
            zeta2_cert=zeta2_cert,
            l1=l1_val,
            l1_cert=l1_cert,
            nu_max=top,
            nu_required=required,
            margin=margin,
            elliptic_total_bound=ell_total,
            elliptic_exponent=ell_exponent,
            verdict=verdict,
            flags=flags,
            exact=below,
        )
        records.append(record)
    return records


@dataclass(frozen=True)
class DyadicBlock:
    lo: int
    hi: int
    n_fields: int
    n_failing: int

    @property
    def failing_fraction(self) -> float:
        return self.n_failing / self.n_fields if self.n_fields else 0.0


@dataclass(frozen=True)
class ScanResult:
    dmax: int
    epsilon: Fraction
    records: tuple[FieldRecord, ...]
    satisfied: tuple[int, ...]
    n_exceptional: int
    largest_failing_D: int | None
    dyadic: tuple[DyadicBlock, ...]


_WORKER_STATE: dict = {}


def _init_worker(dmax: int) -> None:
    """Build the tables every field D <= dmax looks up (scan_tables), unless
    this process holds them already."""
    if _WORKER_STATE.get("dmax", -1) < dmax:
        _WORKER_STATE["tables"] = scan_tables(dmax)
        _WORKER_STATE["dmax"] = dmax


def _scan_chunk(ds: list[int], epsilon: Fraction) -> list[FieldRecord]:
    return _scan_run(ds, epsilon, *_WORKER_STATE["tables"])


def _dyadic_blocks(records) -> tuple[DyadicBlock, ...]:
    """Field and failing counts per block [2^k, 2^(k+1)) holding a record,
    ascending; every D >= 5, so the first block possible is [4, 8)."""
    n_fields: dict[int, int] = {}
    n_failing: dict[int, int] = {}
    for r in records:
        lo = 1 << (r.D.bit_length() - 1)
        n_fields[lo] = n_fields.get(lo, 0) + 1
        n_failing[lo] = n_failing.get(lo, 0) + (r.verdict != "Satisfied")
    return tuple(DyadicBlock(lo=lo, hi=2 * lo, n_fields=n, n_failing=n_failing[lo])
                 for lo, n in sorted(n_fields.items()))


def scan(dmax: int, epsilon="0.01", workers: int = 1,
         precomputed: dict[int, FieldRecord] | None = None, on_records=None) -> ScanResult:
    """Scan all fundamental discriminants D <= dmax.

    precomputed maps D to already-known records (cache hits).  The other
    fields are computed in runs of _RUN consecutive fields, in ascending
    order; on_records, if given, is called with each run's records (a list
    in ascending D) as soon as that run is done, so the CLI appends them to
    the cache run by run.  A dmax past the int64 range of the elliptic
    core (elliptic._check_cm_range) raises DomainError before any table or
    mask is built.
    """
    if dmax < 5:
        raise DomainError("dmax must be at least 5, got %d" % dmax)
    if workers < 1:
        raise DomainError("worker count must be >= 1, got %d" % workers)
    eps = to_fraction(epsilon, "epsilon")
    _cusp_thresholds(eps)  # an epsilon out of range raises before any table is built
    _check_cm_range([dmax])
    ds = fundamental_discriminants_up_to(dmax)
    done = dict(precomputed) if precomputed else {}
    todo = [d for d in ds if d not in done]
    runs = [todo[i:i + _RUN] for i in range(0, len(todo), _RUN)]

    if runs:  # a complete cache needs neither the tables nor a pool
        with contextlib.ExitStack() as stack:
            if workers > 1 and len(runs) > 1:
                mapper = stack.enter_context(ProcessPoolExecutor(
                    max_workers=min(workers, len(runs)), initializer=_init_worker,
                    initargs=(dmax,))).map
            else:
                _init_worker(dmax)
                mapper = map
            # both maps yield the runs in submission order
            for run in mapper(_scan_chunk, runs, itertools.repeat(eps)):
                done.update((r.D, r) for r in run)
                if on_records is not None:
                    on_records(run)
    records = tuple(done[d] for d in ds)

    satisfied = tuple(r.D for r in records if r.verdict == "Satisfied")
    failing = [r.D for r in records if r.verdict != "Satisfied"]
    return ScanResult(
        dmax=dmax,
        epsilon=eps,
        records=records,
        satisfied=satisfied,
        n_exceptional=len(failing),
        largest_failing_D=max(failing) if failing else None,
        dyadic=_dyadic_blocks(records),
    )
