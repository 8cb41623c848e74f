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
verdict then decides them by h R as well; none occur below D = 5000, and 458
of the 30394 fields up to D = 1e5 do.

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
from dataclasses import dataclass, replace
from fractions import Fraction
from math import isqrt

import numpy as np

from .criteria import FieldInputs, to_fraction, verdict
from .elliptic import _elliptic_bounds, make_l1_lookup
from .errors import DomainError
from .field_invariants import _check_field_discriminant, exact_hr, fundamental_discriminants_up_to
from .lfunctions import closed_form_l1, zeta_K2
from .reports import FieldRecord

# a scan computes its missing fields in contiguous ascending runs of this
# many: small enough that a pool stays balanced and a killed scan loses
# little, large enough that each run's cache append stays cheap
_RUN = 64


def _divisor_sums(limit: int) -> np.ndarray:
    """sigma_1(n) for 0 <= n <= limit (sigma_1(0) = 0), by strided adds."""
    sigma = np.zeros(limit + 1, dtype=np.int64)
    for k in range(1, limit + 1):
        sigma[k::k] += k
    return sigma


def _siegel_zeta_minus1(D: int, sigma: np.ndarray) -> Fraction:
    """zeta_K(-1) of the real quadratic field of discriminant D by Siegel's
    formula, from a sigma_1 table (_divisor_sums) reaching D // 4; b and -b
    count once each."""
    if len(sigma) <= D // 4:
        raise DomainError("divisor sum table too short for discriminant %d" % D)
    b = np.arange(D % 2, isqrt(D) + 1, 2, dtype=np.int64)
    vals = sigma[(D - b * b) // 4]
    total = 2 * int(vals.sum()) - (int(vals[0]) if D % 2 == 0 else 0)
    return Fraction(total, 60)


def scan_tables(dmax: int):
    """(l1_lookup, sigma), the tables scan_field reads for every field
    D <= dmax: the class-number sieve of the CM discriminants |d3| <= 4 D
    (elliptic.make_l1_lookup) and the sigma_1 table of Siegel's formula up to
    D // 4 (_divisor_sums)."""
    return make_l1_lookup(4 * dmax + 16), _divisor_sums(dmax // 4 + 1)


def scan_field(D: int, epsilon, l1_lookup, sigma) -> FieldRecord:
    """Evaluate the criterion for one field; a Satisfied field is rechecked
    on the exact path.

    L(1, chi_D) is evaluated once, for hR; the elliptic bounds do not use it
    and read L(1, chi_d) for their negative CM discriminants off l1_lookup.
    The bounds come from the arithmetic core of elliptic_summary
    (elliptic._elliptic_bounds), which gives the same total and exponent
    record and builds no report object.  zeta_K(-1) comes from Siegel's
    formula on sigma.  Both tables come from scan_tables and must reach D; a
    short one raises DomainError.  D is validated here once.
    """
    D = _check_field_discriminant(D)
    l1_val, l1_cert = closed_form_l1(D)
    zeta_m1 = _siegel_zeta_minus1(D, sigma)
    zeta2, zeta2_cert = zeta_K2(D, zeta_m1)
    _rows, ell_total, ell_exponent = _elliptic_bounds(D, l1_lookup)
    inputs = FieldInputs(D=D, hr=math.sqrt(D) * l1_val / 2.0, zeta2=zeta2,
                         zeta_m1=zeta_m1, l1_value=l1_val, l1_cert=l1_cert)
    rep = verdict(inputs, epsilon)
    exact = rep.verdict == "Satisfied"
    if exact:
        _unit, classes, reg, _residual = exact_hr(D, l1_val, l1_cert)
        inputs = replace(inputs, hr=classes.h * reg, h=classes.h, regulator=reg)
        rep = verdict(inputs, epsilon)
    # the values go straight into the instance dict, in field order, as
    # FieldRecord.from_dict writes them: the generated __init__ would pay one
    # frozen setattr per field
    record = object.__new__(FieldRecord)
    record.__dict__.update(
        D=D,
        h=inputs.h,
        R=inputs.regulator,
        hr=inputs.hr,
        zeta2=zeta2,
        zeta2_cert=zeta2_cert,
        l1=l1_val,
        l1_cert=l1_cert,
        nu_max=rep.nu_max,
        nu_required=rep.nu_required,
        margin=rep.margin,
        elliptic_total_bound=ell_total,
        elliptic_exponent=ell_exponent,
        verdict=rep.verdict,
        flags=rep.flags,
        exact=exact,
    )
    return record


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
    lookup, sigma = _WORKER_STATE["tables"]
    return [scan_field(D, epsilon, lookup, sigma) for D in ds]


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
    the cache run by run.
    """
    if dmax < 5:
        raise DomainError("dmax must be at least 5, got %d" % dmax)
    if workers < 1:
        raise DomainError("worker count must be >= 1, got %d" % workers)
    eps = to_fraction(epsilon, "epsilon")
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
