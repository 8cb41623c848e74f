#!/usr/bin/env python3
"""Benchmark of the hilbert_ggl command line, end to end and per module.

Run from the repository root:

    python3 perfbench/run.py --workload scan --seed 1 --seconds 30 --trace 0

Workloads (closed loop, one caller, plus a pass with two processes):

  scan    ``scan --dmax 5000`` into a fresh cache, once with ``--workers 1``
          and once with ``--workers 2``.
  field   ``field D`` for 200 fundamental discriminants drawn log-uniformly
          from [5, 100000], stratified by cost (see ``field_inputs``), half
          of them in each pass; the two-process pass splits its half over
          two callers.
  resume  ``scan --dmax 20000`` rerun against a complete cache built during
          set-up, by one caller, then by two callers at once.

Requests go to ``hilbert_ggl.cli.main(argv)`` inside fresh worker processes
(``worker.py``), so every repetition starts from cold in-process caches, as a
user's command does.  Serial and two-process passes alternate while the
next pair still fits in ``--seconds``; ``Bench.measure`` says how the figures
are taken from them.  Every timing is scaled to a reference CPU speed (see
PROBE_REF_S).  Set-up (imports, cache building) is not timed, except ``setup_s``: the
median time to import ``hilbert_ggl.cli`` in a fresh interpreter.

Every output is checked by a route other than the one timed (see the
``check_*`` methods); a request whose output fails a check counts as failed.
``--trace 1`` runs one untraced and one traced serial pass instead and prints
the per-module metrics of the traced pass (see ``tracer.py``).

The last line of stdout is one JSON object: correct, attempted, failed and
the metrics named in BENCHMARK.json with their units.  A fuller record (seed,
machine, versions, output digests, latencies, the spans file) is written to
``perfbench/out/``.  ``--size smoke`` runs the same code at a tiny size.
"""

from __future__ import annotations

import argparse
import bisect
import collections
import hashlib
import itertools
import json
import math
import os
import platform
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from importlib import metadata
from pathlib import Path

from worker import PROBES

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

SIZES = {
    # dmax: scan bound per workload; fields: field requests; sample: records
    # rechecked by exact routes; imports: setup_s samples
    "full": {"dmax": {"scan": 5000, "resume": 20000}, "fields": 200,
             "sample": 4, "imports": 9},
    "smoke": {"dmax": {"scan": 200, "resume": 200}, "fields": 5,
              "sample": 2, "imports": 2},
}
FIELD_RANGE = (5, 100000)
PARALLEL = 2
DEADLINE_S = 170
# Every timing is scaled by PROBE_REF_S / (median time of worker.probe() in
# the same process just before and just after it), i.e. to a CPU on which the
# probe takes 1.5 ms.  On a shared host the CPU speed swings by up to a factor
# of two for tens of seconds at a time, which scaling mostly takes out.
PROBE_REF_S = 0.0015
# The same for import times and worker.import_probe(), which takes 2 ms there.
IMPORT_PROBE_REF_S = 0.002


class BenchError(Exception):
    pass


def fundamental_discriminants(limit: int) -> list[int]:
    """Real quadratic field discriminants <= limit, by a sieve of our own."""
    squarefree = bytearray([1]) * (limit + 1)
    p = 2
    while p * p <= limit:
        squarefree[p * p :: p * p] = bytes(len(range(p * p, limit + 1, p * p)))
        p += 1
    odd = [d for d in range(5, limit + 1, 4) if squarefree[d]]
    even = [4 * m for m in range(2, limit // 4 + 1) if m % 4 in (2, 3) and squarefree[m]]
    return sorted(odd + even)


def cusp_period(D: int) -> int:
    """Length of the minus continued fraction period of the standard cusp of
    Q(sqrt(D)), by a recurrence of our own; what a field report costs grows
    with it."""
    s = math.isqrt(D)
    P = (s + 1 if s % 2 == 0 else s + 2) if D % 2 else 2 * (math.isqrt(D // 4) + 1)
    Q = 2
    start, n = (P, Q), 0
    while True:
        P = ((P + s) // Q + 1) * Q - P
        Q = (P * P - D) // Q
        n += 1
        if (P, Q) == start:
            return n


def field_inputs(seed: int, count: int) -> list[int]:
    """Fundamental discriminants in FIELD_RANGE, drawn log-uniformly and
    stratified by what their reports cost.

    Every discriminant D in range gets its log-uniform mass, log(D / the
    discriminant below it).  In order of the cost proxy cusp_period(D) +
    D / 800 (a fit of report time on this code), the i-th input is the D at
    mass quantile (i + 1/2 + v) / count, v uniform in [-1/4, 1/4] from the
    seed.  Report cost is heavy-tailed, so plain draws give each seed a
    random number of costly fields and a p95 that moves by a third; this
    gives every seed other discriminants of the same spread of cost.
    Costliest first, so that two callers sharing the list finish together.
    """
    lo, hi = FIELD_RANGE
    discs = [D for D in fundamental_discriminants(hi) if D >= lo]
    mass = [math.log(D / below) for D, below in zip(discs, [lo - 1] + discs[:-1])]
    order = sorted(range(len(discs)), key=lambda j: (cusp_period(discs[j]) + discs[j] / 800, discs[j]))
    total = sum(mass)
    cum = list(itertools.accumulate(mass[j] / total for j in order))
    rng = random.Random(seed)
    out = []
    for i in reversed(range(count)):
        q = (i + 0.5 + rng.uniform(-0.25, 0.25)) / count
        out.append(discs[order[min(bisect.bisect_right(cum, q), len(order) - 1)]])
    return out


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def quantile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: the mean of the sorted values
    weighted by the Beta((n+1)q, (n+1)(1-q)) mass on each ((i-1)/n, i/n].

    A single order statistic is the time of one request, whose field and
    moment the seed and the host decide; this averages its neighbours in.
    The mass is integrated by the midpoint rule, 16 points per value.
    """
    x = sorted(values)
    n = len(x)
    if n == 1:
        return x[0]
    a, b, k = (n + 1) * q, (n + 1) * (1 - q), 16
    logs = [(a - 1) * math.log(t) + (b - 1) * math.log1p(-t)
            for t in ((j + 0.5) / (n * k) for j in range(n * k))]
    top = max(logs)
    dens = [math.exp(v - top) for v in logs]
    weights = [sum(dens[i * k : (i + 1) * k]) for i in range(n)]
    return sum(w * v for w, v in zip(weights, x)) / sum(weights)


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("HILBERT_GGL_WORKERS", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Worker:
    """One worker.py process; see its docstring for the protocol."""

    live: set = set()

    def __init__(self, spans: str | None = None):
        cmd = [sys.executable, str(BENCH / "worker.py")] + (["--spans", spans] if spans else [])
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), text=True,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        Worker.live.add(self)
        if self._recv() != {"ready": True}:
            raise BenchError("worker did not start")

    def _recv(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError("worker exited early with code %s" % self.proc.wait())
        return json.loads(line)

    def request(self, message) -> dict:
        self.proc.stdin.write(json.dumps(message) + "\n")
        self.proc.stdin.flush()
        return self._recv()

    def probes(self) -> list[float]:
        return self.request({"probes": PROBES})["probes"]

    def close(self) -> dict:
        self.proc.stdin.close()
        final = self._recv()
        self.proc.wait(timeout=60)
        self.proc.stdout.close()
        Worker.live.discard(self)
        return final

    @classmethod
    def kill_all(cls) -> None:
        for w in list(cls.live):
            w.proc.kill()
            w.proc.wait()
            cls.live.discard(w)


class Bench:
    def __init__(self, workload: str, seed: int, size: str, tmp: Path):
        self.workload = workload
        self.seed = seed
        self.size = SIZES[size]
        self.tmp = tmp
        self.requests: list[dict] = []
        self.failures: list[str] = []
        self.digests: dict[str, str] = {}
        self.info: dict = {}
        self.rss_kb = 0
        self.dmax = self.size["dmax"].get(workload, 0)
        self.expected = fundamental_discriminants(self.dmax)
        self.ref_csv: bytes | None = None
        self.ref_field: dict[int, str] = {}

    # -- running requests ---------------------------------------------------

    def phase(self, name: str, argvs: list[list[str]], callers: int = 1,
              spans: str | None = None, timed: bool = True):
        """Send argvs to `callers` fresh workers pulling from one queue.

        A worker times the probe before each request and once more after its
        last; a request is scaled by the probes just before and after it.
        Returns the request records with their scaled time "dt", the wall
        time from the first request's start to the last one's end (scaled by
        the median request scale), and the traced layers (or None).
        """
        workers = [Worker(spans) for _ in range(callers)]
        results: list = [None] * len(argvs)
        todo = list(range(len(argvs)))[::-1]
        lock = threading.Lock()
        errors: list[BaseException] = []

        def drive(w: Worker) -> None:
            try:
                prev = None
                while True:
                    with lock:
                        if not todo:
                            break
                        i = todo.pop()
                    results[i] = w.request(argvs[i])
                    if prev is not None:
                        results[prev]["probes"] += results[i]["probes"]
                    prev = i
                if prev is not None:
                    results[prev]["probes"] += w.probes()
            except BaseException as exc:  # re-raised below, in the main thread
                errors.append(exc)

        threads = [threading.Thread(target=drive, args=(w,), daemon=True) for w in workers]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if errors:
            raise BenchError("worker failed: %r" % errors[0])
        finals = [w.close() for w in workers]
        if timed:
            self.rss_kb = max([self.rss_kb] + [f["rss_kb"] for f in finals])
        reqs = []
        for argv, res in zip(argvs, results):
            scale = PROBE_REF_S / statistics.median(res["probes"])
            req = {"phase": name, "argv": argv, "rc": res["rc"], "scale": scale,
                   "dt": scale * (res["t1"] - res["t0"]), "t0": res["t0"], "t1": res["t1"],
                   "out": res["out"], "ok": res["rc"] == 0}
            if not req["ok"]:
                self.failures.append("%s: %s exited %r: %s" % (name, " ".join(argv), res["rc"],
                                                              res["err"].strip()[-300:]))
            reqs.append(req)
        self.requests.extend(reqs)
        scale = statistics.median(r["scale"] for r in reqs)
        self.info.setdefault("scales", []).append([name, scale])
        wall = scale * (max(r["t1"] for r in reqs) - min(r["t0"] for r in reqs))
        layers = finals[0]["layers"]
        if layers is not None:
            layers["scale"] = scale
        return reqs, wall, layers

    def fail(self, reqs: list[dict], message: str) -> None:
        for r in reqs:
            r["ok"] = False
        self.failures.append(message)

    def scan_argv(self, cache: Path, out: Path, workers: int) -> list[str]:
        return ["scan", "--dmax", str(self.dmax), "--cache", str(cache),
                "--out", str(out), "--workers", str(workers)]

    # -- output checks --------------------------------------------------------

    def check_scan_csv(self, req: dict, path: Path) -> None:
        """CSV lists exactly our own discriminants and, byte for byte, the
        same rows as the run's first scan."""
        data = path.read_bytes()
        rows = data.decode("ascii").splitlines()[1:]
        ds = [int(row.split(",", 1)[0]) for row in rows]
        if ds != self.expected:
            self.fail([req], "scan CSV lists %d fields, expected the %d fundamental "
                      "discriminants <= %d" % (len(ds), len(self.expected), self.dmax))
        if self.ref_csv is None:
            self.ref_csv = data
            self.digests["csv_sha256"] = sha256(data)
        elif data != self.ref_csv:
            self.fail([req], "%s: CSV bytes differ from the first scan's" % " ".join(req["argv"]))

    def check_scan_records(self, req: dict, cache: Path) -> None:
        """A seeded sample of cached records against the exact routes:
        hR = class_number(D).h * regulator(D) and zeta_K(2) from zeta_K2_dual."""
        sys.path.insert(0, str(ROOT / "src"))
        from hilbert_ggl import class_number, regulator, zeta_K2_dual

        lines = cache.read_text(encoding="ascii").splitlines()[1:]
        records = [json.loads(line)["record"] for line in lines if line.strip()]
        rng = random.Random(self.seed)
        for rec in rng.sample(records, min(self.size["sample"], len(records))):
            D = rec["D"]
            try:
                exact = class_number(D).h * regulator(D)
                dual = zeta_K2_dual(D)
            except Exception as exc:  # any error of the reference route is a failed check
                self.fail([req], "D=%d: exact route raised %r" % (D, exc))
                continue
            hr_tol = math.sqrt(D) / 2.0 * rec["l1_cert"] + 1e-12 * exact
            if abs(rec["hr"] - exact) > hr_tol:
                self.fail([req], "D=%d: hR %r vs exact %r (tolerance %.3g)" % (D, rec["hr"], exact, hr_tol))
            z_tol = rec["zeta2_cert"] + dual.char_cert
            if abs(rec["zeta2"] - dual.char_value) > z_tol:
                self.fail([req], "D=%d: zeta2 %r vs dual route %r (tolerance %.3g)"
                          % (D, rec["zeta2"], dual.char_value, z_tol))

    def check_field(self, req: dict, D: int) -> None:
        """Report names D, tangency ok, verdict present, h * R = hR to the
        10 printed digits; the same D gives the same text in every pass."""
        text = req["out"]
        m = re.search(r"^  h=(\d+) .*^  regulator R=(\S+)$\n^  hR=(\S+)$", text, re.M | re.S)
        problems = []
        if not text.startswith("field D=%d\n" % D):
            problems.append("wrong header")
        if "\n  tangency: ok " not in text:
            problems.append("tangency not ok")
        if not re.search(r"^verdict: \w+\n\Z", text, re.M):
            problems.append("no verdict")
        if m is None:
            problems.append("no h, R, hR")
        else:
            h, R, hr = int(m.group(1)), float(m.group(2)), float(m.group(3))
            if abs(h * R - hr) > 2e-9 * hr:
                problems.append("h*R = %r but hR = %r" % (h * R, hr))
        ref = self.ref_field.setdefault(D, text)
        if text != ref:
            problems.append("text differs from the first report for this D")
        if problems:
            self.fail([req], "field %d: %s" % (D, "; ".join(problems)))

    # -- workloads ----------------------------------------------------------

    # Each pass runs the workload's requests with `procs` processes: scan
    # passes --workers, field and resume use that many callers.

    def scan_pass(self, k: int, procs: int, spans: str | None = None):
        cache = self.tmp / ("scan-%d-%d.cache" % (k, procs))
        out = self.tmp / ("scan-%d-%d.csv" % (k, procs))
        name = "scan-%dw%s" % (procs, "-traced" if spans else "")
        reqs, wall, layers = self.phase(name, [self.scan_argv(cache, out, procs)], spans=spans)
        if reqs[0]["ok"]:
            self.check_scan_csv(reqs[0], out)
            if k == 0 and procs == 1 and not spans:
                self.check_scan_records(reqs[0], cache)
                self.digests["cache_sha256"] = sha256(cache.read_bytes())
        for path in (cache, out):
            path.unlink(missing_ok=True)
        return reqs, wall, layers

    def field_pass(self, k: int, procs: int, spans: str | None = None):
        """Half the fields, every other one in order of cost: pass k takes
        the even (k even) or odd ones, so that passes are short and many."""
        ds = self.field_ds[k % 2 :: 2]
        name = "field-%dc%s" % (procs, "-traced" if spans else "")
        reqs, wall, layers = self.phase(name, [["field", str(D)] for D in ds], procs, spans)
        for req, D in zip(reqs, ds):
            if req["ok"]:
                self.check_field(req, D)
        if "field_text_sha256" not in self.digests and set(self.field_ds) <= set(self.ref_field):
            text = "".join(self.ref_field[D] for D in self.field_ds)
            self.digests["field_text_sha256"] = sha256(text.encode())
        return reqs, wall, layers

    def resume_setup(self) -> None:
        self.cache = self.tmp / "resume.cache"
        cold = self.tmp / "resume-cold.csv"
        reqs, wall, _ = self.phase("resume-setup", [self.scan_argv(self.cache, cold, PARALLEL)],
                                   timed=False)
        if not reqs[0]["ok"]:
            raise BenchError("could not build the resume cache: %s" % self.failures[-1])
        self.check_scan_csv(reqs[0], cold)
        self.cache_bytes = self.cache.read_bytes()
        self.digests["cache_sha256"] = sha256(self.cache_bytes)
        self.info["resume_cache_build_s"] = wall

    def resume_pass(self, k: int, procs: int, spans: str | None = None):
        outs = [self.tmp / ("resume-%d-%d-%d.csv" % (k, procs, i)) for i in range(procs)]
        name = "resume-%dc%s" % (procs, "-traced" if spans else "")
        reqs, wall, layers = self.phase(name, [self.scan_argv(self.cache, o, 1) for o in outs],
                                        procs, spans)
        for req, out in zip(reqs, outs):
            if req["ok"]:
                self.check_scan_csv(req, out)
            out.unlink(missing_ok=True)
        if self.cache.read_bytes() != self.cache_bytes:
            self.fail(reqs, "resume changed the cache file")
        return reqs, wall, layers

    # -- the run --------------------------------------------------------------

    def setup(self) -> None:
        if self.workload == "field":
            self.field_ds = field_inputs(self.seed, self.size["fields"])
            self.info["field_D"] = self.field_ds
        elif self.workload == "resume":
            self.resume_setup()

    def measure(self, seconds: float) -> dict:
        """Pairs of a serial and a two-process pass, while the next pair still
        fits in `seconds` by the last one; at least one pair.

        Rates are medians over passes, and efficiency_2w the median over pairs
        of the two-process rate over twice the serial one, so that both halves
        of a ratio see the host in the same state.  A two-process pass is
        scaled by the probes of the serial pass before it: its own probes run
        beside the other process, and scaling by them would also take out the
        slowdown that the two processes cause each other.  Latency quantiles are
        taken over the distinct requests (field: one per D, weighted by how
        often the seed drew it; scan and resume repeat one command), each at
        its median over the serial passes, so they describe the requests and
        not a slow minute of the host.
        """
        run = getattr(self, self.workload + "_pass")
        n = 1 if self.workload == "field" else len(self.expected)
        rates: dict[int, list[float]] = {1: [], PARALLEL: []}
        by_request: dict[tuple, list[float]] = {}
        start = time.perf_counter()
        k = 0
        while k < 2 or time.perf_counter() - start + pair_s <= seconds:
            t = time.perf_counter()
            reqs, _, _ = run(k // 2, 1)
            for r in reqs:
                by_request.setdefault(tuple(r["argv"][:3]), []).append(r["dt"])
            rates[1].append(n * len(reqs) / sum(r["dt"] for r in reqs))
            scale = statistics.median(r["scale"] for r in reqs)
            reqs, _, _ = run(k // 2, PARALLEL)
            wall = max(r["t1"] for r in reqs) - min(r["t0"] for r in reqs)
            rates[PARALLEL].append(n * len(reqs) / (scale * wall))
            pair_s = time.perf_counter() - t
            k += 2
        if self.workload == "field":
            draws = collections.Counter(("field", str(D)) for D in self.field_ds)
        else:
            draws = collections.Counter(by_request.keys())
        latencies = [statistics.median(dts) for key, dts in by_request.items()
                     for _ in range(draws[key])]
        self.info.update(passes=k, latencies_s={" ".join(key): dts for key, dts in by_request.items()},
                         fields_per_s_passes=rates[1], fields_per_s_2w_passes=rates[PARALLEL])
        return {
            "fields_per_s": statistics.median(rates[1]),
            "fields_per_s_2w": statistics.median(rates[PARALLEL]),
            "efficiency_2w": statistics.median(
                r2 / (PARALLEL * r1) for r1, r2 in zip(rates[1], rates[PARALLEL])),
            "p50_ms": 1000.0 * quantile(latencies, 0.5),
            "p95_ms": 1000.0 * quantile(latencies, 0.95),
        }

    def trace(self, spans: str) -> dict:
        """One untraced and one traced serial pass; per-layer metrics of the latter."""
        run = getattr(self, self.workload + "_pass")
        plain, plain_wall, _ = run(0, 1)
        traced, traced_wall, layers = run(0, 1, spans=spans)
        self.info["trace_missing_targets"] = layers.pop("missing")
        scale = layers.pop("scale")
        for key in layers:
            if key.endswith(("_s", ".s", "ms_per_field")):
                layers[key] *= scale
        plain_s = sum(r["dt"] for r in plain)
        traced_s = sum(r["dt"] for r in traced)
        layers["tracing_overhead_frac"] = traced_s / plain_s - 1.0
        self.info["untraced_s"], self.info["traced_s"] = plain_s, traced_s
        return layers


def import_times(repeats: int) -> list[float]:
    """Scaled seconds to import hilbert_ggl.cli in fresh interpreters, after
    one warm-up."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--setup", "10"]
    times = []
    for i in range(repeats + 1):
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=60)
        if proc.returncode != 0:
            raise BenchError("importing hilbert_ggl failed: %s" % proc.stderr.strip()[-300:])
        res = json.loads(proc.stdout)
        if i:
            times.append(res["import_s"] * IMPORT_PROBE_REF_S / statistics.median(res["probes"]))
    return times


def machine_info() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    versions = {}
    for pkg in ("numpy", "mpmath"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    return {"commit": commit, "src_sha256": src.hexdigest(), "nproc": os.cpu_count(),
            "cpu": cpu, "python": platform.python_version(), **versions}


def metric_units(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def on_deadline(signum, frame):
    raise BenchError("run exceeded %d s" % DEADLINE_S)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("scan", "field", "resume"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(SIZES), default="full")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "hilbert_ggl" / "cli.py").is_file():
        print("error: no hilbert_ggl sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    units = metric_units(bool(args.trace))
    signal.signal(signal.SIGALRM, on_deadline)
    signal.alarm(DEADLINE_S)
    OUT.mkdir(exist_ok=True)
    tag = "%s-seed%d-trace%d-%s" % (args.workload, args.seed, args.trace, time.strftime("%Y%m%dT%H%M%S"))
    tmp = Path(tempfile.mkdtemp(prefix="tmp-", dir=OUT))
    bench = Bench(args.workload, args.seed, args.size, tmp)
    try:
        setup = import_times(bench.size["imports"])
        bench.setup()
        if args.trace:
            spans = str(OUT / (tag + ".spans.jsonl.gz"))
            metrics = bench.trace(spans)
            bench.info["spans_file"] = os.path.relpath(spans, ROOT)
        else:
            metrics = bench.measure(args.seconds)
            attempted = len(bench.requests)
            metrics.update(
                setup_s=statistics.median(setup),
                peak_rss_mb=bench.rss_kb / 1024.0,
                success_rate=sum(r["ok"] for r in bench.requests) / attempted,
            )
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
        Worker.kill_all()
        shutil.rmtree(tmp, ignore_errors=True)

    missing = sorted(set(units) - set(metrics))
    if missing:
        print("error: metrics not measured: %s" % ", ".join(missing), file=sys.stderr)
        return 1
    attempted = len(bench.requests)
    failed = sum(not r["ok"] for r in bench.requests)
    for message in bench.failures:
        print("check failed: %s" % message, file=sys.stderr)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, **machine_info(),
        "setup_import_s": setup, "digests": bench.digests, "failures": bench.failures,
        "attempted": attempted, "failed": failed, "metrics": metrics, **bench.info,
    }
    (OUT / (tag + ".json")).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({
        "correct": failed == 0 and not bench.failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
