"""Child process of the benchmark: runs hilbert_ggl CLI requests in-process.

Start it from the repository root with ``src`` on PYTHONPATH.  It speaks one
JSON object per line:

    worker -> {"ready": true}                       after importing hilbert_ggl
    parent -> ["scan", "--dmax", "200", ...]         one request: argv of cli.main
    worker -> {"probes": [...], "rc": 0, "t0": ..., "t1": ..., "out": "...", "err": "..."}
    parent -> {"probes": 3}                          time the probe 3 times
    worker -> {"probes": [seconds, ...]}
    parent closes stdin
    worker -> {"rss_kb": ..., "layers": {...} or null}

Each request first times the probe PROBES times, then calls
``hilbert_ggl.cli.main(argv)`` with stdout and stderr captured; t0 and t1
are ``time.perf_counter`` readings around the call.
With ``--spans FILE`` the worker installs the tracer first, records a
``cli.main`` root span per request and writes all spans to FILE at the end.

``worker.py --setup K`` instead times import_probe K times and then the
import of ``hilbert_ggl.cli``, and prints {"probes": [...], "import_s": ...}.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time

PROBES = 3


_PROBE_DOC = json.dumps([{"D": i, "hr": i * 0.37, "name": "x%d" % i, "v": [i, i + 1]}
                         for i in range(150)])


def probe() -> float:
    """Seconds taken to parse a fixed JSON document of 150 small records ten
    times over.

    The benchmark divides its timings by this to take out the speed of the
    host CPU, which on a shared machine changes from one minute to the next.
    Parsing builds and frees many small objects, as the program does, so it
    follows the speed the program sees more closely than a loop of integer
    arithmetic does.  The document is small, so that each parse can reuse
    the memory the last one freed.
    """
    t0 = time.perf_counter()
    for _ in range(10):
        json.loads(_PROBE_DOC)
    return time.perf_counter() - t0


def import_probe() -> float:
    """Seconds taken by a fixed piece of pure-Python integer work.

    Scales the import time of setup_s, which is mostly loading modules and
    shared libraries and follows this more closely than it follows probe().
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(25000):
        acc = (acc * 31 + i) % 1000003
    return time.perf_counter() - t0


def _reply(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def setup(count: int) -> int:
    probes = [import_probe() for _ in range(count)]
    t0 = time.perf_counter()
    import hilbert_ggl.cli  # noqa: F401

    _reply({"probes": probes, "import_s": time.perf_counter() - t0})
    return 0


def main(argv: list[str]) -> int:
    if "--setup" in argv:
        return setup(int(argv[argv.index("--setup") + 1]))
    spans_path = argv[argv.index("--spans") + 1] if "--spans" in argv else None
    import hilbert_ggl.cli as cli

    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        print("hilbert_ggl imported from %s, not from %s" % (cli.__file__, src), file=sys.stderr)
        return 2
    entry = cli.main
    tracer = None
    if spans_path:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        entry = tracer.wrap("cli.main", cli.main)
    _reply({"ready": True})

    for line in sys.stdin:
        request = json.loads(line)
        if isinstance(request, dict):
            _reply({"probes": [probe() for _ in range(request["probes"])]})
            continue
        probes = [probe() for _ in range(PROBES)]
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = entry(request)
        except Exception as exc:  # a crash is a failed request, not a dead worker
            rc = "%s: %s" % (type(exc).__name__, exc)
        t1 = time.perf_counter()
        _reply({"probes": probes, "rc": rc, "t0": t0, "t1": t1, "out": out.getvalue(),
                "err": err.getvalue()})

    layers = None
    if tracer is not None:
        tracer.write(spans_path)
        layers = tracer.layer_metrics()
        layers["missing"] = tracer.missing
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    _reply({"rss_kb": rss_kb, "layers": layers})
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
