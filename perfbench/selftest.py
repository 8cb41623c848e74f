#!/usr/bin/env python3
"""Self-test of the benchmark at a tiny size (scan to D=200, 5 field reports).

Run from the repository root:

    python3 perfbench/selftest.py

It checks that, for every workload,
  * BENCHMARK.json keeps the contract's shape and limits;
  * an untraced run prints every end-to-end metric, and a traced run every
    per-layer metric, each with the unit BENCHMARK.json gives, and the
    outputs pass their checks;
  * two traced runs with the same seed give exactly the same counts;
and that the benchmark fails, printing no result, without the program's
sources.  Exits 0 when all hold.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
COUNT_UNITS = ("count", "B")


def check_spec() -> None:
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names)), "names must be unique"
    assert all(NAME.match(n) for n in names), names
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("higher", "lower"), m
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def run(workload: str, trace: int, cwd: Path = ROOT) -> tuple[int, str]:
    cmd = SPEC["command"] + ["--workload", workload, "--seed", "7", "--seconds", "1",
                             "--trace", str(trace), "--size", "smoke"]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)
    return proc.returncode, proc.stdout


def result(workload: str, trace: int) -> dict:
    code, stdout = run(workload, trace)
    assert code == 0, "%s trace=%d exited %d" % (workload, trace, code)
    res = json.loads(stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}, res.keys()
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1, res
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    printed = {k: v["unit"] for k, v in res["metrics"].items()}
    assert printed == expected, "%s trace=%d: metrics %s" % (workload, trace, printed)
    for name, v in res["metrics"].items():
        assert isinstance(v["value"], (int, float)) and not isinstance(v["value"], bool), name
    return res["metrics"]


def main() -> int:
    check_spec()
    for w in SPEC["workloads"]:
        name = w["name"]
        result(name, 0)
        first, second = result(name, 1), result(name, 1)
        counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] in COUNT_UNITS]
        differ = {c: (first[c]["value"], second[c]["value"]) for c in counts
                  if first[c]["value"] != second[c]["value"]}
        assert not differ, "%s: counts differ between same-seed runs: %s" % (name, differ)
        print("ok %s" % name)

    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=BENCH / "out"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("out", "__pycache__"))
        code, stdout = run(SPEC["workloads"][0]["name"], 0, cwd=bare)
        assert code != 0 and not stdout.strip(), "ran without the program's sources"
    finally:
        shutil.rmtree(bare)
    print("ok without sources: exit %d, no result" % code)
    return 0


if __name__ == "__main__":
    sys.exit(main())
