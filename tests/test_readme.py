"""The README's CLI examples, run as shown: every line they print must match."""

import re
import shlex
from pathlib import Path

from hilbert_ggl.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
PROMPT = "$ hilbert-ggl "


def _blocks() -> list[list[str]]:
    """The fenced code blocks of the README, as lists of lines."""
    text = README.read_text(encoding="utf-8")
    return [b.splitlines() for b in re.findall(r"^```\n(.*?)^```", text, flags=re.M | re.S)]


def _examples() -> dict[str, list[str]]:
    """Shown output lines of each `$ hilbert-ggl ...` line, keyed by its
    arguments; an example ends at a blank line or the next prompt."""
    shown: dict[str, list[str]] = {}
    for block in _blocks():
        cmd = None
        for line in block:
            if line.startswith(PROMPT):
                cmd = line[len(PROMPT):]
                shown[cmd] = []
            elif not line:
                cmd = None
            elif cmd is not None:
                shown[cmd].append(line)
    return shown


def _run(argv, capsys) -> list[str]:
    assert main(argv) == 0, argv
    return capsys.readouterr().out.splitlines()


def test_hj_and_cusp_examples(capsys):
    examples = _examples()
    for cmd in ("hj 12 5", "cusp 8"):
        assert examples[cmd], cmd
        assert _run(shlex.split(cmd), capsys) == examples[cmd], cmd


def test_field_example_head_and_verdict(capsys):
    shown = _examples()["field 5"]
    cut = shown.index("  ...")
    head, tail = shown[:cut], shown[cut + 1:]
    assert head and tail == ["verdict: CandidateExceptional"]
    out = _run(["field", "5"], capsys)
    assert out[:cut] == head
    assert [line for line in out if line.startswith("verdict:")][-1] == tail[0]


def test_tangency_example_on_the_readme_matrices(tmp_path, capsys):
    # the README's matrix file: the block of rational entries alone
    matrices = [b for b in _blocks() if b and all(re.fullmatch(r"[-\d/ ]*", ln) for ln in b)]
    assert len(matrices) == 1
    charts = tmp_path / "charts.txt"
    charts.write_text("\n".join(matrices[0]) + "\n", encoding="utf-8")
    cmd = "tangency --m 2 charts.txt"
    shown = _examples()[cmd]
    assert len(shown) == 2
    argv = [str(charts) if arg == "charts.txt" else arg for arg in shlex.split(cmd)]
    assert _run(argv, capsys) == shown


def test_csv_header_and_first_row(capsys):
    csv = [b for b in _blocks() if b and b[0].startswith("D,h,R,")]
    assert len(csv) == 1 and len(csv[0]) == 2
    out = _run(["scan", "--dmax", "5"], capsys)
    assert out == csv[0]
