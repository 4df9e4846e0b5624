"""CLI outputs pinned byte for byte against committed goldens.

Each case runs ``cli.main`` in-process and compares the first stdout line
and every CSV file it writes with the files under ``tests/golden/<case>/``
(the first line is ``stdout.txt``; the second names the output directory,
which differs per run).  After a deliberate change to the outputs,
``PYTHONPATH=src python tests/test_golden.py`` rewrites the goldens.
"""

import contextlib
import io
import sys
import tempfile
from pathlib import Path

import pytest

from qosmarket import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
SCENARIOS = {
    "custom_incumbent": ROOT / "perfbench" / "scenarios" / "custom_incumbent.json",
    "split_duopoly": ROOT / "scenarios" / "split_duopoly.json",
}
COMMANDS = {
    "compete": ["compete"],
    "select": ["select"],
    "select_map": ["select", "--k-grid", "0:0.2:21"],
}
CASES = [f"{cmd}_{name}" for name in SCENARIOS for cmd in COMMANDS]


def run_case(case: str, out_dir: Path) -> dict[str, bytes]:
    """The case's outputs by file name: ``stdout.txt`` and each CSV file."""
    cmd, name = next((c, n) for c in COMMANDS for n in SCENARIOS if case == f"{c}_{n}")
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main([*COMMANDS[cmd], str(SCENARIOS[name]), "--out", str(out_dir)])
    assert code == 0, f"{case} exited {code}"
    outputs = {"stdout.txt": stdout.getvalue().splitlines(keepends=True)[0].encode()}
    outputs.update((p.name, p.read_bytes()) for p in sorted(out_dir.glob("*.csv")))
    return outputs


@pytest.mark.parametrize("case", CASES)
def test_cli_outputs_match_the_goldens(case, tmp_path):
    outputs = run_case(case, tmp_path)
    golden = {p.name: p.read_bytes() for p in sorted((GOLDEN / case).iterdir())}
    assert sorted(outputs) == sorted(golden)
    for name, data in golden.items():
        assert outputs[name] == data, f"{case}/{name} differs from its golden"


def regenerate() -> None:
    for case in CASES:
        target = GOLDEN / case
        target.mkdir(parents=True, exist_ok=True)
        for old in target.iterdir():
            old.unlink()
        with tempfile.TemporaryDirectory() as tmp:
            for name, data in run_case(case, Path(tmp)).items():
                (target / name).write_bytes(data)
        print(f"wrote {target}", file=sys.stderr)


if __name__ == "__main__":
    regenerate()
