"""CLI outputs pinned byte for byte against committed goldens.

Every command runs on every scenario in ``scenarios/`` and
``perfbench/scenarios/``, and ``fit-qos`` on ``scenarios/qos_curve.csv``.
Each case runs ``cli.main`` in-process and compares its exit code, stdout,
stderr and every CSV file it writes with the files under
``tests/golden/<case>/``.  Combinations the CLI refuses (``compete``
without an incumbent, ``simulate`` without a dynamics section, a decision
map over one entry technology) are cases too: they pin exit code 2, the
error line, and that nothing is written.  In stdout and stderr the output
directory reads ``<out>`` and the repository root ``<root>``.  After a
deliberate change to the outputs, ``PYTHONPATH=src python
tests/test_golden.py`` rewrites the goldens.
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
SCENARIOS = {path.stem: path for path in sorted(ROOT.glob("scenarios/*.json"))}
SCENARIOS["custom_incumbent"] = ROOT / "perfbench" / "scenarios" / "custom_incumbent.json"
COMMANDS = {
    "simulate": ["simulate"],
    "analyze": ["analyze"],
    "compete": ["compete"],
    "select": ["select"],
    "select_map": ["select", "--k-grid", "0:0.2:21"],
}
ARGV = {f"{cmd}_{name}": [*argv, str(path)] for name, path in SCENARIOS.items()
        for cmd, argv in COMMANDS.items()}
ARGV["fit-qos_qos_curve"] = ["fit-qos", str(ROOT / "scenarios" / "qos_curve.csv")]
CASES = sorted(ARGV)


def run_case(case: str, out_dir: Path) -> dict[str, bytes]:
    """The case's outputs by file name: ``exit_code.txt``, ``stdout.txt``,
    ``stderr.txt`` and each CSV file."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main([*ARGV[case], "--out", str(out_dir)])

    def placed(text: str) -> bytes:
        return text.replace(str(out_dir), "<out>").replace(str(ROOT), "<root>").encode()

    outputs = {"exit_code.txt": f"{code}\n".encode(), "stdout.txt": placed(stdout.getvalue()),
               "stderr.txt": placed(stderr.getvalue())}
    outputs.update((p.name, p.read_bytes()) for p in sorted(out_dir.iterdir()))
    return outputs


def test_every_command_and_scenario_is_a_case():
    assert len(CASES) == len(COMMANDS) * len(SCENARIOS) + 1 == 21
    assert sorted(p.name for p in GOLDEN.iterdir()) == CASES


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
