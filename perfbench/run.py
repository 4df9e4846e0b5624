"""qosmarket benchmark: one workload, one seed, one closed loop.

Run from the root of a source checkout (the package need not be installed):

    python3 perfbench/run.py --workload custom_density --seed 1 --seconds 30 --trace 0

The last line of standard output is the result as JSON.  The line before it
is a report with the sample count of every metric, the p90s that have at
least 100 samples, machine speed (``calib_ms``) and any failures.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qosmarket" / "__init__.py").is_file() or not (ROOT / "scenarios").is_dir():
        print(f"perfbench: {ROOT} holds no qosmarket source tree (src/qosmarket, scenarios/)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import harness
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    (HERE / ".work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=HERE / ".work"))
    try:
        ctx = workloads.Context(root=ROOT, work=work)
        result, report = harness.run(args.workload, args.seed, args.seconds, bool(args.trace), ctx)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
