"""The repository benchmark: one command, three workloads, checked outputs.

Usage (from the repository root)::

    python3 perfbench/run.py --workload trace_replay --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` re-runs the
same work with span wrappers installed and prints the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it name every figure with its unit for a reader. A failed output check
makes ``correct`` false. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("trace_replay", "service_feed", "paper_sweep")


def _import_program() -> None:
    """Put the checkout's ``src`` on the path; fail clearly without it."""
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro
    except ImportError as error:
        raise SystemExit(f"perfbench: cannot import the program from {ROOT / 'src'}: {error}")
    # An installed copy elsewhere must not stand in for the checkout.
    if (ROOT / "src") not in Path(repro.__file__).resolve().parents:
        raise SystemExit(f"perfbench: imported {repro.__file__}, not the checkout's src/")


def run_workload(name: str, seed: int, seconds: float, traced: bool, sizes=None,
                 work: Path | None = None):
    """Run one workload in this process and return its ``Outcome``."""
    import paper_sweep
    import service_feed
    import trace_replay
    from sizing import FULL

    modules = {
        "trace_replay": trace_replay,
        "service_feed": service_feed,
        "paper_sweep": paper_sweep,
    }
    work = work if work is not None else HERE / "_work" / f"{name}-{seed}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    try:
        return modules[name].run(seed, seconds, traced, sizes or FULL, work)
    finally:
        # Keep the span dump (written at the end of a traced run); drop inputs.
        for child in work.iterdir():
            if child.is_dir():
                shutil.rmtree(child)
        if not any(work.iterdir()):
            work.rmdir()


def result_line(outcome) -> dict:
    return {
        "correct": outcome.failed == 0,
        "attempted": max(1, int(outcome.attempted)),
        "failed": int(outcome.failed),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in outcome.metrics.items()
        },
    }


def emit(workload: str, outcome) -> None:
    """Print every figure with its unit, then the result line (last)."""
    for name, value, unit, note in outcome.detail:
        print(f"{workload}  {name} = {value:.6g} {unit}" + (f"  ({note})" if note else ""))
    for name, (value, unit) in outcome.metrics.items():
        print(f"{workload}  {name} = {value:.6g} {unit}")
    error_ratio = outcome.failed / max(1, outcome.attempted)
    print(f"{workload}  error_ratio = {error_ratio:.6g} ratio "
          f"({outcome.failed} of {outcome.attempted} operations)")
    for failure in outcome.failures:
        print(f"{workload}  CHECK FAILED: {failure}")
    print(json.dumps(result_line(outcome)), flush=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()
    try:
        outcome = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except Exception:
        traceback.print_exc()
        print("perfbench: the workload crashed; no result", file=sys.stderr)
        return 1
    emit(args.workload, outcome)
    return 0


if __name__ == "__main__":
    sys.exit(main())
