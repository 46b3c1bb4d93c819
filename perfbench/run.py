"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload recover-pt --seed 1 --seconds 10 --trace 0

Run from the root of a source tree (the program is imported from ``src``).
Every metric is printed by name with its unit; the last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics of BENCHMARK.json, or its per-layer ones with
``--trace 1``).  The run's full record, with the spans of a traced run, is
written to ``.perfbench/`` at the root.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".perfbench"


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def listed(spec: Dict[str, Any], trace: bool) -> List[Dict[str, Any]]:
    """Metrics a run computes: end-to-end always, per-layer when traced."""
    return spec["end_to_end"] + (spec["per_layer"] if trace else [])


def report(
    spec: Dict[str, Any], values: Dict[str, float], trace: bool
) -> Dict[str, Dict[str, Any]]:
    """Every metric the run computes, with its unit from BENCHMARK.json.

    Raises ``ValueError`` when one is missing or not a finite number.
    """
    shown = {}
    for metric in listed(spec, trace):
        value = values.get(metric["name"])
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise ValueError(f"metric {metric['name']} is {value!r}")
        shown[metric["name"]] = {"value": value, "unit": metric["unit"]}
    return shown


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(ROOT))
    from perfbench import environment

    environment.pin_threads()  # before NumPy loads its BLAS
    try:
        return measure(args)
    finally:
        environment.stop_children()


def measure(args: argparse.Namespace) -> int:
    """The run itself; ``main`` stops what it started on every way out."""
    from perfbench import environment

    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    from perfbench.workloads import WORKLOADS, run

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    env = environment.record(ROOT)
    output, record, tracer = run(
        args.workload, args.seed, args.seconds, bool(args.trace)
    )

    try:
        shown = report(spec, output["metrics"], bool(args.trace))
    except ValueError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    for metric in listed(spec, bool(args.trace)):
        value = shown[metric["name"]]["value"]
        print(f"{metric['name']:<30} {value:>14.6g} {metric['unit']:<8} "
              f"({metric['better']} is better)")
    reported = spec["per_layer"] if args.trace else spec["end_to_end"]
    output["metrics"] = {m["name"]: shown[m["name"]] for m in reported}

    OUT_DIR.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(OUT_DIR / name, "w") as handle:
        json.dump(
            {"environment": env, "record": record, "result": output,
             "trace": tracer.to_json() if tracer is not None else None},
            handle,
        )
    print("environment " + json.dumps(env))
    print("record " + json.dumps(record))
    print(json.dumps(output))
    return 0


if __name__ == "__main__":
    sys.exit(main())
