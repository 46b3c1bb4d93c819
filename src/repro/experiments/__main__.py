"""CLI: regenerate one paper artefact.

    python -m repro.experiments fig2
    python -m repro.experiments table5 --scale tiny
    python -m repro.experiments all --scale bench
    python -m repro.experiments fig9 --telemetry-report

``--telemetry-report`` records stage times for the run and appends the
per-stage self-time table (worker stages included under ``--workers N``)
after the experiment reports; ``--quiet`` suppresses informational output
(useful when only the persisted artefact files matter).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .. import telemetry
from ..telemetry.log import emit, set_quiet
from .common import BENCH, FULL, TINY
from .registry import EXPERIMENTS, run_experiment

SCALES = {"tiny": TINY, "bench": BENCH, "full": FULL}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.experiments", description=__doc__
    )
    parser.add_argument(
        "experiment",
        help=f"experiment id ({', '.join(sorted(EXPERIMENTS))}) or 'all'",
    )
    parser.add_argument("--scale", choices=sorted(SCALES), default="bench")
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="parallel-engine workers for the efficiency figures "
        "(fig5/fig9 gain an 'x N' row; 0 or unset = serial only)",
    )
    parser.add_argument(
        "--telemetry-report",
        action="store_true",
        help="record stage times and print the per-stage self-time table",
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress informational output (warnings still shown)",
    )
    args = parser.parse_args(argv)
    scale = SCALES[args.scale]
    if args.workers is not None:
        scale = dataclasses.replace(scale, workers=max(args.workers, 0))
    set_quiet(args.quiet)
    if args.telemetry_report:
        telemetry.enable()

    ids = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for experiment_id in ids:
        emit(run_experiment(experiment_id, scale))
        emit("")
    if args.telemetry_report:
        emit("stage totals:")
        emit(telemetry.render_stage_table())
    return 0


if __name__ == "__main__":
    sys.exit(main())
