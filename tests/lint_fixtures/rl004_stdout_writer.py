# reprolint: module=repro.telemetry.log
"""RL004 fixture: the blessed writer module may write to stdout."""

import sys


def write(text: str) -> None:
    sys.stdout.write(text)  # clean: repro.telemetry.log is the blessed writer
