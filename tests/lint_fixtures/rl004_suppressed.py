# reprolint: module=repro.utils.fixture_hygiene_ok
"""RL004 fixture: suppressions with reasons silence both finding kinds."""

from repro.telemetry import span


def report(stage: str) -> None:
    print("bootstrap failure, logger unavailable")  # reprolint: allow[RL004] reason=pre-telemetry bootstrap error path
    # reprolint: allow[RL004] reason=stage names come from the caller, enumerated in OBSERVABILITY.md
    with span(stage):
        pass
