"""Structured logging for the CLI and benchmark harness.

Replaces bare ``print()`` in the experiment CLI and report plumbing with a
stdlib :mod:`logging` logger using a concise formatter.  Reports still land
on stdout (so shell redirection and ``capsys`` keep working), but gain a
uniform prefix, severity filtering, and a ``--quiet`` switch that drops
everything below WARNING.

``emit`` intentionally prints multi-line artefacts (report and stage tables)
without a prefix on continuation lines — they are data, not chatter.
"""

from __future__ import annotations

import logging
import sys
from typing import Optional

LOGGER_NAME = "repro"


class _StdoutHandler(logging.StreamHandler):
    """Handler that always writes to the *current* ``sys.stdout``.

    Looking the stream up per-emit keeps the logger working under pytest's
    ``capsys``, which swaps ``sys.stdout`` for every test.
    """

    def __init__(self) -> None:
        super().__init__(sys.stdout)

    @property
    def stream(self):
        return sys.stdout

    @stream.setter
    def stream(self, value) -> None:  # base __init__ assigns; ignore it
        pass


class _ConciseFormatter(logging.Formatter):
    """``[repro] message`` for INFO; severity-prefixed otherwise."""

    def format(self, record: logging.LogRecord) -> str:
        message = record.getMessage()
        if record.levelno == logging.INFO:
            return message
        return f"[{record.name}:{record.levelname.lower()}] {message}"


_configured = False


def get_logger(name: Optional[str] = None) -> logging.Logger:
    """The ``repro`` logger (or a child), configured on first use."""
    global _configured
    logger = logging.getLogger(LOGGER_NAME)
    if not _configured:
        handler = _StdoutHandler()
        handler.setFormatter(_ConciseFormatter())
        logger.addHandler(handler)
        logger.setLevel(logging.INFO)
        logger.propagate = False
        _configured = True
    if name:
        return logger.getChild(name)
    return logger


def set_quiet(quiet: bool = True) -> None:
    """Suppress informational output (reports still go to files)."""
    get_logger().setLevel(logging.WARNING if quiet else logging.INFO)


def emit(message: str) -> None:
    """Log a user-facing artefact (report or stage table) at INFO."""
    get_logger().info(message)


def debug(message: str) -> None:
    get_logger().debug(message)


def warning(message: str) -> None:
    get_logger().warning(message)
