"""Shared CLI plumbing for the sweep subcommands.

Every sweep exposes the same knobs — ``--seed``, ``--horizon``,
``--multipliers``, a ``--driver`` choice, ``--json``/``--trace``
artifact sinks and the ``--controlled`` toggle — and
until now each subparser declared them independently, with drifting
help strings and (in one case) a misnamed flag. This module is the one
place those options are defined; :mod:`repro.cli` composes them per
subcommand.
"""

from __future__ import annotations

import argparse
from typing import Optional, Sequence

DEFAULT_SEED = 42
DEFAULT_HORIZON_S = 300.0


def add_seed_option(
    parser: argparse.ArgumentParser, default: int = DEFAULT_SEED
) -> None:
    parser.add_argument(
        "--seed",
        type=int,
        default=default,
        help="master seed for every derived stream",
    )


def add_horizon_option(
    parser: argparse.ArgumentParser,
    default: Optional[float] = DEFAULT_HORIZON_S,
) -> None:
    parser.add_argument(
        "--horizon",
        type=float,
        default=default,
        help="arrival horizon in (logical) seconds"
        + (" (default: the spec's)" if default is None else ""),
    )


def add_multipliers_option(
    parser: argparse.ArgumentParser, default: Sequence[float]
) -> None:
    parser.add_argument(
        "--multipliers",
        type=float,
        nargs="+",
        default=list(default),
        help="offered-load multipliers to sweep",
    )


def add_driver_option(
    parser: argparse.ArgumentParser, thread_help: str
) -> None:
    parser.add_argument(
        "--driver",
        choices=("sim", "thread"),
        default="sim",
        help=f"sim: deterministic logical time; thread: {thread_help}",
    )


def add_artifact_options(
    parser: argparse.ArgumentParser,
    json_help: str = "also write deterministic metrics JSON",
    trace: bool = True,
) -> None:
    parser.add_argument("--json", default=None, help=json_help)
    if trace:
        parser.add_argument(
            "--trace",
            default=None,
            help="also write the span trace as NDJSON",
        )


def add_controlled_option(
    parser: argparse.ArgumentParser, help_text: str
) -> None:
    parser.add_argument("--controlled", action="store_true", help=help_text)


def write_artifacts(
    args: argparse.Namespace, result, json_label: str = "metrics"
) -> None:
    """Honour ``--json``/``--trace`` for any result with the sweep duck
    type (``to_json`` and, when traced, ``trace_ndjson``)."""
    json_path: Optional[str] = getattr(args, "json", None)
    if json_path is not None:
        with open(json_path, "w", encoding="utf-8") as handle:
            handle.write(result.to_json() + "\n")
        print(f"\n{json_label} JSON written to {json_path}")
    trace_path: Optional[str] = getattr(args, "trace", None)
    if trace_path is not None:
        trace_payload = result.trace_ndjson
        if callable(trace_payload):
            trace_payload = trace_payload()
        with open(trace_path, "w", encoding="utf-8") as handle:
            handle.write(trace_payload)
        print(f"span trace NDJSON written to {trace_path}")


__all__ = [
    "DEFAULT_HORIZON_S",
    "DEFAULT_SEED",
    "add_artifact_options",
    "add_controlled_option",
    "add_driver_option",
    "add_horizon_option",
    "add_multipliers_option",
    "add_seed_option",
    "write_artifacts",
]
