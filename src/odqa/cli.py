"""Command line front end.

Exit codes follow the audit contract: 0 means the run completed with no
finding at or above the severity threshold, 1 means findings crossed the
threshold, 2 means the run itself failed (bad config, unreadable input,
inconsistent plan).
"""

from __future__ import annotations

import argparse
import logging
import sys

from .config import load_config, parse_formats
from .errors import OdqaError
from .findings import Severity
from .pipeline import (
    run_audit,
    run_dict_check,
    run_profile,
    run_reduce_apply,
    run_reduce_plan,
)
from .report import EXIT_FATAL

log = logging.getLogger(__name__)


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", required=True, help="YAML config file")
    sub.add_argument("--out", help="output directory (overrides config out_dir)")
    sub.add_argument(
        "--severity-threshold",
        choices=["info", "warning", "error"],
        help="minimum severity that turns the exit status to 1",
    )
    sub.add_argument(
        "--format",
        help="comma separated output formats: json,markdown,csv",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="odqa",
        description="Streaming audit and curation for large CSV exports.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="log progress to stderr")
    commands = parser.add_subparsers(dest="command", required=True)

    for name, helptext in (
        ("audit", "full data quality audit"),
        ("profile", "column profiles and missingness tiers only"),
        ("dict-check", "data dictionary conformance"),
        ("reduce-plan", "build a storage reduction plan"),
        ("reduce-apply", "execute a reduction plan"),
    ):
        sub = commands.add_parser(name, help=helptext)
        _add_common(sub)
        if name == "reduce-apply":
            sub.add_argument("--plan", help="plan file (default: <out_dir>/plan.json)")

    return parser


_RUNNERS = {
    "audit": run_audit,
    "profile": run_profile,
    "dict-check": run_dict_check,
    "reduce-plan": run_reduce_plan,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        cfg = load_config(args.config)
        if args.out:
            cfg.out_dir = type(cfg.out_dir)(args.out)
        if args.severity_threshold:
            cfg.severity_threshold = Severity.parse(args.severity_threshold)
        if args.format:
            cfg.formats = parse_formats(args.format)

        if args.command == "reduce-apply":
            result = run_reduce_apply(cfg, args.plan)
        else:
            result = _RUNNERS[args.command](cfg)
    except OdqaError as exc:
        print(f"odqa: error: {exc}", file=sys.stderr)
        return EXIT_FATAL
    except OSError as exc:
        print(f"odqa: error: {exc}", file=sys.stderr)
        return EXIT_FATAL

    sink = result.sink
    total = sink.total()
    print(f"{args.command}: {total} finding(s); exit status {result.exit_status}")
    for path in result.output_paths.values():
        print(f"  wrote {path}")
    return result.exit_status


if __name__ == "__main__":
    sys.exit(main())
