"""Command-line verification harness.

Subcommands: `verify` runs every suite, `suite NAME` runs one,
`admissibility-table` emits the fixed-space growth table, `spectrum`
prints the guard report for a seeded operator pair, and `replay-prune`
runs the orbit-pruning replay on its own.

Exit codes: 0 all selected checks passed, 1 a suite reported failures,
2 configuration problems, 3 numeric breakdown (functional calculus or
guard rejection).  Reports are deterministic per (argv, seed); the
timestamp field is the only varying byte and --no-timestamp removes it.
"""
from __future__ import annotations

import argparse
import datetime
import json
import sys
import zlib

import numpy as np

from .errors import (
    ConfigError,
    IllConditionedError,
    SpectralGuardError,
    TreeRepError,
)
from .operators import build_pair, guard_spectrum, matrix_to_json_obj, random_in_disc
from .suites import SUITES, SuiteConfig, SuiteReport, run_all, run_suite


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treerep",
        description="Verification suites for boundary representations of tree automorphism groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> argparse.ArgumentParser:
        p.add_argument("--q", type=int, default=2, help="branching parameter, valency is q+1")
        p.add_argument("--depth", type=int, default=8, help="depth cap for all enumerations")
        p.add_argument("--dim", type=int, default=2, help="fiber dimension d")
        p.add_argument("--trials", type=int, default=100, help="seeded trials per suite")
        p.add_argument("--seed", type=int, default=0, help="master seed")
        p.add_argument("--tol", type=float, default=1e-8, help="operator-level tolerance")
        p.add_argument("--out", type=str, default=None, help="write the report here instead of stdout")
        p.add_argument(
            "--format", choices=("json", "csv", "text"), default="json", help="report format"
        )
        p.add_argument(
            "--no-timestamp",
            action="store_true",
            help="omit the timestamp for byte-identical reruns",
        )
        return p

    common(sub.add_parser("verify", help="run every suite"))
    p_suite = sub.add_parser("suite", help="run one named suite")
    p_suite.add_argument("name", choices=sorted(SUITES), metavar="NAME")
    common(p_suite)
    # the one-suite commands name their suite as `suite NAME` does
    common(sub.add_parser("admissibility-table", help="fixed-space growth table")).set_defaults(
        name="admissibility_table"
    )
    common(sub.add_parser("spectrum", help="guard report for a seeded operator pair"))
    common(sub.add_parser("replay-prune", help="orbit-pruning replay")).set_defaults(
        name="prune_replay"
    )
    return parser


def _envelope(args, payload: dict) -> dict:
    out = {
        "command": args.command,
        "config": {
            "q": args.q,
            "depth": args.depth,
            "dim": args.dim,
            "trials": args.trials,
            "seed": args.seed,
            "tol": args.tol,
        },
    }
    if not args.no_timestamp:
        out["timestamp"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    out.update(payload)
    return out


def _reports_text(reports: list[SuiteReport]) -> str:
    lines = []
    for rep in reports:
        status = "PASS" if rep.passed else "FAIL"
        lines.append(
            f"{rep.suite_name:28s} {status}  trials={rep.trial_count}  "
            f"max_residual={rep.max_residual:.3e}  failures={len(rep.failures)}"
        )
    return "\n".join(lines) + "\n"


def _emit(args, text: str) -> None:
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write the report to {args.out}: {exc.strerror}") from exc
    else:
        sys.stdout.write(text)


def _render(args, payload: dict, text: str, csv: str | None = None) -> None:
    """Write one report in the chosen format: `payload` inside the JSON
    envelope, the `text` lines, or the `csv` table of a tabular report."""
    if args.format == "csv":
        if csv is None:
            raise ConfigError("csv output is only available for tabular reports")
        _emit(args, csv + "\n")
    elif args.format == "text":
        _emit(args, text)
    else:
        payload = _envelope(args, payload)
        _emit(args, json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")


def _spectrum_report(args) -> dict:
    rng = np.random.default_rng([args.seed, zlib.crc32(b"spectrum")])
    alpha = random_in_disc(args.dim, args.q, rng)
    pair = build_pair(alpha, args.q)
    guard = guard_spectrum(pair)
    return {
        "alpha": matrix_to_json_obj(alpha),
        "tau": matrix_to_json_obj(pair.tau),
        "residuals": pair.residuals,
        "guard": guard,
    }


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed its message; 2 for usage errors, 0 for --help
        return int(exc.code or 0)
    try:
        cfg = SuiteConfig(
            q=args.q,
            depth_cap=args.depth,
            dim=args.dim,
            trials=args.trials,
            seed=args.seed,
            tol=args.tol,
        )
        if args.command == "spectrum":
            spectrum = _spectrum_report(args)
            guard = spectrum["guard"]
            _render(
                args,
                {"spectrum": spectrum, "passed": True},
                f"margin_to_pm_q={guard['margin_to_pm_q']:.6e}  "
                f"sigma_min_diff={guard['sigma_min_diff']:.6e}\n",
            )
            return 0
        reports = run_all(cfg) if args.command == "verify" else [run_suite(cfg, args.name)]
        passed = all(r.passed for r in reports)
        _render(
            args,
            {"suites": [r.to_json_obj() for r in reports], "passed": passed},
            _reports_text(reports),
            reports[0].details.get("csv") if len(reports) == 1 else None,
        )
        return 0 if passed else 1
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (IllConditionedError, SpectralGuardError) as exc:
        print(f"numeric breakdown: {exc}", file=sys.stderr)
        return 3
    except TreeRepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
