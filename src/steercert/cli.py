"""Command line front end for the experiment harness.

Each subcommand offers the config fields its experiment reads
(harness.EXPERIMENTS); a --config file takes only those, and flags override it.

Exit codes: 0 on success, 2 for invalid configuration or input, 3 when a
check run ends Inconclusive, 4 for numerical failures."""

from __future__ import annotations

import argparse
import json
import sys

from .harness import EXPERIMENTS, ConfigError, ExperimentConfig, run_experiment

# Subcommand name: (experiment, help).
_SUBCOMMANDS = {
    "conj1": ("conjecture1", "sample random measurements and certify at the threshold"),
    "vn-table": ("vn_table", "estimate critical visibilities per setting count"),
    "nc-bound": ("nc_bound", "cross-check the classical bound against the LP"),
    "jm-check": ("jm_check", "certify joint measurability of a measurement file"),
    "steer-check": ("steer_check", "certify a hidden-state model for an assemblage file"),
    "witness-opt": ("witness_opt", "optimize the ensemble for a measurement file"),
}

# The argparse options of each config field a runner reads: input_path is
# the positional input, any other field the flag --field with dashes for
# underscores. Values stay strings for ExperimentConfig to convert.
_FLAGS = {
    "input_path": dict(metavar="input", help="JSON input file"),
    "n": dict(help="setting count (comma list for vn-table)"),
    "samples": dict(help="number of samples to draw"),
    "seed": dict(help="master seed"),
    "restarts": dict(help="see-saw restarts per probe"),
    "threads": dict(help="worker processes"),
    "gap_tol": dict(),
    "feas_tol": dict(),
    "full": dict(
        action="store_true", default=None, help="extend the default table to n = 6, 7"
    ),
    "out": dict(help="output prefix for .jsonl and summaries"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="steercert",
        description=(
            "Witness optimization and certified critical visibilities for"
            " parity-constrained guessing games on qubits."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, (experiment, help_text) in _SUBCOMMANDS.items():
        sub = subparsers.add_parser(name, help=help_text)
        for field in EXPERIMENTS[experiment][1]:
            flag = field if field == "input_path" else "--" + field.replace("_", "-")
            sub.add_argument(flag, **_FLAGS[field])
        sub.add_argument("--config", help="JSON file with config defaults")
    return parser


def _build_config(args: argparse.Namespace) -> ExperimentConfig:
    experiment, _ = _SUBCOMMANDS[args.command]
    data: dict = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config file must hold a JSON object")
    data["experiment"] = experiment
    # Every flag that names a config field overrides the file's value, as
    # the string it was given: ExperimentConfig converts both alike.
    for key, value in vars(args).items():
        if key in ExperimentConfig.__dataclass_fields__ and value is not None:
            data[key] = value
    return ExperimentConfig.from_json(data)


def _print_summary(summary) -> None:
    print(f"experiment: {summary.experiment}")
    for est in summary.estimates:
        line = f"n={est['n']} estimate={est['estimate']:.6f}"
        if "bracket_lo" in est:
            line += f" bracket=[{est['bracket_lo']:.6f}, {est['bracket_hi']:.6f}]"
        print(line)
    counts = " ".join(f"{k}={v}" for k, v in sorted(summary.counts.items()))
    print(f"counts: {counts}")
    for note in summary.notes:
        print(f"note: {note}")
    print(f"runtime: {summary.total_runtime:.1f}s")
    if summary.config.get("out"):
        prefix = summary.config["out"]
        print(f"wrote {prefix}.jsonl, {prefix}.summary.json, {prefix}.summary.csv")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _build_config(args)
        summary, _ = run_experiment(config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    _print_summary(summary)
    # Only the one-shot experiments count inconclusive answers.
    if summary.counts.get("inconclusive"):
        return 3
    if not summary.ok:
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
