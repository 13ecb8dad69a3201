"""Command-line entry points.

Subcommands:

* ``run <config.json> [--trace out.csv] [-o report.json]`` -- execute a
  scenario, write the report (and optionally a frame trace), exit 0 only if
  every run-level check passed.
* ``compare <N ...>`` -- print the scheme comparison table as CSV.
* ``keygen <group> <n> [-o file] [--seed S]`` -- write a provisioning
  parameter file with n keypairs, loadable by ``run`` via the config's
  ``keyfile`` key.

The ``CANVAULT_SEED`` environment variable, a decimal integer as ``--seed``
takes it, overrides the seed used by ``run`` and ``keygen``.

Exit codes: 0 success, 2 configuration or usage error (an unwritable output
path included, which ``run`` and ``keygen`` refuse before they run a scenario
or derive a keypair), 3 a run-level check failed or the run stalled; ``run``
writes the report in both cases of 3.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import CanvaultError, ConfigError, DomainError, RunCheckError
from .group import GROUP_NAMES, get_group
from .harness import (ScenarioConfig, comparison_table, generate_keypairs,
                      run_scenario, write_keyfile)

SEED_ENV = "CANVAULT_SEED"


def _env_seed() -> int | None:
    raw = os.environ.get(SEED_ENV)
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{SEED_ENV} must be a decimal integer, got {raw!r}") from None


def _refuse_unwritable(*paths: str | None) -> None:
    """Outputs are checked before any work, so a refused command writes
    nothing."""
    for path in filter(None, paths):
        target = path if os.path.exists(path) else os.path.dirname(path) or "."
        if os.path.isdir(path) or not os.access(target, os.W_OK):
            raise ConfigError(f"cannot write {path}")


def cmd_run(args: argparse.Namespace) -> int:
    cfg = ScenarioConfig.from_json_file(args.config)
    seed = _env_seed()
    if seed is not None:
        cfg = cfg.replace(rng_seed=seed)
    if args.trace and os.path.realpath(args.trace) == os.path.realpath(args.out):
        raise ConfigError(f"--trace and -o both name {args.out}")
    _refuse_unwritable(args.out, args.trace)
    code = 0
    try:
        report = run_scenario(cfg, trace_path=args.trace)
    except RunCheckError as exc:
        report = exc.report
        code = 3
        print(f"error: {exc}", file=sys.stderr)
    with open(args.out, "w") as fh:
        fh.write(report.to_json())
    status = "ok" if code == 0 else "CHECKS FAILED"
    print(f"{args.out}: {report.logical_messages} messages "
          f"(expected {report.expected_messages}), {report.frames} frames, "
          f"{len(report.rejections)} rejections -- {status}")
    return code


def cmd_compare(args: argparse.Namespace) -> int:
    rows = comparison_table(args.sizes)
    print("scheme,N,messages,percent_of_ours")
    for row in rows:
        print(f"{row['scheme']},{row['n']},{row['messages']},"
              f"{row['percent_of_ours']:.2f}")
    return 0


def cmd_keygen(args: argparse.Namespace) -> int:
    group = get_group(args.group)
    if args.n < 1:
        raise ConfigError("number of keypairs must be >= 1")
    seed = _env_seed()
    if seed is None:
        seed = args.seed
    if seed < 0:
        raise ConfigError("keygen seed must be >= 0")
    out = args.out or f"params_{group.name}.json"
    _refuse_unwritable(out)
    write_keyfile(out, group, generate_keypairs(group, args.n, seed))
    print(f"{out}: {args.n} keypairs for group {group.name} (seed {seed})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="canvault",
        description="Group key management scenarios on a simulated CAN-FD bus")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario config")
    p_run.add_argument("config", help="path to a scenario JSON file")
    p_run.add_argument("--trace", metavar="CSV", default=None,
                       help="also write a per-frame trace to this path")
    p_run.add_argument("-o", "--out", default="report.json",
                       help="report output path (default: report.json)")
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="print the scheme comparison CSV")
    p_cmp.add_argument("sizes", nargs="+", type=int, metavar="N",
                       help="group sizes to tabulate")
    p_cmp.set_defaults(func=cmd_compare)

    p_kg = sub.add_parser("keygen", help="write a provisioning parameter file")
    p_kg.add_argument("group", choices=GROUP_NAMES)
    p_kg.add_argument("n", type=int, help="number of keypairs")
    p_kg.add_argument("-o", "--out", default=None,
                      help="output path (default: params_<group>.json)")
    p_kg.add_argument("--seed", type=int, default=0,
                      help="keygen seed, >= 0 (default 0)")
    p_kg.set_defaults(func=cmd_keygen)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CanvaultError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
