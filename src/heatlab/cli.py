"""Batch verification driver.

Subcommands:
  verify SUITE   run one named suite, print its rows, optionally emit CSV
  report         run every suite (or those listed in the config) to CSV files
  list-suites    print the registry

Exit codes: 0 all checks passed, 1 at least one check failed, 2 usage or
configuration error.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys

from .config import Config, ConfigError, load_config
from .lattice import GroupSpecError, parse_group
from .suites import CRITERION_SUITES, SUITES, SuiteConfig, SuiteReport, run_suite

def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def emit_csv(report: SuiteReport, path: str) -> None:
    """UTF-8 CSV with a fixed column order: suite, check, the union of the
    row parameter keys (sorted), oracle, bound, ratio, pass.  Floats carry
    17 significant digits so parsing reproduces them bit-exactly."""
    rows = report.sorted_rows()
    param_keys = sorted({key for row in rows for key in row.params})
    header = ["suite", "check", *param_keys, "oracle", "bound", "ratio", "pass"]
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(header)
            for row in rows:
                record = [report.suite, row.check]
                record.extend(_format_value(row.params.get(k, "")) for k in param_keys)
                record.extend([
                    _format_value(float(row.oracle)),
                    _format_value(float(row.bound)),
                    _format_value(float(row.ratio)),
                    "true" if row.passed else "false",
                ])
                writer.writerow(record)
    except OSError as exc:
        raise OSError(f"cannot write report to {path!r}: {exc}") from exc


def parse_report_csv(path: str) -> list[dict]:
    """Parse an emitted report back into dict rows (numeric fields as float)."""
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.DictReader(handle)
        out = []
        for row in reader:
            parsed = dict(row)
            for key in ("oracle", "bound", "ratio"):
                parsed[key] = float(row[key])
            parsed["pass"] = row["pass"] == "true"
            out.append(parsed)
        return out


def _suite_config(name: str, args, config: Config | None) -> SuiteConfig:
    cfg = SuiteConfig(name=name)
    sections = []
    if config is not None:
        if "defaults" in config:
            sections.append(config.sections["defaults"])
        key = f"suite {name}"
        if key in config:
            sections.append(config.sections[key])
    for section in sections:
        cfg.space = section.get("space", cfg.space) or cfg.space
        cfg.epsilon = section.get_float("epsilon", cfg.epsilon)
        cfg.seed = section.get_int("seed", cfg.seed)
        cfg.out = section.get("out", cfg.out)
        raw_orders = section.get("orders")
        if raw_orders:
            cfg.orders = tuple(int(v) for v in raw_orders.split(","))
    if config is not None and "group" in config:
        text_lines = ["[group]"]
        group_section = config.sections["group"]
        for key, values in group_section.entries.items():
            text_lines.extend(f"{key} = {v}" for v in values)
        cfg.group = parse_group("\n".join(text_lines))
    if getattr(args, "space", None):
        cfg.space = args.space
    if getattr(args, "epsilon", None) is not None:
        cfg.epsilon = args.epsilon
    if getattr(args, "seed", None) is not None:
        cfg.seed = args.seed
    if getattr(args, "i", None) is not None:
        cfg.orders = (args.i,)
    if getattr(args, "out", None):
        cfg.out = args.out
    return cfg


def _print_report(report: SuiteReport, stream) -> None:
    print(f"suite {report.suite}: {'PASS' if report.passed else 'FAIL'} "
          f"({len(report.rows)} checks, {report.wall_time:.2f} s)", file=stream)
    for row in report.sorted_rows():
        params = " ".join(f"{k}={_format_value(v)}" for k, v in sorted(row.params.items()))
        status = "ok  " if row.passed else "FAIL"
        print(f"  [{status}] {row.check} {params} oracle={row.oracle:.6g} "
              f"bound={row.bound:.6g} ratio={row.ratio:.6g}", file=stream)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heatlab",
        description="verify kernel-derivative bounds against exact oracles",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run one named suite")
    verify.add_argument("suite", help="suite name (see list-suites)")
    verify.add_argument("--config", help="path to a key=value config file")
    verify.add_argument("--out", help="write the report CSV here")
    verify.add_argument("--space", choices=("h2", "h3"))
    verify.add_argument("--epsilon", type=float)
    verify.add_argument("--seed", type=int)
    verify.add_argument("--i", type=int, help="restrict derivative order")

    report = sub.add_parser("report", help="run all suites, one CSV each")
    report.add_argument("--config", help="path to a key=value config file")
    report.add_argument("--out", default=".", help="output directory (default: cwd)")
    report.add_argument("--epsilon", type=float)
    report.add_argument("--seed", type=int)

    sub.add_parser("list-suites", help="print the suite registry")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    if args.command == "list-suites":
        by_suite = {}
        for criterion, names in CRITERION_SUITES.items():
            for rank, name in enumerate(names):
                by_suite[name] = (criterion, "primary" if rank == 0 else "supplemental")
        for name in sorted(SUITES):
            criterion, role = by_suite.get(name, ("-", "-"))
            print(f"{name:12s} acceptance criterion {criterion} ({role})")
        return 0

    config = None
    if getattr(args, "config", None):
        try:
            config = load_config(args.config)
        except (OSError, ConfigError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    if args.command == "verify":
        if args.suite not in SUITES:
            print(f"error: unknown suite {args.suite!r}; known: {', '.join(sorted(SUITES))}",
                  file=sys.stderr)
            return 2
        try:
            cfg = _suite_config(args.suite, args, config)
        except (ConfigError, GroupSpecError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        report = run_suite(cfg)
        _print_report(report, sys.stdout)
        if cfg.out:
            try:
                emit_csv(report, cfg.out)
            except OSError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
        return 0 if report.passed else 1

    if args.command == "report":
        out_dir = args.out
        os.makedirs(out_dir, exist_ok=True)
        all_passed = True
        for name in sorted(SUITES):
            try:
                cfg = _suite_config(name, args, config)
            except (ConfigError, GroupSpecError) as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            suite_report = run_suite(cfg)
            _print_report(suite_report, sys.stdout)
            try:
                emit_csv(suite_report, os.path.join(out_dir, f"{name}.csv"))
            except OSError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            all_passed = all_passed and suite_report.passed
        return 0 if all_passed else 1

    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
