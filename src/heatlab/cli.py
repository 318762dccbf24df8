"""Batch verification driver.

Subcommands:
  verify SUITE   run one named suite, print its rows, optionally emit CSV
  report         run every suite, one CSV file each
  list-suites    print the registry

Exit codes: 0 all checks passed, 1 at least one check failed, 2 usage or
configuration error.  A flag under `verify`, or a key in [suite NAME], that
the suite never reads is a configuration error; `report`, [defaults] and
[group] apply to the suites that read them.  A suite whose orbit
enumeration or quadrature cannot be certified on the configured input is
one too: it ends the run with exit 2 and prints none of that suite's rows.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys

from .config import Config, ConfigError, format_cell, load_config, write_csv
from .lattice import EnumerationError, group_from_section
from .oracle import QuadratureError
from .registry import CONFIGURABLE
from .suites import CRITERION_SUITES, SUITE_READS, SUITES, SuiteConfig, SuiteReport, run_suite

_SUITE_KEYS = ("epsilon", "seed", "orders", "out")  # keys of [defaults] and [suite NAME]
_FLAG_FIELDS = {"--epsilon": "epsilon", "--seed": "seed", "--i": "orders"}  # verify flags
_ORDERS = (0, 1, 2)  # time-derivative orders with closed forms


def emit_csv(report: SuiteReport, path: str) -> None:
    """UTF-8 CSV with a fixed column order: suite, check, the union of the
    row parameter keys (sorted), oracle, bound, ratio, pass.  Floats carry
    17 significant digits so parsing reproduces them bit-exactly."""
    rows = report.sorted_rows()
    param_keys = sorted({key for row in rows for key in row.params})
    header = ["suite", "check", *param_keys, "oracle", "bound", "ratio", "pass"]
    records = ([report.suite, row.check, *(row.params.get(k, "") for k in param_keys),
                float(row.oracle), float(row.bound), float(row.ratio), bool(row.passed)]
               for row in rows)
    try:
        write_csv(path, header, records)
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


def _epsilon(value: float, where: str) -> float:
    if not 0.0 < value < 1.0:
        raise ConfigError(f"{where}: epsilon must lie in (0, 1), got {value}")
    return value


def _seed(value: int, where: str) -> int:
    if value < 0:
        raise ConfigError(f"{where}: seed must be nonnegative, got {value}")
    return value


def _orders(raw: str, where: str) -> tuple[int, ...]:
    try:
        orders = tuple(int(v) for v in raw.split(","))
    except ValueError:
        orders = ()
    if not orders or any(i not in _ORDERS for i in orders):
        raise ConfigError(f"{where}: orders must be integers in {{0, 1, 2}}, got {raw!r}")
    if len(set(orders)) != len(orders):
        raise ConfigError(f"{where}: orders must not repeat, got {raw!r}")
    return orders


def _reads(name: str) -> frozenset[str]:
    """SuiteConfig fields the suite reads; a callable put into SUITES without
    @suite declares nothing and is taken to read them all."""
    return SUITE_READS.get(name, CONFIGURABLE)


def _check_read(name: str, field: str, given: str) -> None:
    if field not in _reads(name):
        readers = sorted(n for n in SUITES if field in _reads(n))
        raise ConfigError(f"suite {name} does not read {given}; it is read by "
                          f"{', '.join(readers) or 'no suite'}")


def _config_fields(config: Config, command: str) -> dict[str, dict]:
    """Checked SuiteConfig fields of each [defaults] and [suite NAME]
    section.  Any other section or key, or a bad value, raises ConfigError;
    `report` names its own files, so it takes no out key, and a [suite NAME]
    key that the suite never reads is rejected."""
    keys = _SUITE_KEYS if command == "verify" else tuple(k for k in _SUITE_KEYS if k != "out")
    fields = {}
    for name, section in config.sections.items():
        if name == "group" or not (name or section.entries):
            continue
        if not name:
            raise ConfigError(f"key {next(iter(section.entries))!r} outside any section")
        if name != "defaults" and not (name.startswith("suite ") and name[6:] in SUITES):
            raise ConfigError(f"unknown section [{name}]; expected [defaults], "
                              "[suite NAME] for a registered NAME, or [group]")
        where = f"[{name}]"
        for key in section.entries:
            if key not in keys:
                hint = " (report writes NAME.csv under --out)" if key == "out" else ""
                raise ConfigError(f"key {key!r} is not accepted in {where}{hint}; "
                                  f"expected {', '.join(keys)}")
            if name != "defaults" and key != "out":
                _check_read(name[6:], key, f"key {key!r} of {where}")
        values = {}
        if "epsilon" in section:
            values["epsilon"] = _epsilon(section.get_float("epsilon"), where)
        if "seed" in section:
            values["seed"] = _seed(section.get_int("seed"), where)
        if "orders" in section:
            values["orders"] = _orders(section.get("orders"), where)
        if "out" in section:
            values["out"] = section.get("out")
        fields[name] = values
    return fields


def _suite_config(name: str, args, config: Config | None) -> SuiteConfig:
    """Defaults, then [defaults], then [suite NAME], then the flags.  Under
    `verify` a flag must be one the suite reads."""
    cfg = SuiteConfig(name=name)
    if args.command == "verify":
        for flag, field_name in _FLAG_FIELDS.items():
            if getattr(args, flag[2:]) is not None:
                _check_read(name, field_name, flag)
    if config is not None:
        fields = _config_fields(config, args.command)
        for key in ("defaults", f"suite {name}"):
            for field_name, value in fields.get(key, {}).items():
                setattr(cfg, field_name, value)
        if "group" in config:
            cfg.group = group_from_section(config.sections["group"])
    if args.epsilon is not None:
        cfg.epsilon = _epsilon(args.epsilon, "--epsilon")
    if args.seed is not None:
        cfg.seed = _seed(args.seed, "--seed")
    if getattr(args, "i", None) is not None:
        cfg.orders = _orders(str(args.i), "--i")
    if args.command == "verify" and args.out:
        cfg.out = args.out
    return cfg


def _print_report(report: SuiteReport, stream) -> None:
    print(f"suite {report.suite}: {'PASS' if report.passed else 'FAIL'} "
          f"({len(report.rows)} checks, {report.wall_time:.2f} s)", file=stream)
    for row in report.sorted_rows():
        params = " ".join(f"{k}={format_cell(v)}" for k, v in sorted(row.params.items()))
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
    verify.add_argument("--epsilon", type=float)
    verify.add_argument("--seed", type=int)
    verify.add_argument("--i", type=int, help="derivative order 0, 1 or 2 (theorem1)")

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

    if args.command == "verify" and args.suite not in SUITES:
        print(f"error: unknown suite {args.suite!r}; known: {', '.join(sorted(SUITES))}",
              file=sys.stderr)
        return 2
    # every suite's config is checked before the first suite runs
    names = [args.suite] if args.command == "verify" else sorted(SUITES)
    try:
        config = load_config(args.config) if args.config else None
        configs = [_suite_config(name, args, config) for name in names]
        if args.command == "report":
            os.makedirs(args.out, exist_ok=True)
    except (OSError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    all_passed = True
    for cfg in configs:
        try:
            report = run_suite(cfg)
        except (EnumerationError, QuadratureError) as exc:
            print(f"error: suite {cfg.name}: {exc}", file=sys.stderr)
            return 2
        _print_report(report, sys.stdout)
        path = cfg.out if args.command == "verify" else os.path.join(args.out, f"{cfg.name}.csv")
        if path:
            try:
                emit_csv(report, path)
            except OSError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
        all_passed = all_passed and report.passed
    return 0 if all_passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
