"""Flat key=value configuration files with bracketed section headers.

Format::

    # comment
    [section name]
    key = value
    key = another value    # repeated keys accumulate, in file order

Lines outside any section header belong to the anonymous section "".
Values stay strings; use the typed getters on :class:`Section`.

The module also owns the one CSV cell format every heatlab table uses.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field


class ConfigError(ValueError):
    """Malformed configuration text or a missing/ill-typed key."""


@dataclass
class Section:
    name: str
    entries: dict[str, list[str]] = field(default_factory=dict)

    def add(self, key: str, value: str) -> None:
        self.entries.setdefault(key, []).append(value)

    def __contains__(self, key: str) -> bool:
        return key in self.entries

    def get(self, key: str) -> str | None:
        values = self.entries.get(key)
        if not values:
            return None
        if len(values) > 1:
            raise ConfigError(f"key {key!r} in [{self.name}] given {len(values)} times, expected once")
        return values[0]

    def get_list(self, key: str) -> list[str]:
        return list(self.entries.get(key, []))

    def get_float(self, key: str) -> float | None:
        raw = self.get(key)
        if raw is None:
            return None
        try:
            return float(raw)
        except ValueError as exc:
            raise ConfigError(f"key {key!r} in [{self.name}]: {raw!r} is not a number") from exc

    def get_int(self, key: str) -> int | None:
        raw = self.get(key)
        if raw is None:
            return None
        try:
            return int(raw)
        except ValueError as exc:
            raise ConfigError(f"key {key!r} in [{self.name}]: {raw!r} is not an integer") from exc


@dataclass
class Config:
    sections: dict[str, Section] = field(default_factory=dict)

    def section(self, name: str) -> Section:
        if name not in self.sections:
            self.sections[name] = Section(name)
        return self.sections[name]

    def __contains__(self, name: str) -> bool:
        return name in self.sections


def parse_config(text: str) -> Config:
    config = Config()
    current = config.section("")
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError(f"line {lineno}: unterminated section header {raw_line.strip()!r}")
            name = line[1:-1].strip()
            if not name:
                raise ConfigError(f"line {lineno}: empty section name")
            current = config.section(name)
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw_line.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        current.add(key, value.strip())
    return config


def load_config(path: str) -> Config:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_config(handle.read())


def parse_floats(raw: str, *, sep: str = ",") -> list[float]:
    """Parse a separated list of floats, e.g. ``"1,0,-0.5"``."""
    parts = [p.strip() for p in raw.split(sep) if p.strip()]
    if not parts:
        raise ConfigError(f"empty number list: {raw!r}")
    try:
        return [float(p) for p in parts]
    except ValueError as exc:
        raise ConfigError(f"bad number list: {raw!r}") from exc


def format_cell(value) -> str:
    """One CSV cell: bools as true/false, floats with 17 significant digits
    (parsing reproduces them bit-exactly), anything else through str."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def write_csv(path: str, header, rows) -> None:
    """UTF-8 CSV with `header`, then each row's cells through format_cell."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow([format_cell(value) for value in row])
