"""Suite registry: the report types and the @suite decorator.

A suite is one function from a SuiteConfig to its check rows, decorated
with ``@suite(name, criterion, reads)``.  The decorator times the body,
wraps the rows in a SuiteReport and registers the timed callable in SUITES,
and the SuiteConfig fields the body reads in SUITE_READS.  The first suite
registered for an acceptance criterion is its primary suite; later ones are
supplemental.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from typing import Callable

from .lattice import GroupSpec


@dataclass(frozen=True)
class CheckRow:
    check: str
    params: dict
    oracle: float
    bound: float
    ratio: float
    passed: bool


@dataclass
class SuiteConfig:
    name: str
    epsilon: float = 0.1
    seed: int = 0
    orders: tuple[int, ...] = (1, 2)
    out: str | None = None
    group: GroupSpec | None = None


@dataclass
class SuiteReport:
    suite: str
    rows: list[CheckRow] = field(default_factory=list)
    wall_time: float = 0.0

    @property
    def passed(self) -> bool:
        return all(row.passed for row in self.rows)

    def sorted_rows(self) -> list[CheckRow]:
        return sorted(self.rows, key=lambda r: (r.check, sorted(r.params.items())))


SUITES: dict[str, Callable[[SuiteConfig], SuiteReport]] = {}
# acceptance criterion number -> its suites, primary first
CRITERION_SUITES: dict[int, tuple[str, ...]] = {}
# the SuiteConfig fields a suite can be configured by; `name` and `out`
# belong to every suite
CONFIGURABLE = frozenset({"epsilon", "seed", "orders", "group"})
# suite name -> the configurable fields its body reads
SUITE_READS: dict[str, frozenset[str]] = {}


def suite(name: str, criterion: int, reads: tuple[str, ...] = ()):
    """Register the decorated body, SuiteConfig -> list of CheckRow, as the
    suite `name` for acceptance `criterion`, configured by the SuiteConfig
    fields in `reads`; returns the timed callable."""
    unknown = set(reads) - CONFIGURABLE
    if unknown:
        raise ValueError(f"suite {name!r} reads unknown fields {sorted(unknown)}")

    def register(body: Callable[[SuiteConfig], list[CheckRow]]):
        if name in SUITES:
            raise ValueError(f"suite {name!r} is already registered")

        @functools.wraps(body)
        def run(cfg: SuiteConfig) -> SuiteReport:
            start = time.perf_counter()
            rows = body(cfg)
            return SuiteReport(suite=name, rows=rows, wall_time=time.perf_counter() - start)

        SUITES[name] = run
        SUITE_READS[name] = frozenset(reads)
        CRITERION_SUITES[criterion] = CRITERION_SUITES.get(criterion, ()) + (name,)
        return run
    return register
