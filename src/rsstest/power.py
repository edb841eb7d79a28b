"""Power estimation across a parameter grid, and test-vs-test comparison.

One study simulates samples from an imperfect-ranking model along a grid
of its parameter and applies the randomized test for every requested
statistic to the *same* samples (common random numbers), sharing a single
boundary-randomisation uniform per replicate.  That keeps comparisons
between statistics low-variance and makes provably equivalent tests agree
replicate by replicate.  Each decision is `CriticalValues.rejects`.

Grid point i runs on `mc.run_chunks`, which holds the chunk layout, from
stream base POWER_STREAM_BASE + i * 2^20; each chunk draws its boundary
uniforms right after its cells.  So estimates are reproducible and
independent of the worker count; `PowerStudy` refuses a study whose reps
or grid overflow that layout.  Null critical values come from
`mc.null_distributions_for(kinds, k, n, source, seed)` with the study's
`mc.NullSource`, the package's one exact-versus-Monte-Carlo policy
(`NullSource.is_exact`); a Monte Carlo null defaults to the study seed,
and its stream indices are disjoint from the power stream indices by
construction.

Each value type checks its invariants at construction, in `__post_init__`:
a `PowerTable` built in code is refused exactly where its reloaded JSON
would be, and the `from_json_dict` loaders only parse.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import partial
from typing import Mapping, Sequence

import numpy as np

from .batch import evaluate_batch
from .errors import DataValidationError
from .mc import CHUNK_SIZE, NullSource, null_distributions_for, run_chunks
from .models import ImperfectModel, Population, draw_cells, resolve_population
from .nulldist import (
    NullDistribution,
    Provenance,
    as_exact_probability,
    critical_value,
)
from .statistics import StatisticKind
from .streams import MODEL_STREAM_BASE, POWER_STREAM_BASE

POWER_TABLE_FORMAT = "rsstest-power-table/1"
_LAMBDA_STRIDE = 1 << 20  # max chunks per grid point


def _kind(tag) -> StatisticKind:
    """`StatisticKind.from_tag`, refusing an unknown tag as bad data."""
    try:
        return StatisticKind.from_tag(tag)
    except ValueError as err:
        raise DataValidationError(str(err)) from None


@dataclass(frozen=True)
class PowerStudy:
    """Configuration of one power estimation run."""

    k: int
    n: int
    kinds: tuple[StatisticKind, ...]
    model_tag: str
    lambda_grid: tuple[float, ...]
    alpha: Fraction
    reps: int
    seed: int
    population: Population | None = None
    null: NullSource = NullSource()

    def __post_init__(self) -> None:
        for name in ("k", "n", "reps", "seed"):
            value = getattr(self, name)
            if type(value) is not int:
                raise DataValidationError(f"the study's {name} must be an integer, not {value!r}")
        if self.k < 1 or self.n < 1:
            raise DataValidationError("k and n must be positive")
        kinds = tuple(map(_kind, self.kinds))
        if not kinds:
            raise DataValidationError("at least one statistic is required")
        if len(set(kinds)) < len(kinds):
            raise DataValidationError("a statistic is requested more than once")
        for lam in self.lambda_grid:
            ImperfectModel(self.model_tag, lam)  # validates tag, type and domain
        grid = tuple(float(v) for v in self.lambda_grid)
        if not grid:
            raise DataValidationError("the parameter grid must not be empty")
        if len(set(grid)) < len(grid):
            raise DataValidationError("the parameter grid repeats a value")
        alpha = as_exact_probability(self.alpha)
        if not 0 < alpha < 1:
            raise DataValidationError("alpha must lie strictly between 0 and 1")
        if self.reps < 1:
            raise DataValidationError("reps must be at least 1")
        if self.reps > _LAMBDA_STRIDE * CHUNK_SIZE:
            raise DataValidationError("reps beyond the supported stream layout")
        if len(grid) > (MODEL_STREAM_BASE - POWER_STREAM_BASE) // _LAMBDA_STRIDE:
            raise DataValidationError("parameter grid longer than the stream layout holds")
        object.__setattr__(self, "kinds", kinds)
        object.__setattr__(self, "lambda_grid", grid)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(
            self, "population", resolve_population(self.model_tag, self.population)
        )

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "n": self.n,
            "kinds": [kd.value for kd in self.kinds],
            "model": self.model_tag,
            "lambda_grid": list(self.lambda_grid),
            "alpha": f"{self.alpha.numerator}/{self.alpha.denominator}",
            "reps": self.reps,
            "seed": self.seed,
            "population": self.population,
            "null": asdict(self.null),
        }

    @classmethod
    def from_json_dict(cls, doc: Mapping) -> "PowerStudy":
        nd = doc["null"]
        return cls(
            k=doc["k"],
            n=doc["n"],
            kinds=tuple(doc["kinds"]),
            model_tag=doc["model"],
            lambda_grid=tuple(doc["lambda_grid"]),
            alpha=Fraction(doc["alpha"]),
            reps=doc["reps"],
            seed=doc["seed"],
            population=doc["population"],
            null=NullSource(nd["method"], nd["reps"], nd["seed"], nd["exact_cells_cap"]),
        )


@dataclass(frozen=True)
class PowerCell:
    """Estimated rejection probability for one (statistic, parameter) pair."""

    kind: StatisticKind
    lam: float
    rejections: int
    reps: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", _kind(self.kind))
        try:
            object.__setattr__(self, "lam", float(self.lam))
        except (TypeError, ValueError):
            raise DataValidationError(f"bad cell parameter {self.lam!r}: not a number") from None
        if self.reps < 1 or not 0 <= self.rejections <= self.reps:
            raise DataValidationError(
                f"cell {self.kind.value} at {self.lam:g} counts {self.rejections} rejections "
                f"in {self.reps} reps per cell; reps must be positive and rejections in 0..reps"
            )

    @property
    def power(self) -> float:
        return self.rejections / self.reps

    @property
    def se(self) -> float:
        p = self.power
        return math.sqrt(p * (1.0 - p) / self.reps)


@dataclass(frozen=True)
class PowerTable:
    """All cells of a study plus the provenance needed to reproduce them."""

    study: PowerStudy
    cells: tuple[PowerCell, ...]
    null_provenance: tuple[tuple[StatisticKind, Provenance], ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "null_provenance", tuple((_kind(kd), p) for kd, p in self.null_provenance)
        )
        study = self.study
        pairs = sorted((c.kind, c.lam) for c in self.cells)
        if pairs != sorted(itertools.product(study.kinds, study.lambda_grid)):
            raise DataValidationError(
                "a power table needs one cell for each of its study's statistics "
                "at each grid value, and no other"
            )
        for c in self.cells:
            if c.reps != study.reps:
                raise DataValidationError(
                    f"cell {c.kind.value} at {c.lam:g} has {c.reps} reps; "
                    f"the study runs {study.reps} reps per cell"
                )
        if sorted(kind for kind, _ in self.null_provenance) != sorted(study.kinds):
            raise DataValidationError(
                "a power table needs one null provenance row for each of its study's "
                "statistics, and no other"
            )

    def cell(self, kind: StatisticKind, lam: float) -> PowerCell:
        kind = StatisticKind.from_tag(kind)
        for c in self.cells:
            if c.kind is kind and c.lam == lam:
                return c
        raise KeyError(f"no cell for {kind.value} at {lam}")

    def to_csv(self) -> str:
        """Rows are statistics, columns the parameter grid."""
        header = "kind," + ",".join(f"{lam:g}" for lam in self.study.lambda_grid)
        lines = [header]
        for kind in self.study.kinds:
            row = [kind.value]
            for lam in self.study.lambda_grid:
                row.append(f"{self.cell(kind, lam).power:.6f}")
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "format": POWER_TABLE_FORMAT,
            "study": self.study.to_json_dict(),
            "cells": [
                {
                    "kind": c.kind.value,
                    "lambda": c.lam,
                    "rejections": c.rejections,
                    "reps": c.reps,
                    "power": c.power,
                    "se": c.se,
                }
                for c in self.cells
            ],
            # rows keep explicit seed/reps keys, null on exact rows
            "null_provenance": [
                {"kind": kind.value, "method": None, "seed": None, "reps": None}
                | prov.to_json_dict()
                for kind, prov in self.null_provenance
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    @classmethod
    def from_json_dict(cls, doc: Mapping) -> "PowerTable":
        if doc.get("format") != POWER_TABLE_FORMAT:
            raise DataValidationError(
                f"not a {POWER_TABLE_FORMAT} document: {doc.get('format')!r}"
            )
        return cls(
            study=PowerStudy.from_json_dict(doc["study"]),
            cells=tuple(
                PowerCell(
                    kind=c["kind"],
                    lam=c["lambda"],
                    rejections=int(c["rejections"]),
                    reps=int(c["reps"]),
                )
                for c in doc["cells"]
            ),
            null_provenance=tuple(
                (p["kind"], Provenance.from_json_dict(p))
                for p in doc["null_provenance"]
            ),
        )

    @classmethod
    def from_json(cls, text: str) -> "PowerTable":
        return cls.from_json_dict(json.loads(text))


def resolve_null_distributions(
    study: PowerStudy, threads: int = 1
) -> Mapping[StatisticKind, NullDistribution]:
    """Build the study's null distributions per its null source; a Monte
    Carlo null without its own seed uses the study seed."""
    return null_distributions_for(study.kinds, study.k, study.n, study.null, study.seed, threads)


def estimate_power(
    study: PowerStudy,
    null_dists: Mapping[StatisticKind, NullDistribution] | None = None,
    threads: int = 1,
) -> PowerTable:
    """Estimate rejection probabilities for every (kind, parameter) cell.

    Precomputed `null_dists` (e.g. reloaded from disk) are used as-is
    after a compatibility check; otherwise they are built per the
    study's null-source policy.  Every chunk draws a full CHUNK_SIZE of
    samples and rejection uniforms before cutting to `take`, so a stream
    is consumed the same way whatever `reps` is: the fraction models draw
    their mixing uniforms after all the comparison sets, so a shorter
    draw would not be a prefix of the full one.  Its `take` samples go
    to `evaluate_batch` in one call, which bounds its own working set.
    """
    if null_dists is None:
        null_dists = resolve_null_distributions(study, threads=threads)
    for kind in study.kinds:
        dist = null_dists.get(kind)
        if dist is None or dist.k != study.k or dist.n != study.n or dist.kind is not kind:
            raise DataValidationError(
                f"missing or mismatched null distribution for {kind.value} "
                f"on a {study.k}x{study.n} grid"
            )

    crits = {kind: critical_value(null_dists[kind], study.alpha) for kind in study.kinds}

    def rejections(model: ImperfectModel, rng: np.random.Generator, take: int) -> list[int]:
        draws = draw_cells(model, study.population, study.k, study.n, CHUNK_SIZE, rng)
        u = rng.random(CHUNK_SIZE)[:take]
        stats = evaluate_batch(draws[:take], crits)
        return [int(crit.rejects(stats[kind], u).sum()) for kind, crit in crits.items()]

    cells = []
    for lam_idx, lam in enumerate(study.lambda_grid):
        chunks = run_chunks(
            partial(rejections, ImperfectModel(study.model_tag, lam)),
            study.reps, study.seed, POWER_STREAM_BASE + lam_idx * _LAMBDA_STRIDE, threads,
        )
        for kind, total in zip(study.kinds, map(sum, zip(*chunks))):
            cells.append(PowerCell(kind=kind, lam=lam, rejections=total, reps=study.reps))
    return PowerTable(
        study=study,
        cells=tuple(cells),
        null_provenance=tuple((kind, null_dists[kind].provenance) for kind in study.kinds),
    )


@dataclass(frozen=True)
class PairVerdict:
    """How statistic `a` compares to `b` across the grid (2-sigma joint SE)."""

    a: StatisticKind
    b: StatisticKind
    above: int  # grid points where a is significantly above b
    below: int
    indistinct: int

    @property
    def summary(self) -> str:
        def points(c: int) -> str:
            return f"{c} point{'' if c == 1 else 's'} significant"

        if self.below == 0 and self.above > 0:
            return f"{self.a.value} >= {self.b.value} everywhere ({points(self.above)})"
        if self.above == 0 and self.below > 0:
            return f"{self.a.value} <= {self.b.value} everywhere ({points(self.below)})"
        if self.above == self.below == 0:
            return f"{self.a.value} and {self.b.value} indistinguishable at this precision"
        return f"{self.a.value} vs {self.b.value} mixed ({self.above} above, {self.below} below)"


@dataclass(frozen=True)
class ComparisonReport:
    """Per-point rankings and pairwise dominance across merged tables."""

    lambda_grid: tuple[float, ...]
    kinds: tuple[StatisticKind, ...]
    cells: Mapping[tuple[StatisticKind, float], PowerCell]
    verdicts: tuple[PairVerdict, ...]

    def ranking(self, lam: float) -> list[PowerCell]:
        at = [self.cells[(kind, lam)] for kind in self.kinds]
        return sorted(at, key=lambda c: c.power, reverse=True)

    def verdict(self, a: StatisticKind, b: StatisticKind) -> PairVerdict:
        a, b = StatisticKind.from_tag(a), StatisticKind.from_tag(b)
        for v in self.verdicts:
            if v.a is a and v.b is b:
                return v
        raise KeyError(f"no verdict for {a.value} vs {b.value}")

    def render_text(self) -> str:
        lines = []
        for lam in self.lambda_grid:
            ranked = ", ".join(
                f"{c.kind.value}={c.power:.4f}" for c in self.ranking(lam)
            )
            lines.append(f"lambda={lam:g}: {ranked}")
        lines.append("")
        for v in self.verdicts:
            lines.append(v.summary)
        return "\n".join(lines) + "\n"


def compare_tests(tables: Sequence[PowerTable]) -> ComparisonReport:
    """Merge tables sharing a configuration and rank their statistics.

    A (statistic, parameter) cell in several tables must agree in all.

    Differences beyond twice the joint standard error count as
    significant; the verdicts summarise each ordered pair across the
    whole grid.
    """
    if not tables:
        raise ValueError("nothing to compare")
    first = tables[0].study
    key = (first.k, first.n, first.model_tag, first.lambda_grid, first.alpha, first.population)
    cells: dict[tuple[StatisticKind, float], PowerCell] = {}
    kinds: list[StatisticKind] = []
    for table in tables:
        s = table.study
        if (s.k, s.n, s.model_tag, s.lambda_grid, s.alpha, s.population) != key:
            raise DataValidationError(
                "tables disagree on grid, model, alpha or population; cannot compare"
            )
        for c in table.cells:
            if cells.setdefault((c.kind, c.lam), c) != c:
                raise DataValidationError(
                    f"tables give {c.kind.value} at lambda={c.lam:g} different results; cannot compare"
                )
            if c.kind not in kinds:
                kinds.append(c.kind)

    verdicts = []
    for a in kinds:
        for b in kinds:
            if a is b:
                continue
            above = below = indistinct = 0
            for lam in first.lambda_grid:
                ca, cb = cells[(a, lam)], cells[(b, lam)]
                joint = 2.0 * math.hypot(ca.se, cb.se)
                if ca.power - cb.power > joint:
                    above += 1
                elif cb.power - ca.power > joint:
                    below += 1
                else:
                    indistinct += 1
            verdicts.append(PairVerdict(a=a, b=b, above=above, below=below, indistinct=indistinct))

    return ComparisonReport(
        lambda_grid=first.lambda_grid,
        kinds=tuple(kinds),
        cells=cells,
        verdicts=tuple(verdicts),
    )


__all__ = [
    "ComparisonReport",
    "PairVerdict",
    "PowerCell",
    "PowerStudy",
    "PowerTable",
    "compare_tests",
    "estimate_power",
    "resolve_null_distributions",
]
