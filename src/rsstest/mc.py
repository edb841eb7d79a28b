"""Monte Carlo null distributions under perfect ranking.

`run_chunks` holds the package's one chunk layout for seeded Monte Carlo:
null distributions here (stream base NULL_STREAM_BASE) and power studies
(`power.estimate_power`) both run on it, so every seeded result is
bit-identical whatever the thread count.  Evaluating several statistics
in one run shares the simulated samples, which is both cheaper and
harmless: each statistic's marginal null distribution is what the tables
need.

`NullSource` is the package's one null policy: `NullSource.is_exact(k, n)`
picks the exact engine or Monte Carlo, and refuses a forced "exact" above
the cap through `exact.check_exact_cap`; `null_distributions_for` builds
the nulls, for the CLI and power studies alike.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, TypeVar

import numpy as np

from .batch import CHUNK_SIZE, evaluate_batch
from .errors import DataValidationError
from .exact import DEFAULT_EXACT_CELL_CAP, OPT_IN_EXACT_CELL_CAP, check_exact_cap
from .models import perfect_blocks
from .nulldist import NullDistribution, Provenance, exact_null_distribution
from .statistics import StatisticKind
from .streams import NULL_STREAM_BASE, substream

NULL_METHODS = ("auto", "exact", "monte-carlo")

T = TypeVar("T")


def run_chunks(
    one_chunk: Callable[[np.random.Generator, int], T],
    reps: int,
    seed: int,
    base: int,
    threads: int = 1,
) -> list[T]:
    """`one_chunk(rng, take)` for every chunk of `reps` replicates, in chunk order.

    Chunk c gets the generator of stream (seed, base + c) and keeps the
    first `take` of its replicates: CHUNK_SIZE in every chunk but the
    last, which keeps the rest.  With `threads` > 1 the chunks run on a
    thread pool, which changes no result.
    """
    n_chunks = -(-reps // CHUNK_SIZE)

    def run(c: int) -> T:
        return one_chunk(substream(seed, base + c), min(CHUNK_SIZE, reps - c * CHUNK_SIZE))

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(run, range(n_chunks)))
    return [run(c) for c in range(n_chunks)]


def mc_null_distributions(
    kinds: Iterable[StatisticKind],
    k: int,
    n: int,
    reps: int,
    seed: int,
    threads: int = 1,
) -> dict[StatisticKind, NullDistribution]:
    """Empirical null distributions of several statistics in one pass.

    Each chunk draws only the `take` perfect-model samples it uses.  Those
    are the first `take` rows of a full CHUNK_SIZE draw from the same
    stream, so the result does not depend on how `reps` splits into
    chunks; the two could differ only if a tie regeneration fired.

    A chunk is drawn and evaluated one draw block at a time
    (`models.perfect_blocks`) and keeps only its statistic values.  A
    replicate with tied cells is left out of its block and replaced after
    the chunk's last block, where `draw_cells` would draw its replacement,
    so the null is that of `draw_cells(perfect, "uniform", k, n, take)`.
    """
    if reps < 1:
        raise ValueError("reps must be at least 1")
    kinds = tuple(dict.fromkeys(map(StatisticKind.from_tag, kinds)))

    def one_chunk(
        rng: np.random.Generator, take: int
    ) -> dict[StatisticKind, tuple[np.ndarray, np.ndarray]]:
        parts: dict[StatisticKind, list[np.ndarray]] = {kind: [] for kind in kinds}
        for cells in perfect_blocks(k, n, take, rng):
            for kind, arr in evaluate_batch(cells, kinds).items():
                parts[kind].append(arr)
        return {
            kind: np.unique(np.concatenate(part), return_counts=True)
            for kind, part in parts.items()
        }

    counts: dict[StatisticKind, dict[int, int]] = {kind: {} for kind in kinds}
    for result in run_chunks(one_chunk, reps, seed, NULL_STREAM_BASE, threads):
        for kind, (values, freq) in result.items():
            bucket = counts[kind]
            for v, f in zip(values.tolist(), freq.tolist()):
                bucket[v] = bucket.get(v, 0) + f

    provenance = Provenance("monte-carlo", seed=seed, reps=reps)
    out = {}
    for kind in kinds:
        support = tuple(sorted(counts[kind]))
        out[kind] = NullDistribution(
            kind=kind,
            k=k,
            n=n,
            support=support,
            probs=tuple(Fraction(counts[kind][v], reps) for v in support),
            provenance=provenance,
        )
    return out


def mc_null_distribution(
    kind: StatisticKind,
    k: int,
    n: int,
    reps: int,
    seed: int,
    threads: int = 1,
) -> NullDistribution:
    """Empirical null distribution of a single statistic."""
    return mc_null_distributions([kind], k, n, reps, seed, threads=threads)[kind]


@dataclass(frozen=True)
class NullSource:
    """Where null distributions come from.

    "auto" is exact for grids of at most `exact_cells_cap` cells and Monte
    Carlo with `reps` replicates otherwise; "exact" and "monte-carlo" force
    one route.  The cap must lie in 0..OPT_IN_EXACT_CELL_CAP.  A Monte Carlo null uses `seed`, or the caller's seed when
    `seed` is None.
    """

    method: str = "auto"
    reps: int = 1_000_000
    seed: int | None = None
    exact_cells_cap: int = DEFAULT_EXACT_CELL_CAP

    def __post_init__(self) -> None:
        if self.method not in NULL_METHODS:
            raise DataValidationError(
                f"unknown null method {self.method!r}; expected one of {NULL_METHODS}"
            )
        for name in ("reps", "seed", "exact_cells_cap"):
            value = getattr(self, name)
            if type(value) is not int and not (name == "seed" and value is None):
                raise DataValidationError(f"null {name} must be an integer, not {value!r}")
        if self.reps < 1:
            raise DataValidationError(f"null reps must be at least 1, got {self.reps}")
        if not 0 <= self.exact_cells_cap <= OPT_IN_EXACT_CELL_CAP:
            raise DataValidationError(
                f"exact cap must lie in 0..{OPT_IN_EXACT_CELL_CAP}, got {self.exact_cells_cap}: "
                f"the exact engine stops at a cap of {OPT_IN_EXACT_CELL_CAP} cells"
            )

    def is_exact(self, k: int, n: int) -> bool:
        """Whether a k x n null is exact; a forced "exact" above the cap is refused."""
        if self.method == "exact":
            check_exact_cap(k, n, self.exact_cells_cap)
            return True
        return self.method == "auto" and k * n <= self.exact_cells_cap


def null_distributions_for(
    kinds: Iterable[StatisticKind],
    k: int,
    n: int,
    source: NullSource = NullSource(),
    seed: int | None = None,
    threads: int = 1,
) -> dict[StatisticKind, NullDistribution]:
    """Null distributions of `kinds`, in request order, per `source`.

    `seed` seeds a Monte Carlo null only when `source.seed` is None.
    """
    kinds = tuple(dict.fromkeys(map(StatisticKind.from_tag, kinds)))
    if source.is_exact(k, n):
        return {
            kind: exact_null_distribution(kind, k, n, max_cells=source.exact_cells_cap)
            for kind in kinds
        }
    if source.seed is not None:
        seed = source.seed
    if seed is None:
        raise ValueError(f"a Monte Carlo null for a {k}x{n} grid needs a seed")
    return mc_null_distributions(kinds, k, n, source.reps, seed, threads=threads)
