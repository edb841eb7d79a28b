"""Sample generators: perfect ranking and four imperfect-ranking models.

Every cell of a generated k x n sample comes from its own independent
comparison set of k draws, so all k*n cells are mutually independent.
The models differ in which member of the set (or which fresh draw) ends
up being measured for rank slot i:

  perfect       -- the i-th smallest of the set, always.
  concomitant   -- sets are bivariate normal pairs with correlation
                   `lam`; the cell is the primary value whose companion
                   ranks i-th.  Forces a standard normal population.
  random        -- with probability `lam` a fresh population draw
                   replaces the i-th smallest.
  inverse       -- with probability `lam` the (k-i+1)-th smallest of the
                   same set replaces the i-th.
  neighbor      -- with probability lam/2 each, the (i-1)-th or (i+1)-th
                   smallest of the same set (clamped at the ends)
                   replaces the i-th.

`_draw_once` makes the slot choice in one place.  Every model draws its
comparison sets through `_set_blocks`, one block of replicates of about
`batch.BLOCK_BYTES` at a time, so a chunk holds its (size, k, n) arrays
plus one block however large k^2 n grows.  A slot-i
cell of a fraction model reads one of a few order statistics of its set:
slot i (perfect, random), its mirror k-1-i (inverse) or a neighbour
clamped to 0..k-1 (neighbor).  `_select` writes, per block, one (rows,
k, n) array per candidate.  For k <= 12 slot i's sets are copied
member-major into contiguous wires and a min/max network pruned to its
candidates (`_selection_plan`) selects them, sorting nothing; from k = 13
on a network costs more than sorting the block, so the block is sorted
in place.  Both give the same doubles as one sort of the whole draw.  The
mixing uniforms, drawn after all the sets, then choose each cell among
its candidates or, under the random model, a fresh draw.  The
concomitant model ranks by a companion and passes over the blocks
twice, since all companions come before all noise in the stream: once
to find each cell's member (`_pick`), and once to add its noise.  Draw
order per batch is fixed and documented on `draw_cells`, so any seeded
stream reproduces the same cells regardless of callers.  The
all-cells-distinct requirement is enforced by regenerating offending
replicates (a probability-zero event under continuous populations);
regenerations are counted in `tie_regeneration_count`.  Their
replacements sit in the stream after the whole batch's draw.
`perfect_blocks` hands a Monte Carlo null the perfect draw one block at
a time, without the block's tied replicates, and their replacements
after the last block, so a null chunk never holds its (size, k, n)
cells.

`slot_density` states once the law these draws follow, as an exact
polynomial per slot; the exact engine and `marginal_cdf` integrate it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Literal

import numpy as np

from .batch import replicate_blocks
from .errors import DataValidationError
from .sample import RssSample
from .streams import MODEL_STREAM_BASE, fresh_seed, substream

ModelTag = Literal["perfect", "concomitant", "random", "inverse", "neighbor"]
Population = Literal["uniform", "normal"]

MODEL_TAGS = ("perfect", "concomitant", "random", "inverse", "neighbor")

tie_regeneration_count = 0

# the draw selects each slot's order statistics with a pruned min/max
# network up to this k and sorts each block above it.  A slot's network
# grows faster than k log k, and each block's wires shrink like 1/k^2, so
# per-call overhead takes over: per 8192-replicate perfect chunk (one
# thread, selection or sort alone) the networks won at 10x10 (35-41 vs
# 54-61 ms) and 12x10 (55-66 vs 66-73 ms), and lost at 13x5 (44 vs 34-36 ms)
# and 13x2 (24 vs 14-16 ms)
_SELECT_MAX_K = 12


@dataclass(frozen=True)
class ImperfectModel:
    """A ranking-error mechanism tag plus its mixing/correlation parameter."""

    tag: str
    lam: float = 0.0

    def __post_init__(self) -> None:
        if self.tag not in MODEL_TAGS:
            raise DataValidationError(
                f"unknown model tag {self.tag!r}; expected one of {', '.join(MODEL_TAGS)}"
            )
        try:
            lam = float(self.lam)
        except (TypeError, ValueError):
            raise DataValidationError(f"bad model parameter {self.lam!r}: not a number") from None
        if self.tag == "perfect":
            lam = 0.0  # parameter is ignored
        elif self.tag == "concomitant":
            if not -1.0 <= lam <= 1.0:
                raise DataValidationError("concomitant correlation must lie in [-1, 1]")
        elif not 0.0 <= lam <= 1.0:
            raise DataValidationError(f"{self.tag} mixing fraction must lie in [0, 1]")
        object.__setattr__(self, "lam", lam)

    def describe(self) -> str:
        """The CLI/wire form, e.g. 'neighbor:0.5'."""
        if self.tag == "perfect":
            return "perfect"
        return f"{self.tag}:{self.lam:g}"

    @classmethod
    def parse(cls, text: str) -> "ImperfectModel":
        """Parse a descriptor of the form 'perfect' or 'tag:LAMBDA'."""
        tag, _, lam = text.partition(":")
        tag = tag.strip()
        if tag == "perfect":
            return cls("perfect")
        if not lam:
            raise DataValidationError(
                f"model {tag!r} needs a parameter, e.g. '{tag}:0.5'"
            )
        return cls(tag, lam)


def resolve_population(model_tag: str, population: str | None) -> Population:
    """The population a model draws from: the concomitant model forces
    'normal', every other model defaults to 'uniform'."""
    if population not in (None, "uniform", "normal"):
        raise DataValidationError(
            f"unknown population {population!r}; expected 'uniform' or 'normal'"
        )
    if model_tag == "concomitant":
        if population == "uniform":
            raise DataValidationError(
                "the concomitant model draws bivariate normal pairs; "
                "population must be 'normal'"
            )
        return "normal"
    return population or "uniform"


@dataclass(frozen=True)
class GeneratorConfig:
    """Everything needed to generate one sample reproducibly."""

    k: int
    n: int
    model: ImperfectModel
    population: Population | None = None
    seed: int | None = None

    def __post_init__(self) -> None:
        for name in ("k", "n", "seed"):
            value = getattr(self, name)
            if type(value) is not int and not (name == "seed" and value is None):
                raise DataValidationError(f"generator {name} must be an integer, not {value!r}")
        if self.k < 1 or self.n < 1:
            raise DataValidationError("k and n must be positive")
        object.__setattr__(
            self, "population", resolve_population(self.model.tag, self.population)
        )


def draw_cells(
    model: ImperfectModel,
    population: Population,
    k: int,
    n: int,
    size: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw `size` independent samples as a (size, k, n) float array.

    Stream layout, in order, all of fixed shape so a chunk's draws depend
    only on the stream: comparison sets (size, k, n, k) [for concomitant,
    the companions' normals, then the noise's], then for fraction models
    the mixing uniforms (size, k, n), then for the random model the fresh
    draws (size, k, n), which are uniforms at lam = 0 whatever the
    population.  Replicates containing tied cells are redrawn from the
    same stream until none is tied: their replacements come after
    everything above, drawn as one `draw_cells` of as many replicates.
    """
    cells = _draw_once(model, population, k, n, size, rng)
    global tie_regeneration_count
    while (bad := _tied_rows(cells)).any():
        tie_regeneration_count += int(bad.sum())
        cells[bad] = _draw_once(model, population, k, n, int(bad.sum()), rng)
    return cells


def perfect_blocks(k: int, n: int, size: int, rng: np.random.Generator):
    """`draw_cells(perfect, "uniform", k, n, size, rng)` a block at a time.

    Yields each draw block's untied replicates as (rows, k, n) cells, a
    view valid until the next block is drawn, then, after the last block,
    one `draw_cells` replacing every tied replicate: the stream's order,
    so the replicates are the same, only in another row order.
    """
    global tie_regeneration_count
    tied, reads = 0, [(i,) for i in range(k)]
    for block, sets in _set_blocks(rng.random, k, n, size):
        if block.start == 0:
            buf = np.empty((len(sets), k, n))  # sized by the first block, the largest
        cells = buf[: len(sets)]
        _select(sets, reads, [cells])
        del sets  # its memory serves the caller's work on the cells
        if (bad := _tied_rows(cells)).any():
            tied += int(bad.sum())
            cells = cells[~bad]
        yield cells
    if tied:
        tie_regeneration_count += tied
        yield draw_cells(ImperfectModel("perfect"), "uniform", k, n, tied, rng)


def _draw_once(
    model: ImperfectModel,
    population: Population,
    k: int,
    n: int,
    size: int,
    rng: np.random.Generator,
) -> np.ndarray:
    lam = model.lam
    if model.tag == "concomitant":
        # all companions come before all noise in the stream: the first pass
        # keeps each cell's member, the one whose companion ranks i-th, and
        # lam times its companion; the second adds that member's noise
        cells, member = np.empty((size, k, n)), np.empty((size, k, n), dtype=np.intp)
        for block, sets in _set_blocks(rng.standard_normal, k, n, size):
            member[block] = _pick(np.argsort(sets, axis=-1), np.arange(k)[None, :, None])
            cells[block] = lam * _pick(sets, member[block])
            del sets
        for block, noise in _set_blocks(rng.standard_normal, k, n, size):
            cells[block] += math.sqrt(1.0 - lam * lam) * _pick(noise, member[block])
            del noise
        return cells

    # the order statistics a slot-i cell can read: its own, then those the
    # model swaps in for it
    if model.tag == "inverse":
        reads = [(i, k - 1 - i) for i in range(k)]
    elif model.tag == "neighbor":
        reads = [(i, min(i + 1, k - 1), max(i - 1, 0)) for i in range(k)]
    else:
        reads = [(i,) for i in range(k)]
    draw = rng.standard_normal if population == "normal" else rng.random
    cells, *swapped = outs = [np.empty((size, k, n)) for _ in reads[0]]
    for block, sets in _set_blocks(draw, k, n, size):
        _select(sets, reads, [out[block] for out in outs])
        del sets
    if model.tag == "perfect":
        return cells

    mix = rng.random((size, k, n))
    if model.tag == "random":
        # at lam = 0 the fresh block is drawn as uniforms whatever the population
        swapped = [(draw if lam > 0.0 else rng.random)((size, k, n))]
    # a swapped-in candidate replaces the cell where mix < lam, and the
    # lower neighbour, copied last, where mix < lam / 2
    for swap, bound in zip(swapped, (lam, lam / 2)):
        np.copyto(cells, swap, where=mix < bound)
    return cells


def _select(sets: np.ndarray, reads: list, outs: list) -> None:
    """outs[j][:, i] = member reads[i][j] of slot i's sets, sorted, for one
    block of (rows, k, n, k) comparison sets and (rows, k, n) outs.

    Up to _SELECT_MAX_K, slot i's sets are copied member-major into
    contiguous (rows, n) wires and the network pruned to reads[i] runs on
    them: each comparator is an elementwise min or max of two wires, so
    the cells are the very doubles a sort would put there.  Above it the
    sets are sorted in place and the same members read.
    """
    rows, k, n, _ = sets.shape
    select = k <= _SELECT_MAX_K
    if select:
        # k wires and one spare for a comparator that keeps both outputs
        scratch = np.empty((k + 1, rows, n))
    else:
        sets.sort(axis=-1)
    for i in range(k):
        # member m of slot i's sets, (rows, n)
        member = sets[:, i].transpose(2, 0, 1)
        if select:
            np.copyto(scratch[:k], member)
            *member, spare = scratch
            for a, b, low, high in _selection_plan(k, reads[i]):
                if low and high:
                    np.minimum(member[a], member[b], out=spare)
                    np.maximum(member[a], member[b], out=member[b])
                    member[a], spare = spare, member[a]
                elif low:
                    np.minimum(member[a], member[b], out=member[a])
                else:
                    np.maximum(member[a], member[b], out=member[b])
        for out, m in zip(outs, reads[i]):
            out[:, i] = member[m]


def _set_blocks(draw, k: int, n: int, size: int):
    """Each block of replicates with its (rows, k, n, k) comparison sets.

    Every block is a fresh draw of about `batch.BLOCK_BYTES`, which each
    caller drops before it asks for the next, so one block is held at a
    time and its memory is free for what the caller does next;
    consecutive draws consume the stream exactly as one (size, k, n, k)
    draw would.
    """
    for block in replicate_blocks(size, 8 * k * n * k):
        yield block, draw((block.stop - block.start, k, n, k))


@lru_cache(maxsize=None)
def _selection_plan(k: int, outputs: tuple[int, ...]) -> tuple[tuple[int, int, bool, bool], ...]:
    """The comparators of a k-wire sorting network that the output wires read.

    The network is Batcher's merge exchange (Knuth, TAOCP 5.2.2,
    Algorithm M): comparator (a, b), a < b, leaves the min on wire a and
    the max on wire b.  Walking it backwards from the output wires keeps
    each comparator that feeds a wire still read, flagged with whether its
    min (`low`) and max (`high`) are read later.
    """
    network = []
    p = top = (1 << (k - 1).bit_length()) // 2  # half the power of two >= k
    while p:
        q, r, d = top, 0, p
        while d:
            network += [(a, a + d) for a in range(k - d) if a & p == r]
            d, q, r = q - p, q >> 1, p
        p >>= 1
    read, plan = set(outputs), []
    for a, b in reversed(network):
        if a in read or b in read:
            plan.append((a, b, a in read, b in read))
            read |= {a, b}
    return tuple(reversed(plan))


def _pick(sets: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """sets[..., idx] per cell: `idx` broadcasts against the (size, k, n) cells."""
    return np.take_along_axis(sets, idx[..., None], axis=-1)[..., 0]


def _tied_rows(cells: np.ndarray) -> np.ndarray:
    flat = np.sort(cells.reshape(len(cells), -1), axis=1)
    # sorted neighbours compared in place: no float difference array
    return (flat[:, 1:] == flat[:, :-1]).any(axis=1)


def generate(cfg: GeneratorConfig, rng: np.random.Generator | None = None) -> RssSample:
    """Generate one sample under the configured model.

    Without an explicit `rng`, a fresh stream is keyed from cfg.seed, so
    repeated calls with the same config return the identical sample.
    """
    if rng is None:
        seed = cfg.seed if cfg.seed is not None else fresh_seed()
        rng = substream(seed, MODEL_STREAM_BASE)
    cells = draw_cells(cfg.model, cfg.population, cfg.k, cfg.n, 1, rng)[0]
    return RssSample(tuple(tuple(float(v) for v in row) for row in cells))


def slot_density(model: ImperfectModel, k: int, s: int) -> tuple[list[int], int]:
    """(coeffs, scale): scale * f_s(t) = sum_e coeffs[e] t^e is the density
    of a slot-s cell (0-based) on the uniform scale, in integers.

    Under perfect ranking f_s is Beta(s+1, k-s), k C(k-1, s) t^s (1-t)^(k-1-s),
    and scale is 1.  A fraction model mixes in, at weight lam (read as its
    decimal repr), the uniform density (random), the mirrored slot
    (inverse) or the clamped neighbouring slots at lam/2 each (neighbor);
    scale is the lcm of the weights' denominators.  The concomitant model
    has no polynomial density and is refused."""
    if model.tag == "concomitant":
        raise ValueError("no closed-form marginal for the concomitant model")
    if not 0 <= s < k:
        raise ValueError(f"rank slot {s + 1} (1-based) out of range 1..{k}")
    lam = Fraction(repr(model.lam))
    mix = [(s, 1 - lam)]  # (slot, weight) of each order-statistic density
    uniform = lam if model.tag == "random" else Fraction(0)
    if model.tag == "inverse":
        mix.append((k - 1 - s, lam))
    elif model.tag == "neighbor":
        mix += [(max(s - 1, 0), lam / 2), (min(s + 1, k - 1), lam / 2)]
    scale = math.lcm(uniform.denominator, *(w.denominator for _, w in mix))
    coeffs = [int(uniform * scale)] + [0] * (k - 1)
    for r, w in mix:
        lead = int(w * scale) * k * math.comb(k - 1, r)
        for m in range(k - r):
            coeffs[r + m] += lead * math.comb(k - 1 - r, m) * (-1) ** m
    return coeffs, scale


def marginal_cdf(
    model: ImperfectModel, k: int, i: int, x: float, population: Population = "uniform"
) -> float:
    """CDF of the rank-slot-i cell (1-based) under a fraction model (or
    perfect): the integral of `slot_density` up to p = F(x)."""
    coeffs = _cdf_coeffs(model, k, i - 1)  # refuses the concomitant model
    if resolve_population(model.tag, population) == "uniform":
        p = min(max(x, 0.0), 1.0)
    else:
        p = 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))
    return sum(a * p ** (e + 1) for e, a in enumerate(coeffs))


@lru_cache(maxsize=None)
def _cdf_coeffs(model: ImperfectModel, k: int, s: int) -> tuple[float, ...]:
    """a with sum_e a[e] p^(e+1) the integral of slot s's density up to p."""
    coeffs, scale = slot_density(model, k, s)
    return tuple(c / ((e + 1) * scale) for e, c in enumerate(coeffs))
