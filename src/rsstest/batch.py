"""The one evaluation kernel for the eleven statistics.

`evaluate_batch` computes any subset of the statistics for a whole
(B, k, n) array of samples at once; scalar `statistics.evaluate` is a
one-sample call into it, so every statistic is computed in one place.
The independent oracles the tests and `verify` compare it with are
`statistics.tuple_discrepancies` (one cycle, or one recombined sample)
and `statistics.brute_force_perm_all` (the n^k enumeration).

The kernel builds only the intermediates the requested kinds read:

  N_sum, N_max   per-cycle slot pairs out of order (the k x 1 PN)
  A_*, S_*       per-cycle rank minus slot (the k x 1 PA and PS)
  Wstar, PS      overall ranks alone: Wstar is the sum over the sorted
                 cells of slot weight times rank, and PS follows from it
                 through `affine_base`
  J, PN, PA      overall ranks and the per-slot counts below every cell

Both per-cycle intermediates come from comparing each slot pair i < j
once, on every grid: slot i's (B, n) values against all higher slots' in
one comparison per slot i.  Each pair out of order adds to N and moves
the two slots' ranks, so no pair is compared twice and no (B, k, n)
slab is compared per slot.  The overall ranks are one argsort per
sample.  J and PA are sums over the cells of `cell_shares`,
which depend only on the cell's slot and the per-slot counts of cells
below it.  A PA share convolves only the shorter tail of the cell's rank
distribution, and none at all for the first and last slots.  The totals
take one of two paths, chosen from the input's shape alone:

  table  when the accumulator is int64 and the k (n+1)^k entries of
         `share_table` are no more than the batch's B k n cells (at a
         full chunk: 3x3, 4x5, 5x4 and 8x2, among others).  Along the
         sorted order one count goes up per step, so the exclusive
         running sum of (n+1)^slot, plus slot * (n+1)^k, indexes each
         cell's share: one gather.
  fold   otherwise (6x10, 10x10, object accumulators, small batches).
         One block of rows of the order at a time (BLOCK_BYTES of
         counts, so 4194 replicates on 10x10), `_below_counts` builds
         the slot-major counts, `counts[i]` the slot-i cells below each
         cell, and `cell_shares` folds them in.  The path is chosen
         on the whole batch, never per block.

The other eight statistics are derived as `statistics` defines them: PN
and PS through `affine_base` from J and Wstar, and each cycle kind
through `CYCLE_OF` from the within-cycle N, A and S.

Results are exact integers on every grid.  Within a cycle, rank minus
slot lies within +-(k-1) and N is at most k(k-1)/2, held in the smallest
signed dtype that fits both (int8 up to k = 16) and returned as int64.
J and Wstar are at most k * (kn)^2 and stay int64; the per-slot counts
below a cell are at most n and are held in the smallest unsigned dtype
that fits n, one byte a count up to n = 255.  The scaled quantities
(PN, PS and PA's shorter-tail convolution) grow like n^k * k^3;
`_accumulator` decides from (k, n) alone whether they fit in int64, and
where they do not the same code runs with Python-int (object)
accumulators instead of wrapping.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Mapping

import numpy as np

from .statistics import CYCLE_OF, SUM_KINDS, StatisticKind, affine_base, ps_offset

_INT64_MAX = int(np.iinfo(np.int64).max)

# the byte budget of one block of replicates: the perfect draw's comparison
# sets and the fold's below-counts are built one block of rows at a time,
# so their size does not grow with the chunk
BLOCK_BYTES = 4 << 20


def replicate_blocks(size: int, row_bytes: int) -> list[slice]:
    """Consecutive row slices covering 0..size, each of at most BLOCK_BYTES
    at `row_bytes` a row (and at least one row); an empty batch is one
    empty block."""
    rows = max(1, BLOCK_BYTES // row_bytes)
    return [slice(lo, min(lo + rows, size)) for lo in range(0, max(size, 1), rows)]


def _accumulator(k: int, n: int) -> type:
    """np.int64 when every scaled intermediate on a k x n grid fits, else object.

    PN = n^(k-2) * J and every PA convolution sum are at most n^k * k^2;
    ps_offset(k, n) bounds both PS and 2 * n^(k-2) * Wstar.
    """
    bound = n**k * k * k
    if k >= 2:
        bound = max(bound, ps_offset(k, n))
    return np.int64 if bound <= _INT64_MAX else object


def evaluate_batch(
    values: np.ndarray, kinds: Iterable[StatisticKind]
) -> Mapping[StatisticKind, np.ndarray]:
    """Evaluate statistics for every sample in a (B, k, n) array.

    Returns a dict mapping each requested kind to an integer array of
    length B: int64 where the grid's values fit in it, otherwise an
    object array of Python ints.  Values within each sample must be
    pairwise distinct.
    """
    vals = np.asarray(values, dtype=np.float64)
    if vals.ndim != 3:
        raise ValueError("values must have shape (batch, k, n)")
    b, k, n = vals.shape
    kinds = tuple(dict.fromkeys(StatisticKind(kind) for kind in kinds))
    acc = _accumulator(k, n)
    out: dict[StatisticKind, np.ndarray] = {}

    cycle_kinds = [kind for kind in kinds if kind in CYCLE_OF]
    if cycle_kinds:
        per_cycle = _per_cycle(vals, {CYCLE_OF[kind] for kind in cycle_kinds})
        for kind in cycle_kinds:
            series = per_cycle[CYCLE_OF[kind]]
            out[kind] = series.sum(axis=1) if kind in SUM_KINDS else series.max(axis=1)

    affine = {kind: affine_base(kind, k, n) for kind in kinds if kind not in CYCLE_OF}
    if affine:
        bases = {base for base, _, _ in affine.values()}
        # order[b, p]: the cell of sample b with overall rank p + 1
        order = np.argsort(vals.reshape(b, k * n), axis=1)
        totals = {}
        if StatisticKind.WSTAR in bases:
            # slot weight times overall rank, summed in rank order
            ranks = np.arange(1, k * n + 1, dtype=np.int64)
            totals[StatisticKind.WSTAR] = (order // n + 1).dot(ranks)
        count_bases = bases - {StatisticKind.WSTAR}
        if count_bases and acc is np.int64 and k * (n + 1) ** k <= b * k * n:
            totals.update(_table_totals(order, count_bases, k, n))
        elif count_bases:
            totals.update(_fold_totals(order, count_bases, k, n, acc))
        for kind, (base, scale, offset) in affine.items():
            total = totals[base]
            out[kind] = total if base is kind else offset + scale * total.astype(acc, copy=False)

    return {kind: out[kind] for kind in kinds}


def _per_cycle(
    vals: np.ndarray, bases: set[StatisticKind]
) -> dict[StatisticKind, np.ndarray]:
    """Each cycle's PN, PA and PS as a k x 1 grid, (B, n) int64 each, for `bases`.

    Every slot pair i < j is compared once: slot i's (B, n) values against
    each higher slot's, in one comparison per slot i.  Where slot i's value
    lies above slot j's, the pair is out of order, slot i's rank goes up and
    slot j's goes down relative to its slot.  Ranks minus slots lie within
    +-(k-1) and the pairs out of order number at most k(k-1)/2, so both
    are held in the smallest signed integer dtype that fits them.
    """
    b, k, n = vals.shape
    small = np.min_scalar_type(-max(k, k * (k - 1) // 2))
    slots = np.ascontiguousarray(vals.transpose(1, 0, 2))
    deviation = StatisticKind.PA in bases or StatisticKind.PS in bases
    # rank minus slot, both 1-based
    dev = np.zeros((k, b, n), dtype=small) if deviation else None
    pairs = np.zeros((b, n), dtype=small) if StatisticKind.PN in bases else None
    for i in range(k - 1):
        gt = slots[i] > slots[i + 1 :]
        above = gt.sum(axis=0, dtype=small)
        if deviation:
            dev[i] += above
            dev[i + 1 :] -= gt
        if pairs is not None:
            pairs += above
    out = {}
    if pairs is not None:
        out[StatisticKind.PN] = pairs.astype(np.int64)
    if StatisticKind.PA in bases:
        out[StatisticKind.PA] = np.abs(dev).sum(axis=0, dtype=np.int64)
    if StatisticKind.PS in bases:
        out[StatisticKind.PS] = np.square(dev, dtype=np.int64).sum(axis=0)
    return out


def _table_totals(
    order: np.ndarray, bases: Iterable[StatisticKind], k: int, n: int
) -> dict[StatisticKind, np.ndarray]:
    """Each base's sum of cell shares, by one gather from `share_table`.

    Along a sample's order exactly one count goes up per step, so the
    exclusive cumulative sum of (n+1)^slot encodes the counts below each cell.
    """
    slot = order // n
    step = np.take((n + 1) ** np.arange(k), slot)
    index = np.cumsum(step, axis=1)
    index -= step
    index += slot * (n + 1) ** k
    return {base: np.take(share_table(base, k, n), index).sum(axis=1) for base in bases}


def _fold_totals(
    order: np.ndarray, bases: Iterable[StatisticKind], k: int, n: int, acc: type
) -> dict[StatisticKind, np.ndarray]:
    """Each base's sum of cell shares, by `cell_shares` over the below-counts.

    One block of `order`'s rows at a time, so the (k, rows, kn) counts
    stay near BLOCK_BYTES whatever the batch size.
    """
    b, kn = order.shape
    parts: dict[StatisticKind, list[np.ndarray]] = {base: [] for base in bases}
    for rows in replicate_blocks(b, k * kn * np.min_scalar_type(n).itemsize):
        counts = _below_counts(order[rows], k, n)
        for base, part in parts.items():
            part.append(
                sum(
                    cell_shares(base, s, counts[:, :, s * n : (s + 1) * n], n, acc).sum(axis=1)
                    for s in range(k)
                )
            )
    return {base: np.concatenate(part) for base, part in parts.items()}


def _below_counts(order: np.ndarray, k: int, n: int) -> np.ndarray:
    """counts[i, b, c]: the slot-i cells of sample b that lie below its cell c.

    Slot-major, from each sample's cell order: per slot, a running count
    of its cells met along the order is gathered back to the cells, and
    the slot's own cells, each counted at itself, take one off.  Every
    count is at most n, so the smallest unsigned dtype that fits n holds
    it (uint8 up to n = 255).
    """
    b, kn = order.shape
    small = np.min_scalar_type(n)
    slot = order // n
    # position[b, c] as a flat index into a (B, kn) array: where cell c
    # of sample b sits in its order
    position = np.empty_like(order)
    position[np.arange(b)[:, None], order] = np.arange(kn)
    position += np.arange(0, b * kn, kn)[:, None]
    counts = np.empty((k, b, kn), dtype=small)
    met = np.empty((b, kn), dtype=bool)
    seen = np.empty((b, kn), dtype=small)
    for i in range(k):
        np.equal(slot, i, out=met)
        np.cumsum(met, axis=1, dtype=small, out=seen)
        # every position is in range; the default mode="raise" would buffer out
        np.take(seen, position, out=counts[i], mode="wrap")
        counts[i, :, i * n : (i + 1) * n] -= 1
    return counts


def cell_shares(
    kind: StatisticKind, s: int, counts: np.ndarray, n: int, acc: type = np.int64
) -> np.ndarray:
    """What a slot-s cell adds to J, Wstar or PA, given the counts below it.

    `counts[i, ...]` counts the slot-i cells below the cell (slots 0-based,
    n cells a slot, k = counts.shape[0], any trailing shape):

      J      sum_{i>s} counts_i              (higher-slot cells it lies above)
      Wstar  (s+1) * (sum counts + 1)        (slot weight times overall rank)
      PA     n^(k-1) * E|1 + sum_{i!=s} Bernoulli(counts_i/n) - (s+1)|

    The PA share is the cell's rank discrepancy summed over the random
    recombinations, where its rank is 1 plus one Bernoulli per other slot.
    Its mean part is linear in the counts, so only the shorter tail of
    the rank distribution is convolved: min(s, k-1-s) pmf numerators over
    n^(k-1), in `acc` integers, which makes the end slots s = 0 and
    s = k-1 closed-form.  J and Wstar shares are int64.
    """
    kind = StatisticKind(kind)
    if kind is StatisticKind.J:
        return counts[s + 1 :].sum(axis=0, dtype=np.int64)
    if kind is StatisticKind.WSTAR:
        return (s + 1) * (counts.sum(axis=0, dtype=np.int64) + 1)
    if kind is not StatisticKind.PA:
        raise ValueError(f"no per-cell share for {kind.value}")
    k = counts.shape[0]
    # |X - s| = |Z - t| with Z the Bernoulli sum towards the nearer end
    # (Z = X, or Z = k-1-X with success counts n - counts_i) and t its
    # distance; |Z - t| = (Z - t) + 2 (t - Z)+ needs only P(Z < t).
    t = min(s, k - 1 - s)
    cells = counts.shape[1:]
    others = [i for i in range(k) if i != s]
    total = sum((counts[i] for i in others), np.zeros(cells, dtype=np.int64))
    if t < s:
        total = (k - 1) * n - total
    share = total.astype(acc) * n ** max(k - 2, 0) - t * n ** (k - 1)
    if t:
        # pmf[j]: n^(k-1) P(Z = j) for j < t, one array per j, built by
        # folding in one Bernoulli(m / n) per slot i != s
        pmf = [np.ones(cells, dtype=acc)] + [np.zeros(cells, dtype=acc)] * (t - 1)
        for i in others:
            m = counts[i].astype(acc)
            q = n - m
            if t < s:
                m, q = q, m
            for j in range(t - 1, 0, -1):
                pmf[j] = pmf[j] * q + pmf[j - 1] * m
            pmf[0] = pmf[0] * q
        share += 2 * sum((t - j) * p for j, p in enumerate(pmf))
    return share


@lru_cache(maxsize=None)
def share_table(kind: StatisticKind, k: int, n: int) -> np.ndarray:
    """`cell_shares` of every slot s and count vector c on a k x n grid.

    Entry s * (n+1)^k + sum_i c_i (n+1)^i is what a slot-s cell with c_i
    slot-i cells below it adds, in `_accumulator(k, n)` integers.  The
    table has k (n+1)^k entries, so only small grids can hold one.
    Read-only, and built once per (kind, k, n).
    """
    radix = (n + 1) ** np.arange(k)
    # slot-major: column v is the count vector whose code is v
    counts = np.arange((n + 1) ** k) // radix[:, None] % (n + 1)
    acc = _accumulator(k, n)
    table = np.concatenate([cell_shares(kind, s, counts, n, acc) for s in range(k)])
    table.flags.writeable = False
    return table
