"""The one evaluation kernel for the eleven statistics.

`evaluate_batch` computes any subset of the statistics for a whole
(B, k, n) array of samples; scalar `statistics.evaluate` is a one-sample
call into it, so every statistic is computed in one place.  It works on
one block of rows at a time, of about BLOCK_BYTES of intermediates, so
its working set does not grow with the batch and no caller slices one.
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
take one of two paths, chosen from the grid (k, n) alone, so a batch of
any size takes the path a full CHUNK_SIZE chunk would:

  table  when the accumulator is int64 and the k (n+1)^k entries of
         `share_table` are no more than a full chunk's CHUNK_SIZE k n
         cells and fit in BLOCK_BYTES (3x3, 4x5, 5x4, 6x4, 7x3, 4x16 and
         8x2, among others).  Along the sorted order one count goes up
         per step, so the exclusive running sum of (n+1)^slot, plus
         slot * (n+1)^k, indexes each cell's share: one gather.
  fold   otherwise (8x3, 6x10, 10x10, 2x512 and wider k = 2 grids,
         object accumulators).  The same running sum packs the counts:
         slot i owns a lane of n.bit_length() bits in a uint64 word, so
         one cumulative sum a word (one word up to 12x30, two on 13x16
         and 9x255) counts every slot at once, and one scatter puts the
         codes in cell order.  Per slot s, shifts read its cells' k
         counts out of the lanes and `cell_shares` folds them in.

The other eight statistics are derived as `statistics` defines them: PN
and PS through `affine_base` from J and Wstar, and each cycle kind
through `CYCLE_OF` from the within-cycle N, A and S.

Results are exact integers on every grid.  Within a cycle, rank minus
slot lies within +-(k-1) and N is at most k(k-1)/2, held in the smallest
signed dtype that fits both (int8 up to k = 16) and returned as int64.
J and Wstar are at most k * (kn)^2 and stay int64; every count below a
cell is at most n, so it fits its n.bit_length()-bit lane without
carrying into the next, and reads out as int64.  The scaled quantities
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

# the replicates of one seeded Monte Carlo chunk (`mc.run_chunks`)
CHUNK_SIZE = 8192

# the byte budget of one block of replicates: the perfect draw's comparison
# sets and the kernel's intermediates are built one block of rows at a
# time, so their size does not grow with the chunk; a share table stays
# within it
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
    pairwise distinct.  Any batch may be passed, a whole chunk included:
    it is evaluated one block of rows at a time (`replicate_blocks`),
    each block's intermediates near BLOCK_BYTES.
    """
    vals = np.asarray(values, dtype=np.float64)
    if vals.ndim != 3:
        raise ValueError("values must have shape (batch, k, n)")
    b, k, n = vals.shape
    kinds = tuple(dict.fromkeys(StatisticKind(kind) for kind in kinds))
    # a row block's per-cycle copies, cell order and fold codes, one
    # slot's counts and the PA scratch stay near BLOCK_BYTES
    blocks = replicate_blocks(b, 8 * k * n * (2 * _lanes(k, n)[2] + 3))
    if len(blocks) > 1:
        parts = [evaluate_batch(vals[rows], kinds) for rows in blocks]
        return {kind: np.concatenate([part[kind] for part in parts]) for kind in kinds}
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
        # k (n+1)^k table entries: no more than a full chunk's cells, and
        # no more than one block's bytes whatever the batch
        table = acc is np.int64 and (n + 1) ** k <= min(CHUNK_SIZE * n, BLOCK_BYTES // (8 * k))
        if count_bases and table:
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


def _running_code(slot: np.ndarray, units: np.ndarray) -> np.ndarray:
    """The exclusive running sum of units[..., slot] along each row of `slot`.

    Along a sample's order exactly one count goes up per step, that of the
    step's slot, so with a slot's unit as the step this sums, at every
    position, what every slot's cells met before it contribute.  A 1-d
    `units` gives one code per position, a 2-d (words, k) one per word.
    """
    step = np.take(units, slot, axis=-1)
    code = np.cumsum(step, axis=-1)
    code -= step
    return code


def _table_totals(
    order: np.ndarray, bases: Iterable[StatisticKind], k: int, n: int
) -> dict[StatisticKind, np.ndarray]:
    """Each base's sum of cell shares, by one gather from `share_table`.

    The running code in radix n+1, plus slot * (n+1)^k, indexes each cell's share.
    """
    slot = order // n
    index = _running_code(slot, (n + 1) ** np.arange(k))
    index += slot * (n + 1) ** k
    return {base: np.take(share_table(base, k, n), index).sum(axis=1) for base in bases}


def _lanes(k: int, n: int) -> tuple[int, int, int]:
    """(width, lanes, words): slot i's count is a lane of `width` bits in a
    uint64 word, `lanes` to a word, slot i in word i // lanes."""
    width = n.bit_length()
    lanes = 64 // width
    return width, lanes, -(-k // lanes)


def _below_code(order: np.ndarray, k: int, n: int) -> np.ndarray:
    """code[w, s, b, j]: the counts below sample b's cell s * n + j, in lanes.

    Slot i's lane in word i // lanes holds how many slot-i cells lie below
    the cell (`_lanes`); every count is at most n, so no lane carries into
    the next.  One running code a word along the order, put back by one
    scatter in cell order, slot-major, so each slot's cells are contiguous.
    """
    b, kn = order.shape
    width, lanes, words = _lanes(k, n)
    units = np.zeros((words, k), dtype=np.uint64)
    for i in range(k):
        units[i // lanes, i] = 1 << width * (i % lanes)
    slot = order // n
    running = _running_code(slot, units)
    # cell s * n + j of sample b goes to (s, b, j)
    at = order + slot * ((b - 1) * n) + np.arange(0, b * n, n)[:, None]
    code = np.empty((words, k, b, n), dtype=np.uint64)
    code.reshape(words, -1)[:, at] = running
    return code


def _lane_counts(code: np.ndarray, s: int, k: int, n: int, out: np.ndarray) -> np.ndarray:
    """out[i, b, j]: the slot-i cells below sample b's cell s * n + j, read
    from `_below_code` into `out`, a (k, rows, n) uint64 array; returned as
    its int64 view."""
    width, lanes, words = _lanes(k, n)
    shifts = (width * np.arange(lanes, dtype=np.uint64))[:, None, None]
    for w in range(words):
        lo, hi = w * lanes, min((w + 1) * lanes, k)
        np.right_shift(code[w, s], shifts[: hi - lo], out=out[lo:hi])
    out &= (1 << width) - 1
    return out.view(np.int64)


def _fold_totals(
    order: np.ndarray, bases: Iterable[StatisticKind], k: int, n: int, acc: type
) -> dict[StatisticKind, np.ndarray]:
    """Each base's sum of cell shares, by `cell_shares` over the lane counts."""
    code = _below_code(order, k, n)
    out = np.empty((k, len(order), n), dtype=np.uint64)
    totals = dict.fromkeys(bases, 0)
    for s in range(k):
        counts = _lane_counts(code, s, k, n, out)
        for base in totals:
            totals[base] += cell_shares(base, s, counts, n, acc).sum(axis=1)
    return totals


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
    counts = counts.astype(acc, copy=False)
    # |X - s| = |Z - t| with Z the Bernoulli sum towards the nearer end
    # (Z = X, or Z = k-1-X with success counts n - counts_i) and t its
    # distance; |Z - t| = (Z - t) + 2 (t - Z)+ needs only P(Z < t).
    t = min(s, k - 1 - s)
    share = counts.sum(axis=0, out=np.empty(counts.shape[1:], dtype=acc))
    share -= counts[s]
    if t < s:
        np.subtract((k - 1) * n, share, out=share)
    share *= n ** max(k - 2, 0)
    share -= t * n ** (k - 1)
    if t:
        # pmf[j]: n^(k-1) P(Z = j) for j < t, built in place by folding in
        # one Bernoulli(up / n) per slot i != s: each step moves pmf[j-1] * up
        # up to j, through one scratch array, and keeps pmf[j] * down
        pmf = np.zeros((t,) + share.shape, dtype=acc)
        pmf[0] = 1
        scratch = np.empty_like(pmf[1:])
        others = n - counts
        ups, downs = (others, counts) if t < s else (counts, others)
        for i in range(k):
            if i != s:
                np.multiply(pmf[:-1], ups[i], out=scratch)
                pmf *= downs[i]
                pmf[1:] += scratch
        pmf *= np.arange(2 * t, 0, -2).reshape((t,) + (1,) * share.ndim)
        share += pmf.sum(axis=0)
    return share


# a table takes up to BLOCK_BYTES, so the cache holds at most 32 MiB
@lru_cache(maxsize=8)
def share_table(kind: StatisticKind, k: int, n: int) -> np.ndarray:
    """`cell_shares` of every slot s and count vector c on a k x n grid.

    Entry s * (n+1)^k + sum_i c_i (n+1)^i is what a slot-s cell with c_i
    slot-i cells below it adds, in `_accumulator(k, n)` integers.  The
    table has k (n+1)^k entries, so only small grids can hold one.
    Read-only; the eight most recently used are kept.
    """
    radix = (n + 1) ** np.arange(k)
    # slot-major: column v is the count vector whose code is v
    counts = np.arange((n + 1) ** k) // radix[:, None] % (n + 1)
    acc = _accumulator(k, n)
    table = np.concatenate([cell_shares(kind, s, counts, n, acc) for s in range(k)])
    table.flags.writeable = False
    return table
