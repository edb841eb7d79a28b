"""The one evaluation kernel for the eleven statistics.

`evaluate_batch` computes any subset of the statistics for a whole
(B, k, n) array of samples at once; scalar `statistics.evaluate` is a
one-sample call into it, so every statistic is computed in one place.
The independent oracles the tests and `verify` compare it with are
`statistics.tuple_discrepancies` (one cycle, or one recombined sample)
and `statistics.brute_force_perm_all` (the n^k enumeration).

Results are exact integers on every grid.  Rank counts (within-cycle
ranks, J, overall ranks, per-slot counts below each cell) are at most
k * (kn)^2 and stay int64.  The scaled quantities (PN, PS and the PA
convolution) grow like n^k * k^3; `_accumulator` decides from (k, n)
alone whether they fit in int64, and where they do not the same code
runs with Python-int (object) accumulators instead of wrapping.
"""

from __future__ import annotations

from typing import Iterable, Mapping

import numpy as np

from .statistics import (
    MAX_KINDS,
    PERM_KINDS,
    SUM_KINDS,
    StatisticKind,
    ps_offset,
)

_INT64_MAX = int(np.iinfo(np.int64).max)


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

    need = set(kinds)
    need_cycles = need & (set(SUM_KINDS) | set(MAX_KINDS))
    need_cross = need & ({StatisticKind.J, StatisticKind.WSTAR, StatisticKind.PA} | set(PERM_KINDS))

    if need_cycles:
        # gt[b, i, j, l]: slot-i value above slot-j value within cycle l
        gt = vals[:, :, None, :] > vals[:, None, :, :]
        pair_mask = np.triu(np.ones((k, k), dtype=bool), 1)
        n_cyc = np.einsum("bijl,ij->bl", gt, pair_mask, dtype=np.int64)
        ranks = 1 + gt.sum(axis=2, dtype=np.int64)
        dev = ranks - np.arange(1, k + 1, dtype=np.int64)[None, :, None]
        a_cyc = np.abs(dev).sum(axis=1)
        s_cyc = (dev * dev).sum(axis=1)
        cyc = {"N": n_cyc, "A": a_cyc, "S": s_cyc}
        for kind in need_cycles:
            series = cyc[kind.value[0]]
            out[kind] = series.sum(axis=1) if kind in SUM_KINDS else series.max(axis=1)

    if need_cross:
        # above[b, i, a, j, c]: cell (i, a) above cell (j, c)
        above = vals[:, :, :, None, None] > vals[:, None, None, :, :]
        j_stat = None
        if need & {StatisticKind.J, StatisticKind.PN}:
            pair_mask = np.triu(np.ones((k, k), dtype=bool), 1)
            j_stat = np.einsum("biajc,ij->b", above, pair_mask, dtype=np.int64)
        w_stat = None
        if need & {StatisticKind.WSTAR, StatisticKind.PS}:
            overall = 1 + above.sum(axis=(3, 4), dtype=np.int64)
            w_stat = np.einsum(
                "bjc,j->b", overall, np.arange(1, k + 1, dtype=np.int64)
            )
        if StatisticKind.J in need:
            out[StatisticKind.J] = j_stat
        if StatisticKind.WSTAR in need:
            out[StatisticKind.WSTAR] = w_stat
        if StatisticKind.PN in need:
            # J is 0 for k = 1, where every recombined sample is sorted
            out[StatisticKind.PN] = n ** max(k - 2, 0) * j_stat.astype(acc, copy=False)
        if StatisticKind.PS in need:
            if k >= 2:
                scaled = 2 * n ** (k - 2) * w_stat.astype(acc, copy=False)
                out[StatisticKind.PS] = ps_offset(k, n) - scaled
            else:
                out[StatisticKind.PS] = np.zeros(b, np.int64)
        if StatisticKind.PA in need:
            # below_counts[b, j, c, i]: slot-i values under cell (j, c)
            below_counts = above.sum(axis=4, dtype=np.int64)
            out[StatisticKind.PA] = _pa_from_counts(below_counts, k, n, acc)

    return {kind: out[kind] for kind in kinds}


def _pa_from_counts(below_counts: np.ndarray, k: int, n: int, acc: type) -> np.ndarray:
    """PA via per-cell Bernoulli-sum convolution, batched.

    For cell (j, c) the rank in a random recombination is 1 plus a sum of
    independent Bernoulli(below/n) over the other slots; pmf numerators
    are convolved in `acc` integers over the common denominator n^(k-1)
    and n^(k-1) * E|rank - j| reduces to an exact integer per cell.
    """
    b = below_counts.shape[0]
    pa = np.zeros(b, dtype=acc)
    for j in range(k):
        pmf = np.zeros((b, n, k), dtype=acc)
        pmf[:, :, 0] = 1
        for i in range(k):
            if i == j:
                continue
            m = below_counts[:, j, :, i].astype(acc, copy=False)  # (B, n)
            nxt = pmf * (n - m)[:, :, None]
            nxt[:, :, 1:] += pmf[:, :, :-1] * m[:, :, None]
            pmf = nxt
        weights = np.abs(np.arange(k, dtype=np.int64) - j).astype(acc, copy=False)
        pa += np.einsum("bcs,s->b", pmf, weights)
    return pa
