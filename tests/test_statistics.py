"""Statistic evaluators: hand values, identities and invariants."""

from __future__ import annotations

import hashlib
import itertools
import tracemalloc

import numpy as np
import pytest

from rsstest import (
    ALL_KINDS,
    EnumerationBudgetError,
    ImperfectModel,
    NullSource,
    PowerStudy,
    RssSample,
    StatisticKind,
    brute_force_perm_all,
    draw_cells,
    estimate_power,
    evaluate,
    is_lower_tail,
    mc_null_distributions,
    monotone_transform,
    ps_offset,
    statistic_range,
    substream,
)
from rsstest.batch import (
    _accumulator,
    _below_code,
    _fold_totals,
    _lane_counts,
    _lanes,
    _per_cycle,
    _table_totals,
    cell_shares,
    evaluate_batch,
    share_table,
)
from rsstest.mc import CHUNK_SIZE
from rsstest.statistics import CYCLE_OF, MAX_KINDS, SUM_KINDS, affine_base, tuple_discrepancies
from rsstest.streams import NULL_STREAM_BASE

from conftest import make_sample, random_sample

K = StatisticKind
CYCLE_KINDS = SUM_KINDS + MAX_KINDS


def cycle_oracle(s: RssSample, kind: StatisticKind) -> int:
    """A per-cycle sum or maximum from `tuple_discrepancies`, cycle by cycle."""
    idx = "NAS".index(kind.value[0])
    series = [tuple_discrepancies(s.cycle(l))[idx] for l in range(1, s.n + 1)]
    return sum(series) if kind in SUM_KINDS else max(series)


def j_oracle(s: RssSample) -> int:
    """J from its definition: pairs (slot i below slot j) in the wrong order."""
    rows = s.values
    return sum(
        1
        for i in range(s.k - 1)
        for j in range(i + 1, s.k)
        for a in rows[i]
        for b in rows[j]
        if a > b
    )


def wstar_oracle(s: RssSample) -> int:
    """Wstar from its definition: slot index times overall rank, summed."""
    order = sorted((v, i) for i, row in enumerate(s.values) for v in row)
    return sum((i + 1) * rank for rank, (_, i) in enumerate(order, start=1))


# ---------------------------------------------------------------------------
# per-cycle statistics and aggregates
# ---------------------------------------------------------------------------


def pa_share_oracle(s: int, counts: np.ndarray, n: int) -> list[int]:
    """n^(k-1) E|X - s| for each count vector, X the sum of one
    Bernoulli(counts_i / n) per slot i != s: the 2^(k-1) outcomes of the
    other slots, weighted by counts_i or n - counts_i, summed in Python ints."""
    out = []
    for c in counts.tolist():
        others = c[:s] + c[s + 1 :]
        total = 0
        for hits in itertools.product((0, 1), repeat=len(others)):
            weight = 1
            for hit, ci in zip(hits, others):
                weight *= ci if hit else n - ci
            total += weight * abs(sum(hits) - s)
        out.append(total)
    return out


def pa_oracle(s: RssSample) -> int:
    """PA cell by cell: count the cells of every other slot below the cell
    by direct comparison, convolve the full pmf of the number of them a
    recombination puts below it, and weight by the rank discrepancy."""
    rows, n = s.values, s.n
    total = 0
    for slot, row in enumerate(rows):
        for v in row:
            pmf = [1]
            for i, other in enumerate(rows):
                if i != slot:
                    m = sum(1 for w in other if w < v)
                    pmf = [a * (n - m) + b * m for a, b in zip(pmf + [0], [0] + pmf)]
            total += sum(p * abs(j - slot) for j, p in enumerate(pmf))
    return total


def test_per_cycle_perfect_order_is_zero():
    s = make_sample([[1], [2], [3], [4]])
    assert tuple_discrepancies(s.cycle(1)) == (0, 0, 0)
    assert [evaluate(s, kind) for kind in CYCLE_KINDS] == [0] * 6


def test_per_cycle_reversed_k3():
    # ranks (3,2,1): three violated pairs, |dev| = 2+0+2, squares = 4+0+4
    s = make_sample([[30], [20], [10]])
    assert tuple_discrepancies(s.cycle(1)) == (3, 4, 8)
    assert [evaluate(s, kind) for kind in SUM_KINDS] == [3, 4, 8]


def test_per_cycle_single_inversion_k2():
    s = make_sample([[2], [1]])
    assert tuple_discrepancies(s.cycle(1)) == (1, 2, 2)
    assert [evaluate(s, kind) for kind in MAX_KINDS] == [1, 2, 2]


def test_per_cycle_bad_index():
    s = make_sample([[1], [2]])
    for l in (0, 2):
        with pytest.raises(ValueError, match="cycle index"):
            s.cycle(l)


def test_aggregate_perfect_sample_zero():
    s = make_sample([[1, 5], [2, 6], [3, 7]])
    for kind in (K.N_SUM, K.A_SUM, K.S_SUM):
        assert evaluate(s, kind) == 0


def test_aggregate_sum_and_max():
    # cycle 1 = (3,2) inverted -> A=2; cycle 2 = (1,4) sorted -> A=0
    s = make_sample([[3, 1], [2, 4]])
    assert evaluate(s, K.A_SUM) == 2
    assert evaluate(s, K.A_MAX) == 2


def test_aggregate_single_cycle_sum_equals_max(rng):
    s = random_sample(rng, 4, 1)
    for sum_kind, max_kind in zip(SUM_KINDS, MAX_KINDS):
        assert evaluate(s, sum_kind) == evaluate(s, max_kind)


def test_aggregate_rejects_other_tags():
    s = make_sample([[1], [2]])
    with pytest.raises(ValueError):
        evaluate(s, "N_mean")
    with pytest.raises(ValueError):
        evaluate_batch(np.array([[[1.0], [2.0]]]), ["N_mean"])


# ---------------------------------------------------------------------------
# recombination statistics, J and Wstar: hand values and brute force
# ---------------------------------------------------------------------------


def test_brute_force_nested_sample_is_zero():
    # every slot-1 value below every slot-2 value: all 4 recombinations sorted
    assert brute_force_perm_all(make_sample([[1, 2], [4, 3]])) == (0, 0, 0)


def test_brute_force_hand_enumeration():
    # recombinations of [[5,2],[4,3]]: (5,4),(5,3) inverted, (2,4),(2,3) sorted
    s = make_sample([[5, 2], [4, 3]])
    assert brute_force_perm_all(s) == (2, 4, 4)
    assert (evaluate(s, K.PN), evaluate(s, K.PA), evaluate(s, K.PS)) == (2, 4, 4)


def test_brute_force_budget_refusal():
    # 8^8 = 16,777,216 recombinations exceed the fixed budget; the refusal
    # comes before any enumeration
    s = make_sample([[i * 10 + l for l in range(8)] for i in range(8)])
    with pytest.raises(EnumerationBudgetError, match="evaluate"):
        brute_force_perm_all(s)


def test_fast_pa_hand_value():
    assert evaluate(make_sample([[5, 2], [4, 3]]), K.PA) == 4


def test_fast_pa_nested_is_zero():
    assert evaluate(make_sample([[1, 2], [4, 3]]), K.PA) == 0


def test_j_hand_value():
    assert evaluate(make_sample([[5, 2], [4, 3]]), K.J) == 2


def test_w_star_single_slot():
    # one slot: overall ranks are 1..n, so Wstar = n(n+1)/2
    s = RssSample(((0.3, 0.1, 0.7, 0.5),))
    assert evaluate(s, K.WSTAR) == 10


def test_w_star_hand_value():
    s = make_sample([[1], [2]])
    assert evaluate(s, K.WSTAR) == 1 * 1 + 2 * 2


@pytest.mark.parametrize("k,n", [(2, 1), (2, 3), (3, 2), (4, 3), (5, 2), (3, 5)])
def test_fast_paths_match_brute_force(rng, k, n):
    for _ in range(5):
        s = random_sample(rng, k, n)
        pn, pa, ps = brute_force_perm_all(s)
        assert evaluate(s, K.PA) == pa
        assert evaluate(s, K.PN) == n ** (k - 2) * evaluate(s, K.J) == pn
        assert evaluate(s, K.PS) == ps_offset(k, n) - 2 * n ** (k - 2) * evaluate(s, K.WSTAR) == ps


# each kind alone, then subsets that share or skip the kernel's
# intermediates: below-counts with ranks, ranks alone, each route to PS,
# and per-cycle values without the pair count
KIND_SUBSETS = [(kind,) for kind in ALL_KINDS] + [
    (K.PA, K.J, K.WSTAR, K.A_SUM),
    (K.PN, K.PS),
    (K.WSTAR, K.PS),
    (K.A_SUM, K.N_MAX, K.S_MAX),
    ALL_KINDS,
]


def test_batch_matches_oracles_for_each_requested_kind():
    # 32 perfect draws per grid: every sample against the enumerated and
    # from-definition oracles, and each subset of KIND_SUBSETS against the
    # same kinds from the all-kinds call
    perfect = ImperfectModel("perfect")
    for k in range(1, 6):
        for n in range(1, 5):
            cells = draw_cells(perfect, "uniform", k, n, 32, substream(10 * k + n, 0))
            together = evaluate_batch(cells, ALL_KINDS)
            for kinds in KIND_SUBSETS:
                got = evaluate_batch(cells, kinds)
                assert tuple(got) == kinds, (k, n, kinds)
                for kind, values in got.items():
                    assert values.dtype == together[kind].dtype, (k, n, kinds, kind)
                    assert values.tolist() == together[kind].tolist(), (k, n, kinds, kind)
            for b, sample_cells in enumerate(cells):
                s = make_sample(sample_cells)
                want = {kind: cycle_oracle(s, kind) for kind in CYCLE_KINDS}
                want[K.J], want[K.WSTAR] = j_oracle(s), wstar_oracle(s)
                want[K.PN], want[K.PA], want[K.PS] = brute_force_perm_all(s)
                for kind in ALL_KINDS:
                    assert together[kind][b] == want[kind], (k, n, kind, b)


def every_count_vector(k: int, n: int) -> np.ndarray:
    """All count vectors of a k x n grid, slot-major: column v is vector v."""
    return np.array(list(itertools.product(range(n + 1), repeat=k)), dtype=np.int32).T


def test_pa_share_matches_its_definition_on_every_count_vector():
    # k = 6 is the first k whose upper tail needs two pmf entries
    for k in range(1, 7):
        for n in range(1, 4):
            counts = every_count_vector(k, n)
            for s in range(k):
                want = pa_share_oracle(s, counts.T, n)
                for acc in (np.int64, object):
                    got = cell_shares(K.PA, s, counts, n, acc)
                    assert got.dtype == acc, (k, n, s, acc)
                    assert got.tolist() == want, (k, n, s, acc)
                    if acc is object:
                        assert all(type(v) is int for v in got.tolist()), (k, n, s)


def test_j_and_wstar_shares_match_their_definitions_on_every_count_vector():
    # a slot-s cell lies above the counted cells of each higher slot (J),
    # and its overall rank is one more than all cells below it (Wstar)
    for k in range(1, 7):
        for n in range(1, 4):
            counts = every_count_vector(k, n)
            for s in range(k):
                want_j = [sum(c[s + 1 :]) for c in counts.T.tolist()]
                want_w = [(s + 1) * (1 + sum(c)) for c in counts.T.tolist()]
                assert cell_shares(K.J, s, counts, n).tolist() == want_j, (k, n, s)
                assert cell_shares(K.WSTAR, s, counts, n).tolist() == want_w, (k, n, s)


def direct_counts(cells: np.ndarray) -> np.ndarray:
    """counts[i, b, c]: slot-i cells of sample b below its cell c, compared directly."""
    b, k, n = cells.shape
    flat = cells.reshape(b, k * n)
    return np.stack([(cells[:, i, None, :] < flat[:, :, None]).sum(axis=-1) for i in range(k)])


def lane_counts(order: np.ndarray, k: int, n: int) -> np.ndarray:
    """counts[i, b, c] as the kernel reads them, lane by lane, from its packed code."""
    code = _below_code(order, k, n)
    out = np.empty((k, len(order), n), dtype=np.uint64)
    return np.concatenate([_lane_counts(code, s, k, n, out).copy() for s in range(k)], axis=2)


def test_rank_based_wstar_is_the_sum_of_its_cell_shares():
    # the kernel takes Wstar from overall ranks alone; summing the per-cell
    # shares over directly counted cells must give the same value, and a
    # share whose slot weight is one too high must not.  The kernel's own
    # counts, which J and PA read, are the direct ones too.
    for k, n in ((1, 3), (2, 1), (3, 3), (4, 5), (6, 10)):
        cells = draw_cells(ImperfectModel("perfect"), "uniform", k, n, 32, substream(k + n, 4))
        counts = direct_counts(cells)
        order = np.argsort(cells.reshape(len(cells), k * n), axis=1)
        assert lane_counts(order, k, n).tolist() == counts.tolist(), (k, n)
        kernel = evaluate_batch(cells, [K.WSTAR])[K.WSTAR]
        shares = [cell_shares(K.WSTAR, s, counts[:, :, s * n : (s + 1) * n], n) for s in range(k)]
        total = sum(x.sum(axis=1) for x in shares)
        assert kernel.tolist() == total.tolist(), (k, n)
        for bumped, x in enumerate(shares):
            # weight bumped + 2 instead of bumped + 1 on one slot's cells
            assert (kernel != total + x.sum(axis=1) // (bumped + 1)).all(), (k, n, bumped)


# sha256 prefixes of `evaluate_batch` on seeded perfect draws, one per
# (k, n, B): every subset of KIND_SUBSETS in turn, each output's kind,
# dtype and values.  Any change to what the kernel returns moves them.
EVALUATE_BATCH_PINS = {
    (1, 3, 64): "b437b39c09892b90",
    (2, 1, 64): "9d55c2a12583fefc",
    (3, 3, 64): "e32569ef9dfb1d79",
    (4, 5, 64): "ca2ce6409fd8d99f",
    (5, 4, 64): "be3918dbc6e0200b",
    (6, 10, 64): "76736f7c978b843d",
    (10, 10, 64): "23272927e363102c",  # 45 slot pairs per cycle
    (12, 30, 4): "d3f558386c4ba43e",  # object accumulators
    # two-word lane codes; recorded from the per-slot fold
    (13, 16, 64): "b2a84215afea6e08",
    (9, 255, 8): "d3c5701098d22332",  # object accumulators
    # full chunks, where J and PA are gathered from the share tables;
    # recorded from the per-slot fold, before the tables existed
    (3, 3, CHUNK_SIZE): "55d1f32178e70eb1",
    (4, 5, CHUNK_SIZE): "cc36c42c9fa48e74",
    # two fold blocks, the second short; recorded from the unblocked fold
    (10, 10, 5000): "0c92aa22e57cf07a",
}


def test_the_wide_pin_spans_two_fold_blocks(monkeypatch):
    # the 10x10 pin of 5000 replicates folds over two or more blocks of
    # rows, the last one short
    rows = []

    def spy(order, k, n):
        rows.append(len(order))
        return _below_code(order, k, n)

    monkeypatch.setattr("rsstest.batch._below_code", spy)
    cells = draw_cells(ImperfectModel("perfect"), "uniform", 10, 10, 5000, substream(1003, 3))
    evaluate_batch(cells, [K.J])
    assert len(rows) >= 2 and rows[-1] < rows[0] and sum(rows) == 5000, rows


# a table grid, one- and two-word fold grids, and object accumulators;
# each batch spans two or more blocks of rows, the last one short
SEVERAL_BLOCK_BATCHES = [(4, 5, 6553), (4, 16, 2000), (10, 10, 2500), (13, 16, 800), (12, 30, 300)]


@pytest.mark.parametrize("k,n,b", SEVERAL_BLOCK_BATCHES)
def test_a_batch_of_several_blocks_equals_its_blocks_one_by_one(k, n, b, monkeypatch):
    # the blocks are read off the per-cycle calls (every kind is asked
    # for, so each block makes one); each block alone is one kernel call
    sizes = []

    def spy(vals, bases):
        sizes.append(len(vals))
        return _per_cycle(vals, bases)

    cells = draw_cells(ImperfectModel("perfect"), "uniform", k, n, b, substream(k * n, 12))
    with monkeypatch.context() as m:
        m.setattr("rsstest.batch._per_cycle", spy)
        got = evaluate_batch(cells, ALL_KINDS)
    assert len(sizes) >= 2 and sizes[-1] < sizes[0] and sum(sizes) == b, sizes
    edges = np.cumsum([0] + sizes)
    parts = [evaluate_batch(cells[lo:hi], ALL_KINDS) for lo, hi in zip(edges, edges[1:])]
    for kind in ALL_KINDS:
        want = np.concatenate([part[kind] for part in parts])
        assert got[kind].dtype == want.dtype, (k, n, kind)
        assert got[kind].tolist() == want.tolist(), (k, n, kind)


def test_a_whole_wide_chunk_is_evaluated_in_a_bounded_working_set():
    # one evaluate_batch call over a whole 8192-replicate 10x10 chunk, all
    # eleven kinds, peaks at about 5 MB above its cells: it works on one
    # block of rows at a time.  Evaluated in one piece it peaked at 16 MB.
    cells = draw_cells(ImperfectModel("perfect"), "uniform", 10, 10, CHUNK_SIZE, substream(1, 0))
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        evaluate_batch(cells, ALL_KINDS)
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert peak < 13e6, peak


@pytest.mark.parametrize("n", [255, 256])
def test_below_counts_and_fold_at_the_count_dtype_edge(n):
    # a count of 0..n cells takes an 8-bit lane up to n = 255 and a 9-bit
    # one from 256.  Sample 0 puts every slot-0 cell below every slot-1
    # cell, so the top cell counts all n below it and the running count
    # reaches n.
    k = 2
    cells = draw_cells(ImperfectModel("perfect"), "uniform", k, n, 6, substream(n, 8))
    cells[0] = np.arange(k * n).reshape(k, n)
    order = np.argsort(cells.reshape(len(cells), k * n), axis=1)
    assert _lanes(k, n)[0] == (8 if n < 256 else 9)
    counts = lane_counts(order, k, n)
    assert counts.dtype == np.int64
    assert counts.tolist() == direct_counts(cells).tolist()
    assert counts[0, 0, -1] == n
    bases = {K.J, K.WSTAR, K.PA}
    table = _table_totals(order, bases, k, n)
    fold = _fold_totals(order, bases, k, n, _accumulator(k, n))
    for base in bases:
        assert table[base].tolist() == fold[base].tolist(), (n, base)


# one-word grids, two-word grids (9x255 with object accumulators), and
# each lane-width edge with one lane more than a word holds
LANE_GRIDS = list(
    dict.fromkeys(
        [(3, 3), (6, 10), (10, 10), (13, 16), (9, 255)]
        + [(64 // n.bit_length() + 1, n) for n in (7, 8, 15, 16, 255, 256)]
    )
)


@pytest.mark.parametrize("k,n", LANE_GRIDS)
def test_lane_counts_equal_direct_counts(k, n):
    # every slot's count below every cell, own slot included, against the
    # direct comparison.  Sample 0 is sorted slot by slot, so the top
    # slot's cells count n in every other lane: a lane one bit too narrow
    # carries into the next, and an inclusive running sum counts a cell
    # below itself.
    width, lanes, words = _lanes(k, n)
    assert width == n.bit_length() and words == -(-k // lanes)
    b = 16 if k * n < 500 else 4
    cells = draw_cells(ImperfectModel("perfect"), "uniform", k, n, b, substream(k * n, 9))
    cells[0] = np.arange(k * n).reshape(k, n)
    order = np.argsort(cells.reshape(b, k * n), axis=1)
    want = direct_counts(cells)
    assert want[:-1, 0, -n:].tolist() == np.full((k - 1, n), n).tolist()
    assert lane_counts(order, k, n).tolist() == want.tolist(), (k, n)


def test_lane_grids_span_one_and_two_words():
    assert [_lanes(k, n)[2] for k, n in LANE_GRIDS[:5]] == [1, 1, 1, 2, 2]
    assert _accumulator(9, 255) is object
    assert all(_lanes(k, n)[2] == 2 for k, n in LANE_GRIDS[5:])


def test_one_wide_chunk_holds_a_bounded_working_set():
    # one perfect 10x10 chunk: the draw's peak (its cells included) and
    # the kernel's peak over all kinds (above the cells it is given) stay
    # below 32 MB.  A draw of the whole chunk's comparison sets, or int32
    # below-counts for the whole chunk, peaks at about 73 and 62 MB.
    tracemalloc.start()
    try:
        perfect = ImperfectModel("perfect")
        cells = draw_cells(perfect, "uniform", 10, 10, CHUNK_SIZE, substream(1, 0))
        draw_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        evaluate_batch(cells, ALL_KINDS)
        kernel_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert draw_peak < 32e6, draw_peak
    assert kernel_peak < 32e6, kernel_peak


@pytest.mark.parametrize("k,n,b", list(EVALUATE_BATCH_PINS))
def test_evaluate_batch_outputs_are_pinned(k, n, b):
    cells = draw_cells(ImperfectModel("perfect"), "uniform", k, n, b, substream(100 * k + n, 3))
    digest = hashlib.sha256()
    for kinds in KIND_SUBSETS:
        for kind, values in evaluate_batch(cells, kinds).items():
            digest.update(f"{kind.value}:{values.dtype}:{values.tolist()};".encode())
    assert digest.hexdigest()[:16] == EVALUATE_BATCH_PINS[k, n, b]


def test_share_table_entries_are_cell_shares_at_their_codes():
    # count vectors drawn at random and encoded here, each entry against
    # `cell_shares` of the same vector
    rng = np.random.default_rng(19)
    for k, n in ((1, 3), (2, 5), (3, 3), (4, 5), (5, 4), (8, 2)):
        counts = rng.integers(0, n + 1, size=(k, 50))
        codes = sum(counts[i] * (n + 1) ** i for i in range(k))
        for kind in (K.J, K.WSTAR, K.PA):
            table = share_table(kind, k, n)
            assert len(table) == k * (n + 1) ** k, (k, n, kind)
            for s in range(k):
                want = cell_shares(kind, s, counts, n, _accumulator(k, n))
                got = table[s * (n + 1) ** k + codes]
                assert got.tolist() == want.tolist(), (k, n, kind, s)


def test_share_table_cache_is_bounded():
    # tables built for more grids than the cache holds: at most its bound
    # stay cached, and a table built again equals its first build
    bound = share_table.cache_info().maxsize
    assert bound is not None
    grids = [(k, n) for k in (2, 3) for n in range(1, bound)]
    first = {(kind, grid): share_table(kind, *grid).copy() for kind in (K.J, K.PA) for grid in grids}
    assert len(first) > bound
    assert share_table.cache_info().currsize <= bound
    for (kind, grid), table in first.items():
        assert share_table(kind, *grid).tolist() == table.tolist(), (kind, grid)
    assert share_table.cache_info().currsize <= bound


@pytest.mark.parametrize("k,n", [(1, 3), (2, 1), (2, 5), (3, 3), (4, 5), (5, 4), (3, 10), (8, 2)])
def test_table_totals_equal_fold_totals(k, n):
    # a full chunk, the short last chunk of 20000 reps, and a batch too
    # small for the table rule; each subset's bases both ways.  The kernel
    # gathers only J and PA, whose shares never read the cell's own slot;
    # Wstar's does, so it checks that own-slot count in the encoded vectors.
    acc = _accumulator(k, n)
    assert acc is np.int64
    cells = draw_cells(ImperfectModel("perfect"), "uniform", k, n, CHUNK_SIZE, substream(k + n, 6))
    for b in (CHUNK_SIZE, 20000 % CHUNK_SIZE, 3):
        order = np.argsort(cells[:b].reshape(b, k * n), axis=1)
        for kinds in KIND_SUBSETS:
            bases = {affine_base(kind, k, n)[0] for kind in kinds if kind not in CYCLE_OF}
            table = _table_totals(order, bases, k, n)
            fold = _fold_totals(order, bases, k, n, acc)
            assert table.keys() == fold.keys() == bases, (k, n, b, kinds)
            for base in bases:
                assert table[base].dtype == fold[base].dtype, (k, n, b, base)
                assert table[base].tolist() == fold[base].tolist(), (k, n, b, base)


@pytest.mark.parametrize("k,n,b", [(6, 2, 16), (7, 2, 16), (8, 2, 16), (6, 3, 8)])
def test_batch_pa_matches_enumeration_past_k5(k, n, b):
    cells = draw_cells(ImperfectModel("perfect"), "uniform", k, n, b, substream(10 * k + n, 1))
    got = evaluate_batch(cells, [K.PA])[K.PA]
    assert got.tolist() == [brute_force_perm_all(make_sample(c))[1] for c in cells]


@pytest.mark.parametrize("k", [16, 17, 130])
def test_batch_cycle_kinds_past_the_int8_ranks(k):
    # the per-cycle ranks and pair counts are held in int8 up to k = 16
    # and in int16 from there; each cycle kind against the per-cycle
    # oracle, with one cycle fully reversed for the extreme N, A and S
    vals = np.random.default_rng(k).random((8, k, 2))
    vals[0, :, 1] = -np.arange(k)
    got = evaluate_batch(vals, CYCLE_KINDS)
    for kind in CYCLE_KINDS:
        assert got[kind].dtype == np.int64, (k, kind)
        want = [cycle_oracle(make_sample(cells), kind) for cells in vals]
        assert got[kind].tolist() == want, (k, kind)
    assert got[K.N_MAX][0] == k * (k - 1) // 2


def test_ps_offset_requires_k2():
    with pytest.raises(ValueError):
        ps_offset(1, 3)


# ---------------------------------------------------------------------------
# evaluate() dispatch and cross-kind facts
# ---------------------------------------------------------------------------


def test_evaluate_matches_each_route(rng):
    s = random_sample(rng, 4, 3)
    for kind in CYCLE_KINDS:
        assert evaluate(s, kind) == cycle_oracle(s, kind)
    assert evaluate(s, K.J) == j_oracle(s)
    assert evaluate(s, K.WSTAR) == wstar_oracle(s)
    pn, pa, ps = brute_force_perm_all(s)
    assert evaluate(s, K.PN) == pn
    assert evaluate(s, K.PA) == pa
    assert evaluate(s, K.PS) == ps
    assert all(type(evaluate(s, kind)) is int for kind in ALL_KINDS)


def test_single_cycle_collapse(rng):
    # with one cycle the recombination sums equal the per-cycle statistics
    s = random_sample(rng, 4, 1)
    assert evaluate(s, K.PN) == evaluate(s, K.N_SUM) == evaluate(s, K.N_MAX)
    assert evaluate(s, K.PA) == evaluate(s, K.A_SUM)
    assert evaluate(s, K.PS) == evaluate(s, K.S_SUM)


def test_zero_characterisation_nested(rng):
    # slot rows strictly separated: every recombination is sorted
    rows = [sorted(10 * i + rng.random(3)) for i in range(4)]
    s = make_sample(rows)
    for kind in (K.N_SUM, K.PN, K.PA, K.PS, K.J):
        assert evaluate(s, kind) == 0
    assert evaluate(s, K.WSTAR) == statistic_range(K.WSTAR, 4, 3)[1]


def test_zero_characterisation_violated(rng):
    # one boundary crossing forces every zero-minimum statistic positive
    s = make_sample([[1.0, 9.0], [5.0, 6.0]])
    for kind in (K.N_SUM, K.PN, K.PA, K.PS, K.J):
        assert evaluate(s, kind) > 0


def test_monotone_invariance_all_kinds(rng):
    for _ in range(5):
        k, n = int(rng.integers(2, 5)), int(rng.integers(1, 5))
        s = random_sample(rng, k, n)
        t = monotone_transform(s, lambda x: np.exp(2.0 * x))
        for kind in ALL_KINDS:
            assert evaluate(s, kind) == evaluate(t, kind)


def test_values_within_ranges(rng):
    for _ in range(10):
        k, n = int(rng.integers(2, 6)), int(rng.integers(1, 5))
        s = random_sample(rng, k, n)
        for kind in ALL_KINDS:
            lo, hi = statistic_range(kind, k, n)
            assert lo <= evaluate(s, kind) <= hi
        for l in range(1, n + 1):
            dn, da, ds = tuple_discrepancies(s.cycle(l))
            assert 0 <= dn <= k * (k - 1) // 2
            assert 0 <= da <= k * k // 2
            assert 0 <= ds <= k * (k * k - 1) // 3


def oracle_values(s: RssSample) -> dict[StatisticKind, int]:
    """All eleven statistics from the defining computations alone."""
    pn, pa, ps = brute_force_perm_all(s)
    values = {kind: cycle_oracle(s, kind) for kind in CYCLE_KINDS}
    values.update({K.PN: pn, K.PA: pa, K.PS: ps, K.J: j_oracle(s), K.WSTAR: wstar_oracle(s)})
    return values


@pytest.mark.parametrize("k", range(1, 6))
@pytest.mark.parametrize("n", range(1, 5))
def test_statistic_range_is_attained(k, n):
    # every slot below the next is perfect ranking, every slot above it is
    # the full reversal: each bound is one of their values, so a loosened
    # bound fails here even when every sample still lies inside it
    nested = np.arange(k * n, dtype=float).reshape(k, n)
    low, high = oracle_values(make_sample(nested)), oracle_values(make_sample(nested[::-1]))
    for kind in ALL_KINDS:
        want = (high[kind], low[kind]) if kind is K.WSTAR else (low[kind], high[kind])
        assert statistic_range(kind, k, n) == want, kind


def test_tail_direction():
    assert is_lower_tail(K.WSTAR)
    assert not any(is_lower_tail(kind) for kind in ALL_KINDS if kind is not K.WSTAR)


def test_from_tag_round_trip_and_error():
    for kind in ALL_KINDS:
        assert StatisticKind.from_tag(kind.value) is kind
    with pytest.raises(ValueError, match="unknown statistic"):
        StatisticKind.from_tag("PB")


# ---------------------------------------------------------------------------
# wide grids: past int64 the kernel computes in Python ints, exactly
# ---------------------------------------------------------------------------


def check_closed_forms(cells: np.ndarray) -> None:
    """Every sample of a (B, k, n) batch against the from-definition oracles:
    per-cycle kinds via `tuple_discrepancies`, J, Wstar and PA directly,
    and PN and PS through their identities, all in Python ints."""
    _, k, n = cells.shape
    got = evaluate_batch(cells, ALL_KINDS)
    for b, sample_cells in enumerate(cells):
        s = make_sample(sample_cells)
        want = {kind: cycle_oracle(s, kind) for kind in CYCLE_KINDS}
        want[K.J] = j_oracle(s)
        want[K.WSTAR] = wstar_oracle(s)
        want[K.PN] = n ** (k - 2) * want[K.J]
        want[K.PS] = ps_offset(k, n) - 2 * n ** (k - 2) * want[K.WSTAR]
        want[K.PA] = pa_oracle(s)
        for kind, value in want.items():
            assert got[kind][b] == value, kind
        lo, hi = statistic_range(K.PA, k, n)
        assert lo <= got[K.PA][b] <= hi


def test_wide_grid_extremes_reach_range_bounds():
    k, n = 12, 30
    nested = np.arange(k * n, dtype=float).reshape(k, n)
    reversed_ = nested[::-1].copy()
    batch = evaluate_batch(np.stack([nested, reversed_]), ALL_KINDS)
    for kind in ALL_KINDS:
        lo, hi = statistic_range(kind, k, n)
        low_end, high_end = (hi, lo) if is_lower_tail(kind) else (lo, hi)
        assert batch[kind].tolist() == [low_end, high_end], kind
        assert evaluate(make_sample(nested), kind) == low_end, kind
        assert evaluate(make_sample(reversed_), kind) == high_end, kind
    assert statistic_range(K.PA, k, n)[1] > np.iinfo(np.int64).max


def test_wide_grid_random_samples_match_definitions():
    check_closed_forms(np.random.default_rng(12).random((2, 12, 30)))


def test_wide_grid_recombination_sums_against_enumeration():
    # slots 1 and 2 interleave at random and every other slot lies above
    # both, in slot order: each recombination's discrepancies come from its
    # first two values alone, so each sum is n^(k-2) times the enumerated
    # sum of those two rows
    k, n = 12, 30
    cells = np.arange(k * n, dtype=float).reshape(k, n)
    cells[:2] = np.random.default_rng(30).permutation(2 * n).reshape(2, n)
    got = [evaluate(make_sample(cells), kind) for kind in (K.PN, K.PA, K.PS)]
    assert got == [n ** (k - 2) * v for v in brute_force_perm_all(make_sample(cells[:2]))]


def test_closed_forms_either_side_of_the_int64_boundary():
    # for k = 12, n = 21 is the largest grid whose scaled values fit int64
    rng = np.random.default_rng(21)
    for n, dtype in ((21, np.int64), (22, object)):
        cells = rng.random((2, 12, n))
        assert evaluate_batch(cells, [K.PA])[K.PA].dtype == dtype
        check_closed_forms(cells)


def test_wide_grid_mc_null_matches_evaluate():
    k, n, reps, seed = 12, 30, 16, 1
    kinds = (K.PA, K.PN, K.PS)
    dists = mc_null_distributions(kinds, k, n, reps=reps, seed=seed)
    rng = substream(seed, NULL_STREAM_BASE)
    cells = draw_cells(ImperfectModel("perfect"), "uniform", k, n, CHUNK_SIZE, rng)[:reps]
    for kind in kinds:
        values = sorted(evaluate(make_sample(c), kind) for c in cells)
        support = sorted(set(values))
        assert dists[kind].support == tuple(support)
        assert [p * reps for p in dists[kind].probs] == [values.count(v) for v in support]


def test_wide_grid_power_runs():
    study = PowerStudy(
        k=12, n=30, kinds=(K.PA, K.PN, K.PS), model_tag="neighbor",
        lambda_grid=(0.5,), alpha="0.05", reps=8, seed=5,
        null=NullSource(method="monte-carlo", reps=16),
    )
    table = estimate_power(study)
    assert [cell.reps for cell in table.cells] == [8, 8, 8]
    assert all(0 <= cell.rejections <= 8 for cell in table.cells)
