"""Sample ingestion and transforms; ranks and proportion counts as the
statistics see them."""

from __future__ import annotations

import pytest

from rsstest import (
    ALL_KINDS,
    DataValidationError,
    RssSample,
    StatisticKind,
    TieError,
    brute_force_perm_all,
    evaluate,
    monotone_transform,
    parse_csv,
    statistic_range,
)
from rsstest.statistics import tuple_discrepancies

from conftest import make_sample, random_sample

K = StatisticKind


# ---------------------------------------------------------------------------
# parse_csv
# ---------------------------------------------------------------------------


def test_parse_minimal_cycles_as_rows():
    s = parse_csv("1,4\n2,3\n", "cycles-as-rows")
    assert (s.k, s.n) == (2, 2)
    # row i = rank slot, column l = cycle
    assert s.values == ((1.0, 2.0), (4.0, 3.0))


def test_parse_cycles_as_columns_dimensions():
    lines = "\n".join(",".join(str(10 * i + l) for l in range(4)) for i in range(5))
    s = parse_csv(lines, "cycles-as-columns")
    assert (s.k, s.n) == (5, 4)
    assert s.values[2][3] == 23.0


def test_parse_header_line_skipped():
    s = parse_csv("# slot1, slot2\n1,4\n2,3\n", "cycles-as-rows")
    assert (s.k, s.n) == (2, 2)


def test_parse_header_after_data_rejected():
    with pytest.raises(DataValidationError, match="after data"):
        parse_csv("1,4\n# oops\n2,3\n", "cycles-as-rows")


def test_parse_tie_error_names_cells():
    with pytest.raises(TieError) as err:
        parse_csv("1,4\n2,4\n", "cycles-as-rows")
    message = str(err.value)
    assert "rank slot 2, cycle 2" in message and "rank slot 2, cycle 1" in message


def test_parse_non_numeric_cell():
    with pytest.raises(DataValidationError, match="non-numeric.*'x'"):
        parse_csv("1,x\n2,3\n", "cycles-as-rows")


def test_parse_ragged_row():
    with pytest.raises(DataValidationError, match="ragged"):
        parse_csv("1,2\n3\n", "cycles-as-rows")


def test_parse_k_below_two():
    with pytest.raises(DataValidationError, match="k=1"):
        parse_csv("1\n2\n", "cycles-as-rows")


def test_parse_unknown_layout():
    with pytest.raises(DataValidationError, match="layout"):
        parse_csv("1,2\n", "sideways")


def test_sample_rejects_non_finite():
    with pytest.raises(DataValidationError, match="non-finite"):
        make_sample([[1.0, float("inf")], [2.0, 3.0]])


# ---------------------------------------------------------------------------
# within-cycle and overall ranks
# ---------------------------------------------------------------------------


def test_ranks_sorted_cycle():
    # within-cycle and overall ranks are both (1, 2, 3)
    s = make_sample([[10], [20], [30]])
    assert evaluate(s, K.A_SUM) == 0
    assert evaluate(s, K.WSTAR) == 1 * 1 + 2 * 2 + 3 * 3 == statistic_range(K.WSTAR, 3, 1)[1]


def test_ranks_reversed_cycle():
    # within-cycle and overall ranks are both (3, 2, 1)
    s = make_sample([[30], [20], [10]])
    assert evaluate(s, K.S_SUM) == 2**2 + 0 + 2**2
    assert evaluate(s, K.WSTAR) == 1 * 3 + 2 * 2 + 3 * 1 == statistic_range(K.WSTAR, 3, 1)[0]


def test_ranks_overall_and_counts():
    # values [[1,2],[4,3]]: overall ranks [[1,2],[4,3]]; each slot's own
    # counts below are (0, 1), summing to n(n-1)/2 as ps_offset assumes
    s = make_sample([[1, 2], [4, 3]])
    assert evaluate(s, K.WSTAR) == 1 * (1 + 2) + 2 * (4 + 3)
    assert evaluate(s, K.PS) == brute_force_perm_all(s)[2] == 0


@pytest.mark.parametrize("k,n", [(2, 2), (3, 4), (5, 3)])
def test_rank_invariants(rng, k, n):
    s = random_sample(rng, k, n)
    # within-cycle ranks are a permutation of 1..k, mirroring value order
    for l in range(1, n + 1):
        one_cycle = make_sample([[v] for v in s.cycle(l)])
        per_cycle = tuple(evaluate(one_cycle, kind) for kind in (K.N_SUM, K.A_SUM, K.S_SUM))
        assert per_cycle == tuple_discrepancies(s.cycle(l))
        assert per_cycle[1] % 2 == 0 and per_cycle[2] % 2 == 0  # sum(R_i - i) = 0
    # overall ranks are a permutation of 1..kn in value order
    cells = sorted(range(k * n), key=lambda c: s.values[c // n][c % n])
    assert evaluate(s, K.WSTAR) == sum((c // n + 1) * r for r, c in enumerate(cells, start=1))
    # per-slot counts below each cell sum to n(n-1)/2 in every slot
    assert evaluate(s, K.PS) == brute_force_perm_all(s)[2]


# ---------------------------------------------------------------------------
# counts of each slot below every cell (PA and J)
# ---------------------------------------------------------------------------


def test_proportions_dominance():
    s = make_sample([[1, 2], [10, 20]])
    assert evaluate(s, K.PA) == evaluate(s, K.J) == 0  # slot 1 entirely below slot 2
    flipped = make_sample([[10, 20], [1, 2]])
    assert evaluate(flipped, K.PA) == statistic_range(K.PA, 2, 2)[1]
    assert evaluate(flipped, K.J) == statistic_range(K.J, 2, 2)[1]


def test_proportions_example():
    s = make_sample([[1, 2], [4, 3]])  # none of {4, 3} is below 1 or 2
    assert evaluate(s, K.PA) == evaluate(s, K.J) == 0


@pytest.mark.parametrize("k,n", [(3, 3), (4, 2), (2, 5)])
def test_proportions_match_exhaustive_count(rng, k, n):
    s = random_sample(rng, k, n)

    def above(i, j, l):  # slot-i values above cell (j, l), counted one by one
        return sum(1 for v in s.row(i) if v > s.row(j)[l - 1])

    assert evaluate(s, K.J) == sum(
        above(i, j, l) for i in range(1, k) for j in range(i + 1, k + 1) for l in range(1, n + 1)
    )
    assert evaluate(s, K.PA) == brute_force_perm_all(s)[1]


# ---------------------------------------------------------------------------
# monotone_transform
# ---------------------------------------------------------------------------


def test_transform_identity():
    s = make_sample([[1, 2], [4, 3]])
    assert monotone_transform(s, lambda x: x) == s


@pytest.mark.parametrize("f", [lambda x: 2 * x + 1, lambda x: x**3])
def test_transform_preserves_ranks(rng, f):
    values = rng.random((3, 4)) - 0.5  # include negatives for the cube
    s = make_sample(values)
    t = monotone_transform(s, f)
    assert [evaluate(t, kind) for kind in ALL_KINDS] == [evaluate(s, kind) for kind in ALL_KINDS]


def test_transform_producing_ties_rejected():
    s = make_sample([[1, 2], [4, 3]])
    with pytest.raises(DataValidationError, match="transform"):
        monotone_transform(s, lambda x: 0.0)


def test_transform_producing_non_finite_rejected():
    s = make_sample([[1, 2], [4, 3]])
    with pytest.raises(DataValidationError, match="transform"):
        monotone_transform(s, lambda x: float("nan"))


# ---------------------------------------------------------------------------
# accessors
# ---------------------------------------------------------------------------


def test_row_and_cycle_accessors():
    s = make_sample([[1, 2], [4, 3]])
    assert s.row(1) == (1.0, 2.0)
    assert s.cycle(2) == (2.0, 3.0)


@pytest.mark.parametrize("accessor,index", [("row", 0), ("row", 3), ("cycle", 0), ("cycle", 3)])
def test_accessors_refuse_out_of_range_index(accessor, index):
    # indices are 1-based; 0 would otherwise wrap round to the last slot or cycle
    s = make_sample([[1, 2], [4, 3]])
    with pytest.raises(ValueError, match="out of range"):
        getattr(s, accessor)(index)


def test_samples_are_immutable():
    s = make_sample([[1, 2], [4, 3]])
    with pytest.raises(AttributeError):
        s.values = ((0.0,),)
