"""Exact engine: enumeration oracle, mass checks, published tail values."""

from __future__ import annotations

import itertools
import math
import time
from collections import defaultdict
from fractions import Fraction

import numpy as np
import pytest

from rsstest.statistics import tuple_discrepancies

from rsstest import (
    ALL_KINDS,
    ExactEngineCapError,
    StatisticKind,
    exact_distributions,
    format_probability,
    round_half_up,
    statistic_range,
)
from rsstest.batch import evaluate_batch

K = StatisticKind


def brute_distributions_by_underlying_orderings(k, n):
    """Oracle: enumerate every ordering of all k*(kn) underlying draws.

    Each cell is a fixed order statistic of its own block of k i.i.d.
    draws, so all (k^2 n)! orderings of the underlying values are equally
    likely and the cells' relative order follows from each ordering.
    Feasible only for tiny grids; independent of the integration engine.
    """
    total_vals = k * k * n
    cells_per_perm = []
    for perm in itertools.permutations(range(total_vals)):
        cells = np.empty((k, n))
        pos = 0
        for i in range(k):
            for l in range(n):
                block = sorted(perm[pos : pos + k])
                cells[i, l] = block[i]
                pos += k
        cells_per_perm.append(cells)
    stacked = np.stack(cells_per_perm)
    stats = evaluate_batch(stacked, ALL_KINDS)
    denom = stacked.shape[0]
    out = {}
    for kind in ALL_KINDS:
        hist = defaultdict(int)
        for v in stats[kind].tolist():
            hist[v] += 1
        out[kind] = {v: Fraction(c, denom) for v, c in sorted(hist.items())}
    return out


def tail(pmf, cv):
    return sum((p for v, p in pmf.items() if v >= cv), Fraction(0))


# ---------------------------------------------------------------------------
# engine vs oracle
# ---------------------------------------------------------------------------


def test_single_pair_ordering_probabilities():
    # min-of-own-pair below max-of-own-pair has probability 5/6
    pmf = exact_distributions(2, 1)[K.N_SUM]
    assert pmf == {0: Fraction(5, 6), 1: Fraction(1, 6)}


def test_engine_matches_enumeration_oracle_2x1():
    oracle = brute_distributions_by_underlying_orderings(2, 1)
    engine = exact_distributions(2, 1)
    for kind in ALL_KINDS:
        assert engine[kind] == oracle[kind], kind


def test_engine_matches_enumeration_oracle_2x2():
    oracle = brute_distributions_by_underlying_orderings(2, 2)
    engine = exact_distributions(2, 2)
    for kind in ALL_KINDS:
        assert engine[kind] == oracle[kind], kind


@pytest.mark.parametrize("k,n", [(2, 3), (3, 2)])
def test_cycle_assignment_quotient_matches_full_enumeration(k, n):
    # the engine accumulates sums/maxima over canonical cycle assignments
    # only (pinning slot 1); enumerating all (n!)^k assignments instead
    # must give the same distributions
    from rsstest.exact import _enumerate_words

    kinds = (K.N_SUM, K.A_SUM, K.S_MAX, K.N_MAX)
    hists = {kd: defaultdict(int) for kd in kinds}
    perms = list(itertools.permutations(range(n)))

    def visit(word, numer):
        positions = [[] for _ in range(k)]
        for where, slot in enumerate(word):
            positions[slot].append(where + 1)
        for taus in itertools.product(perms, repeat=k):
            per_cycle = [
                tuple_discrepancies(tuple(positions[i][taus[i][l]] for i in range(k)))
                for l in range(n)
            ]
            hists[K.N_SUM][sum(d[0] for d in per_cycle)] += numer
            hists[K.A_SUM][sum(d[1] for d in per_cycle)] += numer
            hists[K.S_MAX][max(d[2] for d in per_cycle)] += numer
            hists[K.N_MAX][max(d[0] for d in per_cycle)] += numer

    _enumerate_words(k, n, visit)
    denom = math.factorial(k * k * n)
    engine = exact_distributions(k, n)
    for kd, hist in hists.items():
        assert {v: Fraction(c, denom) for v, c in sorted(hist.items())} == engine[kd]


# ---------------------------------------------------------------------------
# structural checks
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("k,n", [(2, 1), (3, 1), (2, 2), (4, 1), (2, 3), (3, 2)])
def test_mass_sums_to_one_and_support_in_range(k, n):
    dists = exact_distributions(k, n)
    for kind in ALL_KINDS:
        pmf = dists[kind]
        assert sum(pmf.values()) == 1
        lo, hi = statistic_range(kind, k, n)
        assert all(lo <= v <= hi for v in pmf)
        assert all(p > 0 for p in pmf.values())


def test_cap_refusal_names_alternative():
    with pytest.raises(ExactEngineCapError, match="mc_null_distribution"):
        exact_distributions(3, 3)
    with pytest.raises(ExactEngineCapError):
        exact_distributions(4, 3, max_cells=10)


def test_cap_never_exceeds_opt_in_ceiling():
    # a larger max_cells is refused at once, before any enumeration
    from rsstest.exact import _exact_histograms

    misses = _exact_histograms.cache_info().misses
    start = time.perf_counter()
    with pytest.raises(ExactEngineCapError, match="cap of 10"):
        exact_distributions(3, 4, max_cells=12)
    assert time.perf_counter() - start < 1.0
    assert _exact_histograms.cache_info().misses == misses


def test_opt_in_cap_allows_nine_cells():
    pmf = exact_distributions(3, 3, max_cells=9)[K.PA]
    assert sum(pmf.values()) == 1


# ---------------------------------------------------------------------------
# published tail probabilities (exact PA cells)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "k,n,cv,expected",
    [
        (2, 2, 6, "0.04127"),
        (2, 2, 4, "0.19683"),
        (3, 2, 20, "0.03995"),
        (3, 2, 18, "0.05101"),
        (3, 2, 16, "0.12158"),
        (2, 3, 12, "0.02587"),
        (2, 3, 10, "0.05527"),
        (2, 3, 8, "0.12016"),
    ],
)
def test_pa_exact_tails_round_to_published_values(k, n, cv, expected):
    pmf = exact_distributions(k, n)[K.PA]
    assert format_probability(tail(pmf, cv)) == expected


def test_pa_2x2_exact_rationals():
    pmf = exact_distributions(2, 2)[K.PA]
    assert tail(pmf, 6) == Fraction(13, 315)
    assert tail(pmf, 4) == Fraction(62, 315)


# ---------------------------------------------------------------------------
# rounding helpers
# ---------------------------------------------------------------------------


def test_round_half_up():
    assert round_half_up(Fraction(1, 2), 0) == 1
    assert round_half_up(Fraction(25, 1000), 2) == Fraction(3, 100)
    assert round_half_up(Fraction(24, 1000), 2) == Fraction(2, 100)


def test_format_probability():
    assert format_probability(Fraction(13, 315)) == "0.04127"
    assert format_probability(Fraction(1, 1)) == "1.00000"
    assert format_probability(Fraction(0, 1)) == "0.00000"
    assert format_probability(Fraction(1, 3), places=3) == "0.333"
