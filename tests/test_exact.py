"""Exact engine: enumeration oracles, mass checks, published tail values."""

from __future__ import annotations

import functools
import hashlib
import itertools
import math
import time
from collections import defaultdict
from fractions import Fraction

import numpy as np
import pytest

from rsstest.statistics import MAX_KINDS, PERM_KINDS, SUM_KINDS, tuple_discrepancies

from rsstest import (
    ALL_KINDS,
    OPT_IN_EXACT_CELL_CAP,
    ExactEngineCapError,
    ImperfectModel,
    NullSource,
    StatisticKind,
    exact_distributions,
    exact_null_distribution,
    format_probability,
    round_half_up,
    slot_density,
    statistic_range,
)
from rsstest.batch import evaluate_batch
from rsstest.exact import _to_bernstein

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


def enumerate_words(k, n, visit):
    """Call visit(word, numerator) per slot word; prob = numerator/(k^2 n)!.

    Walks the (kn)!/(n!)^k distinct words of slot indices, read from the
    smallest cell to the largest, depth-first, integrating the product of
    order-statistic densities over the ordered region in the t^d/d! basis
    and sharing every common prefix's partial integral.
    """
    dens = []
    for i in range(1, k + 1):
        lead = k * math.comb(k - 1, i - 1)
        coeffs = [0] * k
        for m in range(k - i + 1):
            coeffs[i - 1 + m] = lead * math.comb(k - i, m) * (-1) ** m
        dens.append(coeffs)
    top_degree = k * k * n
    # falling[m][e] = m! / (m-e)!; factor_to_top[d] = (k^2 n)! / d!
    falling = [[math.perm(m, e) for e in range(k)] for m in range(top_degree + 1)]
    factor_to_top = [
        math.factorial(top_degree) // math.factorial(d) for d in range(top_degree + 1)
    ]
    counts = [0] * k
    word = []

    def descend(poly):
        if len(word) == k * n:
            numer = sum(a * factor_to_top[d] for d, a in enumerate(poly) if a)
            visit(tuple(word), numer)
            return
        for slot in range(k):
            if counts[slot] == n:
                continue
            grown = [0] * (len(poly) + k)  # multiply by slot density, integrate
            for e, ce in enumerate(dens[slot]):
                if not ce:
                    continue
                for d, ad in enumerate(poly):
                    if ad:
                        grown[d + e + 1] += ad * ce * falling[d + e][e]
            counts[slot] += 1
            word.append(slot)
            descend(grown)
            counts[slot] -= 1
            word.pop()

    descend([1])


@functools.lru_cache(maxsize=None)
def word_walk_distributions(k, n):
    """Oracle: every statistic from every word, labelled every possible way.

    Per word, PN/PA/PS sum `tuple_discrepancies` over the n^k
    recombinations, J and Wstar come from their definitions, and the sums
    and maxima run over all (n!)^k assignments of each slot's cells to
    cycles, each assignment being one labelled ordering of the cells.
    """
    hists = {kind: defaultdict(int) for kind in ALL_KINDS}
    perms = list(itertools.permutations(range(n)))
    word_weight = math.factorial(n) ** k

    def visit(word, numer):
        positions = [[] for _ in range(k)]
        for where, slot in enumerate(word):
            positions[slot].append(where + 1)
        weight = numer * word_weight
        # (N, A, S) of every recombination, one cell per slot
        table = {
            combo: tuple_discrepancies(tuple(positions[i][combo[i]] for i in range(k)))
            for combo in itertools.product(range(n), repeat=k)
        }
        for idx, kind in enumerate(PERM_KINDS):
            hists[kind][sum(d[idx] for d in table.values())] += weight
        j_stat = sum(
            1
            for i in range(k)
            for j in range(i + 1, k)
            for a in positions[i]
            for b in positions[j]
            if a > b
        )
        hists[K.J][j_stat] += weight
        hists[K.WSTAR][sum((i + 1) * sum(positions[i]) for i in range(k))] += weight
        for taus in itertools.product(perms, repeat=k):
            per_cycle = [table[tuple(tau[l] for tau in taus)] for l in range(n)]
            for idx, (sum_kind, max_kind) in enumerate(zip(SUM_KINDS, MAX_KINDS)):
                hists[sum_kind][sum(d[idx] for d in per_cycle)] += numer
                hists[max_kind][max(d[idx] for d in per_cycle)] += numer

    enumerate_words(k, n, visit)
    denom = math.factorial(k * k * n)
    assert all(sum(hist.values()) == denom for hist in hists.values())
    return {
        kind: {v: Fraction(c, denom) for v, c in sorted(hist.items())}
        for kind, hist in hists.items()
    }


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
    # the sums and maxima come from the k x 1 pmf (n-fold convolution, max
    # of n i.i.d. draws); the oracle labels the cells of every word with all
    # (n!)^k cycle assignments instead
    oracle = word_walk_distributions(k, n)
    engine = exact_distributions(k, n)
    for kd in SUM_KINDS + MAX_KINDS:
        assert engine[kd] == oracle[kd], kd


ORACLE_GRIDS = [(k, n) for k in range(1, 7) for n in range(1, 7) if k * n <= 6] + [(4, 2), (2, 4)]


@pytest.mark.parametrize("k,n", ORACLE_GRIDS)
def test_engine_matches_word_walk_oracle(k, n):
    oracle = word_walk_distributions(k, n)
    engine = exact_distributions(k, n)
    assert list(engine) == list(ALL_KINDS)
    for kind in ALL_KINDS:
        assert list(engine[kind].items()) == list(oracle[kind].items()), kind


# every grid with k >= 2 up to the opt-in cap of kn <= 10
PINNED_GRIDS = [(k, n) for k in range(2, 11) for n in range(1, 6) if k * n <= 10]


def test_exact_pmfs_are_pinned():
    # sha256 of every atom of all 11 pmfs as "v:num/den"; any change to an
    # exact probability moves it
    digest = hashlib.sha256()
    for k, n in PINNED_GRIDS:
        for kind, pmf in exact_distributions(k, n, max_cells=OPT_IN_EXACT_CELL_CAP).items():
            atoms = ",".join(f"{v}:{p.numerator}/{p.denominator}" for v, p in pmf.items())
            digest.update(f"{k}x{n} {kind.value} {atoms}\n".encode())
    assert digest.hexdigest() == (
        "4197efec22a02d4924e4f6a2e210d6d4ad7108e67ba7451cadcc42a83a922df8"
    )


# ---------------------------------------------------------------------------
# structural checks
# ---------------------------------------------------------------------------


def test_perfect_densities_are_one_term_in_the_dp_basis():
    # Beta(s+1, k-s) is k C(k-1, s) t^s (1-t)^(k-1-s): a single term
    for k in range(1, 11):
        for s in range(k):
            b = _to_bernstein(slot_density(ImperfectModel("perfect"), k, s)[0])
            assert b == [k * math.comb(k - 1, s) if a == s else 0 for a in range(k)], (k, s)


@pytest.mark.parametrize("tag", ["random", "inverse", "neighbor"])
@pytest.mark.parametrize("lam", [0.0, 0.3, 0.5, 1.0])
def test_dp_basis_converts_back_to_slot_density(tag, lam):
    model = ImperfectModel(tag, lam)
    for k in range(1, 11):
        for s in range(k):
            coeffs, _ = slot_density(model, k, s)
            # expand each b_a t^a (1-t)^(k-1-a) into powers of t
            back = [0] * k
            for a, b in enumerate(_to_bernstein(coeffs)):
                for m in range(k - a):
                    back[a + m] += b * math.comb(k - 1 - a, m) * (-1) ** m
            assert back == coeffs, (tag, lam, k, s)


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
    # a larger max_cells is refused at once, before any work
    from rsstest.exact import _pmf

    misses = _pmf.cache_info().misses
    start = time.perf_counter()
    with pytest.raises(ExactEngineCapError, match="cap of 10"):
        exact_distributions(3, 4, max_cells=12)
    assert time.perf_counter() - start < 1.0
    assert _pmf.cache_info().misses == misses


def test_one_exact_null_builds_only_its_own_chain():
    # J is its own DP; PN is J pushed through affine_base; N_sum is the
    # n-fold sum of the 4 x 1 PN, itself built from the 4 x 1 J
    from rsstest.exact import _pmf

    for kind, chain in ((K.J, 1), (K.PN, 2), (K.N_SUM, 3)):
        _pmf.cache_clear()
        exact_null_distribution(kind, 4, 2)
        assert _pmf.cache_info().currsize == chain


def test_cap_refusal_is_worded_once():
    # a forced exact null above the cap is refused with the engine's own words
    for k, n, cap in ((3, 3, 8), (5, 4, 10)):
        with pytest.raises(ExactEngineCapError) as engine:
            exact_distributions(k, n, max_cells=cap)
        with pytest.raises(ExactEngineCapError) as source:
            NullSource("exact", exact_cells_cap=cap).is_exact(k, n)
        assert str(source.value) == str(engine.value)
        assert ("raise the cap" in str(engine.value)) == (k * n <= OPT_IN_EXACT_CELL_CAP)


def fraction_sum_of_iid(pmf, n):
    """The n-fold convolution of a pmf, one Fraction product at a time."""
    out = {0: Fraction(1)}
    for _ in range(n):
        acc = defaultdict(Fraction)
        for v, p in out.items():
            for w, q in pmf.items():
                acc[v + w] += p * q
        out = acc
    return dict(sorted(out.items()))


def fraction_max_of_iid(pmf, n):
    """The pmf of the largest of n i.i.d. draws, F(v)^n - F(v-)^n in Fractions."""
    out = {}
    below = cdf = Fraction(0)
    for v, p in pmf.items():
        cdf += p
        out[v] = cdf**n - below**n
        below = cdf
    return out


@pytest.mark.parametrize("kind", [K.S_SUM, K.N_SUM, K.A_MAX])
def test_integer_cycle_chain_matches_the_fraction_loops(kind):
    # beyond the cap, 8x3 from the exact 8x1 per-cycle pmf: the integer
    # convolution and CDF power give the Fraction loops' pmf atom for atom
    from rsstest.exact import _pmf
    from rsstest.statistics import CYCLE_OF

    cycle = exact_distributions(8, 1)[CYCLE_OF[kind]]
    oracle = (fraction_sum_of_iid if kind in SUM_KINDS else fraction_max_of_iid)(cycle, 3)
    numers, denom = _pmf(8, 3, kind)
    assert [(v, Fraction(p, denom)) for v, p in numers.items()] == list(oracle.items())


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
