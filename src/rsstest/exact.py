"""Exact null distributions of all statistics for small grids.

Under perfect ranking the k*n cells are independent, cell (i, l) being
the i-th order statistic of k standard uniforms, and every statistic
here depends on the cells only through their relative order.  The engine
therefore enumerates interleavings and integrates the product of
order-statistic densities over the ordered region, exactly.

Two reductions keep that tractable:

* Cells of the same rank slot are i.i.d., so the ordering probability
  depends only on the "word" of slot indices read from smallest cell to
  largest.  The engine walks the (kn)! / (n!)^k distinct words depth-first,
  sharing every common prefix's partial integral.
* Integrals stay in integers: polynomials are carried in the t^d/d!
  basis, where multiplying by an integer-coefficient density keeps
  integer coefficients (via falling factorials) and integrating from 0
  to t is a pure index shift.  Division happens once per word, giving
  the word probability as an exact rational with denominator (k^2 n)!.

Per word, one pass over the n^k slot recombinations yields PN/PA/PS and
a lookup table from which every cycle-labelled statistic (the sums and
maxima) is accumulated over the (n!)^(k-1) distinct cycle assignments.

Cost grows factorially; the engine refuses grids above `max_cells`
(kn <= 8 by default, kn <= 10 as an explicit opt-in, never more) and
points callers at the Monte Carlo engine instead.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from fractions import Fraction
from functools import lru_cache
from typing import Mapping

from .errors import ExactEngineCapError
from .statistics import ALL_KINDS, StatisticKind, tuple_discrepancies

DEFAULT_EXACT_CELL_CAP = 8
OPT_IN_EXACT_CELL_CAP = 10


def exact_distributions(
    k: int, n: int, max_cells: int = DEFAULT_EXACT_CELL_CAP
) -> dict[StatisticKind, dict[int, Fraction]]:
    """Exact pmf of every statistic on a k x n grid, as rationals."""
    if k < 1 or n < 1:
        raise ValueError("k and n must be positive")
    cap = min(max_cells, OPT_IN_EXACT_CELL_CAP)
    if k * n > cap:
        raise ExactEngineCapError(
            f"exact enumeration of a {k}x{n} grid needs kn={k * n} cells, above the "
            f"cap of {cap} (max_cells opts in up to {OPT_IN_EXACT_CELL_CAP}; beyond "
            "that use mc_null_distribution)"
        )
    hists = _exact_histograms(k, n)
    denom = math.factorial(k * k * n)
    return {
        kind: {value: Fraction(num, denom) for value, num in sorted(hist.items())}
        for kind, hist in hists.items()
    }


def _densities(k: int) -> list[list[int]]:
    """Integer coefficients of each slot's order-statistic density.

    Slot i has density k*C(k-1, i-1) * t^(i-1) * (1-t)^(k-i), a degree
    k-1 polynomial with integer coefficients.
    """
    dens = []
    for i in range(1, k + 1):
        lead = k * math.comb(k - 1, i - 1)
        coeffs = [0] * k
        for m in range(k - i + 1):
            coeffs[i - 1 + m] = lead * math.comb(k - i, m) * (-1) ** m
        dens.append(coeffs)
    return dens


def _enumerate_words(k: int, n: int, visit) -> None:
    """Call visit(word, numerator) per slot word; prob = numerator/(k^2 n)!."""
    dens = _densities(k)
    top_degree = k * k * n
    # falling[m][e] = m! / (m-e)!; factor_to_top[d] = (k^2 n)! / d!
    falling = [[1] * k for _ in range(top_degree + 1)]
    for m in range(top_degree + 1):
        acc = 1
        for e in range(1, k):
            acc *= max(m - e + 1, 0)
            falling[m][e] = acc
    factor_to_top = [0] * (top_degree + 1)
    factor_to_top[top_degree] = 1
    for d in range(top_degree - 1, -1, -1):
        factor_to_top[d] = factor_to_top[d + 1] * (d + 1)

    counts = [0] * k
    word: list[int] = []

    def descend(poly: list[int]) -> None:
        if len(word) == k * n:
            numer = sum(a * factor_to_top[d] for d, a in enumerate(poly) if a)
            visit(tuple(word), numer)
            return
        for slot in range(k):
            if counts[slot] == n:
                continue
            coeffs = dens[slot]
            grown = [0] * (len(poly) + k)  # multiply by slot density, integrate
            for e, ce in enumerate(coeffs):
                if not ce:
                    continue
                for d, ad in enumerate(poly):
                    if not ad:
                        continue
                    m = d + e
                    grown[m + 1] += ad * ce * falling[m][e]
            counts[slot] += 1
            word.append(slot)
            descend(grown)
            counts[slot] -= 1
            word.pop()

    descend([1])


@lru_cache(maxsize=None)
def _exact_histograms(k: int, n: int) -> Mapping[StatisticKind, Mapping[int, int]]:
    hists: dict[StatisticKind, dict[int, int]] = {
        kind: defaultdict(int) for kind in ALL_KINDS
    }
    n_fact = math.factorial(n)
    word_weight = n_fact**k  # orderings per word
    label_weight = n_fact  # orderings per canonical cycle assignment
    perms = list(itertools.permutations(range(n)))
    radix = [n ** (k - 1 - i) for i in range(k)]
    pairs = [(i, j) for i in range(k - 1) for j in range(i + 1, k)]
    total = 0

    def visit(word: tuple[int, ...], numer: int) -> None:
        nonlocal total
        total += numer * word_weight
        positions: list[list[int]] = [[] for _ in range(k)]
        for where, slot in enumerate(word):
            positions[slot].append(where + 1)

        # One pass over the n^k recombinations: their discrepancy sums are
        # PN/PA/PS, and the per-recombination table feeds the cycle
        # statistics below.
        pn = pa = ps = 0
        table: list[tuple[int, int, int]] = []
        for combo in itertools.product(range(n), repeat=k):
            vals = tuple(positions[i][combo[i]] for i in range(k))
            d = tuple_discrepancies(vals)
            table.append(d)
            pn += d[0]
            pa += d[1]
            ps += d[2]
        hists[StatisticKind.PN][pn] += numer * word_weight
        hists[StatisticKind.PA][pa] += numer * word_weight
        hists[StatisticKind.PS][ps] += numer * word_weight

        j_stat = sum(
            1
            for i, j in pairs
            for a in positions[i]
            for b2 in positions[j]
            if a > b2
        )
        w_stat = sum((i + 1) * sum(positions[i]) for i in range(k))
        hists[StatisticKind.J][j_stat] += numer * word_weight
        hists[StatisticKind.WSTAR][w_stat] += numer * word_weight

        # Cycle-labelled statistics: quotient out the global relabelling of
        # cycles by pinning slot 1's assignment, weighting each class by n!.
        for taus in itertools.product(perms, repeat=k - 1):
            ns = as_ = ss = nm = am = sm = 0
            for l in range(n):
                idx = l * radix[0]
                for i in range(1, k):
                    idx += taus[i - 1][l] * radix[i]
                dn, da, ds = table[idx]
                ns += dn
                as_ += da
                ss += ds
                if dn > nm:
                    nm = dn
                if da > am:
                    am = da
                if ds > sm:
                    sm = ds
            w = numer * label_weight
            hists[StatisticKind.N_SUM][ns] += w
            hists[StatisticKind.A_SUM][as_] += w
            hists[StatisticKind.S_SUM][ss] += w
            hists[StatisticKind.N_MAX][nm] += w
            hists[StatisticKind.A_MAX][am] += w
            hists[StatisticKind.S_MAX][sm] += w

    _enumerate_words(k, n, visit)

    if total != math.factorial(k * k * n):
        raise RuntimeError(
            f"exact engine mass check failed for k={k}, n={n}: "
            f"{total} != {math.factorial(k * k * n)}"
        )
    return {kind: dict(hist) for kind, hist in hists.items()}
