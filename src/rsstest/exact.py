"""Exact null distributions of all statistics for small grids.

Under perfect ranking the k*n cells are independent, cell (i, l) being
the i-th order statistic of k standard uniforms, and every statistic
here depends on the cells only through their relative order.  The engine
integrates the product of the cells' densities, `models.slot_density`,
over the ordered region exactly, with one dynamic program over the cells
from smallest to largest.  Its state is (c, partial statistic), c
counting the cells of each slot placed so far: cells of a slot are
i.i.d., and J, Wstar and PA are sums over cells of `batch.cell_shares`,
an integer that depends only on the cell's slot s and the counts c below
it (the Monte Carlo kernel sums the same shares); it is tabulated once
per (statistic, k, n).
Integration is linear, so the partial integrals of all prefixes reaching
a state are summed.  They stay in integers: polynomials are carried in
the t^d/d! basis, where multiplying by an integer-coefficient density
keeps integer coefficients (via falling factorials) and integrating from
0 to t is a pure index shift.  At the full state (n, ..., n) each
probability is (n!)^k * sum_d a_d (k^2 n)!/d! over (k^2 n)!.

The other eight statistics follow from these three pmfs by the rules
`statistics` holds, read by `_pmf`: PN and PS are pushed forward from J
and Wstar through `affine_base`, and each cycle kind's per-cycle pmf is
the k x 1 pmf of its `CYCLE_OF` kind.  As the n cycles are i.i.d., each
*_sum pmf is the n-fold convolution of the per-cycle pmf and each *_max
pmf is F(v)^n - F(v-)^n.  `_pmf` caches every pmf it builds, per
(k, n, statistic).

The engine refuses grids above `max_cells` (kn <= 8 by default, kn <= 10
as an explicit opt-in, never more) and points callers at the Monte Carlo
engine instead.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from fractions import Fraction
from functools import lru_cache
from typing import Mapping

import numpy as np

from .batch import cell_shares
from .errors import ExactEngineCapError
from .models import ImperfectModel, slot_density
from .statistics import CYCLE_OF, SUM_KINDS, StatisticKind, affine_base

DEFAULT_EXACT_CELL_CAP = 8
OPT_IN_EXACT_CELL_CAP = 10

K = StatisticKind
Pmf = Mapping[int, Fraction]


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
    return {kind: dict(_pmf(k, n, kind)) for kind in K}


@lru_cache(maxsize=None)
def _pmf(k: int, n: int, kind: StatisticKind) -> Pmf:
    """The exact pmf of one statistic, derived as `statistics` defines it."""
    if kind in CYCLE_OF:
        cycle = _pmf(k, 1, CYCLE_OF[kind])
        return _sum_of_iid(cycle, n) if kind in SUM_KINDS else _max_of_iid(cycle, n)
    base, scale, offset = affine_base(kind, k, n)
    if base is kind:
        return _count_dp(k, n, kind)
    # one-to-one unless scale is 0, which happens only for k = 1, where
    # the base J or Wstar has a single atom
    return dict(sorted((offset + scale * v, p) for v, p in _pmf(k, n, base).items()))


def _sum_of_iid(pmf: Pmf, n: int) -> Pmf:
    out: Pmf = {0: Fraction(1)}
    for _ in range(n):
        acc: dict[int, Fraction] = defaultdict(Fraction)
        for v, p in out.items():
            for w, q in pmf.items():
                acc[v + w] += p * q
        out = acc
    return dict(sorted(out.items()))


def _max_of_iid(pmf: Pmf, n: int) -> Pmf:
    out = {}
    below = cdf = Fraction(0)
    for v, p in pmf.items():
        cdf += p
        out[v] = cdf**n - below**n
        below = cdf
    return out


def _count_dp(k: int, n: int, kind: StatisticKind) -> Pmf:
    """Exact pmf of J, Wstar or PA on a k x n grid, by the DP over slot counts.

    A layer maps each count vector c of the cells placed so far to
    (v0, rows): row r holds the summed polynomial of the prefixes with
    partial statistic v0 + r, as t^d/d! coefficients from degree
    low(c) up, below which every term is zero.  A state is freed once its
    successors are built, so at most two layers are alive.
    """
    top = k * k * n
    # share[s][c]: what a slot-s cell with counts c below it adds;
    # cell_shares reads slot-major counts, one column per vector
    vectors = list(itertools.product(range(n + 1), repeat=k))
    share = [
        dict(zip(vectors, cell_shares(kind, s, np.array(vectors).T, n, object).tolist()))
        for s in range(k)
    ]
    # weight[s][e][d]: what t^d/d! times the t^e term of slot s's density
    # (`slot_density`, scale 1 under perfect ranking), integrated, puts on
    # t^(d+e+1)/(d+e+1)!
    weight = [
        {
            e: np.array([ce * math.perm(d + e, e) for d in range(top)], dtype=object)
            for e, ce in enumerate(slot_density(ImperfectModel("perfect"), k, s)[0])
            if ce
        }
        for s in range(k)
    ]
    first = [min(w) for w in weight]  # each density's lowest power

    def low(c: tuple[int, ...]) -> int:
        return sum((first[i] + 1) * ci for i, ci in enumerate(c))

    layer = {(0,) * k: (0, np.ones((1, 1), dtype=object))}
    for placed in range(1, k * n + 1):
        sources = defaultdict(list)
        uses = {}  # successors of each state not yet built
        for c, (v0, _) in layer.items():
            slots = [s for s in range(k) if c[s] < n]
            uses[c] = len(slots)
            for s in slots:
                grown = c[:s] + (c[s] + 1,) + c[s + 1 :]
                sources[grown].append((s, c, v0 + share[s][c]))
        nxt = {}
        for grown, moves in sources.items():
            v0 = min(v for _, _, v in moves)
            height = max(v + len(layer[c][1]) for _, c, v in moves) - v0
            out = np.zeros((height, placed * k - low(grown) + 1), dtype=object)
            for s, c, v in moves:
                rows, lo = layer[c][1], low(c)
                width = rows.shape[1]
                # a slot-s cell raises the lowest degree by first[s] + 1, so
                # the density's t^e term lands e - first[s] columns to the right
                for e, w in weight[s].items():
                    col = e - first[s]
                    out[v - v0 : v - v0 + len(rows), col : col + width] += (
                        rows * w[lo : lo + width]
                    )
                uses[c] -= 1
                if not uses[c]:
                    del layer[c]
            nxt[grown] = (v0, out)
        layer = nxt

    ((full, (v0, rows)),) = layer.items()
    to_top = [math.factorial(top) // math.factorial(d) for d in range(low(full), top + 1)]
    numers = rows.dot(np.array(to_top, dtype=object)) * math.factorial(n) ** k
    denom = math.factorial(top)
    if sum(numers) != denom:
        raise RuntimeError(
            f"exact engine mass check failed for k={k}, n={n}: {sum(numers)} != {denom}"
        )
    return {v0 + r: Fraction(numer, denom) for r, numer in enumerate(numers) if numer}
