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
it.  The shares are read from `batch.share_table`, built once per
(statistic, k, n), the same table the Monte Carlo kernel gathers from on
small grids; a state is keyed by c encoded as that table indexes it.
Integration is linear, so the partial integrals of all prefixes reaching
a state are summed.  They stay in integers, carried in the divided-power
basis of t and 1 - t, e_(j,m) = t^j (1-t)^m / (j! m!): a slot's density
is a sum of terms t^a (1-t)^(k-1-a), one term under perfect ranking, and
multiplying e_(j,m) by one term is one integer weight on e_(j+a, m+k-1-a);
integrating from 0 to t maps e_(j,m) to the sum of e_(j+1+i, m-i) over
i = 0..m, one cumulative sum per state.  At t = 1 only e_(D,0) = 1/D!
survives, D = k^2 n, so each probability is (n!)^k times that
coefficient over (k^2 n)!.

The other eight statistics follow from these three pmfs by the rules
`statistics` holds, read by `_pmf`: PN and PS are pushed forward from J
and Wstar through `affine_base`, and each cycle kind's per-cycle pmf is
the k x 1 pmf of its `CYCLE_OF` kind.  Every pmf is carried in integers,
numerators by value over one denominator, and becomes `Fraction`s only
in `exact_pmf`.  As the n cycles are i.i.d., with the per-cycle
numerators taken as a dense integer polynomial in the value, each *_sum
pmf is that polynomial's n-th power (n `np.convolve`s) and each *_max
pmf is F(v)^n - F(v-1)^n of its integer cumulative sums F, both over the
n-th power of the denominator.  `_pmf` caches every pmf it builds, per
(k, n, statistic).

`exact_pmf` builds one statistic's chain only, `exact_distributions` all
eleven; `check_exact_cap` alone words the refusal of grids above `max_cells`
(kn <= 8 by default, kn <= 10 as an opt-in, never more).
"""

from __future__ import annotations

import math
from collections import defaultdict
from fractions import Fraction
from functools import lru_cache, reduce

import numpy as np

from .batch import share_table
from .errors import ExactEngineCapError
from .models import ImperfectModel, slot_density
from .statistics import CYCLE_OF, SUM_KINDS, StatisticKind, affine_base

DEFAULT_EXACT_CELL_CAP = 8
OPT_IN_EXACT_CELL_CAP = 10

K = StatisticKind
# integer numerators by value, ascending, over one common denominator
Pmf = tuple[dict[int, int], int]


def exact_distributions(
    k: int, n: int, max_cells: int = DEFAULT_EXACT_CELL_CAP
) -> dict[StatisticKind, dict[int, Fraction]]:
    """Exact pmf of every statistic on a k x n grid, as rationals."""
    return {kind: exact_pmf(kind, k, n, max_cells) for kind in K}


def exact_pmf(
    kind: StatisticKind, k: int, n: int, max_cells: int = DEFAULT_EXACT_CELL_CAP
) -> dict[int, Fraction]:
    """Exact pmf of one statistic, values ascending; builds only its own chain."""
    check_exact_cap(k, n, max_cells)
    numers, denom = _pmf(k, n, K.from_tag(kind))
    return {v: Fraction(p, denom) for v, p in numers.items()}


def check_exact_cap(k: int, n: int, max_cells: int = DEFAULT_EXACT_CELL_CAP) -> None:
    """Refuse a k x n grid above min(max_cells, OPT_IN_EXACT_CELL_CAP) cells."""
    if k < 1 or n < 1:
        raise ValueError("k and n must be positive")
    cap = min(max_cells, OPT_IN_EXACT_CELL_CAP)
    if k * n > cap:
        raise ExactEngineCapError(
            f"an exact null for a {k}x{n} grid needs kn={k * n} cells, above the cap of {cap}; "
            + (
                f"raise the cap to {k * n} (--exact-cap {k * n} on the command line, "
                "max_cells or exact_cells_cap in the library) or "
                if k * n <= OPT_IN_EXACT_CELL_CAP
                else ""
            )
            + "use a Monte Carlo null (--null mc on the command line, mc_null_distribution "
            "in the library)"
        )


@lru_cache(maxsize=None)
def _pmf(k: int, n: int, kind: StatisticKind) -> Pmf:
    """The exact pmf of one statistic, derived as `statistics` defines it."""
    if kind in CYCLE_OF:
        numers, denom = _pmf(k, 1, CYCLE_OF[kind])
        # the per-cycle numerators as a dense polynomial in the value
        lo = min(numers)
        cycle = np.zeros(max(numers) - lo + 1, dtype=object)
        cycle[[v - lo for v in numers]] = list(numers.values())
        if kind in SUM_KINDS:
            out, lo = reduce(np.convolve, [cycle] * n), lo * n
        else:
            out = np.diff(np.cumsum(cycle) ** n, prepend=0)
        return {lo + r: p for r, p in enumerate(out) if p}, denom**n
    base, scale, offset = affine_base(kind, k, n)
    if base is kind:
        return _count_dp(k, n, kind)
    # one-to-one unless scale is 0, which happens only for k = 1, where
    # the base J or Wstar has a single atom
    numers, denom = _pmf(k, n, base)
    return dict(sorted((offset + scale * v, p) for v, p in numers.items())), denom


def _to_bernstein(coeffs: list[int]) -> list[int]:
    """b with sum_a b[a] t^a (1-t)^(d-a) = sum_e coeffs[e] t^e, d = len(coeffs) - 1.

    Each t^e is t^e (t + 1 - t)^(d-e), so b[a] = sum_{e<=a} coeffs[e] C(d-e, a-e).
    """
    deg = len(coeffs) - 1
    return [
        sum(c * math.comb(deg - e, a - e) for e, c in enumerate(coeffs[: a + 1]))
        for a in range(deg + 1)
    ]


def _count_dp(k: int, n: int, kind: StatisticKind) -> Pmf:
    """Exact pmf of J, Wstar or PA on a k x n grid, by the DP over slot counts,
    as integer numerators over (k^2 n)!.

    A layer maps each count vector c of the cells placed so far, encoded
    as `batch.share_table` indexes it, to (v0, lo, rows): row r holds the
    summed polynomial of the prefixes with partial statistic v0 + r.
    After `placed` cells every polynomial is homogeneous of degree
    D = k * placed in t and 1 - t, and column j of a row is its
    coefficient of e_(lo+j, D-lo-j), where e_(i, D-i) = t^i (1-t)^(D-i) /
    (i! (D-i)!); the coefficients below e_(lo, D-lo) are zero and not stored.
    - Multiplying: a slot's density is sum_a b_a t^a (1-t)^(k-1-a)
      (`_to_bernstein`), and e_(j, D-j) times one term is
      b_a perm(j+a, a) perm(D-j+k-1-a, k-1-a) e_(j+a, D+k-1-j-a): one
      integer weight per column, shifting it a columns right.
    - Integrating from 0 maps column j to every column above it, one
      degree up, so once every move into a state is summed, a cumulative
      sum along the columns, shifted one to the right, integrates them all.
      A state's lo is therefore the least 1 + a + lo over its moves.
    - Reading the result: at t = 1 only e_(D, 0) = 1/D! is nonzero, so at
      the full state each probability is the last column times (n!)^k
      over (k^2 n)!, and the probabilities must sum to exactly 1.
    A state is freed once its successors are built, so at most two layers
    are alive.
    """
    top = k * k * n
    # share[s * size + c]: what a slot-s cell with counts c below it adds,
    # c encoded as sum_i c_i (n+1)^i
    radix = [(n + 1) ** i for i in range(k)]
    size = (n + 1) ** k
    share = share_table(kind, k, n).tolist()
    # slot s's density (`slot_density`, scale 1 under perfect ranking), by
    # its nonzero terms b_a t^a (1-t)^(k-1-a): one term, k C(k-1, s) at a = s
    density = [
        {
            a: b
            for a, b in enumerate(_to_bernstein(slot_density(ImperfectModel("perfect"), k, s)[0]))
            if b
        }
        for s in range(k)
    ]

    layer = {0: (0, 0, np.ones((1, 1), dtype=object))}
    for placed in range(1, k * n + 1):
        deg = k * (placed - 1)  # degree of the states being extended
        # weight[s][a][j]: what e_(j, deg-j) times slot s's t^a term puts on
        # e_(j+a, deg+k-1-j-a)
        weight = [
            {
                a: np.array(
                    [
                        b * math.perm(j + a, a) * math.perm(deg - j + k - 1 - a, k - 1 - a)
                        for j in range(deg + 1)
                    ],
                    dtype=object,
                )
                for a, b in density[s].items()
            }
            for s in range(k)
        ]
        sources = defaultdict(list)
        uses = {}  # successors of each state not yet built
        for c, (v0, _, _) in layer.items():
            slots = [s for s in range(k) if c // radix[s] % (n + 1) < n]
            uses[c] = len(slots)
            for s in slots:
                sources[c + radix[s]].append((s, c, v0 + share[s * size + c]))
        nxt = {}
        for grown, moves in sources.items():
            v0 = min(v for _, _, v in moves)
            height = max(v + len(layer[c][2]) for _, c, v in moves) - v0
            # products land one column right, so the cumulative sum adds to
            # each column only the products of the columns below it
            lo = min(1 + a + layer[c][1] for s, c, _ in moves for a in weight[s])
            out = np.zeros((height, deg + k + 1 - lo), dtype=object)
            for s, c, v in moves:
                _, src_lo, rows = layer[c]
                for a, w in weight[s].items():
                    w = w[src_lo:]
                    col = 1 + a + src_lo - lo
                    out[v - v0 : v - v0 + len(rows), col : col + len(w)] += rows * w
                uses[c] -= 1
                if not uses[c]:
                    del layer[c]
            np.cumsum(out, axis=1, out=out)
            nxt[grown] = (v0, lo, out)
        layer = nxt

    ((_, (v0, lo, rows)),) = layer.items()
    numers = rows[:, top - lo] * math.factorial(n) ** k
    denom = math.factorial(top)
    if sum(numers) != denom:
        raise RuntimeError(
            f"exact engine mass check failed for k={k}, n={n}: {sum(numers)} != {denom}"
        )
    return {v0 + r: numer for r, numer in enumerate(numers) if numer}, denom
