"""Test statistics for perfect ranking, in exact integer arithmetic.

Eleven statistics are supported, identified by their tag:

  N_sum, A_sum, S_sum  -- per-cycle discrepancies summed over cycles
  N_max, A_max, S_max  -- per-cycle discrepancies maximised over cycles
  PN, PA, PS           -- the same discrepancies summed over every one of
                          the n^k cross-cycle recombinations of the sample
  J                    -- count of cross-cycle order violations
  Wstar                -- overall-rank weighted sum (small values are the
                          suspicious ones; every other tag rejects high)

Per cycle, with R_i the rank of the slot-i value inside its cycle:
N counts slot pairs i < j whose values are out of order, A = sum |R_i - i|,
S = sum (R_i - i)^2.  All statistics are integers on tie-free data, and
all are invariant under strictly increasing transforms of the values.

This module defines the statistics and holds their defining
computations: `tuple_discrepancies` for one cycle or one recombined
sample, and `brute_force_perm_all`, the n^k enumeration of PN, PA and
PS.  `evaluate` computes any statistic through the one kernel,
`batch.evaluate_batch`, which avoids the enumeration with two exact
identities,

  PN = n^(k-2) * J
  PS = ps_offset(k, n) - 2 * n^(k-2) * Wstar,

and for PA a per-cell convolution of the Bernoulli indicators of the
other slots lying below the cell (its rank in a random recombination is
1 plus that sum).  The test suite and `verify` check the kernel against
the defining computations with integer equality.
"""

from __future__ import annotations

import itertools
from enum import Enum

from .errors import EnumerationBudgetError
from .sample import RssSample


class StatisticKind(str, Enum):
    """Closed enumeration of statistic tags; the value is the wire name."""

    N_SUM = "N_sum"
    A_SUM = "A_sum"
    S_SUM = "S_sum"
    N_MAX = "N_max"
    A_MAX = "A_max"
    S_MAX = "S_max"
    PN = "PN"
    PA = "PA"
    PS = "PS"
    J = "J"
    WSTAR = "Wstar"

    @classmethod
    def from_tag(cls, tag: str) -> "StatisticKind":
        try:
            return cls(tag)
        except ValueError:
            valid = ", ".join(k.value for k in cls)
            raise ValueError(f"unknown statistic tag {tag!r}; expected one of {valid}") from None


SUM_KINDS = (StatisticKind.N_SUM, StatisticKind.A_SUM, StatisticKind.S_SUM)
MAX_KINDS = (StatisticKind.N_MAX, StatisticKind.A_MAX, StatisticKind.S_MAX)
PERM_KINDS = (StatisticKind.PN, StatisticKind.PA, StatisticKind.PS)

ALL_KINDS = tuple(StatisticKind)

DEFAULT_ENUMERATION_BUDGET = 10_000_000


def is_lower_tail(kind: StatisticKind) -> bool:
    """True for the one statistic whose small values indicate bad ranking."""
    return kind is StatisticKind.WSTAR


def tuple_discrepancies(values: tuple[float, ...]) -> tuple[int, int, int]:
    """(N, A, S) for one sample whose slot order should match value order."""
    k = len(values)
    ranks = [1 + sum(1 for w in values if w < v) for v in values]
    n_stat = sum(
        1 for i in range(k - 1) for j in range(i + 1, k) if values[i] > values[j]
    )
    a_stat = sum(abs(r - (i + 1)) for i, r in enumerate(ranks))
    s_stat = sum((r - (i + 1)) ** 2 for i, r in enumerate(ranks))
    return n_stat, a_stat, s_stat


def brute_force_perm_all(
    sample: RssSample, budget: int = DEFAULT_ENUMERATION_BUDGET
) -> tuple[int, int, int]:
    """(PN, PA, PS) by full enumeration of all n^k recombinations.

    This is the defining computation and the oracle for `evaluate`; it
    refuses grids whose n^k exceeds `budget`.
    """
    k, n = sample.k, sample.n
    total = n**k
    if total > budget:
        raise EnumerationBudgetError(
            f"enumerating {total} recombined samples exceeds the budget of {budget}; "
            "use evaluate, which computes PN, PA and PS without enumeration"
        )
    rows = sample.values
    pn = pa = ps = 0
    for combo in itertools.product(range(n), repeat=k):
        values = tuple(rows[i][combo[i]] for i in range(k))
        dn, da, ds = tuple_discrepancies(values)
        pn += dn
        pa += da
        ps += ds
    return pn, pa, ps


def ps_offset(k: int, n: int) -> int:
    """The constant in the exact affine relation PS = ps_offset - 2*n^(k-2)*Wstar.

    Valid for k >= 2.  Derived from the fact that the ranks inside each
    recombined sample are a permutation of 1..k, plus the decomposition of
    a cell's recombination-rank sum into overall and within-slot counts;
    the test suite validates it against brute-force enumeration.
    """
    if k < 2:
        raise ValueError("ps_offset requires k >= 2")
    nk = n**k
    return (
        2 * nk * k * (k + 1) * (2 * k + 1) // 6
        - nk * k * (k + 1)
        + n ** (k - 2) * (n + n * (n - 1) // 2) * k * (k + 1)
    )


def evaluate(sample: RssSample, kind: StatisticKind) -> int:
    """Evaluate any statistic on one sample, as an exact Python int.

    A one-sample call into `batch.evaluate_batch`, the kernel that
    computes every statistic without the n^k enumeration.
    """
    # batch imports this module at load time, so the kernel is imported here
    from .batch import evaluate_batch

    return int(evaluate_batch([sample.values], (kind,))[kind][0])


def _cycle_maxima(k: int) -> tuple[int, int, int]:
    return k * (k - 1) // 2, k * k // 2, k * (k * k - 1) // 3


def statistic_range(kind: StatisticKind, k: int, n: int) -> tuple[int, int]:
    """Inclusive integer bounds of a statistic's support on a k x n grid."""
    nmax, amax, smax = _cycle_maxima(k)
    if kind in MAX_KINDS or n == 1 and kind in SUM_KINDS:
        hi = {"N": nmax, "A": amax, "S": smax}[kind.value[0]]
        return 0, hi
    if kind in SUM_KINDS:
        hi = {"N": nmax, "A": amax, "S": smax}[kind.value[0]]
        return 0, n * hi
    if kind is StatisticKind.J:
        return 0, k * (k - 1) // 2 * n * n
    if kind in PERM_KINDS:
        hi = {
            StatisticKind.PN: nmax,
            StatisticKind.PA: amax,
            StatisticKind.PS: smax,
        }[kind]
        return 0, n**k * hi
    if kind is StatisticKind.WSTAR:
        weights = [j for j in range(1, k + 1) for _ in range(n)]
        ranks = list(range(1, k * n + 1))
        lo = sum(w * r for w, r in zip(weights, reversed(ranks)))
        hi = sum(w * r for w, r in zip(weights, ranks))
        return lo, hi
    raise ValueError(f"unhandled statistic {kind!r}")  # pragma: no cover
