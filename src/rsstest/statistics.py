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
PS.  It also holds, once, how eight statistics follow from J, Wstar
and PA, for the kernel (`batch.evaluate_batch`), the exact engine and
`statistic_range` to read:

  CYCLE_OF     N, A and S of one cycle are its PN, PA and PS as a k x 1
               grid, summed or maximised over the cycles;
  affine_base  PN = n^(k-2) * J and PS = ps_offset(k, n) - 2 * n^(k-2) * Wstar.

`evaluate` computes any statistic through the kernel; the test suite
and `verify` check it against the defining computations with integer
equality, using their own copies of the two identities.
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
    return StatisticKind.from_tag(kind) is StatisticKind.WSTAR


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


def brute_force_perm_all(sample: RssSample) -> tuple[int, int, int]:
    """(PN, PA, PS) by full enumeration of all n^k recombinations.

    This is the defining computation and the oracle for `evaluate`; it
    refuses grids whose n^k exceeds DEFAULT_ENUMERATION_BUDGET.
    """
    k, n = sample.k, sample.n
    total = n**k
    if total > DEFAULT_ENUMERATION_BUDGET:
        raise EnumerationBudgetError(
            f"enumerating {total} recombined samples exceeds {DEFAULT_ENUMERATION_BUDGET}; "
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


# each cycle kind's per-cycle discrepancy is the k x 1 value of a recombination kind
CYCLE_OF = dict(zip(SUM_KINDS + MAX_KINDS, PERM_KINDS * 2))


def affine_base(kind: StatisticKind, k: int, n: int) -> tuple[StatisticKind, int, int]:
    """(base, scale, offset) with kind = offset + scale * base on a k x n grid.

    J, Wstar and PA are their own base.  For k = 1 every recombined sample
    is sorted, so PN and PS have scale 0 and offset 0.
    """
    scale = n ** (k - 2) if k >= 2 else 0
    if kind is StatisticKind.PN:
        return StatisticKind.J, scale, 0
    if kind is StatisticKind.PS:
        return StatisticKind.WSTAR, -2 * scale, ps_offset(k, n) if k >= 2 else 0
    if kind in (StatisticKind.J, StatisticKind.WSTAR, StatisticKind.PA):
        return kind, 1, 0
    raise ValueError(f"{kind.value} is a per-cycle statistic; see CYCLE_OF")


def evaluate(sample: RssSample, kind: StatisticKind) -> int:
    """Evaluate any statistic on one sample, as an exact Python int.

    A one-sample call into `batch.evaluate_batch`, the kernel that
    computes every statistic without the n^k enumeration.
    """
    # batch imports this module at load time, so the kernel is imported here
    from .batch import evaluate_batch

    return int(evaluate_batch([sample.values], (kind,))[kind][0])


def statistic_range(kind: StatisticKind, k: int, n: int) -> tuple[int, int]:
    """Inclusive integer bounds of a statistic's support on a k x n grid.

    Each bound is attained: by the sample whose slots are fully in order
    and by the one whose slots are fully reversed.
    """
    kind = StatisticKind.from_tag(kind)
    if kind in CYCLE_OF:
        lo, hi = statistic_range(CYCLE_OF[kind], k, 1)
        return (lo, hi) if kind in MAX_KINDS else (n * lo, n * hi)
    base, scale, offset = affine_base(kind, k, n)
    if base is not kind:
        lo, hi = sorted(offset + scale * v for v in statistic_range(base, k, n))
        return lo, hi
    if kind is StatisticKind.J:
        return 0, k * (k - 1) // 2 * n * n
    if kind is StatisticKind.PA:
        return 0, n**k * (k * k // 2)
    weights = [j for j in range(1, k + 1) for _ in range(n)]
    ranks = list(range(1, k * n + 1))
    lo = sum(w * r for w, r in zip(weights, reversed(ranks)))
    hi = sum(w * r for w, r in zip(weights, ranks))
    return lo, hi
