"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  The heavy shared inputs (million-replicate Monte Carlo null
distributions for the large grids) are computed once per session.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from rsstest import (
    ALL_KINDS,
    NullDistribution,
    NullSource,
    PowerStudy,
    PowerTable,
    StatisticKind,
    brute_force_perm_all,
    critical_value,
    estimate_power,
    evaluate,
    exact_distributions,
    exact_null_distribution,
    format_probability,
    mc_null_distributions,
    monotone_transform,
    ps_offset,
    run_test,
    substream,
)
from rsstest.batch import evaluate_batch
from rsstest.models import ImperfectModel, draw_cells

from conftest import random_sample

K = StatisticKind

NULL_REPS = 1_000_000
NULL_SEED = 424242
POWER_REPS = 20_000
POWER_SEED = 808


@contextmanager
def criterion(num: int, description: str):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {num} [{description}]: FAIL")
        raise
    print(f"ACCEPTANCE {num} [{description}]: PASS")


def mc_tolerance(p: float, reps: int) -> float:
    return 4.0 * math.sqrt(p * (1.0 - p) / reps)


# ---------------------------------------------------------------------------
# shared million-replicate null distributions for the big grids
# ---------------------------------------------------------------------------

SIZE_KINDS = (K.N_SUM, K.A_SUM, K.S_SUM, K.PN, K.PA, K.PS)


@pytest.fixture(scope="module")
def nulls_4x5():
    kinds = tuple(dict.fromkeys(SIZE_KINDS + (K.J, K.WSTAR)))
    return mc_null_distributions(kinds, 4, 5, NULL_REPS, NULL_SEED)


@pytest.fixture(scope="module")
def nulls_5x4():
    return mc_null_distributions((K.WSTAR, K.PA), 5, 4, NULL_REPS, NULL_SEED)


@pytest.fixture(scope="module")
def nulls_5x2():
    return mc_null_distributions(SIZE_KINDS, 5, 2, NULL_REPS, NULL_SEED)


@pytest.fixture(scope="module")
def instance_set():
    """>= 200 seeded random samples spanning 2 <= k <= 5, 1 <= n <= 5."""
    rng = substream(31337, 0)
    grids = [(k, n) for k in range(2, 6) for n in range(1, 6)]
    return [random_sample(rng, *grids[i % len(grids)]) for i in range(200)]


# ---------------------------------------------------------------------------
# criterion 1: exact engine reproduces the unstarred published tails
# ---------------------------------------------------------------------------

EXACT_CELLS = {
    (2, 2): [(6, "0.04127"), (4, "0.19683")],
    (3, 2): [(20, "0.03995"), (18, "0.05101"), (16, "0.12158")],
    (4, 2): [(54, "0.04880"), (52, "0.06134"), (50, "0.06210"), (48, "0.11186")],
    (2, 3): [(12, "0.02587"), (10, "0.05527"), (8, "0.12016")],
    (3, 3): [(54, "0.04707"), (52, "0.05473"), (46, "0.09855"), (44, "0.10698")],
    (2, 4): [(16, "0.04579"), (14, "0.07721"), (12, "0.13444")],
    (2, 5): [(22, "0.04902"), (20, "0.07515"), (18, "0.11089")],
}


def test_criterion_1_exact_table_cells():
    with criterion(1, "exact tail probabilities match the published table"):
        for (k, n), cells in EXACT_CELLS.items():
            start = time.perf_counter()
            pmf = exact_distributions(k, n, max_cells=max(k * n, 8))[K.PA]
            elapsed = time.perf_counter() - start
            for cv, expected in cells:
                got = format_probability(
                    sum((p for v, p in pmf.items() if v >= cv), Fraction(0))
                )
                assert got == expected, (k, n, cv, got, expected)
            if k * n <= 6:
                assert elapsed <= 1.0, f"({k},{n}) took {elapsed:.2f}s"
            else:
                assert elapsed <= 600.0, f"({k},{n}) took {elapsed:.2f}s"


# ---------------------------------------------------------------------------
# criterion 2: Monte Carlo reproduces the starred levels at 1e5 reps
# ---------------------------------------------------------------------------

MC_CELLS = {
    (5, 3): [(986, 0.04955), (984, 0.05081), (892, 0.09865), (888, 0.10081)],
    (4, 4): [(698, 0.04985), (696, 0.05216), (626, 0.09877), (624, 0.10503)],
    (5, 5): [(11394, 0.04994), (11390, 0.05023), (10504, 0.09980), (10500, 0.10117)],
}


def test_criterion_2_starred_table_cells():
    reps = 100_000
    with criterion(2, "Monte Carlo levels match the starred table cells"):
        for (k, n), cells in MC_CELLS.items():
            start = time.perf_counter()
            dist = mc_null_distributions((K.PA,), k, n, reps, seed=20_260_808)[K.PA]
            elapsed = time.perf_counter() - start
            assert elapsed <= 120.0, f"({k},{n}) took {elapsed:.1f}s"
            for cv, level in cells:
                got = float(dist.upper_tail(cv))
                assert abs(got - level) <= mc_tolerance(level, reps), (k, n, cv, got)


# ---------------------------------------------------------------------------
# criteria 3 and 4: integer-exact identities on the shared instance set
# ---------------------------------------------------------------------------


def test_criterion_3_pa_convolution_identity(instance_set):
    with criterion(3, "convolution PA equals enumerated PA on 200 samples"):
        for s in instance_set:
            _, pa, _ = brute_force_perm_all(s)
            assert evaluate(s, K.PA) == pa


def test_criterion_4_equivalence_identities(instance_set):
    with criterion(4, "PN and PS reduce exactly to J and Wstar"):
        # the affine constant is validated against enumeration on k,n <= 4
        rng = substream(777, 0)
        for k in range(2, 5):
            for n in range(1, 5):
                for _ in range(3):
                    s = random_sample(rng, k, n)
                    _, _, ps = brute_force_perm_all(s)
                    assert ps == ps_offset(k, n) - 2 * n ** (k - 2) * evaluate(s, K.WSTAR)
        for s in instance_set:
            pn, _, ps = brute_force_perm_all(s)
            k, n = s.k, s.n
            assert pn == evaluate(s, K.PN) == n ** (k - 2) * evaluate(s, K.J)
            assert ps == evaluate(s, K.PS) == ps_offset(k, n) - 2 * n ** (k - 2) * evaluate(s, K.WSTAR)


# ---------------------------------------------------------------------------
# criterion 5: k=2 randomized decisions of PN, PA, PS coincide
# ---------------------------------------------------------------------------


def test_criterion_5_k2_randomized_collapse():
    kinds = (K.PN, K.PA, K.PS)
    reps = 10_000
    with criterion(5, "k=2 randomized PN/PA/PS decisions agree on 10^4 samples"):
        for n in (2, 3, 4, 5):
            crits = {
                kd: critical_value(exact_null_distribution(kd, 2, n, max_cells=10), "0.05")
                for kd in kinds
            }
            rng = substream(5150, n)
            cells = draw_cells(ImperfectModel("perfect"), "uniform", 2, n, reps, rng)
            u = rng.random(reps)
            stats = evaluate_batch(cells, kinds)
            decisions = []
            for kd in kinds:
                crit = crits[kd]
                t = stats[kd]
                reject = t >= crit.cv
                if crit.boundary is not None:
                    reject = reject | ((t == crit.boundary) & (u < float(crit.gamma)))
                decisions.append(reject)
            assert np.array_equal(decisions[0], decisions[1])
            assert np.array_equal(decisions[0], decisions[2])


# ---------------------------------------------------------------------------
# criterion 6: randomized size control on the large grids
# ---------------------------------------------------------------------------


def _size_check(k, n, null_dists):
    study = PowerStudy(
        k=k,
        n=n,
        kinds=SIZE_KINDS,
        model_tag="perfect",
        lambda_grid=(0.0,),
        alpha="0.05",
        reps=POWER_REPS,
        seed=POWER_SEED,
    )
    table = estimate_power(study, null_dists=null_dists)
    tol = mc_tolerance(0.05, POWER_REPS)
    for kind in SIZE_KINDS:
        rate = table.cell(kind, 0.0).power
        assert abs(rate - 0.05) <= tol, (k, n, kind.value, rate, tol)


def test_criterion_6_size_control(nulls_5x2, nulls_4x5):
    with criterion(6, "randomized size within 0.0062 of 0.05 for six statistics"):
        _size_check(5, 2, nulls_5x2)
        _size_check(4, 5, nulls_4x5)


# ---------------------------------------------------------------------------
# criteria 7 and 8: published power cells and the dominance claims
# ---------------------------------------------------------------------------


def _power_study(k, n, kinds, model_tag, grid, null_dists, seed=POWER_SEED):
    study = PowerStudy(
        k=k,
        n=n,
        kinds=kinds,
        model_tag=model_tag,
        lambda_grid=grid,
        alpha="0.05",
        reps=POWER_REPS,
        seed=seed,
        null=NullSource(),
    )
    return estimate_power(study, null_dists=null_dists)


@pytest.fixture(scope="module")
def neighbor_4x5_table(nulls_4x5):
    return _power_study(
        4, 5, (K.PA, K.J, K.WSTAR, K.A_SUM), "neighbor", (0.5, 1.0), nulls_4x5
    )


def test_criterion_7_power_cells(nulls_4x5, nulls_5x4, nulls_5x2, neighbor_4x5_table):
    with criterion(7, "power estimates match the published cells at 4-sigma"):
        start = time.perf_counter()
        t2 = _power_study(4, 5, (K.PA,), "concomitant", (0.5,), nulls_4x5)
        assert abs(t2.cell(K.PA, 0.5).power - 0.8865) <= mc_tolerance(0.8865, POWER_REPS)
        assert time.perf_counter() - start <= 300.0

        t3 = _power_study(5, 4, (K.WSTAR, K.PA), "random", (0.5,), nulls_5x4)
        assert abs(t3.cell(K.WSTAR, 0.5).power - 0.9090) <= mc_tolerance(0.9090, POWER_REPS)
        assert abs(t3.cell(K.PA, 0.5).power - 0.8887) <= mc_tolerance(0.8887, POWER_REPS)

        t4 = _power_study(5, 2, (K.PA,), "inverse", (0.3,), nulls_5x2)
        assert abs(t4.cell(K.PA, 0.3).power - 0.6958) <= mc_tolerance(0.6958, POWER_REPS)

        t5 = neighbor_4x5_table
        assert abs(t5.cell(K.PA, 1.0).power - 0.7156) <= mc_tolerance(0.7156, POWER_REPS)
        assert abs(t5.cell(K.J, 1.0).power - 0.6939) <= mc_tolerance(0.6939, POWER_REPS)
        assert abs(t5.cell(K.WSTAR, 1.0).power - 0.6430) <= mc_tolerance(0.6430, POWER_REPS)
        # qualitative ordering in that cell
        assert t5.cell(K.PA, 1.0).power > t5.cell(K.J, 1.0).power > t5.cell(K.WSTAR, 1.0).power


def test_criterion_8_dominance_over_per_cycle_sum(neighbor_4x5_table):
    with criterion(8, "PA dominates A_sum beyond twice the joint SE"):
        for lam in (0.5, 1.0):
            pa = neighbor_4x5_table.cell(K.PA, lam)
            a_sum = neighbor_4x5_table.cell(K.A_SUM, lam)
            joint = 2.0 * math.hypot(pa.se, a_sum.se)
            assert pa.power - a_sum.power > joint, (lam, pa.power, a_sum.power)


# ---------------------------------------------------------------------------
# criterion 9: property suites
# ---------------------------------------------------------------------------


def test_criterion_9_property_suites(instance_set):
    with criterion(9, "invariance, exact mass, JSON round-trips, determinism"):
        # monotone-transform invariance of all eleven statistics
        for s in instance_set[:50]:
            before = {kind: evaluate(s, kind) for kind in ALL_KINDS}
            for f in (lambda x: 3.0 * x - 2.0, lambda x: x**3):
                t = monotone_transform(s, f)
                for kind in ALL_KINDS:
                    assert evaluate(t, kind) == before[kind]

        # exact engine mass sums to exactly one for every statistic
        for (k, n) in [(2, 2), (3, 2), (2, 3), (4, 2)]:
            dists = exact_distributions(k, n)
            for kind in ALL_KINDS:
                assert sum(dists[kind].values()) == 1

        # JSON round-trips reparse to equal values
        exact_dist = exact_null_distribution(K.PA, 2, 2)
        assert NullDistribution.from_json(exact_dist.to_json()) == exact_dist
        mc_dist = mc_null_distributions((K.WSTAR,), 3, 2, 4000, seed=17)[K.WSTAR]
        assert NullDistribution.from_json(mc_dist.to_json()) == mc_dist
        sample = instance_set[0]
        result = run_test(
            sample,
            K.PA,
            exact_null_distribution(K.PA, sample.k, sample.n, max_cells=10)
            if sample.k * sample.n <= 10
            else mc_null_distributions((K.PA,), sample.k, sample.n, 4000, seed=3)[K.PA],
            "0.05",
        )
        from rsstest import TestResult

        assert TestResult.from_json(result.to_json()) == result

        study = PowerStudy(
            k=3, n=2, kinds=(K.PA, K.WSTAR), model_tag="neighbor",
            lambda_grid=(0.0, 0.5), alpha="0.05", reps=4000, seed=21,
        )
        table = estimate_power(study)
        assert PowerTable.from_json(table.to_json()).to_json_dict() == table.to_json_dict()

        # determinism under varying worker counts
        a = mc_null_distributions((K.PA, K.N_SUM), 3, 3, 30_000, seed=5, threads=1)
        b = mc_null_distributions((K.PA, K.N_SUM), 3, 3, 30_000, seed=5, threads=4)
        assert a == b
        t1 = estimate_power(study, threads=1)
        t4 = estimate_power(study, threads=4)
        assert t1.to_json_dict() == t4.to_json_dict()
