"""Power estimation engine and test comparison."""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction

import pytest

from rsstest import (
    DataValidationError,
    NullSource,
    PowerStudy,
    PowerTable,
    StatisticKind,
    compare_tests,
    estimate_power,
    exact_null_distribution,
)
from rsstest.batch import evaluate_batch
from rsstest.mc import CHUNK_SIZE, mc_null_distributions
from rsstest.models import ImperfectModel, draw_cells
from rsstest.nulldist import critical_value
from rsstest.statistics import is_lower_tail
from rsstest.streams import MODEL_STREAM_BASE, NULL_STREAM_BASE, POWER_STREAM_BASE, substream

K = StatisticKind


def small_study(**overrides) -> PowerStudy:
    base = dict(
        k=2,
        n=3,
        kinds=(K.PA,),
        model_tag="random",
        lambda_grid=(0.0, 0.5),
        alpha="0.05",
        reps=4000,
        seed=101,
    )
    base.update(overrides)
    return PowerStudy(**base)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_study_validation():
    with pytest.raises(DataValidationError, match="empty"):
        small_study(lambda_grid=())
    with pytest.raises(DataValidationError):
        small_study(lambda_grid=(0.0, 1.5))
    with pytest.raises(DataValidationError, match="alpha"):
        small_study(alpha="1")
    with pytest.raises(DataValidationError, match="statistic"):
        small_study(kinds=())
    with pytest.raises(DataValidationError, match="normal"):
        small_study(model_tag="concomitant", lambda_grid=(0.5,), population="uniform")
    with pytest.raises(DataValidationError, match="more than once"):
        small_study(kinds=(K.PA, K.PA, K.J))
    with pytest.raises(DataValidationError, match="repeats"):
        small_study(lambda_grid=(0.5, 0.5))
    # grid point i draws from stream POWER_STREAM_BASE + i * 2^20 + chunk,
    # so reps fill at most 2^20 chunks and the grid ends below the model streams
    with pytest.raises(DataValidationError, match="stream layout"):
        small_study(reps=2**20 * CHUNK_SIZE + 1)
    points = (MODEL_STREAM_BASE - POWER_STREAM_BASE) // 2**20
    assert points == 4096
    assert len(small_study(lambda_grid=tuple(i / points for i in range(points))).lambda_grid) == points
    with pytest.raises(DataValidationError, match="stream layout"):
        small_study(lambda_grid=tuple(i / (points + 1) for i in range(points + 1)))


def test_unknown_population_is_refused():
    with pytest.raises(DataValidationError, match="population"):
        small_study(population="gaussian")
    with pytest.raises(DataValidationError, match="population"):
        small_study(model_tag="concomitant", lambda_grid=(0.5,), population="gaussian")
    doc = estimate_power(small_study(reps=100)).to_json_dict()
    doc["study"]["population"] = "gaussian"
    with pytest.raises(DataValidationError, match="population"):
        PowerTable.from_json_dict(doc)


@pytest.mark.parametrize("reps", [0, -5])
def test_null_source_refuses_no_reps(reps):
    with pytest.raises(DataValidationError, match="null reps"):
        NullSource(reps=reps)
    # a reloaded table is checked too, even on a grid with an exact null
    doc = estimate_power(small_study(reps=100)).to_json_dict()
    doc["study"]["null"]["reps"] = reps
    with pytest.raises(DataValidationError, match="null reps"):
        PowerTable.from_json_dict(doc)


@pytest.mark.parametrize("cap", [11, -1])
def test_null_source_refuses_cap_outside_engine_range(cap):
    with pytest.raises(DataValidationError, match="cap of 10"):
        NullSource(exact_cells_cap=cap)
    doc = estimate_power(small_study(reps=100)).to_json_dict()
    doc["study"]["null"]["exact_cells_cap"] = cap
    with pytest.raises(DataValidationError, match="cap of 10"):
        PowerTable.from_json_dict(doc)


def test_concomitant_forces_normal_population():
    study = small_study(model_tag="concomitant", lambda_grid=(0.5, 1.0))
    assert study.population == "normal"


def test_null_seed_defaults_to_study_seed_above_cap():
    study = small_study(
        k=5, n=3, reps=300, null=NullSource(method="monte-carlo", reps=2000, seed=None)
    )
    table = estimate_power(study)
    prov = dict(table.null_provenance)[K.PA]
    assert prov.method == "monte-carlo"
    assert prov.seed == study.seed
    assert prov.reps == 2000


# ---------------------------------------------------------------------------
# engine behaviour
# ---------------------------------------------------------------------------


def test_size_at_null_boundary():
    # random-fraction at 0 is perfect ranking: rejection rate ~ alpha
    study = small_study(lambda_grid=(0.0,), reps=20_000)
    cell = estimate_power(study).cell(K.PA, 0.0)
    tol = 4 * math.sqrt(0.05 * 0.95 / study.reps)
    assert abs(cell.power - 0.05) <= tol


@pytest.mark.parametrize("model_tag", ["random", "inverse", "neighbor"])
def test_power_monotone_in_mixing_fraction(model_tag):
    kinds = (K.N_SUM, K.A_SUM, K.S_SUM, K.PN, K.PA, K.PS, K.J, K.WSTAR)
    study = small_study(
        k=3, n=2, kinds=kinds, lambda_grid=(0.0, 0.25, 0.5), reps=10_000,
        model_tag=model_tag,
    )
    table = estimate_power(study)
    for kind in kinds:
        p = [table.cell(kind, lam).power for lam in study.lambda_grid]
        se = [table.cell(kind, lam).se for lam in study.lambda_grid]
        for a, b, sa, sb in zip(p, p[1:], se, se[1:]):
            assert b >= a - 2 * math.hypot(sa, sb), (model_tag, kind)


def test_size_at_full_concomitant_correlation_5x4():
    # ranking by a perfectly correlated companion is perfect ranking:
    # rejection rate ~ alpha (published boundary value .0496)
    study = PowerStudy(
        k=5, n=4, kinds=(K.PA,), model_tag="concomitant", lambda_grid=(1.0,),
        alpha="0.05", reps=20_000, seed=303, null=NullSource(reps=200_000),
    )
    cell = estimate_power(study).cell(K.PA, 1.0)
    assert abs(cell.power - 0.05) <= 4 * math.sqrt(0.05 * 0.95 / study.reps)


def test_published_random_model_pair_5x2():
    # published at k=5, n=2, half random ranking: Wstar .7024, PA .6750
    study = PowerStudy(
        k=5, n=2, kinds=(K.WSTAR, K.PA), model_tag="random", lambda_grid=(0.5,),
        alpha="0.05", reps=20_000, seed=404, null=NullSource(reps=200_000),
    )
    table = estimate_power(study)
    w, pa = table.cell(K.WSTAR, 0.5), table.cell(K.PA, 0.5)
    assert abs(w.power - 0.7024) <= 4 * math.sqrt(0.7024 * 0.2976 / study.reps)
    assert abs(pa.power - 0.6750) <= 4 * math.sqrt(0.6750 * 0.3250 / study.reps)
    assert w.power >= pa.power - 2 * math.hypot(w.se, pa.se)


def test_recombination_sum_never_below_per_cycle_sum():
    # PA should not lose to A_sum anywhere on the grid (trimmed sweep)
    for (k, n) in [(2, 5), (5, 2)]:
        study = PowerStudy(
            k=k, n=n, kinds=(K.PA, K.A_SUM), model_tag="neighbor",
            lambda_grid=(0.0, 0.5, 1.0), alpha="0.05", reps=10_000, seed=505,
            null=NullSource(reps=200_000),
        )
        report = compare_tests([estimate_power(study)])
        assert report.verdict(K.PA, K.A_SUM).below == 0


def test_published_neighbor_row_reproduced():
    # the full 11-point published row for the convolution statistic at
    # k=4, n=5 under the neighbor model, at desk-scale replication
    published = [0.0501, 0.0865, 0.1320, 0.1923, 0.2597, 0.3349,
                 0.4123, 0.4944, 0.5731, 0.6493, 0.7156]
    grid = tuple(round(0.1 * i, 1) for i in range(11))
    study = PowerStudy(
        k=4, n=5, kinds=(K.PA,), model_tag="neighbor", lambda_grid=grid,
        alpha="0.05", reps=20_000, seed=909,
        null=NullSource(reps=200_000),
    )
    table = estimate_power(study)
    for lam, want in zip(grid, published):
        got = table.cell(K.PA, lam).power
        tol = 4 * math.sqrt(want * (1 - want) / study.reps)
        assert abs(got - want) <= tol, (lam, got, want)


def test_k2_collapse_identical_rejections_per_replicate():
    # PN, PA, PS, J and Wstar (in its lower tail) are equivalent at k=2;
    # common random numbers make the randomized decisions (and so the
    # counts) exactly equal
    kinds = (K.PN, K.PA, K.PS, K.J, K.WSTAR)
    study = small_study(kinds=kinds, reps=5000, lambda_grid=(0.0, 0.3))
    table = estimate_power(study)
    for lam in study.lambda_grid:
        counts = {kind: table.cell(kind, lam).rejections for kind in study.kinds}
        assert len(set(counts.values())) == 1, counts


def test_determinism_and_thread_independence():
    study = small_study(reps=6000)
    a = estimate_power(study)
    b = estimate_power(study)
    c = estimate_power(study, threads=3)
    assert a.to_json_dict() == b.to_json_dict() == c.to_json_dict()


@pytest.mark.parametrize("takes", [(CHUNK_SIZE, CHUNK_SIZE, 5), (CHUNK_SIZE, 3000)])
def test_chunk_layout_matches_stream_definition(takes):
    # chunk c of the null draws from stream NULL_STREAM_BASE + c, chunk c of
    # grid point i from POWER_STREAM_BASE + i * 2^20 + c; every chunk draws a
    # full CHUNK_SIZE (then power's uniforms) and keeps its first `take`.
    # A last chunk of 3000 shows a short power draw that 5 replicates can miss.
    k, n, seed = 2, 3, 17
    reps = sum(takes)
    kinds = (K.PA, K.J, K.WSTAR)

    seen = {kind: Counter() for kind in kinds}
    for c, take in enumerate(takes):
        rng = substream(seed, NULL_STREAM_BASE + c)
        cells = draw_cells(ImperfectModel("perfect"), "uniform", k, n, CHUNK_SIZE, rng)[:take]
        for kind, t in evaluate_batch(cells, kinds).items():
            seen[kind].update(t.tolist())

    study = small_study(kinds=kinds, model_tag="neighbor", lambda_grid=(0.0, 0.5), reps=reps, seed=seed)
    crits = {kind: critical_value(exact_null_distribution(kind, k, n), study.alpha) for kind in kinds}
    expected = {}
    for i, lam in enumerate(study.lambda_grid):
        model = ImperfectModel("neighbor", lam)
        for c, take in enumerate(takes):
            rng = substream(seed, POWER_STREAM_BASE + i * 2**20 + c)
            cells = draw_cells(model, study.population, k, n, CHUNK_SIZE, rng)[:take]
            u = rng.random(CHUNK_SIZE)[:take]
            for kind, t in evaluate_batch(cells, kinds).items():
                crit = crits[kind]
                reject = t <= crit.cv if is_lower_tail(kind) else t >= crit.cv
                if crit.gamma > 0:
                    reject |= (t == crit.boundary) & (u < float(crit.gamma))
                expected[(kind, lam)] = expected.get((kind, lam), 0) + int(reject.sum())

    for threads in (1, 3):
        nulls = mc_null_distributions(kinds, k, n, reps, seed, threads=threads)
        for kind in kinds:
            support = tuple(sorted(seen[kind]))
            assert nulls[kind].support == support
            assert nulls[kind].probs == tuple(Fraction(seen[kind][v], reps) for v in support)
        table = estimate_power(study, threads=threads)
        assert {(c.kind, c.lam): c.rejections for c in table.cells} == expected


def test_mc_null_source():
    study = small_study(
        reps=2000,
        null=NullSource(method="monte-carlo", reps=50_000, seed=555),
    )
    table = estimate_power(study)
    assert dict(table.null_provenance)[K.PA].method == "monte-carlo"
    assert dict(table.null_provenance)[K.PA].reps == 50_000


def test_precomputed_null_dists_must_match():
    study = small_study(reps=500)
    wrong = {K.PA: exact_null_distribution(K.PA, 2, 2)}
    with pytest.raises(DataValidationError, match="mismatched"):
        estimate_power(study, null_dists=wrong)


# ---------------------------------------------------------------------------
# serialisation and comparison
# ---------------------------------------------------------------------------


def test_power_table_json_round_trip():
    table = estimate_power(small_study(reps=1500))
    again = PowerTable.from_json(table.to_json())
    assert again.to_json_dict() == table.to_json_dict()


def test_power_table_csv_orientation():
    table = estimate_power(small_study(kinds=(K.PA, K.N_SUM), reps=800))
    lines = table.to_csv().strip().splitlines()
    assert lines[0] == "kind,0,0.5"
    assert lines[1].startswith("PA,")
    assert lines[2].startswith("N_sum,")


def test_compare_tests_rankings_and_verdicts():
    study = small_study(kinds=(K.PA, K.N_SUM), reps=5000, lambda_grid=(0.4,), k=3, n=2)
    table = estimate_power(study)
    report = compare_tests([table])
    ranking = report.ranking(0.4)
    assert [c.power for c in ranking] == sorted((c.power for c in ranking), reverse=True)
    text = report.render_text()
    assert "lambda=0.4" in text
    assert report.verdict(K.PA, K.N_SUM).above + report.verdict(K.PA, K.N_SUM).below + report.verdict(
        K.PA, K.N_SUM
    ).indistinct == 1


def test_compare_tests_identical_tables_no_significance():
    table = estimate_power(small_study(reps=1200))
    report = compare_tests([table, table])
    for v in report.verdicts:
        assert v.above == 0 and v.below == 0


def test_compare_tests_refuses_conflicting_cells():
    # two seeds give the same (statistic, lambda) cell different counts;
    # merging them must not keep one silently
    a, b = (
        estimate_power(small_study(lambda_grid=(0.5,), reps=134, seed=seed))
        for seed in (1, 2)
    )
    assert a.cell(K.PA, 0.5) != b.cell(K.PA, 0.5)
    with pytest.raises(DataValidationError, match="different results"):
        compare_tests([a, b])


def test_compare_tests_mismatched_grids():
    a = estimate_power(small_study(reps=500))
    b = estimate_power(small_study(reps=500, lambda_grid=(0.0, 0.7)))
    with pytest.raises(DataValidationError, match="compare"):
        compare_tests([a, b])


def test_compare_tests_empty():
    with pytest.raises(ValueError):
        compare_tests([])
