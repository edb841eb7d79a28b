"""Power estimation engine and test comparison."""

from __future__ import annotations

import dataclasses
import json
import math
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from rsstest import (
    DataValidationError,
    NullSource,
    PowerCell,
    PowerStudy,
    PowerTable,
    Provenance,
    StatisticKind,
    compare_tests,
    estimate_power,
    exact_null_distribution,
)
from rsstest import batch
from rsstest.batch import evaluate_batch
from rsstest.mc import CHUNK_SIZE, mc_null_distributions, null_distributions_for
from rsstest.models import ImperfectModel, draw_cells
from rsstest.nulldist import NullDistribution, critical_value, run_test
from rsstest.statistics import is_lower_tail, statistic_range
from rsstest.streams import MODEL_STREAM_BASE, NULL_STREAM_BASE, POWER_STREAM_BASE, substream

from conftest import make_sample

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
    with pytest.raises(DataValidationError, match="bad model parameter"):
        small_study(lambda_grid=(0.0, "x"))
    # a seed that is no integer would reach the stream arithmetic, or JSON as null
    with pytest.raises(DataValidationError, match="seed"):
        small_study(seed=None)
    with pytest.raises(DataValidationError, match="seed"):
        PowerStudy.from_json_dict(small_study().to_json_dict() | {"seed": None})
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


def test_power_table_reload_refuses_a_grid_value_that_is_no_number():
    doc = estimate_power(small_study(reps=100)).to_json_dict()
    doc["study"]["lambda_grid"] = ["x"]
    with pytest.raises(DataValidationError, match="bad model parameter"):
        PowerTable.from_json_dict(doc)


def test_unknown_statistic_tags_and_cell_lambdas_are_data_errors():
    # each is refused as bad data, not as a raw ValueError
    with pytest.raises(DataValidationError, match="unknown statistic tag 'bogus'"):
        small_study(kinds=("bogus",))
    doc = estimate_power(small_study(reps=100)).to_json_dict()
    for edit, match in [
        (lambda d: d["study"].update(kinds=["bogus"]), "unknown statistic tag 'bogus'"),
        (lambda d: d["cells"][0].update(kind="bogus"), "unknown statistic tag 'bogus'"),
        (lambda d: d["cells"][0].update({"lambda": "x"}), "bad cell parameter 'x'"),
        (lambda d: d["null_provenance"][0].update(kind="bogus"), "unknown statistic tag 'bogus'"),
    ]:
        bad = json.loads(json.dumps(doc))
        edit(bad)
        with pytest.raises(DataValidationError, match=match):
            PowerTable.from_json_dict(bad)


@pytest.mark.parametrize(
    "field,bad",
    [("k", 2.0), ("k", True), ("n", 3.0), ("reps", 2.5), ("reps", 100.7), ("reps", True),
     ("seed", True), ("seed", 101.0), ("seed", "101")],
)
def test_study_refuses_numbers_that_are_no_integers(field, bad):
    with pytest.raises(DataValidationError, match=f"study's {field} must be an integer"):
        small_study(**{field: bad})
    # a reloaded table keeps the number it was given, rather than truncating it
    doc = estimate_power(small_study(reps=100)).to_json_dict()
    doc["study"][field] = bad
    with pytest.raises(DataValidationError, match=f"study's {field} must be an integer"):
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


@pytest.mark.parametrize(
    "field,bad",
    [("reps", 2.5), ("reps", True), ("reps", 2000.7), ("exact_cells_cap", 8.5),
     ("exact_cells_cap", True), ("seed", 2.5), ("seed", False), ("seed", "7")],
)
def test_null_source_refuses_numbers_that_are_no_integers(field, bad):
    with pytest.raises(DataValidationError, match=f"null {field} must be an integer"):
        NullSource("monte-carlo", **{field: bad})
    # a reloaded study keeps the number it was given, rather than truncating it
    doc = estimate_power(small_study(reps=100)).to_json_dict()
    doc["study"]["null"][field] = bad
    with pytest.raises(DataValidationError, match=f"null {field} must be an integer"):
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


def test_a_wide_power_chunk_is_evaluated_in_bounded_slices(monkeypatch):
    # one 10x10 neighbor:0.5 chunk of all eleven statistics through
    # estimate_power's chunk body.  Its null is the chunk's own values, so
    # each test's cv lies inside the chunk, and alpha = 1/3, no multiple
    # of 1/CHUNK_SIZE, randomises at every boundary atom.  The rejections
    # equal those of the unblocked kernel (one block as large as the
    # chunk), and the chunk's one evaluate_batch call peaks below 13 MB
    # above the draws (about 5 MB; evaluated in one piece it peaks at 16).
    k = n = 10
    rng = substream(5, POWER_STREAM_BASE)
    draws = draw_cells(ImperfectModel("neighbor", 0.5), "uniform", k, n, CHUNK_SIZE, rng)
    u = rng.random(CHUNK_SIZE)
    with monkeypatch.context() as m:
        m.setattr(batch, "BLOCK_BYTES", 1 << 40)
        whole = evaluate_batch(draws, list(K))
    nulls = {}
    for kind, t in whole.items():
        support, counts = np.unique(t, return_counts=True)
        probs = tuple(Fraction(int(c), CHUNK_SIZE) for c in counts)
        prov = Provenance("monte-carlo", seed=5, reps=CHUNK_SIZE)
        nulls[kind] = NullDistribution(kind, k, n, tuple(support.tolist()), probs, prov)
    study = small_study(
        k=k, n=n, kinds=tuple(K), model_tag="neighbor", lambda_grid=(0.5,),
        alpha=Fraction(1, 3), reps=CHUNK_SIZE, seed=5,
    )
    crits = {kind: critical_value(nulls[kind], study.alpha) for kind in K}
    assert all(crit.gamma > 0 for crit in crits.values())
    want = {kind: int(crits[kind].rejects(whole[kind], u).sum()) for kind in K}
    del whole, draws
    peaks = []

    def spy(cells, kinds):
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        out = evaluate_batch(cells, kinds)
        peaks.append(tracemalloc.get_traced_memory()[1] - held)
        return out

    monkeypatch.setattr("rsstest.power.evaluate_batch", spy)
    tracemalloc.start()
    try:
        table = estimate_power(study, nulls)
    finally:
        tracemalloc.stop()
    assert {c.kind: c.rejections for c in table.cells} == want
    assert len(peaks) == 1 and peaks[0] < 13e6, peaks


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


ROUTES = ("reload", "construct")


@pytest.mark.parametrize("route", ROUTES)
def test_power_table_reload_refuses_impossible_cells(route):
    table = estimate_power(small_study(kinds=(K.PA, K.J), reps=100))
    doc = table.to_json_dict()
    assert PowerTable.from_json_dict(doc).to_json_dict() == doc

    def rebuilt(cells: list[dict]) -> PowerTable:
        """`table` with these JSON cells, reloaded or built directly."""
        if route == "reload":
            return PowerTable.from_json_dict(doc | {"cells": cells})
        return dataclasses.replace(table, cells=tuple(
            PowerCell(K.from_tag(c["kind"]), c["lambda"], c["rejections"], c["reps"]) for c in cells
        ))

    def edited(index: int, **fields) -> list[dict]:
        cells = [dict(c) for c in doc["cells"]]
        cells[index].update(fields)
        return cells

    # an edited cell that would reload with power 9/7
    for bad in (edited(0, reps=7, rejections=9), edited(0, reps=7), edited(1, reps=200)):
        with pytest.raises(DataValidationError, match="reps per cell"):
            rebuilt(bad)
    for rejections in (-1, 101):
        with pytest.raises(DataValidationError, match="rejections"):
            rebuilt(edited(2, rejections=rejections))
    assert rebuilt(edited(2, rejections=100)).cells[2].power == 1.0
    # the cells must be the study's statistics times its grid, each pair once
    cells = doc["cells"]
    for bad_cells in (
        cells[:-1],
        cells + [cells[0]],
        cells[:-1] + [cells[0]],
        [dict(cells[0], kind="Wstar")] + cells[1:],
        [dict(cells[0], **{"lambda": 0.25})] + cells[1:],
    ):
        with pytest.raises(DataValidationError, match="one cell for each"):
            rebuilt(bad_cells)
    # cell order is free
    assert rebuilt(cells[::-1]).cells[0].kind is K.J


@pytest.mark.parametrize("route", ROUTES)
def test_power_table_refuses_null_provenance_not_one_row_per_statistic(route):
    table = estimate_power(small_study(kinds=(K.PA, K.J), reps=100))
    doc = table.to_json_dict()
    rows = doc["null_provenance"]

    def rebuilt(rows: list[dict]) -> PowerTable:
        if route == "reload":
            return PowerTable.from_json_dict(doc | {"null_provenance": rows})
        return dataclasses.replace(table, null_provenance=tuple(
            (K.from_tag(r["kind"]), Provenance.from_json_dict(r)) for r in rows
        ))

    # missing, foreign and repeated statistics
    for bad in (rows[:1], [rows[0], dict(rows[1], kind="Wstar")], [], rows + [rows[0]]):
        with pytest.raises(DataValidationError, match="null provenance"):
            rebuilt(bad)
    # row order is free
    assert rebuilt(rows[::-1]).null_provenance[0][0] is K.J


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


def test_statistic_tags_act_as_their_members():
    # a wire tag such as "PA" is coerced at every entry point, so each call
    # gives with the tag exactly what it gives with the member
    for kind in K:
        assert statistic_range(kind.value, 3, 3) == statistic_range(kind, 3, 3)
        assert is_lower_tail(kind.value) == is_lower_tail(kind)
        assert exact_null_distribution(kind.value, 2, 2) == exact_null_distribution(kind, 2, 2)
    member = exact_null_distribution(K.WSTAR, 2, 2)
    tagged = exact_null_distribution("Wstar", 2, 2)
    assert tagged == member and tagged.kind is K.WSTAR and tagged.tail == "lower"
    assert critical_value(tagged, "0.1") == critical_value(member, "0.1")
    pa = exact_null_distribution(K.PA, 2, 2)
    rebuilt = NullDistribution("PA", 2, 2, pa.support, pa.probs, pa.provenance)
    assert rebuilt == pa and rebuilt.kind is K.PA
    sample = make_sample([[0.1, 0.4], [0.3, 0.2]])
    assert run_test(sample, "Wstar", tagged, "0.2") == run_test(sample, K.WSTAR, member, "0.2")
    mc = mc_null_distributions(["J", K.PA], 2, 3, 500, seed=1)
    assert list(mc) == [K.J, K.PA] and all(type(kind) is K for kind in mc)
    assert mc == mc_null_distributions([K.J, K.PA], 2, 3, 500, seed=1)
    nulls = null_distributions_for(["PA"], 2, 2)
    assert list(nulls) == [K.PA] and type(next(iter(nulls))) is K
    assert nulls == null_distributions_for([K.PA], 2, 2)
    table = estimate_power(small_study(kinds=(K.PA, K.J), reps=200))
    assert table.cell("PA", 0.5) == table.cell(K.PA, 0.5)
    report = compare_tests([table])
    assert report.verdict("PA", "J") == report.verdict(K.PA, K.J)
