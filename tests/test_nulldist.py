"""Critical values, test decisions, Monte Carlo nulls and serialisation."""

from __future__ import annotations

import dataclasses
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import rsstest.mc
import rsstest.models
from rsstest import (
    ALL_KINDS,
    Decision,
    DataValidationError,
    DistributionMismatchError,
    ExactEngineCapError,
    GeneratorConfig,
    ImperfectModel,
    NullDistribution,
    NullSource,
    Provenance,
    StatisticKind,
    as_exact_probability,
    critical_value,
    evaluate,
    exact_distributions,
    exact_null_distribution,
    generate,
    mc_null_distribution,
    mc_null_distributions,
    null_distributions_for,
    run_test,
    substream,
)
from rsstest import batch
from rsstest.batch import evaluate_batch
from rsstest.mc import CHUNK_SIZE
from rsstest.models import draw_cells
from rsstest.streams import NULL_STREAM_BASE

from conftest import make_sample, random_sample

K = StatisticKind


def two_atom_dist():
    # N on a single cycle of two slots: support {0, 1}, equal mass
    return NullDistribution(
        kind=K.N_SUM,
        k=2,
        n=1,
        support=(0, 1),
        probs=(Fraction(1, 2), Fraction(1, 2)),
        provenance=Provenance("exact"),
    )


# ---------------------------------------------------------------------------
# probability plumbing
# ---------------------------------------------------------------------------


def test_as_exact_probability_float_means_decimal():
    assert as_exact_probability(0.05) == Fraction(1, 20)
    assert as_exact_probability("0.10") == Fraction(1, 10)
    assert as_exact_probability(Fraction(3, 7)) == Fraction(3, 7)
    with pytest.raises(ValueError):
        as_exact_probability(1.5)


def test_distribution_validation():
    with pytest.raises(ValueError, match="strictly increasing"):
        NullDistribution(K.N_SUM, 2, 1, (1, 0), (Fraction(1, 2), Fraction(1, 2)), Provenance("exact"))
    with pytest.raises(ValueError, match="sum"):
        NullDistribution(K.N_SUM, 2, 1, (0, 1), (Fraction(1, 2), Fraction(1, 3)), Provenance("exact"))
    with pytest.raises(ValueError, match="range"):
        NullDistribution(K.N_SUM, 2, 1, (0, 7), (Fraction(1, 2), Fraction(1, 2)), Provenance("exact"))
    positive = "^probabilities must be positive$"
    with pytest.raises(ValueError, match=positive):
        NullDistribution(K.N_SUM, 2, 1, (0, 1), (Fraction(0), Fraction(1)), Provenance("exact"))
    with pytest.raises(ValueError, match=positive):
        NullDistribution(K.N_SUM, 2, 1, (0, 1), (Fraction(-1, 2), Fraction(3, 2)), Provenance("exact"))
    near_one = (Fraction(1, 2), Fraction(1, 2) + Fraction(1, 10**30))
    with pytest.raises(ValueError, match="^probabilities must sum to exactly 1$"):
        NullDistribution(K.N_SUM, 2, 1, (0, 1), near_one, Provenance("exact"))


def test_provenance_validation():
    with pytest.raises(ValueError):
        Provenance("exact", seed=1)
    with pytest.raises(ValueError):
        Provenance("monte-carlo", seed=1)
    with pytest.raises(ValueError):
        Provenance("guesswork")



# ---------------------------------------------------------------------------
# critical values
# ---------------------------------------------------------------------------


def test_critical_value_published_cell():
    dist = exact_null_distribution(K.PA, 2, 2)
    crit = critical_value(dist, "0.05")
    assert crit.cv == 6
    assert crit.attained_level == Fraction(13, 315)
    assert crit.boundary == 4
    # gamma tops the test up to exactly alpha
    assert crit.attained_level + crit.gamma * dist.prob_of(4) == Fraction(1, 20)


def test_gamma_zero_at_attainable_level():
    dist = exact_null_distribution(K.PA, 2, 2)
    crit = critical_value(dist, Fraction(13, 315))
    assert crit.cv == 6 and crit.gamma == 0


def test_critical_value_sentinel_beyond_support():
    crit = critical_value(two_atom_dist(), "0.25")
    assert crit.cv == 2  # one past the maximum: outright rejection impossible
    assert crit.attained_level == 0
    assert crit.boundary == 1
    assert crit.gamma == Fraction(1, 2)


def test_critical_values_refuse_an_unknown_tail():
    from rsstest import CriticalValues

    with pytest.raises(DataValidationError, match="sideways"):
        CriticalValues(6, Fraction(0), Fraction(0), None, "sideways")
    assert CriticalValues(6, Fraction(0), Fraction(0), None, "lower").rejects(5)


def test_critical_value_alpha_one():
    crit = critical_value(two_atom_dist(), 1)
    assert crit.cv == 0 and crit.attained_level == 1 and crit.gamma == 0


def test_critical_value_lower_tail_mirror():
    dist = exact_null_distribution(K.WSTAR, 2, 2)
    crit = critical_value(dist, "0.05")
    assert dist.lower_tail(crit.cv) <= Fraction(1, 20)
    assert crit.boundary > crit.cv
    assert dist.lower_tail(crit.cv) + crit.gamma * dist.prob_of(crit.boundary) == Fraction(1, 20)


def oracle_critical_value(dist, level):
    """(cv, attained, gamma, boundary) straight from the randomized test's
    definition: cv is the least extreme support point whose tail mass stays
    within alpha (one step past the support when there is none), the
    boundary is the next support point inside, and gamma tops the size up
    to exactly alpha."""
    lower = dist.tail == "lower"
    tail = dist.lower_tail if lower else dist.upper_tail
    inside = [v for v in dist.support if tail(v) <= level]
    if inside:
        cv = max(inside) if lower else min(inside)
        attained = tail(cv)
    else:
        cv = dist.support[0] - 1 if lower else dist.support[-1] + 1
        attained = Fraction(0)
    nearer = [v for v in dist.support if (v > cv if lower else v < cv)]
    if not nearer:
        return cv, attained, Fraction(0), None
    boundary = min(nearer) if lower else max(nearer)
    return cv, attained, (level - attained) / dist.prob_of(boundary), boundary


def check_rejects_against_definition(dist, crit, want):
    """`crit.rejects` at every support point and one step past each end:
    outright rejection at or beyond cv with no uniform, the boundary atom
    too when the uniform sits just below gamma, and outright only when it
    equals gamma; the array call agrees with the scalar calls."""
    cv, _, gamma, boundary = want
    lower = dist.tail == "lower"
    points = [dist.support[0] - 1, *dist.support, dist.support[-1] + 1]
    just_below = float(np.nextafter(float(gamma), 0.0))
    for u in (None, just_below, float(gamma)):
        expected = []
        for t in points:
            beyond = t <= cv if lower else t >= cv
            randomized = u is not None and u < float(gamma) and t == boundary
            expected.append(beyond or randomized)
        scalar = [bool(crit.rejects(t, u)) for t in points]
        assert scalar == expected, (dist.kind, u)
        for dtype in (np.int64, object):
            ts = np.array(points, dtype=dtype)
            us = None if u is None else np.full(len(points), u)
            assert crit.rejects(ts, us).tolist() == scalar, (dist.kind, u, dtype)


SMALL_GRIDS = [(k, n) for k in range(1, 7) for n in range(1, 7) if k * n <= 6]


@pytest.mark.parametrize("k,n", SMALL_GRIDS)
def test_critical_value_matches_definition_at_every_atom(k, n):
    # alpha exactly at each cumulative tail mass, and just above it, for
    # every statistic (upper tails and Wstar's lower tail)
    for kind in ALL_KINDS:
        dist = exact_null_distribution(kind, k, n)
        order = dist.probs if dist.tail == "lower" else dist.probs[::-1]
        step = min(dist.probs) / 2
        cumulative = Fraction(0)
        for p in order:
            cumulative += p
            for level in (cumulative, cumulative + step):
                if level > 1:
                    continue
                crit = critical_value(dist, level)
                want = oracle_critical_value(dist, level)
                got = (crit.cv, crit.attained_level, crit.gamma, crit.boundary)
                assert got == want, (kind, k, n, level)
                assert crit.tail == dist.tail
                check_rejects_against_definition(dist, crit, want)


def test_upper_and_lower_tails():
    dist = exact_null_distribution(K.PA, 2, 2)
    assert dist.upper_tail(0) == 1
    assert dist.lower_tail(8) == 1
    assert dist.upper_tail(9) == 0
    assert dist.prob_of(5) == 0


# ---------------------------------------------------------------------------
# run_test
# ---------------------------------------------------------------------------


def test_run_test_nested_sample_accepts():
    s = make_sample([[1, 2], [4, 3]])
    result = run_test(s, K.PA, exact_null_distribution(K.PA, 2, 2), "0.05")
    assert result.observed == 0
    assert result.p_value == 1
    assert result.decision is Decision.ACCEPT
    assert not result.is_rejection


def test_run_test_published_rejection():
    # [[5,2],[4,3]] recombines to PA=4... use a fully inverted sample for 6+
    s = make_sample([[5, 6], [1, 2]])
    assert evaluate(s, K.PA) == 8
    result = run_test(s, K.PA, exact_null_distribution(K.PA, 2, 2), "0.05")
    assert result.decision is Decision.REJECT
    assert result.critical_value == 6
    assert result.attained_level == Fraction(13, 315)
    assert result.p_value == Fraction(1, 70)  # P(PA = 8)


def test_run_test_wstar_direction():
    s = make_sample([[5, 6], [1, 2]])
    dist = exact_null_distribution(K.WSTAR, 2, 2)
    result = run_test(s, K.WSTAR, dist, "0.05")
    assert result.tail == "lower"
    assert result.p_value == dist.lower_tail(result.observed)


def test_run_test_mismatch():
    s = make_sample([[1, 2], [4, 3]])
    with pytest.raises(DistributionMismatchError):
        run_test(s, K.PA, exact_null_distribution(K.PA, 2, 3), "0.05")
    with pytest.raises(DistributionMismatchError):
        run_test(s, K.PN, exact_null_distribution(K.PA, 2, 2), "0.05")


def test_run_test_randomized_needs_rng():
    s = make_sample([[1, 2], [4, 3]])
    with pytest.raises(ValueError, match="rng"):
        run_test(s, K.PA, exact_null_distribution(K.PA, 2, 2), "0.05", randomized=True)


def test_run_test_randomized_boundary():
    # observed sits exactly on the boundary atom (PA = 4)
    s = make_sample([[5, 2], [4, 3]])
    dist = exact_null_distribution(K.PA, 2, 2)
    decisions = set()
    for sub in range(200):
        result = run_test(s, K.PA, dist, "0.05", randomized=True, rng=substream(1, sub))
        decisions.add(result.decision)
    assert decisions == {Decision.ACCEPT, Decision.REJECT_RANDOMIZED}
    # non-randomized never rejects there
    plain = run_test(s, K.PA, dist, "0.05")
    assert plain.decision is Decision.ACCEPT


def test_randomized_test_has_exact_size():
    # empirical size of the randomized PA test at alpha = .05, exact null
    reps = 100_000
    dist = exact_null_distribution(K.PA, 2, 2)
    crit = critical_value(dist, "0.05")
    rng = substream(99, 0)
    cells = draw_cells(ImperfectModel("perfect"), "uniform", 2, 2, reps, rng)
    u = rng.random(reps)
    t = evaluate_batch(cells, [K.PA])[K.PA]
    reject = (t >= crit.cv) | ((t == crit.boundary) & (u < float(crit.gamma)))
    rate = reject.mean()
    assert abs(rate - 0.05) <= 4 * math.sqrt(0.05 * 0.95 / reps)


# ---------------------------------------------------------------------------
# null-sample simulation and Monte Carlo engine
# ---------------------------------------------------------------------------


def test_simulate_null_sample_deterministic():
    cfg = GeneratorConfig(3, 2, ImperfectModel("perfect"))
    assert generate(cfg, substream(5, 0)) == generate(cfg, substream(5, 0))


def test_simulate_null_sample_single_slot_uniform():
    # k = 1: each cell is just a uniform draw
    s = generate(GeneratorConfig(1, 50, ImperfectModel("perfect")), substream(5, 0))
    assert s.k == 1 and s.n == 50
    assert all(0 <= v <= 1 for v in s.row(1))


def test_top_slot_mean_matches_order_statistic():
    # for k=2 the top slot is the max of two uniforms: mean 2/3
    reps = 100_000
    cells = draw_cells(ImperfectModel("perfect"), "uniform", 2, 1, reps, substream(7, 0))
    top = cells[:, 1, 0]
    se = math.sqrt(1 / 18 / reps)  # Var Beta(2,1) = 1/18
    assert abs(top.mean() - 2 / 3) <= 3 * se


def test_mc_single_replicate_is_single_atom():
    dist = mc_null_distribution(K.PA, 2, 2, reps=1, seed=3)
    assert len(dist.support) == 1
    assert dist.probs == (Fraction(1, 1),)


def test_mc_deterministic_and_thread_independent():
    a = mc_null_distribution(K.A_SUM, 3, 3, 20_000, seed=12)
    b = mc_null_distribution(K.A_SUM, 3, 3, 20_000, seed=12)
    c = mc_null_distribution(K.A_SUM, 3, 3, 20_000, seed=12, threads=3)
    assert a == b == c
    d = mc_null_distribution(K.A_SUM, 3, 3, 20_000, seed=13)
    assert d != a


PUBLISHED_PA_CVS = {
    (2, 2): (6, 4),
    (3, 2): (20, 18, 16),
    (4, 2): (54, 52, 50, 48),
    (2, 3): (12, 10, 8),
    (2, 4): (16, 14, 12),
}


def test_mc_agrees_with_exact_all_kinds():
    # 4-sigma agreement of MC tails with exact tails, for every statistic at
    # its own critical values and for PA at the published ones, on every
    # grid the exact engine covers by default
    reps = 100_000
    for (k, n), pa_cvs in PUBLISHED_PA_CVS.items():
        exact = exact_distributions(k, n)
        mc = mc_null_distributions(ALL_KINDS, k, n, reps, seed=31)

        def exact_tail(kind, cv):
            keep = (lambda v: v <= cv) if kind is K.WSTAR else (lambda v: v >= cv)
            return sum((p for v, p in exact[kind].items() if keep(v)), Fraction(0))

        for kind in ALL_KINDS:
            cvs = list(pa_cvs) if kind is K.PA else []
            for alpha in ("0.05", "0.10"):
                cvs.append(critical_value(exact_null_distribution(kind, k, n), alpha).cv)
            for cv in cvs:
                want = float(exact_tail(kind, cv))
                got = mc[kind].lower_tail(cv) if kind is K.WSTAR else mc[kind].upper_tail(cv)
                se = math.sqrt(want * (1 - want) / reps) or 1e-9
                assert abs(float(got) - want) <= 4 * se, (k, n, kind, cv)


def test_mc_distribution_free_under_monotone_transform(monkeypatch):
    # transforming every simulated sample leaves the distributions identical
    kinds = (K.PA, K.N_SUM, K.WSTAR)
    plain = mc_null_distributions(kinds, 3, 2, 20_000, seed=4)
    blocks = rsstest.mc.perfect_blocks
    monkeypatch.setattr(
        rsstest.mc, "perfect_blocks", lambda *args: (2.0 * cells for cells in blocks(*args))
    )
    scaled = mc_null_distributions(kinds, 3, 2, 20_000, seed=4)
    for kind in kinds:
        assert plain[kind].support == scaled[kind].support
        assert plain[kind].probs == scaled[kind].probs


def test_mc_null_draws_only_the_replicates_it_keeps(monkeypatch):
    # a short last chunk draws `take` samples, not a full CHUNK_SIZE, and
    # every chunk evaluates exactly the replicates it draws
    sizes, rows = [], []
    blocks = rsstest.mc.perfect_blocks

    def recording_blocks(k, n, size, rng):
        sizes.append(size)
        rows.append(0)
        for cells in blocks(k, n, size, rng):
            rows[-1] += len(cells)
            yield cells

    monkeypatch.setattr(rsstest.mc, "perfect_blocks", recording_blocks)
    mc_null_distributions((K.PA,), 3, 3, 2 * CHUNK_SIZE + 5, seed=1)
    assert sizes == rows == [CHUNK_SIZE, CHUNK_SIZE, 5]


def whole_chunk_null(kinds, k, n, reps, seed):
    """A seeded Monte Carlo null as one whole-chunk draw and one kernel call
    per chunk: each chunk's `draw_cells`, `evaluate_batch` over all its
    replicates, and `np.unique` counts, summed over the chunks."""
    counts = {kind: {} for kind in kinds}
    for c in range(-(-reps // CHUNK_SIZE)):
        take = min(CHUNK_SIZE, reps - c * CHUNK_SIZE)
        rng = substream(seed, NULL_STREAM_BASE + c)
        cells = draw_cells(ImperfectModel("perfect"), "uniform", k, n, take, rng)
        for kind, values in evaluate_batch(cells, kinds).items():
            for v, f in zip(*(a.tolist() for a in np.unique(values, return_counts=True))):
                counts[kind][v] = counts[kind].get(v, 0) + f
    return {
        kind: (tuple(sorted(c)), tuple(Fraction(c[v], reps) for v in sorted(c)))
        for kind, c in counts.items()
    }


real_tied_rows = rsstest.models._tied_rows


def flag_value_rows(cells):
    """Real ties, plus every replicate whose first cell's fourth to sixth
    decimals fall below 20: about 2% of replicates, chosen by value, so
    the blocked and the whole-chunk draws flag the same ones."""
    return real_tied_rows(cells) | ((cells[:, 0, 0] * 1e6) % 1000 < 20)


# (k, n): 3x3 fits a chunk in one draw block; 6x4, 7x3 and 4x16 gather
# from share tables over several blocks (4x16's chunk is four whole
# blocks); 4x5 gathers too; 6x10 and 10x10 fold; 13x3 sorts its blocks
BLOCKED_NULL_GRIDS = [(3, 3), (4, 5), (6, 4), (7, 3), (4, 16), (6, 10), (10, 10), (13, 3)]


@pytest.mark.parametrize("k,n", BLOCKED_NULL_GRIDS)
def test_blocked_null_is_the_whole_chunk_null(k, n, monkeypatch):
    # bit for bit, on 1 and 2 threads, with reps ending in a short chunk
    # that itself ends in a short draw block; then again with about 2% of
    # replicates flagged as tied, which the blocked null leaves out of
    # their blocks and replaces after the chunk's last block.  The tie
    # counts are compared on one thread, where the module-global counter
    # takes no concurrent updates.
    rows = batch.replicate_blocks(CHUNK_SIZE, 8 * k * n * k)[0].stop
    reps = CHUNK_SIZE + (rows + 7 if rows < CHUNK_SIZE else 1007)
    assert (reps - CHUNK_SIZE) % rows, (k, n)
    for forced in (False, True):
        if forced:
            monkeypatch.setattr(rsstest.models, "_tied_rows", flag_value_rows)
        ties = rsstest.models.tie_regeneration_count
        want = whole_chunk_null(ALL_KINDS, k, n, reps, seed=k + n)
        oracle_ties = rsstest.models.tie_regeneration_count - ties
        assert (oracle_ties > 0) == forced, (k, n, oracle_ties)
        for threads in (1, 2):
            ties = rsstest.models.tie_regeneration_count
            got = mc_null_distributions(ALL_KINDS, k, n, reps, seed=k + n, threads=threads)
            if threads == 1:
                assert rsstest.models.tie_regeneration_count - ties == oracle_ties, (k, n)
            for kind in ALL_KINDS:
                assert (got[kind].support, got[kind].probs) == want[kind], (k, n, kind, forced)


def test_mc_null_chunk_holds_a_bounded_working_set():
    # one 8192-replicate 10x10 null chunk of all eleven kinds peaks at
    # about 8 MB: one draw block and its kernel call, plus the chunk's
    # statistic values.  Drawing the whole chunk's cells and evaluating
    # them in one call peaked at about 31 MB.
    mc_null_distributions(ALL_KINDS, 10, 10, 16, seed=1)  # plans and caches
    tracemalloc.start()
    try:
        mc_null_distributions(ALL_KINDS, 10, 10, CHUNK_SIZE, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12e6, peak


def record_kernel_paths(monkeypatch) -> list[str]:
    """The kernel's table-or-fold choices from here on, one per call."""
    calls = []

    def recording(name, fn):
        def totals(*args):
            calls.append(name)
            return fn(*args)

        return totals

    for name in ("table", "fold"):
        attr = f"_{name}_totals"
        monkeypatch.setattr(batch, attr, recording(name, getattr(batch, attr)))
    return calls


@pytest.mark.parametrize(
    "k,n,path",
    [(7, 3, "table"), (6, 4, "table"), (4, 16, "table"), (8, 3, "fold"), (6, 10, "fold")],
)
def test_full_null_chunk_takes_the_grids_path(k, n, path, monkeypatch):
    # the table-or-fold choice reads the grid alone, so every draw block
    # of a full chunk takes the path a whole-chunk call would
    calls = record_kernel_paths(monkeypatch)
    mc_null_distributions((K.J, K.PA), k, n, CHUNK_SIZE, seed=1)
    assert len(calls) > 1 and set(calls) == {path}, (k, n, calls)


@pytest.mark.parametrize("n,path", [(511, "table"), (512, "fold"), (2000, "fold")])
def test_one_sample_builds_no_table_beyond_a_block(n, path, monkeypatch):
    # a k = 2 table has 2 (n+1)^2 entries, which a full chunk's cells
    # outnumber up to n = 8191; past n = 511 it would outgrow one block
    # (312 MB of peak RSS for J and PA of one 2x2000 sample), so the
    # kernel folds whatever the batch
    calls = record_kernel_paths(monkeypatch)
    evaluate(random_sample(np.random.default_rng(n), 2, n), K.PA)
    assert calls == [path]


def test_k2_equivalent_statistics_decide_identically():
    # PN, PA, PS (and J; Wstar flipped) decide identically for k = 2
    n = 3
    kinds = (K.PN, K.PA, K.PS, K.J, K.WSTAR)
    dists = {kd: exact_null_distribution(kd, 2, n) for kd in kinds}
    rng = substream(17, 0)
    for _ in range(100):
        s = random_sample(rng, 2, n)
        u = rng.random()
        outcomes = []
        for kd in kinds:
            crit = critical_value(dists[kd], "0.05")
            t = evaluate(s, kd)
            if kd is K.WSTAR:
                reject = t <= crit.cv or (t == crit.boundary and u < float(crit.gamma))
            else:
                reject = t >= crit.cv or (t == crit.boundary and u < float(crit.gamma))
            outcomes.append(reject)
        assert len(set(outcomes)) == 1


# ---------------------------------------------------------------------------
# null-source resolution
# ---------------------------------------------------------------------------


def test_null_source_is_exact_policy():
    assert NullSource("auto", exact_cells_cap=8).is_exact(2, 4)
    assert not NullSource("auto", exact_cells_cap=8).is_exact(3, 3)
    assert NullSource("auto", exact_cells_cap=9).is_exact(3, 3)
    assert NullSource("exact", exact_cells_cap=8).is_exact(2, 2)
    assert not NullSource("monte-carlo", exact_cells_cap=8).is_exact(2, 2)
    with pytest.raises(ExactEngineCapError, match="cap"):
        NullSource("exact", exact_cells_cap=8).is_exact(3, 3)
    with pytest.raises(DataValidationError, match="null method"):
        NullSource("mc")


def test_null_distributions_for_routes_and_keeps_request_order():
    kinds = [K.WSTAR, K.PA, K.J, K.PA]
    exact = null_distributions_for(kinds, 2, 2)
    assert list(exact) == [K.WSTAR, K.PA, K.J]
    assert exact[K.PA] == exact_null_distribution(K.PA, 2, 2)
    mc = null_distributions_for(kinds, 2, 2, NullSource("monte-carlo", reps=2000), seed=5)
    assert list(mc) == [K.WSTAR, K.PA, K.J]
    assert mc[K.PA] == mc_null_distribution(K.PA, 2, 2, 2000, seed=5)
    # the source's own seed wins over the caller's
    own = null_distributions_for(kinds, 2, 2, NullSource("monte-carlo", 2000, seed=5), seed=6)
    assert own == mc
    with pytest.raises(ValueError, match="seed"):
        null_distributions_for(kinds, 3, 3)


# ---------------------------------------------------------------------------
# serialisation
# ---------------------------------------------------------------------------


def test_nulldist_json_round_trip_exact():
    dist = exact_null_distribution(K.PA, 2, 2)
    assert NullDistribution.from_json(dist.to_json()) == dist


def test_nulldist_json_round_trip_mc():
    dist = mc_null_distribution(K.WSTAR, 3, 2, 5_000, seed=8)
    assert NullDistribution.from_json(dist.to_json()) == dist


def test_test_result_json_round_trip():
    from rsstest import TestResult

    s = make_sample([[5, 6], [1, 2]])
    result = run_test(s, K.PA, exact_null_distribution(K.PA, 2, 2), "0.05")
    assert TestResult.from_json(result.to_json()) == result


ROUTES = ("reload", "construct")


def rebuilt(route: str, result, **fields):
    """`result` with fields replaced by JSON values, rebuilt by reloading its
    edited JSON ("reload") or by `dataclasses.replace` ("construct")."""
    from rsstest import TestResult

    if route == "reload":
        return TestResult.from_json_dict(result.to_json_dict() | fields)
    parse = {"decision": Decision} | dict.fromkeys(
        ("p_value", "alpha", "attained_level", "gamma"), Fraction
    )
    return dataclasses.replace(
        result, **{key: parse.get(key, lambda v: v)(value) for key, value in fields.items()}
    )


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize(
    "field,bad", [("seed", 2.5), ("seed", True), ("reps", 2000.7), ("reps", True)]
)
def test_provenance_refuses_a_seed_or_reps_that_is_no_integer(route, field, bad):
    dist = mc_null_distribution(K.PA, 2, 2, 100, seed=3)
    with pytest.raises(DataValidationError, match="integers"):
        if route == "reload":
            doc = dist.to_json_dict()
            doc["provenance"][field] = bad
            NullDistribution.from_json_dict(doc)
        else:
            dataclasses.replace(dist.provenance, **{field: bad})


@pytest.mark.parametrize("route", ROUTES)
def test_test_result_reload_refuses_inconsistent_fields(route):
    # tail follows from the kind and randomized must be a JSON boolean;
    # a reload that contradicts either is refused, and JSON is unchanged.
    # tail is no field, so a direct construction can only get randomized wrong
    from rsstest import TestResult

    s = make_sample([[5, 6], [1, 2]])
    result = run_test(s, K.WSTAR, exact_null_distribution(K.WSTAR, 2, 2), "0.05")
    assert result.tail == "lower"
    text = result.to_json()
    assert TestResult.from_json(text).to_json() == text
    cases = [("randomized", "false"), ("randomized", 0)]
    if route == "reload":
        cases += [("tail", "upper"), ("tail", "sideways")]
    for key, bad in cases:
        with pytest.raises(DataValidationError, match=key):
            rebuilt(route, result, **{key: bad})


@pytest.mark.parametrize("route", ROUTES)
def test_test_result_reload_refuses_a_decision_its_fields_do_not_give(route):
    # PA on 2x2 at alpha 0.05: cv 6, boundary 4; a run_test result edited to
    # claim a randomized rejection it could not have made is refused
    dist = exact_null_distribution(K.PA, 2, 2)
    nested = run_test(make_sample([[1, 2], [4, 3]]), K.PA, dist, "0.05")
    assert (nested.observed, nested.critical_value, nested.boundary) == (0, 6, 4)
    for decision in ("rejectWithProbabilityGamma", "reject"):
        with pytest.raises(DataValidationError, match="decision"):
            rebuilt(route, nested, decision=decision)
    # an outright rejection can only be reported as one
    inverted = run_test(make_sample([[5, 6], [1, 2]]), K.PA, dist, "0.05")
    assert inverted.decision is Decision.REJECT
    for decision in ("acceptNull", "rejectWithProbabilityGamma"):
        with pytest.raises(DataValidationError, match="decision"):
            rebuilt(route, inverted, decision=decision)
    # on the boundary atom a randomized test may go either way, a plain one
    # only accepts; a boundary without gamma never randomizes
    boundary = run_test(make_sample([[5, 2], [4, 3]]), K.PA, dist, "0.05")
    assert (boundary.observed, boundary.decision) == (4, Decision.ACCEPT)
    for decision in ("acceptNull", "rejectWithProbabilityGamma"):
        again = rebuilt(route, boundary, randomized=True, decision=decision)
        assert again.decision.value == decision
    for fields in (
        {"decision": "rejectWithProbabilityGamma"},
        {"randomized": True, "decision": "rejectWithProbabilityGamma", "gamma": "0/1"},
        {"randomized": True, "decision": "reject"},
    ):
        with pytest.raises(DataValidationError, match="decision"):
            rebuilt(route, boundary, **fields)
    # the lower tail mirrors it: Wstar rejects at or below its cv
    wstar = run_test(
        make_sample([[5, 6], [1, 2]]), K.WSTAR, exact_null_distribution(K.WSTAR, 2, 2), "0.05"
    )
    assert wstar.observed <= wstar.critical_value and wstar.decision is Decision.REJECT
    with pytest.raises(DataValidationError, match="decision"):
        rebuilt(route, wstar, decision="acceptNull")


@pytest.mark.parametrize("route", ROUTES)
def test_test_result_coerces_or_refuses_kind_and_decision(route):
    from rsstest import TestResult

    result = run_test(
        make_sample([[1, 2], [4, 3]]), K.PA, exact_null_distribution(K.PA, 2, 2), "0.05"
    )
    assert result.decision is Decision.ACCEPT

    def edit(**fields):
        if route == "reload":
            return TestResult.from_json_dict(result.to_json_dict() | fields)
        return dataclasses.replace(result, **fields)

    # a plain string names its member, and the result serialises as before
    same = edit(kind="PA", decision="acceptNull")
    assert (same.kind, same.decision) == (K.PA, Decision.ACCEPT)
    assert same.to_json() == result.to_json()
    for fields, match in (
        ({"decision": "accept"}, "Decision"),
        ({"decision": None}, "Decision"),
        ({"kind": "PB"}, "statistic"),
        ({"kind": 7}, "statistic"),
    ):
        with pytest.raises(DataValidationError, match=match):
            edit(**fields)


@pytest.mark.parametrize("route", ROUTES)
def test_test_result_refuses_numbers_no_test_can_produce(route):
    # PA on 2x2 ranges over 0..8; without the range checks each edit of this
    # accepting result would still decide acceptNull
    nested = run_test(
        make_sample([[1, 2], [4, 3]]), K.PA, exact_null_distribution(K.PA, 2, 2), "0.05"
    )
    assert nested.gamma > 0 and nested.decision is Decision.ACCEPT
    for fields, match in (
        ({"gamma": "3/2"}, "gamma"),
        ({"gamma": "1/1"}, "gamma"),
        ({"gamma": "-1/4"}, "gamma"),
        ({"boundary": None}, "boundary"),
        ({"attained_level": "-1/8"}, "attained level"),
        ({"attained_level": "5/1"}, "attained level"),
        ({"alpha": "0/1"}, "alpha"),
        ({"alpha": "3/2"}, "alpha"),
        ({"p_value": "2"}, "p-value"),
        ({"p_value": "-1/2"}, "p-value"),
        ({"observed": -50}, "range"),
        ({"observed": 9}, "range"),
    ):
        with pytest.raises(DataValidationError, match=match):
            rebuilt(route, nested, **fields)
    assert rebuilt(route, nested, alpha="1/1", observed=2).observed == 2
