"""Imperfect-ranking generators and their marginal distributions."""

from __future__ import annotations

import hashlib
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from rsstest import (
    DataValidationError,
    GeneratorConfig,
    ImperfectModel,
    StatisticKind,
    draw_cells,
    generate,
    marginal_cdf,
    slot_density,
    substream,
)
from rsstest import batch, models
from rsstest.batch import evaluate_batch
from rsstest.models import _tied_rows

K = StatisticKind

# asymptotic 1% Kolmogorov-Smirnov critical value scale
KS_CRIT_1PCT = 1.628


def ks_distance(samples: np.ndarray, cdf) -> float:
    x = np.sort(samples)
    n = len(x)
    f = np.array([cdf(v) for v in x])
    upper = np.max(np.arange(1, n + 1) / n - f)
    lower = np.max(f - np.arange(0, n) / n)
    return max(upper, lower)


# ---------------------------------------------------------------------------
# descriptors and validation
# ---------------------------------------------------------------------------


def test_model_parse_round_trip():
    for text in ["perfect", "concomitant:0.8", "random:0.5", "inverse:1", "neighbor:0.25"]:
        model = ImperfectModel.parse(text)
        assert ImperfectModel.parse(model.describe()) == model


def test_model_domain_validation():
    with pytest.raises(DataValidationError):
        ImperfectModel("concomitant", 1.5)
    with pytest.raises(DataValidationError):
        ImperfectModel("random", -0.1)
    with pytest.raises(DataValidationError):
        ImperfectModel("neighbor", 1.01)
    with pytest.raises(DataValidationError, match="unknown model"):
        ImperfectModel("swapped", 0.5)
    for lam in ("abc", None, [0.5]):
        with pytest.raises(DataValidationError, match="bad model parameter"):
            ImperfectModel("neighbor", lam)
    assert ImperfectModel("concomitant", -0.5).lam == -0.5


def test_model_parse_errors():
    with pytest.raises(DataValidationError, match="needs a parameter"):
        ImperfectModel.parse("random")
    with pytest.raises(DataValidationError, match="bad model parameter"):
        ImperfectModel.parse("random:x")


def test_perfect_ignores_parameter():
    assert ImperfectModel("perfect", 0.7).lam == 0.0


@pytest.mark.parametrize(
    "field,value", [("k", 3.0), ("n", np.int64(2)), ("n", True), ("seed", 1.5), ("seed", "7")]
)
def test_generator_config_refuses_non_int_fields(field, value):
    fields = {"k": 3, "n": 2, "seed": None, field: value}
    with pytest.raises(DataValidationError, match=f"generator {field} must be an integer"):
        GeneratorConfig(model=ImperfectModel("neighbor", 0.5), **fields)


def test_generator_config_population_rules():
    cfg = GeneratorConfig(k=3, n=2, model=ImperfectModel("random", 0.5))
    assert cfg.population == "uniform"
    cfg = GeneratorConfig(k=3, n=2, model=ImperfectModel("concomitant", 0.5))
    assert cfg.population == "normal"
    with pytest.raises(DataValidationError, match="normal"):
        GeneratorConfig(k=3, n=2, model=ImperfectModel("concomitant", 0.5), population="uniform")


# ---------------------------------------------------------------------------
# generation basics
# ---------------------------------------------------------------------------


def test_generate_deterministic_per_seed():
    cfg = GeneratorConfig(k=3, n=2, model=ImperfectModel("neighbor", 0.5), seed=42)
    assert generate(cfg) == generate(cfg)
    other = GeneratorConfig(k=3, n=2, model=ImperfectModel("neighbor", 0.5), seed=43)
    assert generate(other) != generate(cfg)


@pytest.mark.parametrize(
    "model",
    [
        ImperfectModel("perfect"),
        ImperfectModel("concomitant", 0.6),
        ImperfectModel("random", 0.4),
        ImperfectModel("inverse", 0.7),
        ImperfectModel("neighbor", 1.0),
    ],
)
def test_generate_shape_and_distinctness(model):
    pop = "normal" if model.tag == "concomitant" else "uniform"
    cells = draw_cells(model, pop, 4, 3, 100, substream(1, 0))
    assert cells.shape == (100, 4, 3)
    for row in cells:
        assert len(set(row.reshape(-1).tolist())) == 12


def test_inverse_full_flip_swaps_extremes():
    # inverse with parameter 1 at k=2: slot 1 becomes the set maximum
    cells = draw_cells(ImperfectModel("inverse", 1.0), "uniform", 2, 1, 100_000, substream(2, 0))
    se = math.sqrt(1 / 18 / 100_000)
    assert abs(cells[:, 0, 0].mean() - 2 / 3) <= 4 * se
    assert abs(cells[:, 1, 0].mean() - 1 / 3) <= 4 * se


# ---------------------------------------------------------------------------
# slot densities and marginal CDFs
# ---------------------------------------------------------------------------

FRACTION_MODELS = [ImperfectModel("perfect")] + [
    ImperfectModel(tag, lam)
    for tag in ("random", "inverse", "neighbor")
    for lam in (0.0, 0.3, 0.5, 0.75, 1.0)
]


def beta_coefficients(k, s):
    # Beta(s+1, k-s) density k!/(s! (k-1-s)!) t^s (1-t)^(k-1-s), expanded
    # by multiplying out (1-t) one factor at a time
    poly = [0] * s + [1]
    for _ in range(k - 1 - s):
        poly = [a - b for a, b in zip(poly + [0], [0] + poly)]
    const = math.factorial(k) // (math.factorial(s) * math.factorial(k - 1 - s))
    return [const * a for a in poly]


def test_perfect_slot_density_is_the_beta_expansion():
    for k in range(1, 11):
        for s in range(k):
            assert slot_density(ImperfectModel("perfect"), k, s) == (beta_coefficients(k, s), 1)


def test_slot_densities_integrate_to_one():
    for model in FRACTION_MODELS:
        for k in range(1, 9):
            for s in range(k):
                coeffs, scale = slot_density(model, k, s)
                assert all(isinstance(c, int) for c in coeffs), (model, k, s)
                assert sum(Fraction(c, e + 1) for e, c in enumerate(coeffs)) == scale, (model, k, s)


def test_slot_density_scale_reads_lambda_as_decimal():
    # neighbor:0.3 at k = 3, slot 1: .7 f_1 + .15 f_0 + .15 f_2, over 20
    coeffs, scale = slot_density(ImperfectModel("neighbor", 0.3), 3, 1)
    assert scale == 20
    f1, f0, f2 = (beta_coefficients(3, r) for r in (1, 0, 2))
    assert coeffs == [14 * a + 3 * b + 3 * c for a, b, c in zip(f1, f0, f2)]


def test_slot_density_neighbor_k2_is_inverse_at_half_rate():
    for lam in (0.2, 0.6, 0.8, 1.0):
        for s in (0, 1):
            a, sa = slot_density(ImperfectModel("neighbor", lam), 2, s)
            b, sb = slot_density(ImperfectModel("inverse", lam / 2), 2, s)
            assert [Fraction(c, sa) for c in a] == [Fraction(c, sb) for c in b], (lam, s)


def test_slot_density_refusals():
    with pytest.raises(ValueError, match="concomitant"):
        slot_density(ImperfectModel("concomitant", 0.5), 3, 0)
    for s in (-1, 3):
        with pytest.raises(ValueError, match="out of range"):
            slot_density(ImperfectModel("perfect"), 3, s)


def binomial_tail_cdf(k, i, p):
    # P(i-th smallest of k <= x) = P(at least i of k uniforms <= p), p = F(x)
    return sum(math.comb(k, m) * p**m * (1.0 - p) ** (k - m) for m in range(i, k + 1))


def test_marginal_perfect_matches_binomial_tail():
    for k in range(1, 11):
        for i in range(1, k + 1):
            for x in (0.0, 0.01, 0.1, 0.35, 0.5, 0.8, 0.99, 1.0):
                got = marginal_cdf(ImperfectModel("perfect"), k, i, x)
                assert abs(got - binomial_tail_cdf(k, i, x)) <= 1e-11, (k, i, x)


def test_marginal_perfect_and_lambda_zero_agree():
    for x in (0.1, 0.35, 0.8):
        base = marginal_cdf(ImperfectModel("perfect"), 3, 2, x)
        assert marginal_cdf(ImperfectModel("random", 0.0), 3, 2, x) == base
        assert marginal_cdf(ImperfectModel("inverse", 0.0), 3, 2, x) == base


def test_marginal_random_full_mixture_is_population():
    for x in (0.2, 0.5, 0.9):
        assert marginal_cdf(ImperfectModel("random", 1.0), 4, 2, x) == pytest.approx(x)


def test_marginal_hand_value():
    # uniform, k=2, slot 1, half random mixing at x = .5:
    # .5 * (1 - (1-.5)^2) + .5 * .5 = .625
    got = marginal_cdf(ImperfectModel("random", 0.5), 2, 1, 0.5)
    assert got == pytest.approx(0.625)


def test_marginal_concomitant_unsupported():
    with pytest.raises(ValueError, match="concomitant"):
        marginal_cdf(ImperfectModel("concomitant", 0.5), 3, 1, 0.0)


def test_marginal_refuses_unknown_population():
    with pytest.raises(DataValidationError, match="unknown population 'bogus'"):
        marginal_cdf(ImperfectModel("perfect"), 3, 1, 0.5, population="bogus")


def test_marginal_slot_out_of_range():
    with pytest.raises(ValueError):
        marginal_cdf(ImperfectModel("perfect"), 3, 4, 0.5)


def test_neighbor_k2_equals_inverse_at_half_rate():
    # at k=2 a neighbor substitution flips the slot with probability lam/2
    for i in (1, 2):
        for x in (0.15, 0.5, 0.85):
            a = marginal_cdf(ImperfectModel("neighbor", 0.6), 2, i, x)
            b = marginal_cdf(ImperfectModel("inverse", 0.3), 2, i, x)
            assert a == pytest.approx(b)


@pytest.mark.parametrize("tag,lam", [("random", 0.4), ("inverse", 0.6), ("neighbor", 0.8)])
def test_goodness_of_fit_to_marginals(tag, lam):
    k, n, reps = 4, 2, 50_000
    model = ImperfectModel(tag, lam)
    cells = draw_cells(model, "uniform", k, n, reps, substream(3, 0))
    for i in range(1, k + 1):
        draws = cells[:, i - 1, :].reshape(-1)  # cells are i.i.d. across cycles
        d = ks_distance(draws, lambda x: marginal_cdf(model, k, i, x))
        assert d < KS_CRIT_1PCT / math.sqrt(len(draws)), (tag, i, d)


def test_goodness_of_fit_normal_population():
    model = ImperfectModel("random", 0.5)
    cells = draw_cells(model, "normal", 3, 1, 50_000, substream(4, 0))
    d = ks_distance(
        cells[:, 1, 0], lambda x: marginal_cdf(model, 3, 2, x, population="normal")
    )
    assert d < KS_CRIT_1PCT / math.sqrt(50_000)


def test_concomitant_slot_means_and_pooled_marginal():
    # slot i's cell is lam * (i-th of k normals) + independent noise, so its
    # mean is lam * E[normal order statistic]; pooling the slots recovers
    # the standard normal population exactly.
    lam, reps = 0.7, 50_000
    cells = draw_cells(ImperfectModel("concomitant", lam), "normal", 3, 1, reps, substream(5, 0))
    os_mean = 3 / (2 * math.sqrt(math.pi))  # mean of the largest of 3 normals
    se = 4 / math.sqrt(reps)
    assert abs(cells[:, 0, 0].mean() - (-lam * os_mean)) <= se
    assert abs(cells[:, 1, 0].mean() - 0.0) <= se
    assert abs(cells[:, 2, 0].mean() - lam * os_mean) <= se
    phi = lambda x: 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))
    pooled = cells.reshape(-1)
    assert ks_distance(pooled, phi) < KS_CRIT_1PCT / math.sqrt(len(pooled))


# ---------------------------------------------------------------------------
# independence and model boundary behaviour
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "model",
    [ImperfectModel("perfect"), ImperfectModel("neighbor", 0.5), ImperfectModel("random", 0.3)],
)
def test_cells_pairwise_uncorrelated(model):
    reps = 100_000
    cells = draw_cells(model, "uniform", 3, 2, reps, substream(6, 0))
    flat = cells.reshape(reps, 6)
    corr = np.corrcoef(flat, rowvar=False)
    off = corr[~np.eye(6, dtype=bool)]
    assert np.abs(off).max() <= 4 / math.sqrt(reps)


def test_neighbor_k2_empirical_matches_inverse_half_rate():
    # draws from neighbor(lam) at k=2 follow the inverse(lam/2) marginal
    reps = 100_000
    cells = draw_cells(ImperfectModel("neighbor", 0.8), "uniform", 2, 1, reps, substream(11, 0))
    inverse = ImperfectModel("inverse", 0.4)
    for i in (1, 2):
        d = ks_distance(cells[:, i - 1, 0], lambda x: marginal_cdf(inverse, 2, i, x))
        assert d < KS_CRIT_1PCT / math.sqrt(reps)


def test_concomitant_perfect_correlation_matches_perfect_ranking():
    # lam = 1 ranks by the variable itself: same law as perfect ranking
    reps = 50_000
    perfect = draw_cells(ImperfectModel("perfect"), "normal", 3, 2, reps, substream(7, 0))
    conc = draw_cells(ImperfectModel("concomitant", 1.0), "normal", 3, 2, reps, substream(8, 0))
    sp = evaluate_batch(perfect, [K.PA])[K.PA]
    sc = evaluate_batch(conc, [K.PA])[K.PA]
    se = math.sqrt(sp.var() / reps + sc.var() / reps)
    assert abs(sp.mean() - sc.mean()) <= 4 * se


def test_concomitant_negated_correlation_is_negated_sample():
    # flipping the correlation sign is the same as negating every cell:
    # ranking by a companion of correlation -lam ranks -X by +lam.  (It is
    # NOT symmetric in the sign: negation reverses ranks, e.g. lam = -1
    # inverts every comparison instead of perfecting it.)
    reps = 50_000
    plus = draw_cells(ImperfectModel("concomitant", 0.5), "normal", 3, 2, reps, substream(9, 0))
    minus = draw_cells(ImperfectModel("concomitant", -0.5), "normal", 3, 2, reps, substream(10, 0))
    sp = evaluate_batch(-plus, [K.PA])[K.PA]
    sm = evaluate_batch(minus, [K.PA])[K.PA]
    se = math.sqrt(sp.var() / reps + sm.var() / reps)
    assert abs(sp.mean() - sm.mean()) <= 4 * se
    # and the asymmetry itself is real: +lam and -lam differ far beyond noise
    s_raw = evaluate_batch(plus, [K.PA])[K.PA]
    assert sm.mean() - s_raw.mean() > 10 * se

# ---------------------------------------------------------------------------
# pinned draw streams
# ---------------------------------------------------------------------------

# sha256 prefixes of a 64-replicate kx4 draw_cells block followed by the
# next rng.random(4), all from substream(5, 0).  Any change to what a model
# draws, in what order, or how much of the stream it consumes moves them.
# The perfect model ignores its parameter; inverse and neighbor coincide
# at lambda 0.  Every model is pinned at k = 3; the perfect model also at
# k = 1, 2, 4, 5, 6, 7, 10 and 12, where it selects its order statistics,
# and at k = 13, where it sorts; random, inverse and neighbor also at
# k = 4 and 10, where they select, and at k = 13; the concomitant model
# also at k = 4, 10 and 13.
DRAW_STREAM_PINS = {
    ("perfect", "uniform", 0.0, 3): "d0228d24ddfd2b1d",
    ("perfect", "normal", 0.0, 3): "23d2513623fd6535",
    ("concomitant", "normal", -0.5, 3): "09225716adf901d9",
    ("concomitant", "normal", 0.0, 3): "8eed55da232d40bb",
    ("concomitant", "normal", 0.5, 3): "2349ce09bfb0a80f",
    ("random", "uniform", 0.0, 3): "569d87c141ff4885",
    ("random", "uniform", 0.5, 3): "ab9fbcd3ebc51ce6",
    ("random", "uniform", 1.0, 3): "3260088b099484bc",
    ("random", "normal", 0.0, 3): "e284be00bd684bfb",
    ("random", "normal", 0.5, 3): "c64ddc38512aceb0",
    ("random", "normal", 1.0, 3): "1f4a5b7ba73c6b21",
    ("inverse", "uniform", 0.0, 3): "d8e83da7a20c795e",
    ("inverse", "uniform", 0.5, 3): "c139b915a149446e",
    ("inverse", "uniform", 1.0, 3): "eb0ff5c69ce864fb",
    ("inverse", "normal", 0.0, 3): "6961fbb33c76c33f",
    ("inverse", "normal", 0.5, 3): "7afb8d118eecd92e",
    ("inverse", "normal", 1.0, 3): "016aafaf5322dd97",
    ("neighbor", "uniform", 0.0, 3): "d8e83da7a20c795e",
    ("neighbor", "uniform", 0.5, 3): "8f8ed57e1b661228",
    ("neighbor", "uniform", 1.0, 3): "64cb397b23fedc49",
    ("neighbor", "normal", 0.0, 3): "6961fbb33c76c33f",
    ("neighbor", "normal", 0.5, 3): "922fe31a86d4ab61",
    ("neighbor", "normal", 1.0, 3): "75d24c498294dc22",
    ("perfect", "uniform", 0.0, 1): "8c8a956bda2143f2",
    ("perfect", "normal", 0.0, 1): "c2d7522770485f53",
    ("perfect", "uniform", 0.0, 2): "08b963c96231acb5",
    ("perfect", "normal", 0.0, 2): "a48604fcb035963c",
    ("perfect", "uniform", 0.0, 4): "b39df771ecbd0329",
    ("perfect", "normal", 0.0, 4): "c056ed0d58c368e0",
    ("perfect", "uniform", 0.0, 5): "f151299a39d51248",
    ("perfect", "normal", 0.0, 5): "2faaec222b302f6f",
    ("perfect", "uniform", 0.0, 6): "fb6b5ff6de67a51c",
    ("perfect", "normal", 0.0, 6): "462478f2fc2379eb",
    ("perfect", "uniform", 0.0, 7): "4f9f5f02344fbc35",
    ("perfect", "normal", 0.0, 7): "37c308407321cd00",
    ("perfect", "uniform", 0.0, 10): "c447f36ee2107ce6",
    ("perfect", "normal", 0.0, 10): "cf4d713f9391ab60",
    ("perfect", "uniform", 0.0, 12): "3960b207f8ccf7d5",
    ("perfect", "normal", 0.0, 12): "a974d995e2398df4",
    ("perfect", "uniform", 0.0, 13): "3cc621e0d99dcb3d",
    ("perfect", "normal", 0.0, 13): "4c3973d519854568",
    ("random", "uniform", 0.5, 4): "f049a1817b6bd44b",
    ("random", "uniform", 0.5, 10): "0e091f15d0c0d1a6",
    ("random", "uniform", 0.5, 13): "9e7989bec002629d",
    ("random", "normal", 0.5, 4): "a8951e5dd34dc72f",
    ("random", "normal", 0.5, 10): "4d153d33413bc72e",
    ("random", "normal", 0.5, 13): "0ce30dc14f00a6c7",
    ("inverse", "uniform", 0.5, 4): "6bee4820bfefbbb8",
    ("inverse", "uniform", 0.5, 10): "9dc0e2e5bbc73aed",
    ("inverse", "uniform", 0.5, 13): "38728d47b7be5327",
    ("inverse", "normal", 0.5, 4): "10541008755743b3",
    ("inverse", "normal", 0.5, 10): "9205b2604cd8b49f",
    ("inverse", "normal", 0.5, 13): "da2cd6ce69bca5ca",
    ("neighbor", "uniform", 0.5, 4): "bc1adf691ef0571d",
    ("neighbor", "uniform", 0.5, 10): "d06e49f6d53a119b",
    ("neighbor", "uniform", 0.5, 13): "7c6f6a5bdf46df96",
    ("neighbor", "normal", 0.5, 4): "fbdf2d5c9da857d9",
    ("neighbor", "normal", 0.5, 10): "7d6c6bc3cde62445",
    ("neighbor", "normal", 0.5, 13): "4701d45cc116b147",
    ("concomitant", "normal", 0.5, 4): "11470b607b6ac309",
    ("concomitant", "normal", 0.5, 10): "0cd4f8ddad04c147",
    ("concomitant", "normal", 0.5, 13): "9de121bc0764c0d8",
}


@pytest.mark.parametrize(
    "tag,population,lam,k",
    list(DRAW_STREAM_PINS),
    # the k = 3 rows keep the ids they had before k joined the key
    ids=[f"{t}-{p}-{lam}" + (f"-k{k}" if k != 3 else "") for t, p, lam, k in DRAW_STREAM_PINS],
)
def test_draw_streams_are_pinned(tag, population, lam, k):
    rng = substream(5, 0)
    cells = draw_cells(ImperfectModel(tag, lam), population, k, 4, 64, rng)
    digest = hashlib.sha256(cells.tobytes() + rng.random(4).tobytes()).hexdigest()
    assert digest[:16] == DRAW_STREAM_PINS[tag, population, lam, k]


def sorted_diagonal_draw(population, k, n, size, rng):
    """The perfect draw by definition: sort every comparison set, keep the
    i-th smallest of each slot-i set."""
    draw = rng.standard_normal if population == "normal" else rng.random
    sets = draw((size, k, n, k))
    sets.sort(axis=-1)
    return np.diagonal(sets, axis1=1, axis2=3).transpose(0, 2, 1)


@pytest.mark.parametrize("population", ["uniform", "normal"])
@pytest.mark.parametrize("k", range(1, models._SELECT_MAX_K + 2))
def test_perfect_draw_is_the_sorted_diagonal(k, population, monkeypatch):
    # bit for bit, on both sides of the selection rule (every k that
    # selects and the first that sorts), one replicate, the short last
    # chunk of 20000 and a full chunk; the stream must end in the same
    # place too, with no tie regeneration (which would redraw a block left
    # unfilled from where it should have been drawn).  The full chunk spans
    # several blocks and ends in a short one; where it would fit in one
    # block (k <= 2), blocks are cut to 3000 replicates.
    n = 10
    row_bytes = 8 * k * n * k
    monkeypatch.setattr(batch, "BLOCK_BYTES", min(batch.BLOCK_BYTES, 3000 * row_bytes))
    blocks = batch.replicate_blocks(8192, row_bytes)
    assert len(blocks) > 1 and blocks[-1].stop - blocks[-1].start < blocks[0].stop, k
    for size in (1, 3616, 8192):
        rng, oracle_rng = substream(k + size, 2), substream(k + size, 2)
        ties = models.tie_regeneration_count
        cells = draw_cells(ImperfectModel("perfect"), population, k, n, size, rng)
        assert models.tie_regeneration_count == ties, (k, population, size)
        want = sorted_diagonal_draw(population, k, n, size, oracle_rng)
        assert cells.tobytes() == want.tobytes(), (k, population, size)
        assert rng.random() == oracle_rng.random(), (k, population, size)


def whole_chunk_fraction_draw(model, population, k, n, size, rng):
    """A fraction model's draw by definition: sort every comparison set,
    read slot i, its mirror or a clamped neighbour as the mixing uniforms
    say, then swap in the random model's fresh draws."""
    draw = rng.standard_normal if population == "normal" else rng.random
    sets = draw((size, k, n, k))
    sets.sort(axis=-1)
    mix = rng.random((size, k, n))
    lam = model.lam
    idx = np.arange(k)[None, :, None]
    if model.tag == "inverse":
        idx = np.where(mix < lam, k - 1 - idx, idx)
    elif model.tag == "neighbor":
        step = np.where(mix < lam / 2, -1, np.where(mix < lam, 1, 0))
        idx = np.clip(idx + step, 0, k - 1)
    cells = np.take_along_axis(sets, idx[..., None], axis=-1)[..., 0]
    if model.tag == "random":
        fresh = (draw if lam > 0.0 else rng.random)((size, k, n))
        cells = np.where(mix < lam, fresh, cells)
    return cells


@pytest.mark.parametrize("population", ["uniform", "normal"])
@pytest.mark.parametrize("k", range(1, models._SELECT_MAX_K + 2))
@pytest.mark.parametrize("tag", ["random", "inverse", "neighbor"])
def test_fraction_draw_is_the_whole_chunk_draw(tag, k, population, monkeypatch):
    # bit for bit, as test_perfect_draw_is_the_sorted_diagonal checks the
    # perfect draw: both sides of the selection rule, blocks cut so that a
    # full chunk spans several and ends in a short one, the stream's end,
    # and no tie regeneration
    n = 10
    row_bytes = 8 * k * n * k
    monkeypatch.setattr(batch, "BLOCK_BYTES", min(batch.BLOCK_BYTES, 3000 * row_bytes))
    blocks = batch.replicate_blocks(8192, row_bytes)
    assert len(blocks) > 1 and blocks[-1].stop - blocks[-1].start < blocks[0].stop, k
    model = ImperfectModel(tag, 0.5)
    for size in (1, 3616, 8192):
        rng, oracle_rng = substream(k + size, 4), substream(k + size, 4)
        ties = models.tie_regeneration_count
        cells = draw_cells(model, population, k, n, size, rng)
        assert models.tie_regeneration_count == ties, (k, population, size)
        want = whole_chunk_fraction_draw(model, population, k, n, size, oracle_rng)
        assert cells.tobytes() == want.tobytes(), (k, population, size)
        assert rng.random() == oracle_rng.random(), (k, population, size)


def whole_chunk_concomitant_draw(lam, k, n, size, rng):
    """The concomitant draw by definition: all companions, then all noise,
    for the whole chunk; each cell is the primary value lam * companion +
    sqrt(1 - lam^2) * noise of the member whose companion ranks i-th."""
    companion = rng.standard_normal((size, k, n, k))
    noise = rng.standard_normal((size, k, n, k))
    primary = lam * companion + math.sqrt(1.0 - lam * lam) * noise
    slot = np.arange(k)[None, :, None, None]
    member = np.take_along_axis(np.argsort(companion, axis=-1), slot, axis=-1)
    return np.take_along_axis(primary, member, axis=-1)[..., 0]


@pytest.mark.parametrize("lam", [-0.5, 0.5, 1.0])
@pytest.mark.parametrize("k", [*range(1, 14), 17])
def test_concomitant_draw_is_the_whole_chunk_draw(k, lam, monkeypatch):
    # bit for bit, as the fraction models are checked above: blocks cut so
    # that a full chunk spans several and ends in a short one, the stream's
    # end, and no tie regeneration.  n shrinks with k so that the oracle's
    # four whole-chunk (size, k, n, k) arrays stay under about 100 MB.
    n = max(1, min(10, 240 // (k * k)))
    row_bytes = 8 * k * n * k
    monkeypatch.setattr(batch, "BLOCK_BYTES", min(batch.BLOCK_BYTES, 3000 * row_bytes))
    blocks = batch.replicate_blocks(8192, row_bytes)
    assert len(blocks) > 1 and blocks[-1].stop - blocks[-1].start < blocks[0].stop, k
    model = ImperfectModel("concomitant", lam)
    for size in (1, 3616, 8192):
        rng, oracle_rng = substream(k + size, 8), substream(k + size, 8)
        ties = models.tie_regeneration_count
        cells = draw_cells(model, "normal", k, n, size, rng)
        assert models.tie_regeneration_count == ties, (k, lam, size)
        want = whole_chunk_concomitant_draw(lam, k, n, size, oracle_rng)
        assert cells.tobytes() == want.tobytes(), (k, lam, size)
        assert rng.random() == oracle_rng.random(), (k, lam, size)


@pytest.mark.parametrize("k", range(1, models._SELECT_MAX_K + 2))
def test_selection_plan_outputs_are_order_statistics(k):
    # every output wire of a multi-output plan, run as the draw runs it,
    # holds its order statistic: on every 0-1 input (which settles any
    # comparator network) and on random doubles
    ones = (np.arange(2**k)[:, None] >> np.arange(k)) & 1
    inputs = np.concatenate([ones.astype(float), substream(k, 6).random((500, k))])
    want = np.sort(inputs, axis=1)
    output_sets = [tuple(range(k))] + [
        outputs
        for i in range(k)
        for outputs in ((i,), (i, k - 1 - i), (i, max(i - 1, 0), min(i + 1, k - 1)))
    ]
    for outputs in output_sets:
        wire = list(inputs.T.copy())
        for a, b, low, high in models._selection_plan(k, outputs):
            low_value, high_value = np.minimum(wire[a], wire[b]), np.maximum(wire[a], wire[b])
            if low:
                wire[a] = low_value
            if high:
                wire[b] = high_value
        for m in outputs:
            assert wire[m].tobytes() == want[:, m].tobytes(), (k, outputs, m)


def test_neighbor_wide_chunk_holds_a_bounded_working_set():
    # one neighbor:0.5 10x10 chunk peaks at about 27 MB: its three
    # candidate arrays, the mixing uniforms and one draw block.  Drawing
    # and sorting the whole chunk's comparison sets peaked at about 90 MB.
    tracemalloc.start()
    try:
        draw_cells(ImperfectModel("neighbor", 0.5), "uniform", 10, 10, 8192, substream(1, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 48e6, peak


def test_concomitant_wide_chunk_holds_a_bounded_working_set():
    # one concomitant:0.5 10x10 chunk peaks at about 23 MB: the cells, each
    # cell's member index and one draw block with its argsort.  Drawing
    # the whole chunk's companions and noise at once peaked at about 270 MB.
    tracemalloc.start()
    try:
        draw_cells(ImperfectModel("concomitant", 0.5), "normal", 10, 10, 8192, substream(1, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 48e6, peak


def test_tied_rows_finds_equal_cells_in_any_position():
    cells = np.arange(2.0 * 12).reshape(2, 3, 4)
    cells[1, 2, 3] = cells[1, 0, 0]
    assert _tied_rows(cells).tolist() == [False, True]
    assert _tied_rows(cells[:, :1, :1]).tolist() == [False, False]
