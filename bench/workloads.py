"""The four benchmark workloads: inputs, timed section and output checks.

Each workload builds its inputs from the seed in `setup`, does its timed
work in `run`, and verifies the outputs in `check`.  `digest` condenses
the outputs so that passes of a run, traced or not, can be compared with
the one pass that ran the full checks.  Library calls go through module
attributes (`nulldist.critical_value`, not a name imported here) so that
the tracing wrappers see them too.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

import rsstest
from tracing import exact_words
from rsstest import batch, mc, models, nulldist, power, statistics, streams
from rsstest.statistics import ALL_KINDS, StatisticKind as K

BENCH_DIR = Path(__file__).resolve().parent
REFS_PATH = BENCH_DIR / "refs.json"
ALPHAS = ("0.05", "0.10")
PROBE_STREAM = 7 << 32  # stream index unused by the package's own engines


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def pmf_text(dist) -> str:
    """Canonical text of a null distribution's support and probabilities."""
    return ";".join(
        f"{v}:{p.numerator}/{p.denominator}" for v, p in zip(dist.support, dist.probs)
    )


def crit_text(crit) -> str:
    return f"{crit.cv}|{crit.attained_level}|{crit.gamma}|{crit.boundary}"


def oracle_critical_value(dist, alpha: Fraction) -> tuple:
    """(cv, attained, gamma, boundary) of the randomized test, from its definition.

    Reject outright at or beyond cv, where cv is the most extreme cut whose
    tail mass stays within alpha; reject with probability gamma on the next
    atom inside, so the size is exactly alpha.
    """
    items = list(zip(dist.support, dist.probs))
    lower = statistics.is_lower_tail(dist.kind)
    if not lower:
        items.reverse()
    step = -1 if lower else 1
    tail = Fraction(0)
    last = -1
    for i, (_, p) in enumerate(items):
        if tail + p > alpha:
            break
        tail += p
        last = i
    if last < 0:
        v0, p0 = items[0]
        return (v0 + step, Fraction(0), alpha / p0, v0)
    if last + 1 < len(items):
        v1, p1 = items[last + 1]
        return (items[last][0], tail, (alpha - tail) / p1, v1)
    return (items[last][0], tail, Fraction(0), None)


def round_half_up_text(value: Fraction, places: int = 5) -> str:
    scaled = value * 10**places
    whole = scaled.numerator // scaled.denominator
    if 2 * (scaled - whole) >= 1:
        whole += 1
    return f"{whole // 10**places}.{whole % 10**places:0{places}d}"


def load_refs() -> dict:
    return json.loads(REFS_PATH.read_text()) if REFS_PATH.exists() else {}


class Result:
    """Outcome of the checks of one pass: operations attempted and failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []
        self.known: list[str] = []  # failed probes of documented defects

    def record(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}")

    def known_defect(self, name: str, ok: bool, detail: str = "") -> None:
        """A probe of a documented defect: reported, but not a benchmark operation."""
        if not ok:
            self.known.append(f"{name}: {detail}")


class Workload:
    name = ""
    threads = 1
    rss_of_children = False  # peak RSS is that of the child processes

    def __init__(self, seed: int, scratch: Path, traced: bool = False) -> None:
        self.seed = seed
        self.scratch = scratch
        self.traced = traced
        # Per-request latencies, for a workload whose pass is several requests;
        # otherwise the pass is one request and its wall time is the latency.
        self.latencies: list[float] = []
        self.units = 0  # work units of one pass, for the throughput metric
        self.ops = 0  # operations of one pass, each verified by the checks

    def setup(self) -> None:
        raise NotImplementedError

    def run(self):
        raise NotImplementedError

    def digest(self, out) -> str:
        raise NotImplementedError

    def check(self, out, result: Result) -> None:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# exact-table
# ---------------------------------------------------------------------------

EXACT_GRIDS = tuple((k, n) for k in range(2, 9) for n in range(1, 5) if k * n <= 8) + (
    (3, 3),
    (2, 5),
)

# Published PA upper tails P(PA >= cv), five decimals (Frey, Ozturk and
# Deshpande 2007); the same cells the acceptance suite checks.
PUBLISHED_PA_TAILS = {
    (2, 2): [(6, "0.04127"), (4, "0.19683")],
    (3, 2): [(20, "0.03995"), (18, "0.05101"), (16, "0.12158")],
    (4, 2): [(54, "0.04880"), (52, "0.06134"), (50, "0.06210"), (48, "0.11186")],
    (2, 3): [(12, "0.02587"), (10, "0.05527"), (8, "0.12016")],
    (3, 3): [(54, "0.04707"), (52, "0.05473"), (46, "0.09855"), (44, "0.10698")],
    (2, 4): [(16, "0.04579"), (14, "0.07721"), (12, "0.13444")],
    (2, 5): [(22, "0.04902"), (20, "0.07515"), (18, "0.11089")],
}


class ExactTable(Workload):
    """Exact nulls and critical values of all 11 statistics on every small grid."""

    name = "exact-table"

    def setup(self) -> None:
        # The grids are the input; the seed only fixes the order they are built in.
        order = np.random.default_rng(self.seed).permutation(len(EXACT_GRIDS))
        self.grids = [EXACT_GRIDS[i] for i in order]
        self.units = sum(exact_words(k, n) for k, n in EXACT_GRIDS)
        self.ops = len(EXACT_GRIDS) * len(ALL_KINDS)

    def run(self):
        out = {}
        for k, n in self.grids:
            for kind in ALL_KINDS:
                dist = nulldist.exact_null_distribution(
                    kind, k, n, max_cells=rsstest.OPT_IN_EXACT_CELL_CAP
                )
                crits = [nulldist.critical_value(dist, a) for a in ALPHAS]
                out[(k, n, kind)] = (dist, crits)
        return out

    def digest(self, out) -> str:
        return sha(
            "\n".join(
                f"{k}x{n}/{kind.value}={sha(pmf_text(d))}/" + ",".join(map(crit_text, cs))
                for (k, n, kind), (d, cs) in sorted(out.items(), key=lambda i: str(i[0]))
            )
        )

    def check(self, out, result: Result) -> None:
        refs = load_refs().get(self.name, {})
        for (k, n, kind), (dist, crits) in out.items():
            key = f"{k}x{n}/{kind.value}"
            problems = []
            if refs.get(key) != sha(pmf_text(dist)):
                problems.append("pmf differs from the recorded reference")
            for alpha, crit in zip(ALPHAS, crits):
                got = (crit.cv, crit.attained_level, crit.gamma, crit.boundary)
                want = oracle_critical_value(dist, Fraction(alpha))
                if got != want:
                    problems.append(f"alpha={alpha}: critical values {got} != {want}")
            result.record(key, not problems, "; ".join(problems))
        for (k, n), cells in PUBLISHED_PA_TAILS.items():
            dist = out[(k, n, K.PA)][0]
            got = [
                (cv, round_half_up_text(sum((p for v, p in zip(dist.support, dist.probs) if v >= cv), Fraction(0))))
                for cv, _ in cells
            ]
            result.record(f"published PA tails {k}x{n}", got == cells, f"{got} != {cells}")

    def references(self, out) -> dict:
        return {f"{k}x{n}/{kind.value}": sha(pmf_text(d)) for (k, n, kind), (d, _) in out.items()}


# ---------------------------------------------------------------------------
# mc-null
# ---------------------------------------------------------------------------

MC_GRIDS = ((6, 10), (10, 10))
MC_REPS = 16_384  # two full chunks per grid
ORACLE_REPS = 16
PROBE_REPS = 4
OVERFLOW_GRID = (12, 30)  # PA, PN and PS exceed int64 here (ROADMAP Baseline)


def scalar_stats(cells: np.ndarray) -> list[dict]:
    """Scalar `evaluate` (Python integers) on each sample of a (B, k, n) array."""
    rows = []
    for sample_cells in cells:
        sample = rsstest.RssSample(tuple(tuple(float(v) for v in row) for row in sample_cells))
        rows.append({kind: statistics.evaluate(sample, kind) for kind in ALL_KINDS})
    return rows


def perfect_cells(k: int, n: int, size: int, stream) -> np.ndarray:
    return models.draw_cells(models.ImperfectModel("perfect"), "uniform", k, n, size, stream)


def batch_vs_scalar(k: int, n: int, seed: int) -> list[str]:
    """Kinds where `evaluate_batch` disagrees with scalar `evaluate` (or raises)."""
    cells = perfect_cells(k, n, PROBE_REPS, streams.substream(seed, PROBE_STREAM))
    want = scalar_stats(cells)
    bad = []
    for kind in ALL_KINDS:
        try:
            got = batch.evaluate_batch(cells, (kind,))[kind].tolist()
        except (OverflowError, ValueError) as exc:
            bad.append(f"{kind.value} raised {type(exc).__name__}")
            continue
        if got != [row[kind] for row in want]:
            bad.append(f"{kind.value} {got} != {[row[kind] for row in want]}")
    return bad


class McNull(Workload):
    """Seeded MC nulls of all 11 statistics on 6x10 and 10x10, one thread."""

    name = "mc-null"

    def setup(self) -> None:
        self.units = MC_REPS * len(MC_GRIDS)
        self.ops = len(MC_GRIDS) * len(ALL_KINDS)

    def run(self):
        return {
            (k, n): mc.mc_null_distributions(ALL_KINDS, k, n, MC_REPS, self.seed, threads=1)
            for k, n in MC_GRIDS
        }

    def digest(self, out) -> str:
        return sha("\n".join(self.references(out).values()))

    def references(self, out) -> dict:
        return {
            f"{k}x{n}": sha("\n".join(f"{kind.value}={pmf_text(d)}" for kind, d in dists.items()))
            for (k, n), dists in out.items()
        }

    def check(self, out, result: Result) -> None:
        refs = load_refs().get(self.name, {})
        exact_ref = self.seed == refs.get("seed")
        for (k, n), dists in out.items():
            # Oracle at any seed: the first ORACLE_REPS replicates of chunk 0,
            # redrawn from the same stream and evaluated by scalar `evaluate`,
            # must give the library's ORACLE_REPS-replicate null, and each of
            # their values must appear at least as often in the full null.
            cells = perfect_cells(
                k, n, mc.CHUNK_SIZE, streams.substream(self.seed, streams.NULL_STREAM_BASE)
            )[:ORACLE_REPS]
            rows = scalar_stats(cells)
            small = mc.mc_null_distributions(ALL_KINDS, k, n, ORACLE_REPS, self.seed)
            for kind in ALL_KINDS:
                dist = dists[kind]
                problems = []
                counts: dict[int, int] = {}
                for row in rows:
                    counts[row[kind]] = counts.get(row[kind], 0) + 1
                want_small = {v: Fraction(c, ORACLE_REPS) for v, c in counts.items()}
                if dict(zip(small[kind].support, small[kind].probs)) != want_small:
                    problems.append("small null differs from scalar evaluate")
                for v, c in counts.items():
                    if dist.prob_of(v) * MC_REPS < c:
                        problems.append(f"value {v} seen {c}x in chunk 0 but not in the null")
                if dist.provenance != nulldist.Provenance("monte-carlo", seed=self.seed, reps=MC_REPS):
                    problems.append(f"provenance {dist.provenance}")
                result.record(f"{k}x{n}/{kind.value}", not problems, "; ".join(problems))
            if exact_ref:
                result.record(
                    f"{k}x{n} bit-exact at seed {self.seed}",
                    refs.get(f"{k}x{n}") == self.references({(k, n): dists})[f"{k}x{n}"],
                    "seeded MC null differs from the recorded reference",
                )
        # evaluate_batch against scalar evaluate: the workload's grids are
        # checks; 12x30 probes the known int64 overflow and is reported apart.
        for k, n in MC_GRIDS + (OVERFLOW_GRID,):
            bad = batch_vs_scalar(k, n, self.seed)
            report = result.known_defect if (k, n) == OVERFLOW_GRID else result.record
            report(f"evaluate_batch probe {k}x{n}", not bad, "; ".join(bad))

    def probe(self) -> dict:
        """Per-statistic `evaluate_batch` time on one seeded full chunk per grid."""
        out = {}
        for k, n in MC_GRIDS:
            cells = perfect_cells(k, n, mc.CHUNK_SIZE, streams.substream(self.seed, PROBE_STREAM))
            for label, kinds in [(kind.value, (kind,)) for kind in ALL_KINDS] + [("all", ALL_KINDS)]:
                times = []
                for _ in range(3):
                    start = time.perf_counter()
                    batch.evaluate_batch(cells, kinds)
                    times.append(time.perf_counter() - start)
                out[f"batch.probe_s.{k}x{n}.{label}"] = sorted(times)[1]
        return out


# ---------------------------------------------------------------------------
# power
# ---------------------------------------------------------------------------

POWER_KINDS = (K.PA, K.J, K.WSTAR, K.A_SUM)
POWER_REPS = 20_000
# Published 4x5 power cells (Frey, Ozturk and Deshpande 2007; Vock and
# Balakrishnan 2011): (model, lambda, statistic) -> power.
PUBLISHED_POWER = {
    ("neighbor", 1.0, K.PA): 0.7156,
    ("neighbor", 1.0, K.J): 0.6939,
    ("neighbor", 1.0, K.WSTAR): 0.6430,
    ("concomitant", 0.5, K.PA): 0.8865,
}


class Power(Workload):
    """Two 4x5 power studies sharing one auto-resolved null, two threads."""

    name = "power"

    def setup(self) -> None:
        self.threads = min(2, len(os.sched_getaffinity(0)))
        self.studies = [
            rsstest.PowerStudy(
                k=4, n=5, kinds=POWER_KINDS, model_tag=tag, lambda_grid=grid,
                alpha="0.05", reps=POWER_REPS, seed=self.seed,
            )
            for tag, grid in (("neighbor", (0.5, 1.0)), ("concomitant", (0.5,)))
        ]
        self.units = sum(POWER_REPS * len(s.lambda_grid) for s in self.studies)
        self.ops = 1 + sum(len(s.lambda_grid) * len(s.kinds) for s in self.studies)

    def run(self):
        nulls = power.resolve_null_distributions(self.studies[0], threads=self.threads)
        tables = [power.estimate_power(s, null_dists=nulls, threads=self.threads) for s in self.studies]
        return nulls, tables

    def references(self, out) -> dict:
        nulls, tables = out
        refs = {"null": sha("\n".join(f"{kd.value}={pmf_text(d)}" for kd, d in nulls.items()))}
        for study, table in zip(self.studies, tables):
            refs[study.model_tag] = sha(table.to_json())
        return refs

    def digest(self, out) -> str:
        return sha("\n".join(self.references(out).values()))

    def check(self, out, result: Result) -> None:
        nulls, tables = out
        refs = load_refs().get(self.name, {})
        exact_ref = self.seed == refs.get("seed")
        mine = self.references(out)
        if exact_ref:
            result.record(
                f"4x5 null bit-exact at seed {self.seed}",
                refs.get("null") == mine["null"],
                "seeded MC null differs from the recorded reference",
            )
        for study, table in zip(self.studies, tables):
            for lam in study.lambda_grid:
                for kind in study.kinds:
                    cell = table.cell(kind, lam)
                    problems = []
                    crit = power.critical_value(nulls[kind], study.alpha)
                    if (crit.cv, crit.attained_level, crit.gamma, crit.boundary) != oracle_critical_value(
                        nulls[kind], study.alpha
                    ):
                        problems.append("critical value differs from the oracle")
                    if not 0 <= cell.rejections <= cell.reps == POWER_REPS:
                        problems.append(f"rejections {cell.rejections} of {cell.reps}")
                    published = PUBLISHED_POWER.get((study.model_tag, lam, kind))
                    if published is not None:
                        tol = 4 * (published * (1 - published) / POWER_REPS) ** 0.5
                        if abs(cell.power - published) > tol:
                            problems.append(f"power {cell.power:.4f} vs published {published} +- {tol:.4f}")
                    result.record(f"{study.model_tag} {lam:g} {kind.value}", not problems, "; ".join(problems))
            if exact_ref:
                result.record(
                    f"{study.model_tag} table bit-exact at seed {self.seed}",
                    refs.get(study.model_tag) == mine[study.model_tag],
                    "power-table JSON differs from the recorded reference",
                )


# ---------------------------------------------------------------------------
# cli-test
# ---------------------------------------------------------------------------

# Exact route (kn <= 8) and Monte Carlo route grids, as (k, n).
CLI_GRIDS = ((4, 2), (2, 4), (3, 3), (5, 4), (4, 5))
# One pass: every statistic once, grids in turn; the same for every seed so
# that the mix of routes, and hence the latency distribution, is fixed.
CLI_CALLS = tuple((CLI_GRIDS[i % len(CLI_GRIDS)], kind) for i, kind in enumerate(ALL_KINDS))
CLI_NEIGHBOR = 0.7  # share of cells measured at a neighbouring rank


def rss_values(rng: np.random.Generator, k: int, n: int) -> np.ndarray:
    """A k x n sample in which each cell is an order statistic of its own set
    of k uniforms: the intended one, or with probability CLI_NEIGHBOR a
    neighbouring one, so both decisions occur."""
    while True:
        sets = np.sort(rng.random((k, n, k)), axis=-1)
        shift = rng.choice([-1, 0, 1], size=(k, n), p=[CLI_NEIGHBOR / 2, 1 - CLI_NEIGHBOR, CLI_NEIGHBOR / 2])
        idx = np.clip(np.arange(k)[:, None] + shift, 0, k - 1)
        values = np.take_along_axis(sets, idx[..., None], axis=-1)[..., 0]
        if len(np.unique(values)) == k * n:
            return values


class CliTest(Workload):
    """Sequential `rsstest test --format json` processes on seeded CSV samples."""

    name = "cli-test"
    rss_of_children = True
    child = BENCH_DIR / "cli_child.py"

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.samples = {}
        for k, n in CLI_GRIDS:
            values = rss_values(rng, k, n)
            path = self.scratch / f"sample_{k}x{n}.csv"
            # cycles-as-rows: one line per cycle, k values each
            path.write_text("".join(",".join(repr(float(values[i, l])) for i in range(k)) + "\n" for l in range(n)))
            self.samples[(k, n)] = (path, values)
        self.units = len(CLI_CALLS)
        self.ops = len(CLI_CALLS)

    def command(self, index: int, grid, kind) -> list[str]:
        spans = str(self.scratch / f"call{index}.json") if self.traced else "-"
        return [
            sys.executable, str(self.child), spans, "test",
            "--stat", kind.value, "--alpha", "0.05", "--layout", "cycles-as-rows",
            "--seed", str(self.seed * 1000 + index), "--format", "json",
            str(self.samples[grid][0]),
        ]

    def run(self):
        out = []
        for index, (grid, kind) in enumerate(CLI_CALLS):
            start = time.perf_counter()
            proc = subprocess.run(self.command(index, grid, kind), capture_output=True, text=True, timeout=120)
            self.latencies.append(time.perf_counter() - start)
            out.append((grid, kind, proc.returncode, proc.stdout, proc.stderr))
        return out

    def digest(self, out) -> str:
        # the CSV path differs between passes; everything else must not
        lines = []
        for grid, kind, code, stdout, _ in out:
            try:
                doc = json.loads(stdout)
                doc["cli"].pop("data")
                stdout = json.dumps(doc, sort_keys=True)
            except (ValueError, KeyError):
                pass
            lines.append(f"{grid}|{kind.value}|{code}|{stdout}")
        return sha("\n".join(lines))

    def check(self, out, result: Result) -> None:
        for (k, n), kind, code, stdout, stderr in out:
            name = f"{k}x{n}/{kind.value}"
            try:
                doc = json.loads(stdout)
                observed, cv, tail, decision = (
                    doc["observed"], doc["critical_value"], doc["tail"], doc["decision"]
                )
            except (ValueError, KeyError):
                result.record(name, False, f"exit {code}, no test result: {stderr.strip()[-200:]}")
                continue
            sample = rsstest.RssSample(tuple(tuple(float(v) for v in row) for row in self.samples[(k, n)][1]))
            if kind in statistics.PERM_KINDS:
                pn, pa, ps = statistics.brute_force_perm_all(sample)
                want = {K.PN: pn, K.PA: pa, K.PS: ps}[kind]
            else:
                want = statistics.evaluate(sample, kind)
            problems = []
            if observed != want:
                problems.append(f"observed {observed} != {want}")
            beyond = observed <= cv if tail == "lower" else observed >= cv
            want_decision = "reject" if beyond else "acceptNull"
            if decision != want_decision or code != (3 if beyond else 0):
                problems.append(f"decision {decision} (exit {code}), expected {want_decision}")
            if tail != ("lower" if statistics.is_lower_tail(kind) else "upper"):
                problems.append(f"tail {tail}")
            result.record(name, not problems, "; ".join(problems))

    def route_latencies(self, out) -> dict:
        """Latencies split by the null route each call reports."""
        routes: dict[str, list[float]] = {"exact": [], "mc": []}
        for (_, _, _, stdout, _), latency in zip(out, self.latencies):
            try:
                method = json.loads(stdout)["null"]["method"]
            except (ValueError, KeyError):
                continue
            routes["exact" if method == "exact" else "mc"].append(latency)
        return routes


WORKLOADS = {w.name: w for w in (ExactTable, McNull, Power, CliTest)}
