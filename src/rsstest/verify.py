"""Self-checks of the evaluation kernel against its defining computations.

These are the internal consistency guarantees the package leans on:

  * the kernel's PA (a per-cell convolution) equals full enumeration,
    integer-exact, as do its PN and PS;
  * PN equals n^(k-2) * J;
  * PS equals ps_offset(k, n) - 2 * n^(k-2) * Wstar;
  * for k = 2 the randomized PN, PA, PS, J and Wstar tests decide
    identically on every sample when they share the boundary draw, each
    deciding through `CriticalValues.rejects` (Wstar in its lower tail);
  * every statistic is invariant under strictly increasing transforms.

`run_verification` exercises all of them on seeded random samples,
evaluating through `statistics.evaluate` (a call into the one kernel)
and comparing with `statistics.brute_force_perm_all` (the n^k
enumeration), and
reports per-check pass/fail; the CLI `verify` subcommand wraps it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nulldist import critical_value, exact_null_distribution
from .sample import RssSample, monotone_transform
from .statistics import (
    ALL_KINDS,
    PERM_KINDS,
    StatisticKind,
    brute_force_perm_all,
    evaluate,
    ps_offset,
)
from .streams import substream


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    checked: int
    detail: str = ""


@dataclass(frozen=True)
class VerificationReport:
    seed: int
    instances: int
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def render_text(self) -> str:
        lines = [f"verification with seed={self.seed}, instances={self.instances}"]
        for c in self.checks:
            mark = "ok" if c.passed else "FAIL"
            suffix = f" ({c.detail})" if c.detail else ""
            lines.append(f"  [{mark}] {c.name}: {c.checked} cases{suffix}")
        lines.append("all checks passed" if self.passed else "VERIFICATION FAILED")
        return "\n".join(lines) + "\n"


def random_sample(rng: np.random.Generator, k: int, n: int) -> RssSample:
    """A random tie-free k x n sample of plain uniforms."""
    while True:
        values = rng.random((k, n))
        flat = np.sort(values.reshape(-1))
        if not (np.diff(flat) == 0).any():
            return RssSample(tuple(tuple(float(v) for v in row) for row in values))


def run_verification(seed: int = 0, instances: int = 200) -> VerificationReport:
    """Run every identity check on `instances` seeded random samples."""
    if instances < 1:
        raise ValueError(f"instances must be at least 1, got {instances}")
    rng = substream(seed, 0)
    grids = [(k, n) for k in range(2, 6) for n in range(1, 6)]
    samples = []
    for idx in range(instances):
        k, n = grids[idx % len(grids)]
        samples.append(random_sample(rng, k, n))

    checks = []

    bad = 0
    for s in samples:
        pn, pa, ps = brute_force_perm_all(s)
        kernel_pn, kernel_pa, kernel_ps = (evaluate(s, kind) for kind in PERM_KINDS)
        j, wstar = evaluate(s, StatisticKind.J), evaluate(s, StatisticKind.WSTAR)
        scale = s.n ** (s.k - 2)
        if kernel_pa != pa:
            bad += 1
        if not pn == kernel_pn == scale * j:
            bad += 1
        if not ps == kernel_ps == ps_offset(s.k, s.n) - 2 * scale * wstar:
            bad += 1
    checks.append(
        CheckResult(
            name="enumeration identities (PA convolution, PN via J, PS via Wstar)",
            passed=bad == 0,
            checked=len(samples),
            detail="" if bad == 0 else f"{bad} violations",
        )
    )

    bad = 0
    transforms = [lambda x: 2.0 * x + 1.0, lambda x: x**3 - 5.0]
    subset = samples[: max(instances // 4, 1)]
    for s in subset:
        reference = {kind: evaluate(s, kind) for kind in ALL_KINDS}
        for f in transforms:
            t = monotone_transform(s, f)
            if any(evaluate(t, kind) != reference[kind] for kind in ALL_KINDS):
                bad += 1
    checks.append(
        CheckResult(
            name="monotone-transform invariance of all statistics",
            passed=bad == 0,
            checked=len(subset),
            detail="" if bad == 0 else f"{bad} violations",
        )
    )

    collapse_kinds = (*PERM_KINDS, StatisticKind.J, StatisticKind.WSTAR)
    bad = 0
    count = 0
    for n in (2, 3, 4):
        dists = {kd: exact_null_distribution(kd, 2, n) for kd in collapse_kinds}
        crits = {kd: critical_value(d, "0.05") for kd, d in dists.items()}
        for _ in range(max(instances // 10, 5)):
            s = random_sample(rng, 2, n)
            u = rng.random()
            decisions = {crits[kd].rejects(evaluate(s, kd), u) for kd in collapse_kinds}
            count += 1
            if len(decisions) != 1:
                bad += 1
    checks.append(
        CheckResult(
            name="k=2 collapse: PN/PA/PS/J/Wstar randomized decisions coincide",
            passed=bad == 0,
            checked=count,
            detail="" if bad == 0 else f"{bad} disagreements",
        )
    )

    return VerificationReport(seed=seed, instances=instances, checks=tuple(checks))
