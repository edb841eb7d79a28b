"""Null distributions, critical values, and the hypothesis test itself.

A `NullDistribution` is a discrete distribution over integer statistic
values with exact rational probabilities: true rationals from the exact
engine, for the one statistic asked for, or counts/reps from Monte Carlo.
Critical values follow the randomized-test construction: reject outright at
or beyond the critical value, and on the next atom inside reject with
probability gamma, chosen so the test's size is exactly alpha.  Every
statistic rejects in its upper tail except Wstar, which rejects low.
`CriticalValues.rejects` states that rule once, and `decisions` the outcomes
it lets a test reach (`run_test` and every `TestResult` read both); `power`
and `verify` apply it.

Each value type checks its invariants at construction, in `__post_init__`,
so a result built in code is refused exactly where its reloaded JSON would
be; the `from_json_dict` loaders only parse.  Serialisation is a small
versioned JSON document with probabilities as "numerator/denominator"
strings, so saved tables reload bit-exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Mapping

import numpy as np

from .errors import DataValidationError, DistributionMismatchError
from .exact import DEFAULT_EXACT_CELL_CAP, exact_pmf
from .sample import RssSample
from .statistics import StatisticKind, evaluate, is_lower_tail, statistic_range

NULLDIST_FORMAT = "rsstest-nulldist/1"
TEST_RESULT_FORMAT = "rsstest-test-result/1"


def as_exact_probability(alpha) -> Fraction:
    """Normalise a probability given as Fraction, str, int or float.

    Floats go through their shortest decimal repr, so 0.05 means exactly
    1/20 rather than the nearest binary double.
    """
    if isinstance(alpha, Fraction):
        frac = alpha
    elif isinstance(alpha, float):
        frac = Fraction(repr(alpha))
    else:
        frac = Fraction(alpha)
    if not 0 <= frac <= 1:
        raise ValueError(f"probability {alpha!r} outside [0, 1]")
    return frac


def round_half_up(value: Fraction, places: int = 5) -> Fraction:
    """Round a rational to `places` decimals, halves away from zero."""
    scale = 10**places
    scaled = value * scale
    whole = scaled.numerator // scaled.denominator
    if 2 * (scaled - whole) >= 1:
        whole += 1
    return Fraction(whole, scale)


def format_probability(value: Fraction, places: int = 5) -> str:
    """Fixed-point decimal rendering with half-up rounding."""
    rounded = round_half_up(value, places)
    digits = rounded.numerator * 10**places // rounded.denominator
    return f"{digits // 10**places}.{digits % 10**places:0{places}d}"


@dataclass(frozen=True)
class Provenance:
    """How a null distribution was obtained."""

    method: str  # "exact" | "monte-carlo"
    seed: int | None = None
    reps: int | None = None

    def __post_init__(self) -> None:
        if self.method == "exact":
            if self.seed is not None or self.reps is not None:
                raise ValueError("exact provenance carries no seed or reps")
        elif self.method == "monte-carlo":
            if self.seed is None or self.reps is None:
                raise ValueError("monte-carlo provenance needs seed and reps")
            if type(self.seed) is not int or type(self.reps) is not int:
                raise DataValidationError(
                    f"monte-carlo seed {self.seed!r} and reps {self.reps!r} must be integers"
                )
        else:
            raise ValueError(f"unknown provenance method {self.method!r}")

    def to_json_dict(self) -> dict:
        """The wire form: seed and reps appear only for Monte Carlo."""
        doc: dict = {"method": self.method}
        if self.method == "monte-carlo":
            doc["seed"] = self.seed
            doc["reps"] = self.reps
        return doc

    @classmethod
    def from_json_dict(cls, doc: Mapping) -> "Provenance":
        return cls(method=doc["method"], seed=doc.get("seed"), reps=doc.get("reps"))


@dataclass(frozen=True)
class NullDistribution:
    """Distribution of one statistic under perfect ranking on a k x n grid."""

    kind: StatisticKind
    k: int
    n: int
    support: tuple[int, ...]
    probs: tuple[Fraction, ...]
    provenance: Provenance

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", StatisticKind.from_tag(self.kind))
        if len(self.support) != len(self.probs) or not self.support:
            raise ValueError("support and probs must be parallel and non-empty")
        if any(b <= a for a, b in zip(self.support, self.support[1:])):
            raise ValueError("support must be strictly increasing")
        if any(p.numerator <= 0 for p in self.probs):
            raise ValueError("probabilities must be positive")
        # summed over a common denominator: adding Fractions one at a time
        # reduces by a gcd at every step
        common = math.lcm(*(p.denominator for p in self.probs))
        if sum(p.numerator * (common // p.denominator) for p in self.probs) != common:
            raise ValueError("probabilities must sum to exactly 1")
        lo, hi = statistic_range(self.kind, self.k, self.n)
        if self.support[0] < lo or self.support[-1] > hi:
            raise ValueError(
                f"support [{self.support[0]}, {self.support[-1]}] escapes the "
                f"{self.kind.value} range [{lo}, {hi}] for k={self.k}, n={self.n}"
            )

    @property
    def tail(self) -> str:
        return "lower" if is_lower_tail(self.kind) else "upper"

    def prob_of(self, value: int) -> Fraction:
        try:
            return self.probs[self.support.index(value)]
        except ValueError:
            return Fraction(0)

    def upper_tail(self, t: int) -> Fraction:
        return sum((p for v, p in zip(self.support, self.probs) if v >= t), Fraction(0))

    def lower_tail(self, t: int) -> Fraction:
        return sum((p for v, p in zip(self.support, self.probs) if v <= t), Fraction(0))

    def p_value(self, observed: int) -> Fraction:
        return self.lower_tail(observed) if self.tail == "lower" else self.upper_tail(observed)

    def to_json_dict(self) -> dict:
        return {
            "format": NULLDIST_FORMAT,
            "kind": self.kind.value,
            "k": self.k,
            "n": self.n,
            "provenance": self.provenance.to_json_dict(),
            "support": list(self.support),
            "probs": [f"{p.numerator}/{p.denominator}" for p in self.probs],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    @classmethod
    def from_json_dict(cls, doc: Mapping) -> "NullDistribution":
        if doc.get("format") != NULLDIST_FORMAT:
            raise DataValidationError(
                f"not a {NULLDIST_FORMAT} document: {doc.get('format')!r}"
            )
        return cls(
            kind=StatisticKind.from_tag(doc["kind"]),
            k=int(doc["k"]),
            n=int(doc["n"]),
            support=tuple(int(v) for v in doc["support"]),
            probs=tuple(Fraction(p) for p in doc["probs"]),
            provenance=Provenance.from_json_dict(doc["provenance"]),
        )

    @classmethod
    def from_json(cls, text: str) -> "NullDistribution":
        return cls.from_json_dict(json.loads(text))


def exact_null_distribution(
    kind: StatisticKind, k: int, n: int, max_cells: int = DEFAULT_EXACT_CELL_CAP
) -> NullDistribution:
    """The exact null distribution of `kind`, for grids within the cap."""
    pmf = exact_pmf(kind, k, n, max_cells)
    return NullDistribution(kind, k, n, tuple(pmf), tuple(pmf.values()), Provenance("exact"))


class Decision(str, Enum):
    REJECT = "reject"
    ACCEPT = "acceptNull"
    REJECT_RANDOMIZED = "rejectWithProbabilityGamma"


@dataclass(frozen=True)
class CriticalValues:
    """Critical value, its attained level, and the randomisation atom.

    For an upper-tail statistic the test rejects when T >= cv and, in
    randomized form, with probability gamma when T == boundary (the
    largest support point below cv); mirrored for the lower tail.  When
    even the extreme atom exceeds alpha, cv sits one step past the
    support so outright rejection never happens and all the rejection
    probability rides on the extreme atom.
    """

    cv: int
    attained_level: Fraction
    gamma: Fraction
    boundary: int | None
    tail: str  # "upper" | "lower", the null distribution's

    def __post_init__(self) -> None:
        if self.tail not in ("upper", "lower"):
            raise DataValidationError(f"tail must be 'upper' or 'lower', not {self.tail!r}")
        if not 0 <= self.attained_level <= 1 or not 0 <= self.gamma < 1:
            raise DataValidationError(
                f"attained level {self.attained_level} must lie in [0, 1] "
                f"and gamma {self.gamma} in [0, 1)"
            )
        if self.boundary is None and self.gamma:
            raise DataValidationError(f"gamma {self.gamma} needs a boundary atom")

    def rejects(self, t, u=None):
        """Whether the test rejects at `t`, an int or an int64/object array:
        at or beyond cv, and given uniform(s) `u`, on the boundary atom
        where u < gamma."""
        reject = t <= self.cv if self.tail == "lower" else t >= self.cv
        if u is not None and self.gamma > 0:
            reject = reject | ((t == self.boundary) & (u < float(self.gamma)))
        return reject

    def decisions(self, t: int, randomized: bool) -> tuple[Decision, ...]:
        """The decisions a test at `t` can reach: reject outright at or
        beyond cv; on the boundary atom of a randomized test with
        gamma > 0, reject or accept as the uniform draw falls; else accept."""
        if self.rejects(t):
            return (Decision.REJECT,)
        if randomized and self.rejects(t, 0.0):
            return (Decision.REJECT_RANDOMIZED, Decision.ACCEPT)
        return (Decision.ACCEPT,)


def critical_value(dist: NullDistribution, alpha) -> CriticalValues:
    """Randomized-test critical quantities at level alpha.

    One walk over the atoms from the rejecting tail inward: the atoms
    whose cumulative mass stays within alpha form the outright rejection
    region, and the first atom past it is the randomisation boundary.
    """
    level = as_exact_probability(alpha)
    if level == 0:
        raise ValueError("alpha must be positive")
    atoms = list(zip(dist.support, dist.probs))
    outward = -1 if dist.tail == "lower" else 1
    if outward == 1:
        atoms.reverse()
    cv, attained = atoms[0][0] + outward, Fraction(0)
    for value, p in atoms:
        if attained + p > level:
            return CriticalValues(cv, attained, (level - attained) / p, value, dist.tail)
        cv, attained = value, attained + p
    return CriticalValues(cv, attained, Fraction(0), None, dist.tail)


@dataclass(frozen=True)
class TestResult:
    """Outcome of testing perfect ranking with one statistic."""

    kind: StatisticKind
    k: int
    n: int
    observed: int
    p_value: Fraction
    alpha: Fraction
    critical_value: int
    attained_level: Fraction
    gamma: Fraction
    boundary: int | None
    decision: Decision
    randomized: bool
    provenance: Provenance

    def __post_init__(self) -> None:
        try:
            kind = StatisticKind.from_tag(self.kind)
            decision = Decision(self.decision)
        except ValueError as err:
            raise DataValidationError(str(err)) from None
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "decision", decision)
        if not isinstance(self.randomized, bool):
            raise DataValidationError(f"randomized must be a boolean, not {self.randomized!r}")
        lo, hi = statistic_range(self.kind, self.k, self.n)
        if not lo <= self.observed <= hi:
            raise DataValidationError(
                f"observed {self.kind.value} {self.observed} escapes its range "
                f"[{lo}, {hi}] for k={self.k}, n={self.n}"
            )
        if not (0 < self.alpha <= 1 and 0 <= self.p_value <= 1 and self.attained_level <= self.alpha):
            raise DataValidationError(
                f"alpha {self.alpha} must lie in (0, 1], p-value {self.p_value} in [0, 1] "
                f"and attained level {self.attained_level} in [0, alpha]"
            )
        crit = CriticalValues(
            self.critical_value, self.attained_level, self.gamma, self.boundary, self.tail
        )
        if self.decision not in crit.decisions(self.observed, self.randomized):
            raise DataValidationError(
                f"decision {self.decision.value!r} does not follow from observed "
                f"{self.observed}, critical value {self.critical_value}, boundary "
                f"{self.boundary}, gamma {self.gamma} and randomized {self.randomized}"
            )

    @property
    def tail(self) -> str:
        return "lower" if is_lower_tail(self.kind) else "upper"

    @property
    def is_rejection(self) -> bool:
        return self.decision is not Decision.ACCEPT

    def to_json_dict(self) -> dict:
        return {
            "format": TEST_RESULT_FORMAT,
            "kind": self.kind.value,
            "k": self.k,
            "n": self.n,
            "observed": self.observed,
            "p_value": f"{self.p_value.numerator}/{self.p_value.denominator}",
            "alpha": f"{self.alpha.numerator}/{self.alpha.denominator}",
            "critical_value": self.critical_value,
            "attained_level": (
                f"{self.attained_level.numerator}/{self.attained_level.denominator}"
            ),
            "gamma": f"{self.gamma.numerator}/{self.gamma.denominator}",
            "boundary": self.boundary,
            "decision": self.decision.value,
            "tail": self.tail,
            "randomized": self.randomized,
            "null": self.provenance.to_json_dict(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    @classmethod
    def from_json_dict(cls, doc: Mapping) -> "TestResult":
        if doc.get("format") != TEST_RESULT_FORMAT:
            raise DataValidationError(
                f"not a {TEST_RESULT_FORMAT} document: {doc.get('format')!r}"
            )
        result = cls(
            kind=doc["kind"],
            k=int(doc["k"]),
            n=int(doc["n"]),
            observed=int(doc["observed"]),
            p_value=Fraction(doc["p_value"]),
            alpha=Fraction(doc["alpha"]),
            critical_value=int(doc["critical_value"]),
            attained_level=Fraction(doc["attained_level"]),
            gamma=Fraction(doc["gamma"]),
            boundary=None if doc["boundary"] is None else int(doc["boundary"]),
            decision=doc["decision"],
            randomized=doc["randomized"],
            provenance=Provenance.from_json_dict(doc["null"]),
        )
        if doc["tail"] != result.tail:
            raise DataValidationError(
                f"{result.kind.value} rejects in its {result.tail} tail, not {doc['tail']!r}"
            )
        return result

    @classmethod
    def from_json(cls, text: str) -> "TestResult":
        return cls.from_json_dict(json.loads(text))


def run_test(
    sample: RssSample,
    kind: StatisticKind,
    dist: NullDistribution,
    alpha,
    randomized: bool = False,
    rng: np.random.Generator | None = None,
) -> TestResult:
    """Test perfect ranking on `sample` against a matching null distribution.

    Non-randomized tests never reject on the boundary atom and report the
    attained level; randomized tests reject there with probability gamma,
    drawn from `rng`, achieving size exactly alpha.
    """
    kind = StatisticKind.from_tag(kind)
    if dist.kind is not kind or dist.k != sample.k or dist.n != sample.n:
        raise DistributionMismatchError(
            f"distribution is for {dist.kind.value} on a {dist.k}x{dist.n} grid; "
            f"sample needs {kind.value} on {sample.k}x{sample.n}"
        )
    if randomized and rng is None:
        raise ValueError("randomized tests need an rng for the boundary draw")
    level = as_exact_probability(alpha)
    crit = critical_value(dist, level)
    observed = evaluate(sample, kind)
    p_value = dist.p_value(observed)

    reachable = crit.decisions(observed, randomized)
    decision = reachable[0]
    if len(reachable) > 1 and not crit.rejects(observed, rng.random()):  # the boundary draw
        decision = reachable[1]

    return TestResult(
        kind=kind,
        k=sample.k,
        n=sample.n,
        observed=observed,
        p_value=p_value,
        alpha=level,
        critical_value=crit.cv,
        attained_level=crit.attained_level,
        gamma=crit.gamma,
        boundary=crit.boundary,
        decision=decision,
        randomized=randomized,
        provenance=dist.provenance,
    )


__all__ = [
    "CriticalValues",
    "Decision",
    "NullDistribution",
    "Provenance",
    "TestResult",
    "as_exact_probability",
    "critical_value",
    "exact_null_distribution",
    "format_probability",
    "round_half_up",
    "run_test",
]
