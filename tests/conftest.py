"""Shared helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

import rsstest.verify
from rsstest import RssSample, StatisticKind


def make_sample(rows) -> RssSample:
    """Build a sample from a list of rank-slot rows."""
    return RssSample(tuple(tuple(float(v) for v in row) for row in rows))


def random_sample(rng: np.random.Generator, k: int, n: int) -> RssSample:
    """A tie-free random k x n sample."""
    while True:
        values = rng.random((k, n))
        flat = np.sort(values.reshape(-1))
        if flat.size < 2 or not (np.diff(flat) == 0).any():
            return make_sample(values)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260808)


@pytest.fixture
def off_by_one_pa(monkeypatch):
    """Make the self-checks see every PA value one too high, as a broken kernel would."""
    kernel = rsstest.verify.evaluate

    def evaluate(sample, kind):
        value = kernel(sample, kind)
        return value + 1 if kind is StatisticKind.PA else value

    monkeypatch.setattr(rsstest.verify, "evaluate", evaluate)
