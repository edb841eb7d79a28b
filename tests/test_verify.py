"""The identity self-check harness."""

from __future__ import annotations

import pytest

from rsstest import run_verification


def test_verification_passes():
    report = run_verification(seed=3, instances=40)
    assert report.passed
    assert all(c.passed for c in report.checks)
    assert "all checks passed" in report.render_text()


def test_verification_deterministic():
    a = run_verification(seed=3, instances=30)
    b = run_verification(seed=3, instances=30)
    assert a == b


def test_verification_catches_corruption(off_by_one_pa):
    report = run_verification(seed=3, instances=20)
    assert not report.passed
    assert "[FAIL] enumeration identities" in report.render_text()


@pytest.mark.parametrize("instances", [0, -4])
def test_verification_refuses_no_instances(instances):
    with pytest.raises(ValueError, match="at least 1"):
        run_verification(seed=0, instances=instances)


def test_checks_report_samples_checked():
    report = run_verification(seed=0, instances=2)
    assert [c.checked for c in report.checks] == [2, 1, 15]
