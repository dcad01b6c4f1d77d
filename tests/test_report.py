"""Check records built from sampled residuals."""

import math

import pytest

from diracgen.report import record_from_samples

POINTS = ([0.1, 0.2], [0.3, 0.4], [0.5, 0.6])


def test_worst_residual_and_failing_point():
    rec = record_from_samples("c", zip((1e-9, 5e-7, 2e-8), POINTS), 1e-7, stage="Step 3")
    assert not rec.passed
    assert rec.worst_residual == 5e-7
    assert rec.failing_point == [0.3, 0.4]
    assert rec.stage == "Step 3"


def test_within_tolerance_passes_without_point():
    rec = record_from_samples("c", zip((1e-9, 5e-8), POINTS), 1e-7)
    assert rec.passed and rec.failing_point is None


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("position", [0, 1, 2])
def test_non_finite_residual_fails(bad, position):
    residuals = [1e-9, 1e-9, 1e-9]
    residuals[position] = bad
    rec = record_from_samples("c", zip(residuals, POINTS), 1e-7)
    assert rec.passed is False
    assert not math.isfinite(rec.worst_residual)
    assert rec.failing_point == POINTS[position]
