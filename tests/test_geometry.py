"""Curvature formulas, gradient machinery, Euler characteristics."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from wplzx.errors import NonPositiveWeight, StepTooLarge
from wplzx.geometry import (
    AnisotropyParams,
    WeightPair,
    curvature_gradient_norm,
    curvature_sweep,
    default_map_gradient,
    effective_weight,
    orbifold_euler_characteristic,
    scalar_curvature,
)


def test_scalar_curvature_values():
    assert scalar_curvature(1.0) == 2.0
    assert scalar_curvature(2.0) == 0.5
    for b in (0.5, 1.0, 2.0, 3.0, 7.5, 100.0):
        assert scalar_curvature(b) == 2.0 / b**2


def test_scalar_curvature_monotone_decreasing():
    bs = np.linspace(0.2, 50, 200)
    rs = [scalar_curvature(float(b)) for b in bs]
    assert all(a > b for a, b in zip(rs, rs[1:]))
    assert rs[-1] < 1e-2


def test_scalar_curvature_rejects_nonpositive():
    for bad in (0.0, -1.0, float("nan")):
        with pytest.raises(NonPositiveWeight):
            scalar_curvature(bad)


def test_effective_weight_default_map():
    assert effective_weight(AnisotropyParams(0.7, 0.7)) == pytest.approx(1.0)
    p = AnisotropyParams(0.5, 1.0)
    assert effective_weight(p) == pytest.approx(2.0)
    assert scalar_curvature(effective_weight(p)) == pytest.approx(0.5)


def test_anisotropy_domain():
    with pytest.raises(ValueError):
        AnisotropyParams(0.0, 0.5)
    with pytest.raises(ValueError):
        AnisotropyParams(0.5, 1.5)


def test_gradient_matches_analytic_on_grid():
    # R(lp, ll) = 2 lp^2 / ll^2 under the default map.  Central differences
    # at h = 1e-5 reach 1e-6 absolutely away from the lambda_par -> 0 blowup
    # (R ~ 1/ll^2); near it the agreement is relative.
    grid = np.linspace(0.3, 0.9, 10)
    for lp in grid:
        for ll in grid:
            p = AnisotropyParams(float(lp), float(ll))
            got = curvature_gradient_norm(p, h=1e-5)
            want = math.hypot(*default_map_gradient(p))
            assert abs(got - want) < 1e-6, (lp, ll)
    wide = np.linspace(0.1, 0.9, 10)
    for lp in wide:
        for ll in wide:
            p = AnisotropyParams(float(lp), float(ll))
            got = curvature_gradient_norm(p, h=1e-5)
            want = math.hypot(*default_map_gradient(p))
            assert abs(got - want) < 1e-6 * max(1.0, want), (lp, ll)


def test_gradient_step_guard():
    with pytest.raises(StepTooLarge):
        curvature_gradient_norm(AnisotropyParams(0.005, 0.5), h=0.01)
    with pytest.raises(StepTooLarge):
        curvature_gradient_norm(AnisotropyParams(0.5, 0.5), h=0.0)


@pytest.mark.parametrize("h", [math.nan, -math.nan, math.inf, -math.inf, -1e-5])
def test_gradient_step_must_be_finite_and_positive(h):
    with pytest.raises(StepTooLarge, match=r"^step must be finite and positive, got "):
        curvature_gradient_norm(AnisotropyParams(0.5, 0.5), h=h)


def test_curvature_sweep_rows():
    rows = curvature_sweep([0.2, 0.5], [0.4, 0.8])
    assert len(rows) == 4
    for row in rows:
        assert set(row) == {"lambda_perp", "lambda_par", "b_eff", "R", "grad_norm"}
        assert row["R"] == 2.0 / row["b_eff"] ** 2
        p = AnisotropyParams(row["lambda_perp"], row["lambda_par"])
        assert row["grad_norm"] == math.hypot(*default_map_gradient(p))


def test_orbifold_euler_characteristic():
    assert orbifold_euler_characteristic(WeightPair(1, 1)) == Fraction(2)
    assert orbifold_euler_characteristic(WeightPair(2, 3)) == Fraction(5, 6)
    for a in (1, 2, 5, 9):
        assert orbifold_euler_characteristic(WeightPair(a, a)) == Fraction(2, a)
    # exact rational arithmetic, not floats
    chi = orbifold_euler_characteristic(WeightPair(7, 11))
    assert chi == Fraction(1, 7) + Fraction(1, 11)
    assert isinstance(chi, Fraction)
