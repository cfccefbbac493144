"""PQVR / CSC / FP formula behavior."""

from __future__ import annotations

import math

import numpy as np
import pytest

from wplzx.errors import DegenerateVariance, EmptyBaseline
from wplzx.metrics import csc, fp, pqvr, report, wrap_angle


def test_wrap_angle_range():
    for x in np.linspace(-20, 20, 401):
        w = wrap_angle(float(x))
        assert -math.pi < w <= math.pi + 1e-15
        assert math.isclose(
            math.cos(w), math.cos(x), abs_tol=1e-12
        ) and math.isclose(math.sin(w), math.sin(x), abs_tol=1e-12)


def test_pqvr_perfect_alignment():
    raw = [0.1, 1.2, 2.7, 5.0]
    assert pqvr(raw, raw) == pytest.approx(1.0)


def test_pqvr_zero_when_residual_variance_matches():
    raw = [0.0, math.pi]
    snapped = [0.0, 0.0]
    assert pqvr(raw, snapped) == pytest.approx(0.0)


def test_pqvr_one_iff_constant_residual():
    raw = [0.3, 1.4, 2.2]
    shifted = [x - 0.5 for x in raw]
    assert pqvr(raw, shifted) == pytest.approx(1.0)
    uneven = [raw[0] - 0.5, raw[1] - 0.2, raw[2]]
    assert pqvr(raw, uneven) < 1.0


def test_pqvr_degenerate_variance():
    with pytest.raises(DegenerateVariance):
        pqvr([1.0, 1.0, 1.0], [1.0, 0.9, 1.0])


def test_pqvr_input_validation():
    with pytest.raises(ValueError):
        pqvr([1.0], [1.0])
    with pytest.raises(ValueError):
        pqvr([1.0, 2.0], [1.0])


def test_pqvr_wraps_residuals():
    # residuals of -2pi+x wrap to x; without wrapping PQVR would collapse
    raw = [0.05, 6.2, 1.0, 5.9]
    snapped = [wrap_angle(x) for x in raw]
    assert pqvr(raw, snapped) > 0.99


def test_csc_examples():
    assert csc(100, 70) == pytest.approx(0.30)
    assert csc(17, 17) == 0.0
    assert csc(10, 13) == pytest.approx(-0.3)
    with pytest.raises(EmptyBaseline):
        csc(0, 5)


def test_csc_antitone():
    vals = [csc(50, k) for k in range(0, 60, 5)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_fp_symmetric():
    rng = np.random.default_rng(5)
    a = rng.normal(size=8) + 1j * rng.normal(size=8)
    b = rng.normal(size=8) + 1j * rng.normal(size=8)
    a /= np.linalg.norm(a)
    b /= np.linalg.norm(b)
    assert fp(a, b) == pytest.approx(fp(b, a))
    assert fp(a, a) == pytest.approx(1.0)


def test_report_handles_degenerate_and_cnot_free():
    rep = report([0.5, 0.5], [0.5, 0.5], 10, 7, 0, 0, None, None)
    assert list(rep) == ["pqvr", "csc_total", "csc_cnot", "fp"]
    assert rep["pqvr"] == 1.0
    assert rep["csc_total"] == pytest.approx(0.3)
    assert rep["csc_cnot"] == 0.0
    assert math.isnan(rep["fp"])
