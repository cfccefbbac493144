"""Golden lambda_sweep rows: decoding refactors must leave sweep output alone.

The expected table was produced by the decoder before its matching and
weight-lookup paths were merged.  Logical error rates and mean costs must
match exactly; the DRG means may move by at most 1e-12 relative, so a
re-implementation of the risk metrics in a different float order still
passes.  Every instance stays below ``DP_VERTEX_CAP`` (12 defects at most),
so all rows come from exact matchings.  The rows of a sweep split over
forked workers must equal ``lambda_sweep``'s exactly.
"""

from __future__ import annotations

import math

import pytest

from wplzx.masd import parallel
from wplzx.masd.surface import WindingModel, build_code, lambda_sweep, sample_surface_code

P_PHYS = 0.1
SEED = 20261017
TRIALS = 30
LAMBDAS = (0.0, 0.1, 0.25, 0.5)
DRG_RTOL = 1e-12

# (distance, winding, mode) -> one (logical_error_rate, drg_toy_mean,
# drg_pm_mean, mean_cost) tuple per lambda.
EXPECTED = {
    (3, 'uniform', 'raw'): [
        (0.2, 0.0, 0.0, 0.7666666666666667),
        (0.2, 0.021666666666666667, 0.01185799233451837, 0.7933333333333333),
        (0.2, 0.05416666666666667, 0.02964498083629592, 0.8333333333333334),
        (0.13333333333333333, 0.03333333333333333, 0.059289961672591825, 0.8666666666666667),
    ],
    (3, 'uniform', 'normalized'): [
        (0.2, 0.0, 0.0, 0.7666666666666667),
        (0.2, 0.021666666666666667, 0.0014822490418147907, 0.77),
        (0.2, 0.05416666666666667, 0.0037056226045369734, 0.775),
        (0.2, 0.10833333333333334, 0.007411245209073962, 0.7833333333333333),
    ],
    (3, 'two-sector', 'raw'): [
        (0.2, 0.0, 0.0, 0.7666666666666667),
        (0.2, 0.0033333333333333335, 0.002175669636336264, 0.77),
        (0.2, 0.008333333333333333, 0.005439174090840641, 0.775),
        (0.2, 0.016666666666666666, 0.010878348181681267, 0.7833333333333333),
    ],
    (3, 'two-sector', 'normalized'): [
        (0.2, 0.0, 0.0, 0.7666666666666667),
        (0.2, 0.0033333333333333335, 0.0002719587045420265, 0.7670833333333333),
        (0.2, 0.008333333333333333, 0.00067989676135507, 0.7677083333333333),
        (0.2, 0.016666666666666666, 0.0013597935227101473, 0.76875),
    ],
    (3, 'constant', 'raw'): [
        (0.2, 0.0, 0.0, 0.7666666666666667),
        (0.2, 0.0, 0.0, 0.7666666666666667),
        (0.2, 0.0, 0.0, 0.7666666666666667),
        (0.2, 0.0, 0.0, 0.7666666666666667),
    ],
    (3, 'constant', 'normalized'): [
        (0.2, 0.0, 0.0, 0.7666666666666667),
        (0.2, 0.0, 0.0, 0.7666666666666667),
        (0.2, 0.0, 0.0, 0.7666666666666667),
        (0.2, 0.0, 0.0, 0.7666666666666667),
    ],
    (5, 'uniform', 'raw'): [
        (0.13333333333333333, 0.0, 0.0, 1.9),
        (0.13333333333333333, 0.12027777777777779, 0.076078900689576, 2.086666666666667),
        (0.1, 0.2798611111111111, 0.19019725172393998, 2.3583333333333334),
        (0.23333333333333334, 0.32222222222222224, 0.38039450344787995, 2.683333333333333),
    ],
    (5, 'uniform', 'normalized'): [
        (0.13333333333333333, 0.0, 0.0, 1.9),
        (0.13333333333333333, 0.12027777777777779, 0.009509862586196979, 1.9233333333333331),
        (0.13333333333333333, 0.3006944444444445, 0.023774656465492476, 1.9583333333333333),
        (0.13333333333333333, 0.601388888888889, 0.04754931293098496, 2.0166666666666666),
    ],
    (5, 'two-sector', 'raw'): [
        (0.13333333333333333, 0.0, 0.0, 1.9),
        (0.13333333333333333, 0.005555555555555555, 0.007725801082401721, 1.91),
        (0.13333333333333333, 0.013888888888888888, 0.019314502706004315, 1.925),
        (0.13333333333333333, 0.027777777777777776, 0.038629005412008616, 1.95),
    ],
    (5, 'two-sector', 'normalized'): [
        (0.13333333333333333, 0.0, 0.0, 1.9),
        (0.13333333333333333, 0.005555555555555555, 0.0009657251353001624, 1.9012499999999999),
        (0.13333333333333333, 0.013888888888888888, 0.0024143128382505172, 1.903125),
        (0.13333333333333333, 0.027777777777777776, 0.004828625676501049, 1.90625),
    ],
    (5, 'constant', 'raw'): [
        (0.13333333333333333, 0.0, 0.0, 1.9),
        (0.13333333333333333, 0.0, 0.0, 1.9),
        (0.13333333333333333, 0.0, 0.0, 1.9),
        (0.13333333333333333, 0.0, 0.0, 1.9),
    ],
    (5, 'constant', 'normalized'): [
        (0.13333333333333333, 0.0, 0.0, 1.9),
        (0.13333333333333333, 0.0, 0.0, 1.9),
        (0.13333333333333333, 0.0, 0.0, 1.9),
        (0.13333333333333333, 0.0, 0.0, 1.9),
    ],
    (7, 'uniform', 'raw'): [
        (0.03333333333333333, 0.0, 0.0, 4.1),
        (0.03333333333333333, 0.12060714285714286, 0.10562068315230363, 4.586666666666668),
        (0.03333333333333333, 0.28749007936507937, 0.2640517078807591, 5.316666666666666),
        (0.13333333333333333, 0.4141269841269842, 0.5281034157615182, 6.233333333333333),
    ],
    (7, 'uniform', 'normalized'): [
        (0.03333333333333333, 0.0, 0.0, 4.1),
        (0.03333333333333333, 0.12032936507936509, 0.013202585394037951, 4.160833333333334),
        (0.03333333333333333, 0.30082341269841273, 0.03300646348509493, 4.252083333333333),
        (0.03333333333333333, 0.6016468253968255, 0.06601292697018982, 4.404166666666667),
    ],
    (7, 'two-sector', 'raw'): [
        (0.03333333333333333, 0.0, 0.0, 4.1),
        (0.03333333333333333, 0.005337301587301588, 0.006911986574299597, 4.12),
        (0.03333333333333333, 0.013343253968253968, 0.017279966435749014, 4.15),
        (0.03333333333333333, 0.026686507936507935, 0.03455993287149797, 4.2),
    ],
    (7, 'two-sector', 'normalized'): [
        (0.03333333333333333, 0.0, 0.0, 4.1),
        (0.03333333333333333, 0.005337301587301588, 0.0008639983217875032, 4.1025),
        (0.03333333333333333, 0.013343253968253968, 0.002159995804468684, 4.10625),
        (0.03333333333333333, 0.026686507936507935, 0.004319991608937316, 4.1125),
    ],
    (7, 'constant', 'raw'): [
        (0.03333333333333333, 0.0, 0.0, 4.1),
        (0.03333333333333333, 0.0, 0.0, 4.1),
        (0.03333333333333333, 0.0, 0.0, 4.1),
        (0.03333333333333333, 0.0, 0.0, 4.1),
    ],
    (7, 'constant', 'normalized'): [
        (0.03333333333333333, 0.0, 0.0, 4.1),
        (0.03333333333333333, 0.0, 0.0, 4.1),
        (0.03333333333333333, 0.0, 0.0, 4.1),
        (0.03333333333333333, 0.0, 0.0, 4.1),
    ],
}


@pytest.mark.parametrize("distance", (3, 5, 7))
def test_lambda_sweep_matches_golden_rows(distance):
    code = build_code(distance)
    for kind in ("uniform", "two-sector", "constant"):
        model = WindingModel(kind=kind)
        instances = [
            sample_surface_code(distance, P_PHYS, SEED, trial=t, winding=model, code=code)
            for t in range(TRIALS)
        ]
        for mode in ("raw", "normalized"):
            rows = lambda_sweep(instances, LAMBDAS, mode=mode, code=code)
            want = EXPECTED[(distance, kind, mode)]
            assert len(rows) == len(want)
            for lam, row, (ler, toy, pm, cost) in zip(LAMBDAS, rows, want):
                where = (distance, kind, mode, lam)
                assert row["lambda"] == lam
                assert row["p_phys"] == P_PHYS and row["distance"] == distance
                assert row["trials"] == TRIALS and row["mode"] == mode
                assert row["logical_error_rate"] == ler, where
                assert row["mean_cost"] == cost, where
                assert math.isclose(row["drg_toy_mean"], toy, rel_tol=DRG_RTOL, abs_tol=0.0), where
                assert math.isclose(row["drg_pm_mean"], pm, rel_tol=DRG_RTOL, abs_tol=0.0), where


@pytest.mark.parametrize("distance", (3, 5, 7))
def test_forked_sweep_rows_equal_lambda_sweep_rows(distance):
    code = build_code(distance)
    for kind in ("uniform", "two-sector", "constant"):
        model = WindingModel(kind=kind)
        instances = [
            sample_surface_code(distance, P_PHYS, SEED, trial=t, winding=model, code=code)
            for t in range(TRIALS)
        ]
        for mode in ("raw", "normalized"):
            # three blocks of 10 trials: the parent's and two workers'
            rows = parallel.forked_sweep(
                code, P_PHYS, SEED, model, TRIALS, list(LAMBDAS), mode, 1.0, workers=3
            )
            assert rows == lambda_sweep(instances, LAMBDAS, mode=mode, code=code), (kind, mode)
