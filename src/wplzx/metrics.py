"""Evaluation metrics over raw/optimized circuit or diagram pairs.

PQVR measures how much phase variance survives grid alignment, CSC the
relative reduction in gate count, FP the fidelity between final states.
Angular residuals are wrapped to (-pi, pi] before taking the (population)
variance, since a plain variance of circular differences is ill-defined.
``METRIC_COLUMNS`` lists the columns of ``metrics``' CSV: three that name
the pair, then the four that ``report`` gives, keyed by those names.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateVariance, EmptyBaseline
from .semantics import fidelity as _fidelity

METRIC_COLUMNS = ["seed", "n_qubits", "n_spiders", "pqvr", "csc_total", "csc_cnot", "fp"]


def wrap_angle(x: float) -> float:
    """Wrap radians into (-pi, pi]."""
    y = math.fmod(x, 2.0 * math.pi)
    if y > math.pi:
        y -= 2.0 * math.pi
    elif y <= -math.pi:
        y += 2.0 * math.pi
    return y


def pqvr(raw, snapped) -> float:
    """1 - Var(wrap(theta - theta_hat)) / Var(theta), population variance.

    Equals 1 exactly when all wrapped residuals agree (in particular, when
    snapping changed nothing).
    """
    raw = [float(x) for x in raw]
    snapped = [float(x) for x in snapped]
    if len(raw) != len(snapped) or len(raw) < 2:
        raise ValueError("pqvr needs two equal-length lists with >= 2 entries")
    var_raw = float(np.var(raw))
    if var_raw == 0.0:
        raise DegenerateVariance("raw phases have zero variance")
    residuals = [wrap_angle(t - s) for t, s in zip(raw, snapped)]
    return 1.0 - float(np.var(residuals)) / var_raw


def csc(raw_count: int, opt_count: int) -> float:
    """Relative size reduction 1 - opt/raw; negative when the circuit grew."""
    if raw_count < 1:
        raise EmptyBaseline("baseline gate count must be >= 1")
    if opt_count < 0:
        raise ValueError("optimized gate count must be >= 0")
    return 1.0 - opt_count / raw_count


def fp(raw_state: np.ndarray, opt_state: np.ndarray) -> float:
    """Squared overlap between final states; symmetric in its arguments."""
    return _fidelity(raw_state, opt_state)


def report(
    raw_phases,
    snapped_phases,
    raw_gates: int,
    opt_gates: int,
    raw_cnots: int,
    opt_cnots: int,
    raw_state: np.ndarray | None,
    opt_state: np.ndarray | None,
) -> dict[str, float]:
    """PQVR, both CSCs and FP, keyed by their columns in ``METRIC_COLUMNS``,
    tolerating degenerate inputs.

    PQVR falls back to 1.0 when there are too few phases or zero raw variance
    (nothing to misalign); csc_cnot falls back to 0.0 for CNOT-free baselines;
    FP is nan unless both states are given.
    """
    try:
        p = pqvr(raw_phases, snapped_phases)
    except (ValueError, DegenerateVariance):
        p = 1.0
    c_total = csc(raw_gates, opt_gates)
    c_cnot = csc(raw_cnots, opt_cnots) if raw_cnots >= 1 else 0.0
    if raw_state is None or opt_state is None:
        f = float("nan")
    else:
        f = fp(raw_state, opt_state)
    return dict(zip(METRIC_COLUMNS[3:], (p, c_total, c_cnot, f)))
