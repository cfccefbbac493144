"""Curvature diagnostics for weighted phase-space geometry.

The metric family has closed-form scalar curvature R = 2/b^2 in the effective
weight b = lambda_par / lambda_perp of the hardware anisotropy parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import NonPositiveWeight, StepTooLarge
from .phase import check_grid_order

DEFAULT_GRAD_STEP = 1e-5


@dataclass(frozen=True)
class AnisotropyParams:
    """Bloch-ball contraction factors, each in (0, 1]."""

    lambda_perp: float
    lambda_par: float

    def __post_init__(self) -> None:
        for name, v in (("lambda_perp", self.lambda_perp), ("lambda_par", self.lambda_par)):
            if not (0.0 < v <= 1.0):
                raise ValueError(f"{name} must lie in (0, 1], got {v}")


@dataclass(frozen=True)
class WeightPair:
    a: int
    b: int

    def __post_init__(self) -> None:
        check_grid_order(self.a)
        check_grid_order(self.b)


def scalar_curvature(b_eff: float) -> float:
    if not (b_eff > 0.0) or not math.isfinite(b_eff):
        raise NonPositiveWeight(f"effective weight must be positive, got {b_eff}")
    return 2.0 / (b_eff * b_eff)


def effective_weight(p: AnisotropyParams) -> float:
    return p.lambda_par / p.lambda_perp


def curvature_gradient_norm(p: AnisotropyParams, h: float = DEFAULT_GRAD_STEP) -> float:
    """Euclidean norm of the central-difference gradient of R over the params.

    The map is evaluated on the open positive quadrant, so the only interior
    requirement is that both parameters exceed the step, which must be
    finite and positive (a NaN step compares false with everything).
    """
    if not (h > 0.0 and math.isfinite(h)):
        raise StepTooLarge(f"step must be finite and positive, got {h}")
    if min(p.lambda_perp, p.lambda_par) <= h:
        raise StepTooLarge(
            f"step {h} does not fit inside the domain at "
            f"({p.lambda_perp}, {p.lambda_par})"
        )

    def r(lp: float, ll: float) -> float:
        return scalar_curvature(ll / lp)

    d_perp = (r(p.lambda_perp + h, p.lambda_par) - r(p.lambda_perp - h, p.lambda_par)) / (2 * h)
    d_par = (r(p.lambda_perp, p.lambda_par + h) - r(p.lambda_perp, p.lambda_par - h)) / (2 * h)
    return math.hypot(d_perp, d_par)


def default_map_gradient(p: AnisotropyParams) -> tuple[float, float]:
    """Analytic gradient of R = 2 lp^2 / ll^2."""
    lp, ll = p.lambda_perp, p.lambda_par
    return 4.0 * lp / ll**2, -4.0 * lp**2 / ll**3


def orbifold_euler_characteristic(w: WeightPair) -> Fraction:
    """Exact chi = 2 - (1 - 1/a) - (1 - 1/b) = 1/a + 1/b."""
    return Fraction(1, w.a) + Fraction(1, w.b)


def curvature_sweep(perp_values, par_values) -> list[dict]:
    """Landscape rows: lambda_perp, lambda_par, b_eff, R and the exact grad_norm."""
    rows = []
    for lp in perp_values:
        for ll in par_values:
            p = AnisotropyParams(lp, ll)
            b = effective_weight(p)
            rows.append(
                {
                    "lambda_perp": lp,
                    "lambda_par": ll,
                    "b_eff": b,
                    "R": scalar_curvature(b),
                    "grad_norm": math.hypot(*default_map_gradient(p)),
                }
            )
    return rows
