"""Exact arithmetic on quantized phase grids.

Angles are stored as exact rationals in units of *turns* (fractions of a full
2*pi rotation), so grid membership, lifting and modular addition are exact
statements rather than floating-point approximations.  Radians appear only at
the boundary to numerical code (:func:`RationalAngle.radians`,
:func:`snap_to_grid`).

The grid of order ``a`` is the cyclic set ``{n/a turns}``; a phase is
*grid-compliant* with ``a`` when its reduced denominator divides ``a``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import GridOverflow, NotARefinement, ParseError

TWO_PI = 2.0 * math.pi

# Cap on grid orders produced by LCM refinement.  Exceeding the cap raises
# GridOverflow rather than silently truncating.
GRID_ORDER_CAP = 1 << 20

_set_field = object.__setattr__  # how a frozen dataclass sets its own fields


def check_grid_order(a: int) -> int:
    if not isinstance(a, int) or isinstance(a, bool) or a < 1:
        raise ValueError(f"grid order must be a positive integer, got {a!r}")
    return a


def json_int(obj: dict, key: str) -> int:
    """obj[key], which must be a JSON integer; a bool, float, string or
    anything else raises ParseError rather than being truncated."""
    value = obj[key]
    if type(value) is not int:
        raise ParseError(f"{key} must be an integer, got {value!r}")
    return value


def json_number(value, name: str) -> float:
    """A JSON field ``name`` that must be a finite number (integer or
    float), as a float; a bool, string or anything else raises ParseError
    rather than being converted, and so do an integer too large for a float
    and the non-finite floats Python's ``json`` reads from ``1e400``,
    ``Infinity``, ``-Infinity`` and ``NaN``."""
    if type(value) not in (int, float):
        raise ParseError(f"{name} must be a number, got {value!r}")
    try:
        out = float(value)
    except OverflowError:
        raise ParseError(f"{name} is too large for a float") from None
    if not math.isfinite(out):
        raise ParseError(f"{name} must be a finite number, got {out!r}")
    return out


@dataclass(frozen=True, slots=True)
class RationalAngle:
    """An exact fraction of a full turn (or an exact rational winding count).

    Always stored in reduced form with a positive denominator, so equality is
    structural: two equal angles compare equal as dataclasses.
    """

    num: int
    den: int = 1

    def __init__(self, num: int, den: int = 1) -> None:
        # Reduces before storing, so each field is set once; hot in add_on_lcm.
        if den <= 0:
            if den == 0:
                raise ZeroDivisionError("RationalAngle denominator must be nonzero")
            num, den = -num, -den
        g = math.gcd(num, den)
        if g > 1:
            num //= g
            den //= g
        _set_field(self, "num", num)
        _set_field(self, "den", den)

    @classmethod
    def from_float(cls, x: float) -> RationalAngle:
        """Exact (dyadic) rational value of the float ``x``."""
        return cls(*x.as_integer_ratio())

    @property
    def fraction(self) -> Fraction:
        return Fraction(self.num, self.den)

    def radians(self) -> float:
        return TWO_PI * self.num / self.den

    def is_grid_compliant(self, a: int) -> bool:
        return check_grid_order(a) % self.den == 0

    def mod1(self) -> RationalAngle:
        """Reduce into the fundamental domain [0, 1) turns."""
        return RationalAngle(self.num % self.den, self.den)

    def __add__(self, other: RationalAngle) -> RationalAngle:
        return RationalAngle(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other: RationalAngle) -> RationalAngle:
        return RationalAngle(self.num * other.den - other.num * self.den, self.den * other.den)

    def __neg__(self) -> RationalAngle:
        return RationalAngle(-self.num, self.den)

    def __bool__(self) -> bool:
        return self.num != 0

    def to_json(self) -> dict:
        return {"num": self.num, "den": self.den}

    @classmethod
    def from_json(cls, obj: dict) -> RationalAngle:
        return cls(json_int(obj, "num"), json_int(obj, "den"))

    def __str__(self) -> str:
        return f"{self.num}/{self.den}" if self.den != 1 else str(self.num)


ZERO = RationalAngle(0)


@dataclass(frozen=True)
class SpiderLabel:
    """The (a, alpha, k) triple carried by a weighted spider.

    ``grid`` is the local grid order, ``alpha`` the base phase in turns and
    ``winding`` the winding index k (a pure count, not an angle; rational
    because fractional windings such as 1/2 occur at orbifold points).
    Grid compliance of alpha and winding is a checkable predicate, not a
    construction constraint, so off-grid labels (e.g. raw continuous phases)
    are representable.
    """

    grid: int
    alpha: RationalAngle = ZERO
    winding: RationalAngle = ZERO

    def __post_init__(self) -> None:
        check_grid_order(self.grid)

    def is_grid_compliant(self) -> bool:
        return (
            self.alpha.is_grid_compliant(self.grid)
            and self.winding.is_grid_compliant(self.grid)
        )

    @cached_property
    def total_angle(self) -> TotalAngle:
        """alpha + k/a, reduced mod one turn, computed exactly in integers
        over the common denominator alpha.den * k.den * a, once per label
        (a cached property, outside equality, hashing and repr)."""
        alpha, k, a = self.alpha, self.winding, self.grid
        den = alpha.den * k.den * a
        return TotalAngle(RationalAngle((alpha.num * k.den * a + k.num * alpha.den) % den, den))

    def to_json(self) -> dict:
        return {"a": self.grid, "alpha": self.alpha.to_json(), "k": self.winding.to_json()}

    @classmethod
    def from_json(cls, obj: dict) -> SpiderLabel:
        return cls(
            json_int(obj, "a"),
            RationalAngle.from_json(obj["alpha"]),
            RationalAngle.from_json(obj["k"]),
        )


@dataclass(frozen=True)
class TotalAngle:
    """A phase reduced into [0, 1) turns; the part semantics can see."""

    turns: RationalAngle

    def __post_init__(self) -> None:
        if not 0 <= self.turns.num < self.turns.den:
            raise ValueError(f"TotalAngle must lie in [0, 1) turns, got {self.turns}")

    def radians(self) -> float:
        return self.turns.radians()

    def is_zero(self) -> bool:
        return self.turns.num == 0


def lcm_order(a: int, b: int) -> int:
    """LCM refinement of two grid orders; commutative, associative, idempotent.

    GridOverflow when the result exceeds GRID_ORDER_CAP.
    """
    # Plain positive ints skip the two checker calls; hot in add_on_lcm.
    if type(a) is not int or type(b) is not int or a < 1 or b < 1:
        check_grid_order(a)
        check_grid_order(b)
    out = math.lcm(a, b)
    if out > GRID_ORDER_CAP:
        raise GridOverflow(f"lcm({a}, {b}) = {out} exceeds grid-order cap {GRID_ORDER_CAP}")
    return out


def total_angle(label: SpiderLabel) -> TotalAngle:
    """alpha + k/a, reduced mod one turn: ``label.total_angle``."""
    return label.total_angle


def add_on_lcm(alpha: RationalAngle, a: int, beta: RationalAngle, b: int) -> RationalAngle:
    """Add two grid phases exactly; the result lies on the lcm(a, b) grid.

    Pure index arithmetic on the refined grid: alpha = i/a turns lies at
    index i*(L/a) = alpha.num*(L/alpha.den) of the order-L grid, and the
    indices add mod L.  NotARefinement when alpha is off the order-a grid or
    beta off the order-b grid.
    """
    target = lcm_order(a, b)
    if a % alpha.den or b % beta.den:
        angle, order = (alpha, a) if a % alpha.den else (beta, b)
        raise NotARefinement(f"{angle} does not lie on the order-{order} grid")
    return RationalAngle(
        (alpha.num * (target // alpha.den) + beta.num * (target // beta.den)) % target, target
    )


def snap_to_grid(theta: float, a: int) -> RationalAngle:
    """Nearest order-``a`` grid point to ``theta`` radians, as exact turns.

    Exact halfway ties round to the even grid index (banker's rounding).
    The residual |theta - snapped| never exceeds pi/a.
    """
    check_grid_order(a)
    if not math.isfinite(theta):
        raise ValueError("snap_to_grid requires a finite angle")
    n = round(a * theta / TWO_PI)
    return RationalAngle(n % a, a)
