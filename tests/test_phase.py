"""Exact grid arithmetic: frozen examples plus exhaustive small-range checks."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from wplzx.errors import GridOverflow, NotARefinement
from wplzx.phase import (
    RationalAngle,
    SpiderLabel,
    TotalAngle,
    add_on_lcm,
    lcm_order,
    snap_to_grid,
    total_angle,
)

RA = RationalAngle


def test_rational_angle_reduces_canonically():
    assert RA(2, 4) == RA(1, 2)
    assert RA(-3, -6) == RA(1, 2)
    assert RA(3, -6) == RA(-1, 2)
    assert RA(0, 7) == RA(0, 1)
    with pytest.raises(ZeroDivisionError):
        RA(1, 0)


def test_rational_angle_mod1_and_radians():
    assert RA(13, 12).mod1() == RA(1, 12)
    assert RA(-1, 4).mod1() == RA(3, 4)
    assert math.isclose(RA(1, 2).radians(), math.pi)
    # +, - and mod1 in integers against Fraction, over unreduced, negative
    # and 10**30-sized operands
    rng = random.Random("rational-angle-arithmetic")
    for _ in range(2000):
        bound = rng.choice([12, 10**30])
        x, y = (RA(rng.randint(-bound, bound), rng.randint(-bound, bound) or 1) for _ in "xy")
        for got, want in (
            (x + y, x.fraction + y.fraction),
            (x - y, x.fraction - y.fraction),
            (x.mod1(), x.fraction % 1),
        ):
            assert (got.num, got.den) == (want.numerator, want.denominator), (x, y)
    for f in (0.1, -0.0, 5e-324, 1e308, -2.5):
        assert RA.from_float(f).fraction == Fraction(f)
    for f, exc in ((math.nan, ValueError), (math.inf, OverflowError), (-math.inf, OverflowError)):
        for convert in (RA.from_float, Fraction):
            with pytest.raises(exc):
                convert(f)


def test_rational_angle_json_roundtrip():
    x = RA(-5, 8)
    assert RA.from_json(x.to_json()) == x
    assert x.to_json() == {"num": -5, "den": 8}


def test_lcm_order_examples():
    assert lcm_order(4, 6) == 12
    for n in (1, 2, 17, 64):
        assert lcm_order(1, n) == n
    assert lcm_order(256, 192) == 768


def test_lcm_order_properties():
    for a in range(1, 13):
        for b in range(1, 13):
            ab = lcm_order(a, b)
            assert ab == lcm_order(b, a)
            assert lcm_order(a, a) == a
            for c in range(1, 9):
                assert lcm_order(lcm_order(a, b), c) == lcm_order(a, lcm_order(b, c))


def test_lcm_order_cap():
    with pytest.raises(GridOverflow):
        lcm_order(2**11, 2**10 + 1)


def test_total_angle_examples():
    # ZX fragment: a=1, k=0 leaves the base phase unchanged
    assert total_angle(SpiderLabel(1, RA(3, 7))).turns == RA(3, 7)
    # pi/3 + (2pi/2) * 1/2 = pi/3 + pi/2 = 5pi/6
    lab = SpiderLabel(2, RA(1, 6), RA(1, 2))
    assert total_angle(lab).turns == RA(5, 12)
    # 3pi/2 + (2pi/6)*2 = 13pi/6 = pi/6 mod 2pi
    lab2 = SpiderLabel(6, RA(3, 4), RA(2))
    assert total_angle(lab2).turns == RA(1, 12)


def test_total_angle_gauge_invariance():
    # (alpha, k) -> (alpha + c/a, k - c) leaves the total angle unchanged
    for a in (1, 2, 3, 6, 8):
        for c in (-3, -1, 1, 2, 5):
            lab = SpiderLabel(a, RA(1, a), RA(3, 2))
            moved = SpiderLabel(a, RA(1, a) + RA(c, a), RA(3, 2) - RA(c))
            assert total_angle(lab) == total_angle(moved)


def test_total_angle_matches_fraction_formula():
    # integer arithmetic over the common denominator against (alpha + k/a) % 1,
    # with negative, fractional and off-grid alphas and windings
    alphas = [RA(0), RA(1, 2), RA(-3, 5), RA(7, 3), RA(-1, 24), RA(5, 7)]
    windings = [RA(n, m) for n in (-7, -2, -1, 0, 1, 3, 25) for m in (1, 2, 3)]
    for a in range(1, 25):
        for alpha in alphas + [RA(i, a) for i in (1, a - 1, 2 * a + 1)]:
            for k in windings:
                want = (alpha.fraction + k.fraction / a) % 1
                got = total_angle(SpiderLabel(a, alpha, k)).turns
                assert got.fraction == want, (a, alpha, k)
                assert (got.num, got.den) == (want.numerator, want.denominator)


def test_total_angle_range_invariant():
    for turns in (RA(3, 2), RA(-1, 4), RA(1), RA(-1), RA(25, 24)):
        with pytest.raises(ValueError):
            TotalAngle(turns)
    for turns in (RA(0), RA(23, 24), RA(1, 2)):
        assert TotalAngle(turns).turns == turns


def test_add_on_lcm_worked_example():
    # pi/2 (G_4) + pi/3 (G_6) = 5pi/6 on G_12, exactly
    out = add_on_lcm(RA(1, 4), 4, RA(1, 6), 6)
    assert out == RA(5, 12)
    assert out.is_grid_compliant(12)
    with pytest.raises(NotARefinement, match="^1/3 does not lie on the order-4 grid$"):
        add_on_lcm(RA(1, 3), 4, RA(0), 1)  # not on G_4 at all
    with pytest.raises(NotARefinement, match="^1/4 does not lie on the order-6 grid$"):
        add_on_lcm(RA(0), 1, RA(1, 4), 6)


def test_add_on_lcm_identity_and_wraparound():
    assert add_on_lcm(RA(3, 8), 8, RA(0), 1) == RA(3, 8)
    assert add_on_lcm(RA(1, 2), 2, RA(1, 2), 2) == RA(0)


def test_add_on_lcm_closure_exhaustive_small():
    # every pairwise sum lands exactly on the lcm grid
    for a in range(1, 13):
        for b in range(1, 13):
            target = lcm_order(a, b)
            for i in range(a):
                for j in range(b):
                    s = add_on_lcm(RA(i, a), a, RA(j, b), b)
                    assert s.is_grid_compliant(target)
                    assert s.fraction == (Fraction(i, a) + Fraction(j, b)) % 1


def test_subgroup_generation():
    # iterating the generators 1/a and 1/b reaches every point of G_lcm(a,b)
    for a, b in [(2, 3), (4, 6), (5, 4), (8, 12), (9, 6)]:
        target = lcm_order(a, b)
        seen = {RA(0)}
        frontier = [RA(0)]
        while frontier:
            cur = frontier.pop()
            for step, grid in ((RA(1, a), a), (RA(1, b), b)):
                nxt = add_on_lcm(cur, target, step, grid)
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        assert len(seen) == target


def test_snap_to_grid_examples():
    assert snap_to_grid(0.0, 4) == RA(0)
    # round(4 * 0.8 / 2pi) = round(0.509...) = 1 -> pi/2
    assert snap_to_grid(0.8, 4) == RA(1, 4)
    # wrap-around: just below a full turn snaps to 0
    eps = 0.1
    assert snap_to_grid(2 * math.pi - eps, 4) == RA(0)


def test_snap_to_grid_nearest_and_idempotent(rng):
    for _ in range(500):
        a = int(rng.integers(1, 33))
        theta = float(rng.uniform(-10, 10))
        snapped = snap_to_grid(theta, a)
        assert snapped.is_grid_compliant(a)
        # exhaustive nearest-point check over one period's candidates
        best = min(
            (abs(theta - 2 * math.pi * n / a) for n in range(-3 * a, 4 * a)),
        )
        got = min(
            abs(theta - (snapped.fraction + k) * 2 * math.pi) for k in (-2, -1, 0, 1, 2)
        )
        assert got <= best + 1e-12
        assert got <= math.pi / a + 1e-12
        # snapping a compliant phase returns it unchanged
        assert snap_to_grid(snapped.radians(), a) == snapped.mod1()


def test_snap_to_grid_ties_round_even():
    # exactly halfway between indices 0 and 1 on G_2: pi/2 -> index round(0.5) = 0
    assert snap_to_grid(math.pi / 2, 2) == RA(0)
    # halfway between 1 and 2 on G_2: 3pi/2 -> index round(1.5) = 2 -> 0 mod 2
    assert snap_to_grid(3 * math.pi / 2, 2) == RA(0)


def test_spider_label_compliance_flags():
    ok = SpiderLabel(6, RA(1, 3), RA(1, 2))
    assert ok.is_grid_compliant()
    off = SpiderLabel(4, RA(1, 3), RA(0))
    assert not off.is_grid_compliant()
