"""Fusion, identity removal, color change, normalization and its invariants."""

from __future__ import annotations

import hashlib
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import chain, clique_region, path_region, random_small_diagram, spider
from test_normalize_golden import COUNT as GOLDEN_COUNT
from test_normalize_golden import EXPECTED as GOLDEN
from wplzx import diagram as dg
from wplzx.diagram import (
    BoundaryPort,
    Node,
    NodePort,
    Wire,
    build,
    monochrome_regions,
    serialize,
)
from wplzx.errors import (
    ColorMismatch,
    GridOverflow,
    NotConnected,
    NotIdentity,
    ResourceCapError,
    TraceReplayError,
)
from wplzx.phase import GRID_ORDER_CAP, RationalAngle, SpiderLabel, lcm_order, total_angle
from wplzx.rewrite import (
    RewriteTrace,
    TraceEntry,
    _fold,
    apply_trace,
    canonical_label,
    color_change,
    fuse_pair,
    identity_removal,
    node_total_angle,
    wzcc_normalize,
)
from wplzx.semantics import equal_up_to_global_phase, evaluate

RA = RationalAngle


# --- fuse_pair ---


def test_fuse_mixed_grid_example():
    d = chain(spider(0, dg.Z, a=4, alpha=(1, 4)), spider(1, dg.Z, a=6, alpha=(1, 6)))
    fused = fuse_pair(d, 0, 1)
    (node,) = fused.spiders
    assert node.label.grid == 12
    assert total_angle(node.label).turns == RA(5, 12)  # 5pi/6


def test_fuse_trivial_grid_adds_phases():
    d = chain(spider(0, dg.Z, alpha=(1, 8)), spider(1, dg.Z, alpha=(1, 5)))
    fused = fuse_pair(d, 0, 1)
    (node,) = fused.spiders
    assert node.label.grid == 1
    assert node.label.alpha == RA(13, 40)
    assert node.label.winding == RA(0)


def test_fuse_inverse_pair_cancels_then_identity_removable():
    a = spider(0, dg.Z, a=6, alpha=(1, 6), k=(1, 2))
    b = spider(1, dg.Z, a=6, alpha=(-1, 6), k=(-1, 2))
    d = chain(a, b)
    fused = fuse_pair(d, 0, 1)
    (node,) = fused.spiders
    assert node_total_angle(node).is_zero()
    wire_only = identity_removal(fused, 0)
    assert len(wire_only.spiders) == 0
    assert np.allclose(evaluate(wire_only), np.eye(2))


def test_fuse_winding_lift_coefficients():
    # k lifts by L/a per side: (a=2, k=1/2) with (a=3, k=1/3) on L=6
    d = chain(
        spider(0, dg.Z, a=2, alpha=(1, 6), k=(1, 2)),
        spider(1, dg.Z, a=3, alpha=(1, 12), k=(1, 3)),
    )
    fused = fuse_pair(d, 0, 1)
    (node,) = fused.spiders
    assert node.label.grid == 6
    # (6/2)(1/2) + (6/3)(1/3) = 3/2 + 2/3
    assert node.label.winding.fraction == Fraction(3, 2) + Fraction(2, 3)
    # total angle must equal the sum of total angles
    want = (
        total_angle(d.node(0).label).turns.fraction
        + total_angle(d.node(1).label).turns.fraction
    ) % 1
    assert total_angle(node.label).turns.fraction == want


def test_fuse_errors():
    d = chain(spider(0, dg.Z), spider(1, dg.X))
    with pytest.raises(ColorMismatch):
        fuse_pair(d, 0, 1)
    d2 = build(
        [spider(0, dg.Z, ins=0, outs=1), spider(1, dg.Z, ins=0, outs=1)],
        [
            Wire(NodePort(0, 0), BoundaryPort(dg.OUT, 0)),
            Wire(NodePort(1, 0), BoundaryPort(dg.OUT, 1)),
        ],
        0,
        2,
    )
    with pytest.raises(NotConnected):
        fuse_pair(d2, 0, 1)
    with pytest.raises(NotConnected):
        fuse_pair(d2, 0, 5)


def test_fuse_multi_wire_drops_all_connecting_legs():
    # two spiders joined by 2 wires, each with one extra boundary leg
    nodes = [
        Node(0, dg.Z, SpiderLabel(4, RA(1, 4)), 1, 2),
        Node(1, dg.Z, SpiderLabel(6, RA(1, 6)), 2, 1),
    ]
    wires = [
        Wire(BoundaryPort(dg.IN, 0), NodePort(0, 0)),
        Wire(NodePort(0, 1), NodePort(1, 0)),
        Wire(NodePort(0, 2), NodePort(1, 1)),
        Wire(NodePort(1, 2), BoundaryPort(dg.OUT, 0)),
    ]
    d = build(nodes, wires, 1, 1)
    before = evaluate(d)
    fused = fuse_pair(d, 0, 1)
    (node,) = fused.spiders
    assert node.degree == 2  # arity dropped by 2c = 4
    assert len(dg.to_json_obj(fused)["wires"]) == 2
    assert equal_up_to_global_phase(evaluate(fused), before)


def test_fuse_cap_overflow():
    d = chain(
        spider(0, dg.Z, a=2**11, alpha=(0, 1)), spider(1, dg.Z, a=2**10 + 1, alpha=(0, 1))
    )
    with pytest.raises(GridOverflow):
        fuse_pair(d, 0, 1)


def test_fusion_is_semantics_preserving_randomized():
    for seed in range(30):
        d = random_small_diagram(seed, max_spiders=8, max_qubits=3)
        regions = [r for r in monochrome_regions(d) if len(r) >= 2]
        if not regions:
            continue
        region = sorted(regions[0])
        u, v = None, None
        for a, b in itertools.combinations(region, 2):
            if d.wires_between(a, b):
                u, v = a, b
                break
        if u is None:
            continue
        before = evaluate(d)
        after = evaluate(fuse_pair(d, u, v))
        assert equal_up_to_global_phase(after, before), f"seed {seed}"


# --- identity removal ---


def test_identity_removal_plain():
    d = chain(spider(0, dg.Z, a=4))
    out = identity_removal(d, 0)
    assert len(out.spiders) == 0
    assert np.allclose(evaluate(out), np.eye(2))


def test_identity_removal_rejects_nonzero_angle():
    # pi + (2pi/2)(1/2) = 3pi/2 != 0
    d = chain(spider(0, dg.Z, a=2, alpha=(1, 2), k=(1, 2)))
    assert node_total_angle(d.node(0)).turns == RA(3, 4)
    with pytest.raises(NotIdentity):
        identity_removal(d, 0)


def test_identity_removal_solved_winding():
    # 3pi/2 + (2pi/6) k = 0 mod 2pi at k = 3/2
    d = chain(spider(0, dg.Z, a=6, alpha=(3, 4), k=(3, 2)))
    assert node_total_angle(d.node(0)).is_zero()
    out = identity_removal(d, 0)
    assert len(out.spiders) == 0
    # ... and at k = -9/2
    d2 = chain(spider(0, dg.Z, a=6, alpha=(3, 4), k=(-9, 2)))
    assert len(identity_removal(d2, 0).spiders) == 0


def test_identity_removal_requires_one_in_one_out():
    n = spider(0, dg.Z, ins=2, outs=0)
    d = build(
        [n],
        [
            Wire(BoundaryPort(dg.IN, 0), NodePort(0, 0)),
            Wire(BoundaryPort(dg.IN, 1), NodePort(0, 1)),
        ],
        2,
        0,
    )
    with pytest.raises(NotIdentity):
        identity_removal(d, 0)


def test_identity_removal_rejects_self_loop():
    n = spider(0, dg.Z, ins=1, outs=1)
    d = build([n], [Wire(NodePort(0, 0), NodePort(0, 1))], 0, 0)
    with pytest.raises(NotIdentity):
        identity_removal(d, 0)


def test_identity_removal_rejects_a_loop_through_one_hadamard():
    # both legs of the identity go to the one Hadamard node: splicing them
    # would leave that node a self-loop, which no diagram may hold
    d = build(
        [spider(0, dg.Z), Node("h", dg.H, None, 1, 1)],
        [Wire(NodePort(0, 0), NodePort("h", 1)), Wire(NodePort(0, 1), NodePort("h", 0))],
        0,
        0,
    )
    with pytest.raises(NotIdentity, match="self-loop on Hadamard node 'h'"):
        identity_removal(d, 0)


# --- color change ---


def test_color_change_zx_fragment():
    d = chain(spider(0, dg.Z, alpha=(2, 7)))
    before = evaluate(d)
    flipped = color_change(d, 0)
    (node,) = flipped.spiders
    assert node.kind == dg.X
    assert node.label.alpha == RA(2, 7)
    assert sum(1 for n in flipped.nodes if n.kind == dg.H) == 2
    assert np.allclose(evaluate(flipped), before)


def test_color_change_weighted_label_preserved():
    d = chain(spider(0, dg.Z, a=2, alpha=(1, 6), k=(1, 2)))
    before = evaluate(d)
    flipped = color_change(d, 0)
    (node,) = flipped.spiders
    assert (node.label.grid, node.label.alpha, node.label.winding) == (
        2,
        RA(1, 6),
        RA(1, 2),
    )
    assert np.allclose(evaluate(flipped), before)


def test_color_change_double_application_semantically_identity():
    d = chain(spider(0, dg.Z, a=4, alpha=(1, 4), k=(2, 1)), spider(1, dg.X, alpha=(1, 3)))
    before = evaluate(d)
    twice = color_change(color_change(d, 0), 0)
    assert equal_up_to_global_phase(evaluate(twice), before)


def test_color_change_multi_leg_and_self_loop():
    n = Node(0, dg.Z, SpiderLabel(4, RA(1, 4)), 2, 2)
    wires = [
        Wire(BoundaryPort(dg.IN, 0), NodePort(0, 0)),
        Wire(NodePort(0, 1), NodePort(0, 2)),  # self loop
        Wire(NodePort(0, 3), BoundaryPort(dg.OUT, 0)),
    ]
    d = build([n], wires, 1, 1)
    before = evaluate(d)
    flipped = color_change(d, 0)
    assert sum(1 for x in flipped.nodes if x.kind == dg.H) == 4
    assert np.allclose(evaluate(flipped), before)


@pytest.mark.parametrize(
    "rule, error", [(identity_removal, NotIdentity), (color_change, ColorMismatch)]
)
def test_single_spider_rules_name_a_missing_node(rule, error):
    d = chain(spider(0, dg.Z))
    with pytest.raises(error, match=r"^no node 5$"):
        rule(d, 5)
    with pytest.raises(error, match=r"^no node 'h0'$"):
        rule(d, "h0")


# sha256 of the outcomes below, recorded from the Wire-object forms of both
# rules before they were rewritten on the port tables
SINGLE_RULE_DIGEST = "c617fc80156c6cdce27c1a51cbb43288d31520e3dff5dbafbfc780fc3a5443f7"


def test_single_spider_rules_are_byte_pinned():
    """color_change and identity_removal on the first 10 spiders of each
    seed-3/7 d1-main diagram, of its normal form and of the port-table
    cases (self-loops, parallel wires, bare boundary wires, node ids "in"
    and "out"); an outcome is the serialized result, or the error's class
    and message."""
    from test_diagram import _d1_main_diagrams, _port_table_cases

    def outcome(rule, d, nid):
        try:
            return serialize(rule(d, nid))
        except Exception as exc:
            return f"{type(exc).__name__}: {exc}"

    digest = hashlib.sha256()
    for d in [*_d1_main_diagrams(), *_port_table_cases()]:
        for s in d.spiders[:10]:
            for rule in (color_change, identity_removal):
                text = f"{rule.__name__} {s.id!r}\n{outcome(rule, d, s.id)}\n"
                digest.update(text.encode("utf-8"))
    assert digest.hexdigest() == SINGLE_RULE_DIGEST


# --- canonical_label ---


def test_canonical_label_single_spider():
    lab = SpiderLabel(6, RA(1, 6), RA(2))
    out = canonical_label([lab])
    assert out.L == 6
    assert out.theta == total_angle(lab)
    assert out.on_grid
    # A lone grid is taken as it is; only lcm refinement checks the cap.
    assert canonical_label([SpiderLabel(2**21)]).L == 2**21


def test_canonical_label_mixed_grid_pair():
    # theta1 = pi/3 + pi/2 = 5pi/6, theta2 = pi/6 + 2pi/9 = 7pi/18
    # total = 5pi/6 + 7pi/18 = 11pi/9 -> 11/18 turns
    s1 = SpiderLabel(2, RA(1, 6), RA(1, 2))
    s2 = SpiderLabel(3, RA(1, 12), RA(1, 3))
    out = canonical_label([s1, s2])
    assert out.L == 6
    assert out.theta.turns == RA(11, 18)
    assert not out.on_grid  # 11/18 is not a multiple of 1/6


def test_canonical_label_order_independent():
    labels = [
        SpiderLabel(2, RA(1, 2), RA(1)),
        SpiderLabel(3, RA(1, 3), RA(2)),
        SpiderLabel(4, RA(3, 4), RA(1, 2)),
        SpiderLabel(6, RA(5, 6), RA(5)),
    ]
    reference = canonical_label(labels)
    for perm in itertools.permutations(labels):
        assert canonical_label(list(perm)) == reference


def test_canonical_label_empty_rejected():
    with pytest.raises(ValueError):
        canonical_label([])


def _fold_reference(labels) -> SpiderLabel:
    """The fused label in Fraction arithmetic, one label at a time: alpha
    reduced mod 1 after each addition, the winding rescaled at each lcm."""
    first = labels[0]
    L, alpha, k = first.grid, first.alpha.fraction, first.winding.fraction
    for lab in labels[1:]:
        L_new = lcm_order(L, lab.grid)
        k = k * (L_new // L) + lab.winding.fraction * (L_new // lab.grid)
        alpha = (alpha + lab.alpha.fraction) % 1
        L = L_new
    return SpiderLabel(L, RA(alpha.numerator, alpha.denominator), RA(k.numerator, k.denominator))


def test_fold_matches_fraction_reference():
    rng = random.Random("fold")
    grids = [1, 2, 3, 4, 5, 6, 8, 12, 16, 1021, 1024]

    def label():
        a = rng.choice(grids)
        den = rng.choice([1, 2, 3, a, 2 * a])
        alpha = RA(rng.randrange(-3 * den, 3 * den), den)  # alpha < 0 and >= 1 too
        return SpiderLabel(a, alpha, RA(rng.randrange(-4, 5), rng.choice([1, 2, 3])))

    def outcome(fold, labels):
        try:
            return fold(labels)
        except GridOverflow as exc:
            return str(exc)

    outcomes = []
    for n in [1] * 50 + [2, 3, 4, 6] * 100:
        labels = [label() for _ in range(n)]
        outcomes.append(outcome(_fold, labels))
        assert outcomes[-1] == outcome(_fold_reference, labels), labels
    assert 0 < sum(isinstance(x, str) for x in outcomes) < len(outcomes) // 4
    # A lone label comes back as it is, alpha not reduced mod 1.
    for alpha in (RA(5, 4), RA(-1, 4), RA(7, 2)):
        lab = SpiderLabel(4, alpha, RA(1, 2))
        assert _fold([lab]) == lab == _fold_reference([lab])
    # Mixed grids with a fractional winding.
    labels = [SpiderLabel(2, RA(3, 2), RA(1, 2)), SpiderLabel(3, RA(-1, 3), RA(1, 2))]
    assert _fold(labels) == SpiderLabel(6, RA(1, 6), RA(5, 2)) == _fold_reference(labels)


@pytest.mark.parametrize(
    "grids",
    [[1024, 1021, 3], [1024, 1024, 1021, 3, 5], [2, 1021, 1024, 7], [1 << 20, 3], [3, 1 << 20]],
)
def test_fold_overflow_message_matches_reference(grids):
    labels = [SpiderLabel(a, RA(1, a), RA(1, 2)) for a in grids]
    with pytest.raises(GridOverflow) as want:
        _fold_reference(labels)
    with pytest.raises(GridOverflow) as got:
        _fold(labels)
    assert str(got.value) == str(want.value)
    assert str(GRID_ORDER_CAP) in str(got.value)


# --- wzcc_normalize ---


def test_normalize_euler_chain_keeps_three_regions():
    d = chain(
        spider(0, dg.Z, alpha=(1, 8)),
        spider(1, dg.X, alpha=(1, 3)),
        spider(2, dg.Z, alpha=(1, 5)),
    )
    norm, labels, _ = wzcc_normalize(d)
    assert len(norm.spiders) == 3
    assert len(labels) == 3


def test_normalize_adjacent_z_pair_fuses():
    # Z(a) Z(g) X(b) -> Z(a+g) X(b)
    d = chain(
        spider(0, dg.Z, alpha=(1, 8)),
        spider(1, dg.Z, alpha=(1, 5)),
        spider(2, dg.X, alpha=(1, 3)),
    )
    norm, labels, _ = wzcc_normalize(d)
    assert len(norm.spiders) == 2
    zs = [n for n in norm.spiders if n.kind == dg.Z]
    assert len(zs) == 1
    assert zs[0].label.alpha == RA(13, 40)
    assert zs[0].label.winding == RA(0)


def test_normalize_mixed_grid_triple():
    # theta sums: 4pi/3 + 5pi/6 - pi/2 = 5pi/3 on L = 6
    labels = [
        SpiderLabel(2, RA(1, 6), RA(1)),
        SpiderLabel(3, RA(1, 12), RA(1)),
        SpiderLabel(2, RA(-1, 4), RA(0)),
    ]
    d = clique_region(labels, dg.Z)
    norm, canon, _ = wzcc_normalize(d)
    assert len(norm.spiders) == 1
    (lab,) = canon
    assert lab.L == 6
    assert lab.theta.turns == RA(5, 6)  # 5pi/3
    assert lab.on_grid
    (node,) = norm.spiders
    assert node.label == SpiderLabel(6, RA(5, 6), RA(0))


def test_normalize_idempotent_bytes():
    for seed in (0, 3, 11):
        d = random_small_diagram(seed, max_spiders=12, max_qubits=4)
        once, labels1, _ = wzcc_normalize(d)
        twice, labels2, trace2 = wzcc_normalize(once)
        assert serialize(once) == serialize(twice)
        assert len(trace2) == 0
        # winding_sum is a pre-normalization side channel, so only the
        # canonical (L, theta, arity) data must agree across passes
        assert [(l.L, l.theta, l.in_arity, l.out_arity) for l in labels1] == [
            (l.L, l.theta, l.in_arity, l.out_arity) for l in labels2
        ]


def test_normalize_single_spider_absorbs_winding():
    d = chain(spider(0, dg.Z, a=4, alpha=(1, 4), k=(3, 1)))
    norm, labels, trace = wzcc_normalize(d)
    (node,) = norm.spiders
    assert node.label == SpiderLabel(4, RA(0), RA(0))
    assert labels[0].winding_sum == RA(3)
    assert len(trace) == 1 and trace.entries[0].rule == "normalize-label"


def test_normalize_trace_replays():
    for seed in range(20):
        d = random_small_diagram(seed, max_spiders=10, max_qubits=4)
        norm, _, trace = wzcc_normalize(d)
        assert apply_trace(d, trace) == norm


def test_normalize_fuses_in_smallest_id_frontier_order():
    # chain in -> 0 -> 5 -> 1 -> 3 -> out: the region grows from 0 through
    # its smallest-id neighbour, not in plain id order
    d = chain(*(spider(i, dg.Z, a=2, alpha=(1, 4)) for i in (0, 5, 1, 3)))
    norm, _, trace = wzcc_normalize(d)
    assert [e.consumed for e in trace.entries if e.rule == "fuse"] == [
        (0, 5), (0, 1), (0, 3)
    ]
    assert apply_trace(d, trace) == norm


def test_normalize_builds_a_fixed_number_of_times(monkeypatch):
    import wplzx.rewrite as rw

    calls = []
    real_build = rw.build

    def counting_build(*args, **kwargs):
        calls.append(1)
        return real_build(*args, **kwargs)

    monkeypatch.setattr(rw, "build", counting_build)
    for n in (2, 9, 60):
        d = path_region([SpiderLabel(4, RA(1, 4), RA(1))] * n)
        calls.clear()
        norm, _, trace = wzcc_normalize(d)
        assert len(norm.spiders) == 1
        assert sum(e.rule == "fuse" for e in trace.entries) == n - 1
        assert len(calls) <= 2


def test_normalize_region_over_grid_cap_raises():
    # lcm(1024, 1021) fits under 2**20; folding in the grid 3 does not
    d = path_region([SpiderLabel(1024), SpiderLabel(1021), SpiderLabel(3)])
    with pytest.raises(GridOverflow, match="exceeds grid-order cap"):
        wzcc_normalize(d)


def test_corrupted_trace_fails_replay():
    d = chain(spider(0, dg.Z, alpha=(1, 8)), spider(1, dg.Z, alpha=(1, 5)))
    _, _, trace = wzcc_normalize(d)
    bad = trace.to_jsonl().replace('"consumed":[0,1]', '"consumed":[0,7]')
    from wplzx.rewrite import RewriteTrace

    with pytest.raises(TraceReplayError):
        apply_trace(d, RewriteTrace.from_jsonl(bad))


def test_trace_jsonl_roundtrip():
    d = chain(spider(0, dg.Z, alpha=(1, 8)), spider(1, dg.Z, alpha=(1, 5)))
    _, _, trace = wzcc_normalize(d)
    from wplzx.rewrite import RewriteTrace

    again = RewriteTrace.from_jsonl(trace.to_jsonl())
    assert again.entries == trace.entries


# --- fusion invariants (grid lcm, total-phase sum) over the state space ---


def _fusion_states(d, region):
    """Explore every reachable fusion state of a region (dedup by partition)."""
    from wplzx.rewrite import fuse_pair as fp

    region = sorted(region)
    start = (d, tuple(frozenset((r,)) for r in region))
    seen = {start[1]: d}
    frontier = [start]
    while frontier:
        cur_d, parts = frontier.pop()
        alive = [min(p) for p in parts]
        for u, v in itertools.combinations(alive, 2):
            if not cur_d.wires_between(u, v):
                continue
            nxt = fp(cur_d, u, v)
            merged = []
            pu = next(p for p in parts if u in p)
            pv = next(p for p in parts if v in p)
            for p in parts:
                if p not in (pu, pv):
                    merged.append(p)
            merged.append(pu | pv)
            key = tuple(sorted(merged, key=min))
            if key not in seen:
                seen[key] = nxt
                frontier.append((nxt, key))
    return seen


def test_invariants_hold_on_every_fusion_path():
    for seed in range(12):
        d = random_small_diagram(seed, max_spiders=6, max_qubits=2)
        regions = [r for r in monochrome_regions(d) if 2 <= len(r) <= 5]
        for region in regions[:2]:
            region_l = sorted(region)
            want_L = 1
            want_theta = Fraction(0)
            for r in region_l:
                want_L = math.lcm(want_L, d.node(r).label.grid)
                want_theta += total_angle(d.node(r).label).turns.fraction
            states = _fusion_states(d, region)
            for parts, state in states.items():
                # grid invariance: lcm over current labels is unchanged
                got_L = 1
                got_theta = Fraction(0)
                for p in parts:
                    lab = state.node(min(p)).label
                    got_L = math.lcm(got_L, lab.grid)
                    got_theta += total_angle(lab).turns.fraction
                assert got_L == want_L
                # phase invariance: sum of total angles mod 1 is unchanged
                assert got_theta % 1 == want_theta % 1
                # fully fused states all carry the same canonical label
                if len(parts) == 1:
                    lab = state.node(min(parts[0])).label
                    assert lab.grid == want_L
                    assert total_angle(lab).turns.fraction == want_theta % 1


def test_termination_bound():
    for seed in range(10):
        d = random_small_diagram(seed, max_spiders=10, max_qubits=3)
        _, _, trace = wzcc_normalize(d)
        fusions = [e for e in trace.entries if e.rule == "fuse"]
        assert len(fusions) <= len(d.spiders)


# --- soundness across the normalizer (I3 preview; full sweep in acceptance) ---


def test_normalize_soundness_small_batch():
    for seed in range(25):
        d = random_small_diagram(seed, max_spiders=10, max_qubits=3)
        norm, _, _ = wzcc_normalize(d)
        assert equal_up_to_global_phase(evaluate(norm), evaluate(d)), f"seed {seed}"


def test_zx_fragment_conservativity():
    # a = 1, k = 0 everywhere: fusion is textbook phase addition
    for seed in range(10):
        rng = np.random.default_rng(seed)
        alphas = [RA(int(rng.integers(0, 16)), 16) for _ in range(4)]
        d = path_region([SpiderLabel(1, al) for al in alphas], dg.Z)
        norm, labels, _ = wzcc_normalize(d)
        assert len(norm.spiders) == 1
        want = sum((al.fraction for al in alphas), Fraction(0)) % 1
        assert labels[0].theta.turns.fraction == want
        assert labels[0].L == 1


# --- trace replay ---


def _replay_stepwise(d, trace):
    """Reference replay: one rewrite and one ``build`` per trace entry."""
    cur = d
    for entry in trace.entries:
        try:
            if entry.rule == "fuse":
                u, v = entry.consumed
                cur = fuse_pair(cur, u, v)
            elif entry.rule == "normalize-label":
                (nid,) = entry.consumed
                label = SpiderLabel.from_json(entry.detail["label"])
                old = cur.node(nid)
                new = Node(nid, old.kind, label, old.ins, old.outs)
                nodes = [new if n.id == nid else n for n in cur.nodes]
                wires = [(p, q) for p, q in enumerate(cur.far) if p < q]
                cur = build(nodes, wires, cur.n_inputs, cur.n_outputs)
            elif entry.rule == "identity-removal":
                (nid,) = entry.consumed
                cur = identity_removal(cur, nid)
            elif entry.rule == "color-change":
                (nid,) = entry.consumed
                cur = color_change(cur, nid)
            else:
                raise TraceReplayError(f"unknown rule {entry.rule!r}")
        except TraceReplayError:
            raise
        except ResourceCapError as exc:
            raise type(exc)(f"trace entry {entry} failed: {exc}") from exc
        except Exception as exc:
            raise TraceReplayError(f"trace entry {entry} failed: {exc}") from exc
    return cur


def _trace(*steps) -> RewriteTrace:
    """("fuse", u, v), ("label", id, SpiderLabel), ("identity", id), ("color", id)."""
    entries = []
    for rule, *args in steps:
        if rule == "fuse":
            entries.append(TraceEntry("fuse", tuple(args), tuple(args[:1])))
        elif rule == "label":
            nid, label = args
            entries.append(
                TraceEntry("normalize-label", (nid,), (nid,), {"label": label.to_json()})
            )
        else:
            rule = {"identity": "identity-removal", "color": "color-change"}.get(rule, rule)
            entries.append(TraceEntry(rule, tuple(args), tuple(args)))
    return RewriteTrace(entries)


def _random_trace(d, seed, steps=16) -> RewriteTrace:
    """Valid trace of random pairwise fusions in either direction, label
    replacements, color changes and identity removals."""
    r = np.random.default_rng(seed)
    cur, entries = d, []
    for _ in range(steps):
        # positions in cur.nodes are in id order, so sorted position pairs
        # list the wired pairs by id
        near = dg._adjacency(cur)
        ids = [n.id for n in cur.nodes]
        pairs = [(ids[i], ids[j]) for i in sorted(near) for j in sorted(near[i]) if i < j]
        spiders = cur.spiders
        roll = r.random()
        if pairs and roll < 0.55:
            u, v = pairs[int(r.integers(len(pairs)))]
            step = ("fuse", u, v) if r.random() < 0.5 else ("fuse", v, u)
        elif spiders and roll < 0.85:
            nid = spiders[int(r.integers(len(spiders)))].id
            a = int(r.choice([1, 2, 3, 4, 6]))
            label = SpiderLabel(a, RA(int(r.integers(0, 8)), 8), RA(int(r.integers(-2, 3))))
            if r.random() < 0.3:
                label = SpiderLabel(a)  # zero total angle: a removable identity
            step = ("label", nid, label)
        elif spiders and roll < 0.93:
            step = ("color", spiders[int(r.integers(len(spiders)))].id)
        else:
            ids = [n.id for n in spiders if (n.ins, n.outs) == (1, 1)]
            step = ("identity", ids[int(r.integers(len(ids)))]) if ids else None
        if step is None:
            continue
        (entry,) = _trace(step).entries
        try:
            cur = _replay_stepwise(cur, RewriteTrace([entry]))
        except TraceReplayError:
            continue  # e.g. an identity removal on a nonzero angle
        entries.append(entry)
    return RewriteTrace(entries)


def _assert_replays_like_reference(d, trace):
    assert serialize(apply_trace(d, trace)) == serialize(_replay_stepwise(d, trace))


@pytest.fixture(scope="module", params=sorted(GOLDEN))
def golden_corpus(request):
    """The d1-main corpora whose normalize outputs test_normalize_golden pins,
    with their normalize traces."""
    from wplzx import datasets

    cfg = datasets.preset("d1-main", seed=request.param)
    items = []
    for i in range(GOLDEN_COUNT):
        d = datasets.gen_random_wplzx(cfg, instance=i)
        _, _, trace = wzcc_normalize(d)
        items.append((f"{i:03d}", d, RewriteTrace.from_jsonl(trace.to_jsonl())))
    return request.param, items


def test_replay_reproduces_golden_normalize_digests(golden_corpus):
    seed, items = golden_corpus
    for instance, d, trace in items:
        text = serialize(apply_trace(d, trace))
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == GOLDEN[seed][instance][0]


def test_replay_matches_stepwise_reference_on_d1_main(golden_corpus):
    _, items = golden_corpus
    for _, d, trace in items:
        _assert_replays_like_reference(d, trace)


def test_replay_matches_stepwise_reference_on_random_traces():
    for seed in range(40):
        d = random_small_diagram(seed)
        _assert_replays_like_reference(d, wzcc_normalize(d)[2])
        trace = _random_trace(d, seed)
        assert trace.entries
        _assert_replays_like_reference(d, trace)


def test_replay_absorbs_grown_groups_like_stepwise_fusion():
    """On a 200-spider path, the trace fuse(1, 0), fuse(2, 1), ... absorbs
    an ever larger group into a single spider; random fusion-only traces on
    paths and cliques grow groups on both sides of a fusion.  Each replays
    as stepwise fusion does."""
    grids = itertools.cycle((1, 2, 3, 4, 6))
    d = path_region([SpiderLabel(a, RA(1, a), RA(1)) for a in itertools.islice(grids, 200)])
    _assert_replays_like_reference(d, _trace(*(("fuse", i, i - 1) for i in range(1, 200))))
    rng = random.Random("grown-groups")
    for case in range(24):
        labels = [SpiderLabel(a, RA(rng.randrange(a), a), RA(rng.randrange(3))) for a in
                  (rng.choice((1, 2, 3, 4)) for _ in range(rng.randint(2, 30 if case % 2 else 8)))]
        d = path_region(labels) if case % 2 else clique_region(labels)
        cur, steps = d, []
        while True:
            near = dg._adjacency(cur)
            ids = [n.id for n in cur.nodes]
            pairs = sorted((ids[i], ids[j]) for i in near for j in near[i] if i < j)
            if not pairs:
                break
            u, v = rng.choice(pairs)
            if rng.random() < 0.5:
                u, v = v, u
            steps.append(("fuse", u, v))
            cur = fuse_pair(cur, u, v)
        assert len(steps) == len(labels) - 1
        _assert_replays_like_reference(d, _trace(*steps))


def _mixed_chain():
    # in -> Z0 -> Z1 -> Z2 -> X3 -> X4 -> Z5 -> H -> Z6 -> out
    return chain(
        spider(0, dg.Z, a=4, alpha=(1, 4), k=(1, 1)),
        spider(1, dg.Z, a=6, alpha=(1, 6)),
        spider(2, dg.Z, a=2, k=(1, 2)),
        spider(3, dg.X, a=3, alpha=(1, 3)),
        spider(4, dg.X, alpha=(1, 5)),
        spider(5, dg.Z, a=8, alpha=(3, 8)),
        Node("h", dg.H, None, 1, 1),
        spider(6, dg.Z),
    )


# lcm(1024, 1021) fits under 2**20; folding in the grid 3 does not
OVER_CAP = path_region([SpiderLabel(1024), SpiderLabel(1021), SpiderLabel(3)])
LAB_A = SpiderLabel(12, RA(5, 12), RA(0))
LAB_B = SpiderLabel(3, RA(1, 3), RA(2))


@pytest.mark.parametrize(
    "d, steps",
    [
        # a survivor absorbs spiders that had already absorbed others
        (
            clique_region([SpiderLabel(a, RA(1, a), RA(1)) for a in (2, 3, 4, 6)]),
            [("fuse", 3, 2), ("fuse", 1, 0), ("fuse", 1, 3)],
        ),
        (_mixed_chain(), [("fuse", 2, 1), ("fuse", 0, 2), ("fuse", 4, 3)]),
        # a fuse after a label replacement of either end starts a new run
        (_mixed_chain(), [("fuse", 0, 1), ("label", 0, LAB_A), ("fuse", 0, 2)]),
        (_mixed_chain(), [("label", 2, LAB_B), ("fuse", 1, 2), ("fuse", 1, 0)]),
        # repeated label replacement: the last one wins
        (_mixed_chain(), [("label", 5, LAB_A), ("label", 5, LAB_B), ("label", 5, LAB_A)]),
        # interleaved regions, split by per-entry rules
        (
            _mixed_chain(),
            [
                ("fuse", 1, 0), ("label", 1, LAB_A), ("color", 5), ("fuse", 3, 4),
                ("label", 3, LAB_B), ("label", 6, SpiderLabel(4)), ("identity", 6),
                ("fuse", 1, 2), ("label", 1, LAB_B),
            ],
        ),
    ],
)
def test_replay_matches_stepwise_reference_on_crafted_traces(d, steps):
    _assert_replays_like_reference(d, _trace(*steps))


@pytest.mark.parametrize(
    "d, steps, bad",
    [
        # an absorbed spider is gone: as a fusion end and as a label target
        (_mixed_chain(), [("fuse", 0, 1), ("fuse", 2, 1)], 1),
        (_mixed_chain(), [("fuse", 1, 2), ("fuse", 0, 1), ("label", 2, LAB_A)], 2),
        # an id the diagram never had
        (_mixed_chain(), [("fuse", 0, 1), ("fuse", 0, 99)], 1),
        (_mixed_chain(), [("label", 99, LAB_A)], 0),
        # wrong colour, and a Hadamard node as fusion end or label target
        (_mixed_chain(), [("fuse", 1, 0), ("fuse", 1, 2), ("fuse", 1, 3)], 2),
        (_mixed_chain(), [("fuse", 6, "h")], 0),
        (_mixed_chain(), [("fuse", 0, 1), ("label", "h", LAB_A)], 1),
        # no shared wire, also between groups that grew
        (_mixed_chain(), [("fuse", 0, 2)], 0),
        (_mixed_chain(), [("fuse", 0, 1), ("fuse", 3, 4), ("fuse", 0, 5)], 2),
        (_mixed_chain(), [("fuse", 0, 1), ("fuse", 0, 2), ("fuse", 0, 1)], 2),
        # the lcm grid passes the cap on the entry that folds it in
        (OVER_CAP, [("fuse", 0, 1), ("fuse", 0, 2)], 1),
        (OVER_CAP, [("fuse", 1, 2), ("fuse", 0, 1)], 1),
        (_mixed_chain(), [("fuse", 0, 1), ("bogus", 0)], 1),
    ],
)
def test_replay_fails_on_the_same_entry_as_reference(d, steps, bad):
    trace = _trace(*steps)
    # a passed resource cap keeps its own error type
    error = GridOverflow if d is OVER_CAP else TraceReplayError
    with pytest.raises(error) as want:
        _replay_stepwise(d, trace)
    with pytest.raises(error) as got:
        apply_trace(d, trace)
    assert str(got.value) == str(want.value)
    if steps[bad][0] != "bogus":
        assert str(got.value).startswith(f"trace entry {trace.entries[bad]} failed: ")


def test_a_group_wired_only_inside_itself_shares_no_wire():
    # after fuse(1, 2), member 1 is wired to member 2 of its own group, but
    # nothing in the group is wired to spider 5
    trace = _trace(("fuse", 1, 2), ("fuse", 5, 1))
    for replay in (_replay_stepwise, apply_trace):
        with pytest.raises(TraceReplayError, match="5 and 1 share no wire"):
            replay(_mixed_chain(), trace)


def test_replay_builds_once_per_run(monkeypatch):
    import wplzx.rewrite as rw

    calls = []
    real_build = rw.build

    def counting_build(*args, **kwargs):
        calls.append(1)
        return real_build(*args, **kwargs)

    monkeypatch.setattr(rw, "build", counting_build)
    for n in (2, 9, 60):
        d = path_region([SpiderLabel(4, RA(1, 4), RA(1))] * n)
        norm, _, trace = wzcc_normalize(d)
        assert sum(e.rule == "fuse" for e in trace.entries) == n - 1
        calls.clear()
        assert apply_trace(d, trace) == norm
        assert len(calls) == 1
    # fusing a relabelled spider closes the first run
    calls.clear()
    apply_trace(d, _trace(("fuse", 0, 1), ("label", 0, LAB_A), ("fuse", 0, 2)))
    assert len(calls) == 2
