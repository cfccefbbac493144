"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Every tolerance is pinned here; nothing is deferred to calibration.
"""

from __future__ import annotations

import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from conftest import brute_force_min_matching, chain, random_small_diagram, spider, weight_fn
from wplzx import diagram as dg
from wplzx.datasets import (
    GenConfig,
    circuit_to_diagram,
    gen_hea,
    gen_random_wplzx,
    snapped_phases,
)
from wplzx.diagram import monochrome_regions, serialize
from wplzx.geometry import (
    AnisotropyParams,
    WeightPair,
    curvature_gradient_norm,
    default_map_gradient,
    orbifold_euler_characteristic,
    scalar_curvature,
)
from wplzx.masd import (
    NORMALIZED,
    RAW,
    DefectEdge,
    DefectGraph,
    DefectVertex,
    drg_toy,
    edge_weight,
    edge_weights,
    masd_decode,
    min_weight_perfect_matching,
    sample_surface_code,
    winding_difference,
)
from wplzx.masd.surface import build_code
from wplzx.metrics import csc, pqvr
from wplzx.phase import RationalAngle, SpiderLabel, add_on_lcm, lcm_order, total_angle
from wplzx.rewrite import canonical_label, fuse_pair, node_total_angle, wzcc_normalize
from wplzx.semantics import (
    equal_up_to_global_phase,
    equal_up_to_global_scalar,
    evaluate,
    fidelity,
    hadamard,
    max_phase_deviation,
    spider_matrix,
)

RA = RationalAngle


def _report(num: int, text: str, t0: float) -> None:
    print(f"PASS criterion {num}: {text} [{time.perf_counter() - t0:.2f}s]")


def test_criterion_01_grid_closure_exhaustive():
    t0 = time.perf_counter()
    for a in range(1, 25):
        alphas = [(RA(i, a), Fraction(i, a)) for i in range(a)]
        for b in range(1, 25):
            L = lcm_order(a, b)
            betas = [(RA(j, b), Fraction(j, b)) for j in range(b)]
            for ra, fa in alphas:
                for rb, fb in betas:
                    s = add_on_lcm(ra, a, rb, b)
                    assert L % s.den == 0
                    assert s.fraction == (fa + fb) % 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"closure sweep took {elapsed:.2f}s"
    _report(1, "add_on_lcm closed on G_lcm for all a,b <= 24, exhaustive", t0)


def test_criterion_02_worked_phase_example():
    t0 = time.perf_counter()
    out = add_on_lcm(RA(1, 4), 4, RA(1, 6), 6)
    assert out == RA(5, 12)  # 5pi/6
    assert out.is_grid_compliant(12)
    assert lcm_order(4, 6) == 12
    _report(2, "pi/2 (G_4) + pi/3 (G_6) = 5pi/6 on G_12 exactly", t0)


def _random_region(seed: int):
    """Connected same-color region of 3-6 spiders with random wiring/labels."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 7))
    kind = dg.Z if rng.random() < 0.5 else dg.X
    labels = []
    for _ in range(n):
        a = int(rng.choice([1, 2, 3, 4, 6, 8, 12]))
        alpha = RA(int(rng.integers(0, a)), a)
        k = RA(int(rng.integers(0, 2 * a)), int(rng.choice([1, 1, 2])))
        labels.append(SpiderLabel(a, alpha, k))
    # random spanning tree plus a few extra edges
    edges = set()
    order = list(rng.permutation(n))
    for i in range(1, n):
        edges.add(tuple(sorted((order[i], order[int(rng.integers(0, i))]))))
    extra = int(rng.integers(0, n))
    for _ in range(extra):
        u, v = rng.integers(0, n, size=2)
        if u != v:
            edges.add(tuple(sorted((int(u), int(v)))))
    # build: node i has one boundary leg plus its incident edges
    from wplzx.diagram import BoundaryPort, Node, NodePort, Wire, build

    deg = {i: 1 for i in range(n)}
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    nodes = [Node(i, kind, labels[i], 0, deg[i]) for i in range(n)]
    slot = {i: 0 for i in range(n)}
    wires = []
    for u, v in sorted(edges):
        wires.append(Wire(NodePort(u, slot[u]), NodePort(v, slot[v])))
        slot[u] += 1
        slot[v] += 1
    for i in range(n):
        wires.append(Wire(NodePort(i, slot[i]), BoundaryPort(dg.OUT, i)))
    return build(nodes, wires, 0, n), labels


def _explore_fusion_states(d, members):
    """Reachable fusion states, deduplicated by the region partition."""
    start_key = tuple(frozenset((m,)) for m in sorted(members))
    states = {start_key: d}
    frontier = [start_key]
    while frontier:
        key = frontier.pop()
        cur = states[key]
        alive = [min(p) for p in key]
        for u, v in itertools.combinations(alive, 2):
            if not cur.wires_between(u, v):
                continue
            pu = next(p for p in key if u in p)
            pv = next(p for p in key if v in p)
            nkey = tuple(
                sorted([p for p in key if p not in (pu, pv)] + [pu | pv], key=min)
            )
            if nkey in states:
                continue
            states[nkey] = fuse_pair(cur, u, v)
            frontier.append(nkey)
    return states


def test_criterion_03_and_04_order_independence_and_invariants():
    t0 = time.perf_counter()
    checked_regions = 0
    seed = 0
    while checked_regions < 500:
        d, labels = _random_region(seed)
        seed += 1
        members = list(range(len(labels)))
        want = canonical_label(labels)
        want_L = want.L
        want_theta = want.theta.turns.fraction

        states = _explore_fusion_states(d, members)
        complete = 0
        for key, state in states.items():
            got_L = 1
            got_theta = Fraction(0)
            for part in key:
                lab = state.node(min(part)).label
                got_L = math.lcm(got_L, lab.grid)
                got_theta += total_angle(lab).turns.fraction
            # criterion 4: the region lcm and the total-angle sum mod 2pi
            # hold at every intermediate state of every fusion order
            assert got_L == want_L
            assert got_theta % 1 == want_theta
            if len(key) == 1:
                complete += 1
                lab = state.node(min(key[0])).label
                # criterion 3: every maximal order ends on one label
                assert lab.grid == want_L
                assert total_angle(lab).turns.fraction == want_theta
        assert complete >= 1
        checked_regions += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"order-independence sweep took {elapsed:.2f}s"
    _report(3, f"500 regions: every fusion order gives one CanonicalLabel", t0)
    _report(4, "lcm and total-phase sums exact at every step of every order", t0)


def test_criterion_05_soundness_oracle():
    t0 = time.perf_counter()
    checked = 0
    seed = 0
    while checked < 200:
        d = random_small_diagram(seed, max_spiders=14, max_qubits=5)
        seed += 1
        if len(d.spiders) > 14 or d.n_inputs + d.n_outputs > 10:
            continue
        norm, _, _ = wzcc_normalize(d)
        before = evaluate(d)
        after = evaluate(norm)
        dev = max_phase_deviation(after, before)
        assert dev <= 1e-9, f"seed {seed - 1}: deviation {dev}"
        checked += 1

    # rule instances as matrix identities
    h = hadamard()
    z = spider_matrix(dg.Z, 1, 2, 0.0)
    x = spider_matrix(dg.X, 2, 1, 0.0)
    swap = np.eye(4, dtype=complex)[[0, 2, 1, 3]]
    i2 = np.eye(2, dtype=complex)
    bial_lhs = np.kron(x, x) @ np.kron(np.kron(i2, swap), i2) @ np.kron(z, z)
    assert equal_up_to_global_scalar(bial_lhs, z @ x)
    hopf_lhs = x @ z
    hopf_rhs = spider_matrix(dg.X, 0, 1, 0.0) @ spider_matrix(dg.Z, 1, 0, 0.0)
    assert equal_up_to_global_scalar(hopf_lhs, hopf_rhs)
    for m, n in [(1, 1), (2, 1), (1, 2)]:
        zmat = spider_matrix(dg.Z, m, n, 1.234)
        xmat = spider_matrix(dg.X, m, n, 1.234)
        hn = h if n == 1 else np.kron(h, h)
        hm = h if m == 1 else np.kron(h, h)
        assert np.allclose(hn @ zmat @ hm, xmat)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"soundness sweep took {elapsed:.2f}s"
    _report(5, "200 diagrams normalize matrix-identically (tol 1e-9) + rule identities", t0)


def test_criterion_06_zx_conservativity():
    t0 = time.perf_counter()
    # adjacent variant Z(a) Z(g) X(b) -> Z(a+g) X(b), textbook fusion
    a, g, b = RA(1, 8), RA(1, 5), RA(1, 3)
    d = chain(
        spider(0, dg.Z, alpha=(a.num, a.den)),
        spider(1, dg.Z, alpha=(g.num, g.den)),
        spider(2, dg.X, alpha=(b.num, b.den)),
    )
    norm, labels, _ = wzcc_normalize(d)
    zs = [n for n in norm.spiders if n.kind == dg.Z]
    xs = [n for n in norm.spiders if n.kind == dg.X]
    assert len(zs) == 1 and len(xs) == 1
    assert node_total_angle(zs[0]).turns == (a + g).mod1()
    assert node_total_angle(xs[0]).turns == b
    assert zs[0].label.grid == 1 and zs[0].label.winding == RA(0)
    assert equal_up_to_global_phase(evaluate(norm), evaluate(d))

    # non-adjacent Euler chain keeps its three regions
    d2 = chain(
        spider(0, dg.Z, alpha=(1, 8)),
        spider(1, dg.X, alpha=(1, 3)),
        spider(2, dg.Z, alpha=(1, 5)),
    )
    norm2, _, _ = wzcc_normalize(d2)
    assert len(norm2.spiders) == 3
    _report(6, "a=1,k=0 fragment reproduces textbook spider fusion", t0)


def test_criterion_07_noiseless_fp():
    t0 = time.perf_counter()
    e_raw_min = 1.0
    rng = np.random.default_rng(7070)
    for i in range(100):
        q = int(rng.integers(2, 7))
        layers = int(rng.integers(1, 7))
        cfg = GenConfig(seed=9000 + i, qubits=q, layers=layers)
        c = gen_hea(cfg)
        d = circuit_to_diagram(c)
        norm, _, _ = wzcc_normalize(d)
        u_raw = evaluate(d)
        u_norm = evaluate(norm)
        e0 = np.zeros(2**q)
        e0[0] = 1.0
        s_raw = u_raw @ e0
        s_norm = u_norm @ e0
        s_raw = s_raw / np.linalg.norm(s_raw)
        s_norm = s_norm / np.linalg.norm(s_norm)
        f = fidelity(s_raw, s_norm)
        e_raw_min = min(e_raw_min, f)
        assert f >= 1 - 1e-9, f"instance {i}: FP {f}"

        if i < 20:  # snapped variant: report-only range check
            ds = circuit_to_diagram(c, grid_map=lambda qb: 8, snap=True)
            norms, _, _ = wzcc_normalize(ds)
            us = evaluate(norms) @ e0
            us = us / np.linalg.norm(us)
            fs = fidelity(s_raw, us)
            assert 0.0 <= fs <= 1.0 + 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _report(7, f"100 layered circuits: noiseless FP >= 1-1e-9 (min {e_raw_min:.3e})", t0)


def test_criterion_08_masd_numeric_anchors():
    t0 = time.perf_counter()
    dk1 = winding_difference(
        DefectVertex(0, (0, 0), 8, 2), DefectVertex(1, (0, 0), 12, 5)
    )
    dk2 = winding_difference(
        DefectVertex(0, (0, 0), 8, 3), DefectVertex(1, (0, 0), 12, 9)
    )
    assert dk1 == Fraction(4)
    assert dk2 == Fraction(9)
    g1 = DefectGraph(
        (DefectVertex(0, (0, 0), 8, 3), DefectVertex(1, (0, 0), 12, 9)),
        (DefectEdge(0, 1, 1.0),),
    )
    assert edge_weight(g1, g1.edges[0], 0.5, NORMALIZED) == 1.1875
    g2 = DefectGraph(
        (DefectVertex(0, (0, 0), 8, 2), DefectVertex(1, (0, 0), 12, 5)),
        (DefectEdge(0, 1, 1.2),),
    )
    for lam in (0.1, 0.5, 1.0):
        assert edge_weight(g2, g2.edges[0], lam, RAW) == 1.2 + 4 * lam
    _report(8, "edge weights 1.1875 / 1.2+4*lambda and winding diffs 4, 9 exact", t0)


def test_criterion_09_matching_exactness():
    t0 = time.perf_counter()
    for seed in range(100):
        rng = np.random.default_rng(40_000 + seed)
        n = int(rng.choice([4, 6, 8, 10]))
        verts = tuple(DefectVertex(i, (0.0, 0.0), 1, 0) for i in range(n))
        edges = tuple(
            DefectEdge(i, j, float(rng.uniform(0.05, 9.0)))
            for i in range(n)
            for j in range(i + 1, n)
        )
        g = DefectGraph(verts, edges)
        w = edge_weights(g, 0.0)
        got = min_weight_perfect_matching(g, w)
        assert got.exact
        _, want = brute_force_min_matching(range(n), weight_fn(g, w))
        assert got.total_cost == pytest.approx(want, abs=1e-12)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(9, "DP matching equals exhaustive enumeration on 100 graphs", t0)


def test_criterion_10_drg_properties():
    t0 = time.perf_counter()
    lams = [round(0.05 * i, 2) for i in range(21)]
    for seed in range(100):
        rng = np.random.default_rng(60_000 + seed)
        n = int(rng.choice([4, 6, 8]))
        verts = tuple(
            DefectVertex(i, (0.0, 0.0), int(rng.integers(1, 13)), int(rng.integers(0, 8)))
            for i in range(n)
        )
        edges = tuple(
            DefectEdge(i, j, float(rng.uniform(0.2, 4.0)))
            for i in range(n)
            for j in range(i + 1, n)
        )
        g = DefectGraph(verts, edges)
        toys, pms = [], []
        for lam in lams:
            _, rep = masd_decode(g, lam)
            toys.append(rep.drg_toy)
            pms.append(rep.drg_pm)
        assert toys[0] == 0.0 and pms[0] == 0.0
        assert all(x >= 0.0 for x in toys) and all(x >= 0.0 for x in pms)
        # DRG_pm runs over the whole (fixed) edge set: monotone as decoded
        assert all(b >= a - 1e-12 for a, b in zip(pms, pms[1:]))
        # DRG_toy's monotonicity is a statement about fixed defect pairs
        # (its formula takes the pair list as data); under re-matching the
        # decoder deliberately abandons high-winding pairs, so fix the
        # lambda = 0 matching and sweep
        m0, _ = masd_decode(g, 0.0)
        dist = {frozenset((e.u, e.v)): e.d for e in g.edges}
        pairs = [
            (dist[frozenset((u, v))], winding_difference(g.vertex(u), g.vertex(v)))
            for u, v in m0.pairs
        ]
        fixed = [drg_toy(pairs, lam) for lam in lams]
        assert all(b >= a - 1e-12 for a, b in zip(fixed, fixed[1:]))
        if any(dk != 0 for _, dk in pairs):
            assert all(b > a for a, b in zip(fixed, fixed[1:]))  # strict
        if any(
            winding_difference(u, v) != 0 for u, v in itertools.combinations(verts, 2)
        ):
            assert pms[-1] > 0.0  # strictly increasing when windings differ

    # frozen slope of the four-pair instance, from the defining formula:
    # (1/4)(0 + 1/1.2 + 2/1.4 + 1/1.1) = 0.79274...
    slope = drg_toy([(1.0, 0), (1.2, 1), (1.4, 2), (1.1, 1)], 1.0)
    assert slope == pytest.approx(0.7927, abs=1e-4)
    _report(10, "DRG zero at 0, monotone over the lambda grid; slope 0.7927", t0)


def test_criterion_11_curvature():
    t0 = time.perf_counter()
    for b in (2.0 / 3.0, 1.0, 1.5, 2.0, 3.0, 8.0):
        assert scalar_curvature(b) == 2.0 / b**2
    grid = np.linspace(0.3, 0.9, 10)
    for lp in grid:
        for ll in grid:
            p = AnisotropyParams(float(lp), float(ll))
            got = curvature_gradient_norm(p, h=1e-5)
            want = math.hypot(*default_map_gradient(p))
            assert abs(got - want) < 1e-6
    assert orbifold_euler_characteristic(WeightPair(2, 3)) == Fraction(5, 6)
    _report(11, "R = 2/b^2 exact; gradient within 1e-6 on 100 points; chi(2,3)=5/6", t0)


def test_criterion_12_surface_code_sanity(tmp_path):
    t0 = time.perf_counter()
    code = build_code(3)
    from wplzx.masd import logical_failure

    failures = 0
    for trial in range(1000):
        sample, graph = sample_surface_code(3, 0.0, seed=1212, trial=trial, code=code)
        matching, _ = masd_decode(graph, 0.2)
        failures += logical_failure(code, sample, matching)
    assert failures == 0

    # bit-exact decode determinism per seed
    for trial in (0, 3, 17):
        s1, g1 = sample_surface_code(3, 0.05, seed=55, trial=trial, code=code)
        s2, g2 = sample_surface_code(3, 0.05, seed=55, trial=trial, code=code)
        assert s1 == s2 and g1.serialize() == g2.serialize()
        m1, r1 = masd_decode(g1, 0.3)
        m2, r2 = masd_decode(g2, 0.3)
        assert m1 == m2 and r1 == r2

    # sweep command emits the qualitative curve under the two-sector model
    from wplzx.cli import main

    out = tmp_path / "sweep.csv"
    code_rc = main(
        [
            "sweep", "--lambdas", "0,0.1,0.2,0.3,0.5,1.0", "--distance", "3",
            "--p", "0.05", "--trials", "120", "--seed", "4",
            "--winding", "two-sector", "--out", str(out),
        ]
    )
    assert code_rc == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 7
    rates = [float(ln.split(",")[4]) for ln in lines[1:]]
    assert all(0.0 <= r <= 1.0 for r in rates)
    pms = [float(ln.split(",")[6]) for ln in lines[1:]]
    assert all(b >= a - 1e-12 for a, b in zip(pms, pms[1:]))
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    _report(12, "p=0 LER exactly 0 over 1000 trials; decode bit-deterministic; sweep emitted", t0)


def test_criterion_13_headline_metric_behavior():
    t0 = time.perf_counter()
    # dense d1-main batches compress (CSC > 0 on spider counts)
    total_raw = total_norm = 0
    for i in range(20):
        cfg = GenConfig(
            seed=1300 + i,
            spiders_min=30,
            spiders_max=60,
            grid_orders=(1, 2, 3, 4, 6, 8),
            density=0.9,
            qubits=4,
        )
        d = gen_random_wplzx(cfg)
        norm, _, _ = wzcc_normalize(d)
        total_raw += len(d.spiders)
        total_norm += len(norm.spiders)
        assert csc(len(d.spiders), len(norm.spiders)) > 0.0
    batch_csc = csc(total_raw, total_norm)
    assert batch_csc > 0.0

    # PQVR reporting in (0, 1] with the formula behaving per its unit tests
    rng = np.random.default_rng(77)
    for i in range(20):
        c = gen_hea(GenConfig(seed=500 + i, qubits=3, layers=3))
        raw, snapped = snapped_phases(c, lambda q: 8)
        val = pqvr(raw, snapped)
        assert 0.0 < val <= 1.0
    _report(13, f"dense batches compress (batch CSC {batch_csc:.2f}); PQVR in (0,1]", t0)
