"""Defect graphs, winding penalties, exact matching, risk metrics."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import brute_force_min_matching
from wplzx.errors import (
    NegativeLambda,
    OddVertexCount,
    ParseError,
    TooLargeForExact,
    ZeroDistance,
)
from wplzx.masd import (
    NORMALIZED,
    RAW,
    DefectEdge,
    DefectGraph,
    DefectVertex,
    drg_pm,
    drg_toy,
    edge_weight,
    edge_weights,
    masd_decode,
    min_weight_perfect_matching,
    winding_difference,
)
from wplzx.masd.matching import _greedy, _weight_fn


def vert(vid, a, k, virtual=False, pos=(0.0, 0.0)):
    return DefectVertex(vid, pos, a, k, virtual)


def complete_graph(vertices, dist):
    edges = []
    for i in range(len(vertices)):
        for j in range(i + 1, len(vertices)):
            edges.append(
                DefectEdge(vertices[i].id, vertices[j].id, dist(vertices[i], vertices[j]))
            )
    return DefectGraph(tuple(vertices), tuple(edges))


# --- winding difference ---


def test_winding_difference_toy_examples():
    assert winding_difference(vert(0, 8, 2), vert(1, 12, 5)) == Fraction(4)
    assert winding_difference(vert(0, 8, 3), vert(1, 12, 9)) == Fraction(9)
    assert winding_difference(vert(0, 6, 4), vert(1, 6, 4)) == 0


def test_winding_difference_virtual_is_zero():
    assert winding_difference(vert(0, 8, 5), vert(1, 4, 0, virtual=True)) == 0
    assert winding_difference(vert(0, 2, 0, virtual=True), vert(1, 2, 0, virtual=True)) == 0


def test_winding_difference_symmetric_and_integer_valued():
    rng = np.random.default_rng(7)
    for _ in range(200):
        a1, a2 = int(rng.integers(1, 16)), int(rng.integers(1, 16))
        k1, k2 = int(rng.integers(-9, 10)), int(rng.integers(-9, 10))
        u, v = vert(0, a1, k1), vert(1, a2, k2)
        d1, d2 = winding_difference(u, v), winding_difference(v, u)
        assert d1 == d2
        assert d1.denominator == 1  # integer k always gives integer delta


def test_winding_difference_triangle_inequality():
    # holds once all three differences are measured on the common refinement
    # grid lcm(a_u, a_v, a_w) (pairwise grids scale each term differently)
    rng = np.random.default_rng(11)
    for _ in range(300):
        vs = [
            vert(i, int(rng.integers(1, 13)), int(rng.integers(-6, 7))) for i in range(3)
        ]
        u, v, w = vs
        common = math.lcm(u.a, v.a, w.a)

        def on_common(x, y):
            pair = math.lcm(x.a, y.a)
            return winding_difference(x, y) * (common // pair)

        assert on_common(u, w) <= on_common(u, v) + on_common(v, w)


# --- edge weights ---


def test_edge_weight_normalized_anchor():
    g = complete_graph([vert(0, 8, 3), vert(1, 12, 9)], lambda u, v: 1.0)
    assert edge_weight(g, g.edges[0], 0.5, NORMALIZED) == 1.1875


def test_edge_weight_raw_anchor():
    g = complete_graph([vert(0, 8, 2), vert(1, 12, 5)], lambda u, v: 1.2)
    for lam in (0.1, 0.5, 1.0):
        assert edge_weight(g, g.edges[0], lam, RAW) == 1.2 + 4 * lam


def test_edge_weight_lambda_zero_recovers_distance():
    g = complete_graph([vert(0, 8, 2), vert(1, 12, 5)], lambda u, v: 2.5)
    for mode in (RAW, NORMALIZED):
        assert edge_weight(g, g.edges[0], 0.0, mode) == 2.5


def test_edge_weight_negative_lambda():
    g = complete_graph([vert(0, 8, 2), vert(1, 12, 5)], lambda u, v: 1.0)
    with pytest.raises(NegativeLambda):
        edge_weight(g, g.edges[0], -0.1)


def test_induced_shortest_path_metric():
    # symmetric, triangle-inequality-obeying (Floyd-Warshall closure)
    rng = np.random.default_rng(3)
    vs = [vert(i, int(rng.integers(1, 9)), int(rng.integers(0, 5))) for i in range(6)]
    g = complete_graph(vs, lambda u, v: float(rng.uniform(0.5, 3.0)))
    for lam in (0.0, 0.4, 1.3):
        w = edge_weights(g, lam, NORMALIZED)
        n = len(vs)
        dist = np.full((n, n), np.inf)
        np.fill_diagonal(dist, 0.0)
        for key, val in w.items():
            i, j = sorted(key)
            dist[i, j] = dist[j, i] = val
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    dist[i, j] = min(dist[i, j], dist[i, k] + dist[k, j])
        assert np.allclose(dist, dist.T)
        for i, j, k in itertools.permutations(range(n), 3):
            assert dist[i, j] <= dist[i, k] + dist[k, j] + 1e-12


# --- matching ---


def test_matching_two_vertices():
    g = complete_graph([vert(0, 1, 0), vert(1, 1, 0)], lambda u, v: 1.5)
    m = min_weight_perfect_matching(g, edge_weights(g, 0.0))
    assert m.pairs == ((0, 1),)
    assert m.total_cost == 1.5
    assert m.exact


def test_matching_odd_count_rejected():
    g = complete_graph([vert(i, 1, 0) for i in range(3)], lambda u, v: 1.0)
    with pytest.raises(OddVertexCount):
        min_weight_perfect_matching(g, edge_weights(g, 0.0))


def test_matching_beats_greedy():
    # greedy grabs the cheapest edge (0-1) and is forced into 2-3; optimum
    # pairs 0-2 / 1-3
    w = {
        frozenset((0, 1)): 1.0,
        frozenset((2, 3)): 10.0,
        frozenset((0, 2)): 1.1,
        frozenset((1, 3)): 1.1,
        frozenset((0, 3)): 5.0,
        frozenset((1, 2)): 5.0,
    }
    vs = [vert(i, 1, 0) for i in range(4)]
    es = tuple(DefectEdge(i, j, w[frozenset((i, j))]) for i in range(4) for j in range(i + 1, 4))
    g = DefectGraph(tuple(vs), es)
    m = min_weight_perfect_matching(g, w)
    assert m.total_cost == pytest.approx(2.2)
    greedy = _greedy([v.id for v in vs], [], _weight_fn(w), {})
    assert greedy.total_cost == pytest.approx(11.0)
    assert not greedy.exact
    # brute force agrees
    _, want = brute_force_min_matching(range(4), lambda u, v: w[frozenset((u, v))])
    assert m.total_cost == pytest.approx(want)


def test_matching_matches_bruteforce_on_100_seeds():
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n = int(rng.choice([4, 6, 8, 10]))
        vs = [vert(i, 1, 0) for i in range(n)]
        g = complete_graph(vs, lambda u, v: float(rng.uniform(0.1, 5.0)))
        w = edge_weights(g, 0.0)
        m = min_weight_perfect_matching(g, w)
        assert m.exact
        wf = _weight_fn(w)
        _, want = brute_force_min_matching(range(n), wf)
        assert m.total_cost == pytest.approx(want)
        covered = sorted(x for p in m.pairs for x in p)
        assert covered == list(range(n))


def test_matching_with_boundary_costs_matches_bruteforce():
    # own-virtual pattern: brute force over "pair or retire" by enumeration
    for seed in range(60):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.choice([2, 4, 6]))
        vs = [vert(i, 1, 0) for i in range(n)]
        virts = [vert(f"b{i}", 1, 0, virtual=True) for i in range(n)]
        edges = []
        wmap = {}
        for i in range(n):
            for j in range(i + 1, n):
                c = float(rng.uniform(0.1, 4.0))
                edges.append(DefectEdge(i, j, c))
                wmap[frozenset((i, j))] = c
        bcost = {}
        for i in range(n):
            c = float(rng.uniform(0.1, 4.0))
            edges.append(DefectEdge(i, f"b{i}", c))
            wmap[frozenset((i, f"b{i}"))] = c
            bcost[i] = c
        for i in range(n):
            for j in range(i + 1, n):
                edges.append(DefectEdge(f"b{i}", f"b{j}", 0.0))
                wmap[frozenset((f"b{i}", f"b{j}"))] = 0.0
        g = DefectGraph(tuple(vs + virts), tuple(edges))
        m = min_weight_perfect_matching(g, wmap)
        assert m.exact

        # oracle: try every subset of reals to pair internally
        best = math.inf
        ids = list(range(n))
        for r in range(0, n + 1, 2):
            for subset in itertools.combinations(ids, r):
                rest = [i for i in ids if i not in subset]
                retire = sum(bcost[i] for i in rest)
                for pairing in _pairings(list(subset)):
                    cost = retire + sum(wmap[frozenset(p)] for p in pairing)
                    best = min(best, cost)
        assert m.total_cost == pytest.approx(best)
        covered = sorted((str(x) for p in m.pairs for x in p))
        assert covered == sorted(str(v.id) for v in g.vertices)


def test_matching_arbitrary_virtual_layout_matches_bruteforce():
    # Virtual layouts outside the one-per-defect pattern: fewer virtuals than
    # reals, or one virtual adjacent to two reals.  Every vertex is matched.
    for seed in range(80):
        rng = np.random.default_rng(3000 + seed)
        n_real = int(rng.integers(3, 7))
        if seed % 2:  # fewer virtuals than reals, same parity
            n_virt = int(rng.choice(range(2 - n_real % 2, n_real, 2)))
        else:
            n_virt = n_real + (2 if n_real < 5 and rng.random() < 0.5 else 0)
        reals = [vert(i, 1, 0) for i in range(n_real)]
        virts = [vert(f"b{i}", 1, 0, virtual=True) for i in range(n_virt)]
        wmap = {}
        for i in range(n_real):
            for j in range(i + 1, n_real):
                wmap[frozenset((i, j))] = float(rng.uniform(0.1, 4.0))
        for b in range(n_virt):
            if b == 0:
                touched = rng.choice(n_real, size=2, replace=False)
            else:
                touched = np.flatnonzero(rng.random(n_real) < 0.4)
            for r in touched:
                wmap[frozenset((int(r), f"b{b}"))] = float(rng.uniform(0.1, 4.0))
            for c in range(b + 1, n_virt):
                if rng.random() < 0.8:
                    wmap[frozenset((f"b{b}", f"b{c}"))] = float(rng.uniform(0.0, 0.5))
        edges = tuple(DefectEdge(*sorted(k, key=str), d) for k, d in wmap.items())
        g = DefectGraph(tuple(reals + virts), edges)
        ids = [v.id for v in g.vertices]
        assert (n_real + n_virt) % 2 == 0

        def weight(u, v):
            return wmap.get(frozenset((u, v)), math.inf)

        _, want = brute_force_min_matching(ids, weight)
        if not math.isfinite(want):
            with pytest.raises(OddVertexCount):
                min_weight_perfect_matching(g, wmap)
            continue
        m = min_weight_perfect_matching(g, wmap)
        assert m.exact
        assert m.total_cost == pytest.approx(want)
        assert sum(weight(u, v) for u, v in m.pairs) == pytest.approx(want)
        covered = sorted(str(x) for p in m.pairs for x in p)
        assert covered == sorted(str(i) for i in ids)


def _pairings(ids):
    if not ids:
        yield []
        return
    first = ids[0]
    for j in range(1, len(ids)):
        rest = ids[1:j] + ids[j + 1 :]
        for sub in _pairings(rest):
            yield [(first, ids[j])] + sub


def test_matching_cap_and_greedy_flag():
    n = 18
    vs = [vert(i, 1, 0) for i in range(n)]
    rng = np.random.default_rng(0)
    g = complete_graph(vs, lambda u, v: float(rng.uniform(1, 2)))
    w = edge_weights(g, 0.0)
    with pytest.raises(TooLargeForExact):
        min_weight_perfect_matching(g, w, require_exact=True)
    m = min_weight_perfect_matching(g, w)
    assert not m.exact
    assert sorted(x for p in m.pairs for x in p) == list(range(n))


def test_compiled_and_pure_kernels_agree():
    from wplzx.masd import _dp

    try:
        from wplzx.masd import _dpmatch
    except ImportError:
        pytest.skip("compiled kernel unavailable")
    rng = np.random.default_rng(17)
    for n in (2, 4, 6, 8, 10, 12):
        w = rng.uniform(0.1, 9.0, size=(n, n))
        w = (w + w.T) / 2
        boundary = rng.uniform(0.1, 9.0, size=n)
        c1, ch1 = _dp.solve_dense(w, boundary)
        c2, ch2 = _dpmatch.solve_dense(w, boundary)
        assert c1 == pytest.approx(c2, abs=1e-12)
        assert np.array_equal(ch1, ch2)


# --- decode and risk metrics ---


def test_decode_lambda_zero_reduces_to_plain_mwm():
    rng = np.random.default_rng(23)
    vs = [vert(i, int(rng.integers(1, 9)), int(rng.integers(0, 6))) for i in range(6)]
    g = complete_graph(vs, lambda u, v: float(rng.uniform(0.2, 3.0)))
    m0, rep0 = masd_decode(g, 0.0)
    plain = min_weight_perfect_matching(g, {frozenset((e.u, e.v)): e.d for e in g.edges})
    assert m0.total_cost == pytest.approx(plain.total_cost)
    assert rep0.drg_toy == 0.0 and rep0.drg_pm == 0.0


def test_decode_constant_winding_is_lambda_independent():
    vs = [vert(i, 8, 3) for i in range(6)]
    rng = np.random.default_rng(5)
    g = complete_graph(vs, lambda u, v: float(rng.uniform(0.2, 3.0)))
    m0, _ = masd_decode(g, 0.0)
    for lam in (0.3, 1.0, 5.0):
        m, _ = masd_decode(g, lam)
        assert sorted(m.pairs) == sorted(m0.pairs)


def test_decode_two_sector_crossover_threshold():
    # A-sector k=0, B-sector k=1 on a = 1 (delta = 1 raw).  Cross pairs are
    # spatially cheap; above lambda* the matching flips to within-sector.
    dA, dB, dX = 3.0, 3.2, 1.0
    vs = [vert("a1", 1, 0), vert("a2", 1, 0), vert("b1", 1, 1), vert("b2", 1, 1)]
    dist = {
        frozenset(("a1", "a2")): dA,
        frozenset(("b1", "b2")): dB,
        frozenset(("a1", "b1")): dX,
        frozenset(("a1", "b2")): dX,
        frozenset(("a2", "b1")): dX,
        frozenset(("a2", "b2")): dX,
    }
    g = complete_graph(vs, lambda u, v: dist[frozenset((u.id, v.id))])
    # cross cost 2(dX + lam), within cost dA + dB: flip at lam* = (dA+dB)/2 - dX
    lam_star = (dA + dB) / 2.0 - dX
    below, _ = masd_decode(g, lam_star - 0.05, mode=RAW)
    above, _ = masd_decode(g, lam_star + 0.05, mode=RAW)
    assert all(u[0] != v[0] for u, v in below.pairs)  # cross-sector
    assert all(u[0] == v[0] for u, v in above.pairs)  # within-sector
    assert below.pairs != above.pairs


def test_drg_toy_values():
    assert drg_toy([(1.0, 0), (1.2, 1)], 0.0) == 0.0
    assert drg_toy([(1.0, 0), (1.2, 0), (0.7, 0)], 2.0) == 0.0
    slope = drg_toy([(1.0, 0), (1.2, 1), (1.4, 2), (1.1, 1)], 1.0)
    assert slope == pytest.approx(0.7927, abs=1e-4)
    # linear in lambda
    assert drg_toy([(1.0, 0), (1.2, 1), (1.4, 2), (1.1, 1)], 0.5) == pytest.approx(
        slope / 2
    )
    with pytest.raises(ZeroDistance):
        drg_toy([(0.0, 1)], 1.0)
    with pytest.raises(NegativeLambda):
        drg_toy([(1.0, 1)], -1.0)


def test_drg_pm_single_edge():
    g = complete_graph([vert(0, 4, 1), vert(1, 4, 3)], lambda u, v: 2.0)
    # p(e) = 1, ratio = (d + lam*dk)/d with raw dk = 2
    for beta in (0.5, 1.0, 7.0):
        assert drg_pm(g, 0.7, beta, RAW) == pytest.approx(0.7 * 2 / 2.0)
    assert drg_pm(g, 0.0, 1.0) == 0.0


def test_drg_monotone_nondecreasing_in_lambda():
    lams = [0.05 * i for i in range(21)]
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n = int(rng.choice([4, 6, 8]))
        vs = [vert(i, int(rng.integers(1, 10)), int(rng.integers(0, 7))) for i in range(n)]
        g = complete_graph(vs, lambda u, v: float(rng.uniform(0.3, 3.0)))
        toys = []
        pms = []
        for lam in lams:
            _, rep = masd_decode(g, lam, mode=NORMALIZED, beta=1.0)
            toys.append(rep.drg_toy)
            pms.append(rep.drg_pm)
        assert toys[0] == 0.0 and pms[0] == 0.0
        assert all(b >= a - 1e-12 for a, b in zip(pms, pms[1:]))
        assert all(t >= -1e-12 for t in toys)
        # strict increase when winding differences exist
        if any(winding_difference(u, v) != 0 for u, v in itertools.combinations(vs, 2)):
            assert pms[-1] > 0.0


def _random_decoding_graph(rng, layout: int) -> DefectGraph:
    """Random reals with (a, k) labels and their virtual partners.

    layout 0: one virtual per real (the sampled pattern); 1: one or two
    virtuals, each adjacent to two reals (an arbitrary layout); 2: no
    virtuals; 3: 17 reals with one virtual each, past DP_VERTEX_CAP.
    Virtuals are pairwise joined, at zero or positive distance, so every
    layout admits a perfect matching.
    """
    n_real = {2: 2 * int(rng.integers(1, 4)), 3: 17}.get(layout, int(rng.integers(2, 7)))
    n_virt = {1: n_real % 2 or 2, 2: 0}.get(layout, n_real)
    reals = [vert(i, int(rng.integers(1, 10)), int(rng.integers(0, 7))) for i in range(n_real)]
    virts = [vert(f"b{i}", int(rng.integers(1, 4)), 0, virtual=True) for i in range(n_virt)]
    edges = [
        DefectEdge(i, j, float(rng.uniform(0.2, 4.0)))
        for i in range(n_real) for j in range(i + 1, n_real)
    ]
    for b in range(n_virt):
        touched = rng.choice(n_real, size=2, replace=False) if layout == 1 else [b]
        edges += [DefectEdge(int(r), f"b{b}", float(rng.uniform(0.2, 4.0))) for r in touched]
        for c in range(b + 1, n_virt):
            edges.append(DefectEdge(f"b{b}", f"b{c}", float(rng.choice([0.0, 0.5]))))
    return DefectGraph(tuple(reals + virts), tuple(edges))


def _boltzmann_mean_ratio(g: DefectGraph, lam: float, beta: float, mode: str) -> float:
    """sum_e p(e) w_lam(e)/w_0(e) over edges with a real end, edge by edge
    from the definition; DRG_pm is this minus 1."""
    num = z = 0.0
    for e in g.edges:
        u, v = g.vertex(e.u), g.vertex(e.v)
        if u.is_virtual_boundary and v.is_virtual_boundary:
            continue
        penalty = 0.0
        if not (u.is_virtual_boundary or v.is_virtual_boundary):
            grid = math.lcm(u.a, v.a)
            dk = grid * abs(Fraction(u.k, u.a) - Fraction(v.k, v.a))
            penalty = float(dk if mode == RAW else dk / grid)
        p = math.exp(-beta * e.d)
        num += p * (e.d + lam * penalty) / e.d
        z += p
    return num / z


def test_cached_terms_give_fresh_results():
    """Decoding one graph at repeated, shuffled lambdas gives what a fresh copy
    gives at each lambda, and every check still fires on a warm cache."""
    for seed in range(100):
        rng = np.random.default_rng(5000 + seed)
        g = _random_decoding_graph(rng, seed % 4)
        text, digest = g.serialize(), hash(g)
        for mode in (RAW, NORMALIZED):
            for beta in (0.5, 1.0):
                fresh, want = {}, {}
                for lam in (0.0, 0.25, 0.5):
                    copy = DefectGraph.deserialize(text)
                    fresh[lam] = masd_decode(copy, lam, mode=mode, beta=beta)
                    want[lam] = _boltzmann_mean_ratio(copy, lam, beta, mode)
                for lam in (0.5, 0.0, 0.25, 0.0, 0.5):
                    m, rep = masd_decode(g, lam, mode=mode, beta=beta)
                    m_fresh, rep_fresh = fresh[lam]
                    assert (m.pairs, m.exact, m.total_cost) == (
                        m_fresh.pairs, m_fresh.exact, m_fresh.total_cost
                    )
                    assert rep == rep_fresh
                    assert m.exact == (seed % 4 != 3)
                    assert rep.drg_pm + 1.0 == pytest.approx(want[lam], rel=1e-12, abs=0.0)
                    if lam == 0.0:
                        assert rep.drg_pm == 0.0
        for _ in range(2):
            with pytest.raises(NegativeLambda):
                masd_decode(g, -0.1)
            with pytest.raises(NegativeLambda):
                edge_weights(g, -0.1, RAW)
            with pytest.raises(NegativeLambda):
                drg_pm(g, -0.1, 1.0)
            with pytest.raises(ValueError):
                edge_weights(g, 0.1, "bogus")
        zero = DefectGraph(g.vertices, (DefectEdge(0, 1, 0.0),) + g.edges[1:])
        for _ in range(2):
            with pytest.raises(ZeroDistance):
                masd_decode(zero, 0.5, mode=RAW)
        assert hash(g) == digest and g == DefectGraph.deserialize(text)


def test_defect_graph_serialization_roundtrip():
    vs = [vert(0, 8, 2, pos=(0.5, 1.5)), vert("b0", 1, 0, virtual=True, pos=(0.5, -0.5))]
    g = DefectGraph(tuple(vs), (DefectEdge(0, "b0", 1.0),))
    again = DefectGraph.deserialize(g.serialize())
    assert again == g
    with pytest.raises(ParseError):
        DefectGraph.deserialize("{bad")
    with pytest.raises(ParseError):
        DefectGraph.deserialize('{"vertices": [{"id": 0}], "edges": []}')


def test_virtual_vertex_requires_zero_winding():
    with pytest.raises(ValueError):
        DefectVertex("b", (0, 0), 4, 2, is_virtual_boundary=True)
