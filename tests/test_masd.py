"""Defect graphs, winding penalties, exact matching, risk metrics."""

from __future__ import annotations

import collections
import hashlib
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import brute_force_min_matching, weight_fn
from wplzx.errors import (
    GridOverflow,
    InvalidBeta,
    MatchingOverflow,
    NegativeLambda,
    OddVertexCount,
    ParseError,
    ZeroDistance,
)
from wplzx.masd import (
    DP_VERTEX_CAP,
    NORMALIZED,
    RAW,
    DefectEdge,
    DefectGraph,
    DefectVertex,
    drg_pm,
    drg_toy,
    edge_weight,
    edge_weights,
    lambda_sweep,
    masd_decode,
    min_weight_perfect_matching,
    winding_difference,
)
from wplzx.masd import _dp
from wplzx.masd import matching as matching_module
from wplzx.masd.graph import defect_arrays
from wplzx.masd.surface import (
    SUPPORTED_DISTANCES,
    WindingModel,
    build_code,
    sample_surface_code,
)


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


def _fraction_winding(u, v):
    """Reference delta_k and L from rational arithmetic on the lcm grid."""
    L = math.lcm(u.a, v.a)
    return L * abs(Fraction(u.k, u.a) - Fraction(v.k, v.a)), L


def _random_labelled_graph(rng, n):
    """Complete graph on n vertices whose grids are a base order in
    1..65536, its divisors and orders up to 16 (so every pairwise lcm stays
    within the cap), with small or +-1e30-sized windings and some virtual
    ends."""
    base = rng.randint(1, 65536)
    divisors = [q for q in range(1, 257) if base % q == 0] + [base]
    vs = []
    for i in range(n):
        a = rng.choice([base, rng.choice(divisors), rng.randint(1, 16)])
        if rng.random() < 0.2:
            vs.append(vert(i, a, 0, virtual=True))
            continue
        k = rng.choice([rng.randint(-9, 9), rng.randint(-(10**30), 10**30)])
        vs.append(vert(i, a, k))
    return complete_graph(vs, lambda u, v: rng.uniform(0.1, 5.0))


def test_edge_terms_match_rational_slopes_bit_for_bit():
    """Row k of a graph's array form is (d, raw slope, normalized slope) of
    edge k, the slopes the correctly rounded exact values, and k is in
    ``virtual_rows`` exactly when both ends are virtual."""
    rng = random.Random("integer-winding-terms")
    edges = 0
    for _ in range(150):
        g = _random_labelled_graph(rng, rng.randint(2, 9))
        copies = (g, DefectGraph(g.vertices, g.edges))
        for k, e in enumerate(g.edges):
            u, v = g.vertex(e.u), g.vertex(e.v)
            raw = norm = 0.0
            if not (u.is_virtual_boundary or v.is_virtual_boundary):
                dk, L = _fraction_winding(u, v)
                assert winding_difference(u, v) == dk
                assert type(winding_difference(u, v)) is int
                raw, norm = float(dk), float(Fraction(dk, L))
            for graph in copies:
                arrays = defect_arrays(graph)
                d, raw_slope, norm_slope = arrays.edges[k]
                assert d == e.d
                vv = k in arrays.virtual_rows
                assert vv == (u.is_virtual_boundary and v.is_virtual_boundary)
                assert raw_slope.hex() == raw.hex() and norm_slope.hex() == norm.hex()
            lam = rng.uniform(0.0, 2.0)
            assert edge_weight(g, e, lam, RAW).hex() == (e.d + lam * raw).hex()
            assert edge_weight(g, e, lam, NORMALIZED).hex() == (e.d + lam * norm).hex()
            for mode in (RAW, NORMALIZED):
                want = edge_weights(g, lam, mode)[k]
                assert edge_weight(g, e, lam, mode).hex() == want.hex()
            edges += 1
    assert edges > 2000
    # An edge is looked up in g's edge list, not weighed from its end labels.
    g = complete_graph([vert(0, 8, 2), vert(1, 12, 5), vert(2, 4, 1)], lambda u, v: 1.0)
    for stranger in (DefectEdge(0, 1, 2.0), DefectEdge(1, 0, 1.0), DefectEdge(0, 9, 1.0)):
        with pytest.raises(ValueError):
            edge_weight(g, stranger, 0.5)


def test_edge_terms_grid_overflow_message():
    vs = [vert(0, 4, 1), vert(1, 2**20, 5), vert(2, 3, 2)]
    g = complete_graph(vs, lambda u, v: 1.0)
    message = "lcm(1048576, 3) = 3145728 exceeds grid-order cap 1048576"
    for mode in (RAW, NORMALIZED, RAW):  # nothing is cached after a failure
        with pytest.raises(GridOverflow) as exc:
            edge_weights(g, 0.0, mode)
        assert str(exc.value) == message
    with pytest.raises(GridOverflow, match=r"^lcm\(1048576, 3\) = 3145728 "):
        winding_difference(vs[1], vs[2])
    with pytest.raises(GridOverflow, match=r"^lcm\(1048576, 3\) = 3145728 "):
        edge_weight(g, g.edges[2], 0.5, NORMALIZED)


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
        for e, val in zip(g.edges, w, strict=True):
            dist[e.u, e.v] = dist[e.v, e.u] = val
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


@pytest.mark.parametrize("extra", [-1, 1])
def test_matching_rejects_weights_of_wrong_length(extra):
    g = complete_graph([vert(i, 1, 0) for i in range(4)], lambda u, v: 1.0)
    weights = [1.0] * (len(g.edges) + extra)
    with pytest.raises(ValueError, match=f"^{len(weights)} weights for 6 edges$"):
        min_weight_perfect_matching(g, weights)


def test_matching_beats_greedy():
    # a nearest-pair heuristic grabs the cheapest edge (0-1) and is forced
    # into 2-3, at cost 11; the optimum pairs 0-2 / 1-3
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
    m = min_weight_perfect_matching(g, [e.d for e in es])
    assert m.pairs == ((0, 2), (1, 3))
    assert m.total_cost == pytest.approx(2.2)
    assert m.exact
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
        wf = weight_fn(g, w)
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
        m = min_weight_perfect_matching(g, [e.d for e in edges])
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


def _arbitrary_layout_cases():
    """(real count, virtual count, frozenset-keyed weights) of virtual
    layouts outside the one-per-defect pattern: fewer virtuals than reals,
    or one virtual adjacent to two reals."""
    # Fewer virtuals than reals, and each virtual joined to one real only:
    # folding b0 and b1 into retirements would pair them for free (cost 2.0,
    # not 3.0), where b0-b1 costs 5.0.
    yield 4, 2, {
        frozenset((0, 1)): 1.0, frozenset((2, 3)): 1.0, frozenset((0, "b0")): 1.0,
        frozenset((1, "b1")): 1.0, frozenset(("b0", "b1")): 5.0,
    }
    for seed in range(80):
        rng = np.random.default_rng(3000 + seed)
        n_real = int(rng.integers(3, 7))
        if seed % 2:  # fewer virtuals than reals, same parity
            n_virt = int(rng.choice(range(2 - n_real % 2, n_real, 2)))
        else:
            n_virt = n_real + (2 if n_real < 5 and rng.random() < 0.5 else 0)
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
        yield n_real, n_virt, wmap


def test_matching_arbitrary_virtual_layout_matches_bruteforce():
    # Every vertex is matched, and each pair pays its edge's weight.
    for n_real, n_virt, wmap in _arbitrary_layout_cases():
        reals = [vert(i, 1, 0) for i in range(n_real)]
        virts = [vert(f"b{i}", 1, 0, virtual=True) for i in range(n_virt)]
        edges = tuple(DefectEdge(*sorted(k, key=str), d) for k, d in wmap.items())
        g = DefectGraph(tuple(reals + virts), edges)
        ids = [v.id for v in g.vertices]
        assert (n_real + n_virt) % 2 == 0

        def weight(u, v):
            return wmap.get(frozenset((u, v)), math.inf)

        _, want = brute_force_min_matching(ids, weight)
        if not math.isfinite(want):
            with pytest.raises(OddVertexCount):
                min_weight_perfect_matching(g, [e.d for e in edges])
            continue
        m = min_weight_perfect_matching(g, [e.d for e in edges])
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


def test_matching_exact_up_to_cap_and_raises_past_it():
    rng = np.random.default_rng(0)
    g = complete_graph([vert(i, 1, 0) for i in range(18)], lambda u, v: float(rng.uniform(1, 2)))
    m = min_weight_perfect_matching(g, edge_weights(g, 0.0))
    assert m.exact
    assert sorted(x for p in m.pairs for x in p) == list(range(18))
    # 25 reals with one virtual each: 25 DP vertices, one past the cap
    n = DP_VERTEX_CAP + 1
    reals = [vert(i, 1, 0) for i in range(n)]
    virts = [vert(f"b{i}", 1, 0, virtual=True) for i in range(n)]
    g = DefectGraph(tuple(reals + virts), tuple(DefectEdge(i, f"b{i}", 1.0) for i in range(n)))
    with pytest.raises(MatchingOverflow, match="25 DP vertices exceed cap 24"):
        min_weight_perfect_matching(g, edge_weights(g, 0.0))


def test_dp_cap_covers_every_supported_distance():
    # A syndrome has at most one defect per Z check, so every sampled graph
    # fits the DP; lifting the supported distances must revisit the cap.
    assert DP_VERTEX_CAP == max(len(build_code(d).z_checks) for d in SUPPORTED_DISTANCES)


def _networkx_instance(rng, layout, n):
    """Random weights on n DP vertices: ``own`` has n reals with one virtual
    each and a zero-cost virtual clique; ``arbitrary`` (n even) has n - 2
    reals and 2 virtuals, the first adjacent to two reals.  About a fifth of
    the real-real edges are missing."""
    n_real = n if layout == "own" else n - 2
    n_virt = n if layout == "own" else 2
    wmap = {
        frozenset((i, j)): rng.uniform(0.1, 4.0)
        for i in range(n_real) for j in range(i + 1, n_real) if rng.random() < 0.8
    }
    for b in range(n_virt):
        touched = [b] if layout == "own" else rng.sample(range(n_real), 2 - b)
        wmap.update({frozenset((r, f"b{b}")): rng.uniform(0.1, 4.0) for r in touched})
        for c in range(b + 1, n_virt):
            wmap[frozenset((f"b{b}", f"b{c}"))] = 0.0 if layout == "own" else rng.uniform(0.0, 0.5)
    reals = [vert(i, 1, 0) for i in range(n_real)]
    virts = [vert(f"b{b}", 1, 0, virtual=True) for b in range(n_virt)]
    edges = tuple(DefectEdge(*sorted(k, key=str), d) for k, d in wmap.items())
    return DefectGraph(tuple(reals + virts), edges), wmap


def test_matching_matches_networkx_past_16_dp_vertices(monkeypatch):
    nx = pytest.importorskip("networkx")
    # A private table cache, emptied after each size: the n = 24 table alone
    # holds about 120 MB.
    monkeypatch.setattr(_dp, "_TABLES", {})
    for n in range(17, DP_VERTEX_CAP + 1):
        for layout in ("own", "arbitrary") if n % 2 == 0 else ("own",):
            g, wmap = _networkx_instance(random.Random(f"{layout}-{n}"), layout, n)
            ref = nx.Graph()
            ref.add_weighted_edges_from((*sorted(k, key=str), d) for k, d in wmap.items())
            want = sum(wmap[frozenset(p)] for p in nx.min_weight_matching(ref))
            m = min_weight_perfect_matching(g, [e.d for e in g.edges])
            assert m.exact
            assert m.total_cost == pytest.approx(want, rel=1e-12), (layout, n)
            assert sum(wmap[frozenset(p)] for p in m.pairs) == pytest.approx(want, rel=1e-12)
            covered = sorted(str(x) for p in m.pairs for x in p)
            assert covered == sorted(str(v.id) for v in g.vertices)
        _dp._TABLES.clear()


def _kernel_instance(kind, n, seed):
    """Seeded DP kernel input as lists: (n x n weights, n retirement costs).

    uniform: real weights in [0.1, 9); ties: integers 0..3, so many matchings
    tie; inf: integers with about 30% of edges and 40% of retirements +inf;
    none: only vertex 0 can be covered, so there is no perfect cover.
    """
    rng = random.Random(f"{kind}-{n}-{seed}")
    if kind == "none":
        return [[math.inf] * n for _ in range(n)], [1.0] + [math.inf] * (n - 1)

    def draw():
        return rng.uniform(0.1, 9.0) if kind == "uniform" else float(rng.randint(0, 3))

    w = [[math.inf] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            x = draw()
            if kind == "inf" and rng.random() < 0.3:
                x = math.inf
            w[i][j] = w[j][i] = x
    boundary = [draw() for _ in range(n)]
    if kind == "inf":
        boundary = [math.inf if rng.random() < 0.4 else b for b in boundary]
    return w, boundary


# (kind, n, seed, repr(cost), sha256 of repr([int(c) for c in choice]) with
# choice spread over all 2^n masks by _by_mask, reconstruct's moves or None
# when it finds no perfect cover).  Produced by the numpy-array kernel that the
# list kernel replaced; both must agree bit for bit.
KERNEL_GOLDEN = [
    ('uniform', 1, 0, '4.114488460700486',
     '0f2dd137fb3962dc6a7823f62bf9c67f2b4312e075df89f04af7adb266d61080',
     [(0, -1)]),
    ('uniform', 2, 0, '8.62516644385257',
     '35f30372e247c1ca7c445b18756027e972482cdd4cb0d848a77fb16b705c5ec9',
     [(0, 1)]),
    ('uniform', 3, 0, '3.5526824100574586',
     '10c2e52fd9375d2f298ed6445d74eda9619e6c973484420ecd31a346baa26165',
     [(0, 2), (1, -1)]),
    ('uniform', 4, 0, '3.3746165110157404',
     'af9fa4fa82294571e91fe1b6add837e1ac4f7db3343c7171e231fbb0246b8f45',
     [(0, 3), (1, 2)]),
    ('uniform', 5, 0, '7.1786020054272175',
     '735bd55ad6612b842d3effcab38f936530c567e902346106976c133c48a18683',
     [(0, 3), (1, 2), (4, -1)]),
    ('uniform', 6, 0, '10.37745893954593',
     '76c8f0a9b4ae0c1382d633d6a176bf65972854e0b6c664d3f9187fdcd35cd47d',
     [(0, 1), (2, 5), (3, -1), (4, -1)]),
    ('uniform', 7, 0, '6.49937212086811',
     'a71133c0340fda4e9479f7a069d7b9b0b5d16d54cfb1a5da4ae27d41c2231467',
     [(0, -1), (1, 4), (2, 6), (3, 5)]),
    ('uniform', 8, 0, '8.032075780140957',
     'bb8d6d74d070b05477cce0af303857c31e25ef06e0bdd9f9fefc6544ff0319fd',
     [(0, 4), (1, 2), (3, 5), (6, 7)]),
    ('uniform', 9, 0, '7.7431846542011655',
     '2dbd999eb8580b39a25c80c8eba438682b75609bc7285c4df8d44a035a84eda0',
     [(0, 3), (1, 6), (2, 8), (4, -1), (5, 7)]),
    ('uniform', 10, 0, '4.5709705299839705',
     'b230f6bf18d2ee19f1e30f430f5e3212f3356a8649707ea6e2772e8befbe5352',
     [(0, 4), (1, 3), (2, 9), (5, 7), (6, 8)]),
    ('uniform', 11, 0, '6.2784245001967385',
     'fbe49fca3b7e85cdeb4add14717684681b6675489e236d0ce6315f7070ae77fa',
     [(0, 10), (1, 6), (2, 9), (3, 8), (4, 7), (5, -1)]),
    ('uniform', 12, 0, '8.713993951634698',
     'e80d2110ac7c3ac6c6e332de1662146bc80a8eb6edaad27360e3b8dffcdd777e',
     [(0, 1), (2, 7), (3, 8), (4, 6), (5, 11), (9, 10)]),
    ('uniform', 13, 0, '10.991656966913329',
     '65d872f10c2d7fd2caf1abe3a1dd11b7680ed987bede92f680c9ad0b60bd647f',
     [(0, 3), (1, 11), (2, 4), (5, 8), (6, 7), (9, -1), (10, 12)]),
    ('uniform', 14, 0, '5.373178946977953',
     '9007f9d9082b4aa8a66aaf53745a00fa4f9e85a8a6abf885b573e0be5c826cf5',
     [(0, 6), (1, 4), (2, 5), (3, 7), (8, 12), (9, 10), (11, 13)]),
    ('uniform', 15, 0, '6.326378577000794',
     '2ea2b92828d1598b18c01e4808d7c2a4386e1d67fb43e9f9b2778a8e0ecfa8f1',
     [(0, 2), (1, 7), (3, 12), (4, 10), (5, 13), (6, 14), (8, 11), (9, -1)]),
    ('uniform', 16, 0, '5.485412501873937',
     '09378d380b363f8f9fcdd09a28fee7948bc3efd3758a12768ff9fd92539c275c',
     [(0, 1), (2, 3), (4, 6), (5, 11), (7, 9), (8, 12), (10, 13), (14, 15)]),
    ('ties', 2, 1, '0.0',
     '35f30372e247c1ca7c445b18756027e972482cdd4cb0d848a77fb16b705c5ec9',
     [(0, 1)]),
    ('ties', 3, 1, '3.0',
     '04afe9cc768974d5a4844ca0072ba60f4dfd514f4dc2e95e5d010d8d6add53da',
     [(0, -1), (1, 2)]),
    ('ties', 4, 1, '1.0',
     '0d1a59300588b3343826aecc26bfe627ad0b57a892f18e92dff850017b86b808',
     [(0, 2), (1, 3)]),
    ('ties', 5, 1, '0.0',
     'c9a8532ab6de9517b8fa071bf808d372b00261e3b85495aeed89ec92b0c7cbee',
     [(0, 3), (1, 4), (2, -1)]),
    ('ties', 6, 1, '2.0',
     'a29a84f6d6a9167cf5981e870fcf723fa1e74c2a6a8c6c0a86cef7a54ad0b560',
     [(0, 2), (1, 5), (3, 4)]),
    ('ties', 7, 1, '2.0',
     'e7b64ee8e36186e6cf9a82f8c565f617ec26e1da2c5665163817044a96ec9614',
     [(0, 2), (1, 4), (3, 6), (5, -1)]),
    ('ties', 8, 1, '0.0',
     '4892467897bfa6cc82a137da5e43dff48f8c1e373c19f475adf98dc054a84fad',
     [(0, -1), (1, -1), (2, 6), (3, 4), (5, 7)]),
    ('ties', 9, 1, '1.0',
     'aac89ce681d7c560afc5a560d2300aa9a71876e74b10cf78adb3e97fdc32ade0',
     [(0, 1), (2, 8), (3, 6), (4, -1), (5, 7)]),
    ('ties', 10, 1, '0.0',
     '3ef128a0d03b6522f310aafb23b55b0eee3c737b96b7a3e1ec7644ccc96d6cf9',
     [(0, 2), (1, 5), (3, 6), (4, -1), (7, -1), (8, 9)]),
    ('ties', 12, 1, '1.0',
     '5f6b34704db6751279fee3e686b7124ed6149902a5730bc3dc111ac0b951020a',
     [(0, 4), (1, 3), (2, -1), (5, 6), (7, -1), (8, 10), (9, 11)]),
    ('ties', 14, 1, '1.0',
     'b98ca1f58ea7820618ce18843db09a561ff42d2dc771f2549971c9bf6a6f4524',
     [(0, 8), (1, 7), (2, 9), (3, 5), (4, 10), (6, 12), (11, 13)]),
    ('ties', 16, 1, '0.0',
     '34dc48109d148266b756b772f808c3759d7643e68c6fbb7c3854c476d840b2e5',
     [(0, 11), (1, 2), (3, 4), (5, 7), (6, 14), (8, 12), (9, 13), (10, 15)]),
    ('inf', 2, 2, '1.0',
     'f593bee6e243c0cecf5de74d4458da6fb9bd3088aa367ac8bfd98030e1645061',
     [(0, -1), (1, -1)]),
    ('inf', 3, 2, '5.0',
     '136d40e2a47b0ab06786a49d81eed7a4664b570ee49d48561053a6348dc55115',
     [(0, -1), (1, 2)]),
    ('inf', 4, 2, '2.0',
     '4b8c04074bfd3671d23597c64fa2e70a9dbac1c2c506a9b5d67d0eb24b8cb080',
     [(0, 2), (1, 3)]),
    ('inf', 5, 2, '2.0',
     'ab63bd456bf9b3827d7cfdb0b68cc66aada7ab3874ff75e6ba19c517349d06cb',
     [(0, 2), (1, 3), (4, -1)]),
    ('inf', 6, 2, '5.0',
     '934dcd28a65db17edace084b08f672bd533e44ef5ca9d59d7b2b11c9058aedbb',
     [(0, 2), (1, 4), (3, 5)]),
    ('inf', 7, 2, '1.0',
     '4f2b90deee1fb7ace98e9aaaca0b214e5cab29ae9232683eb5da261220e39495',
     [(0, 2), (1, 6), (3, 5), (4, -1)]),
    ('inf', 8, 2, '1.0',
     '585fc58a0958c3d4f4807f9a495ab0359c0d3070707a9de4a7dc92df04321069',
     [(0, 4), (1, 2), (3, 7), (5, 6)]),
    ('inf', 10, 2, '3.0',
     '5f09434e52a737aa7129682c2c12f6fc252504a624a5ab26857f7f06c7346394',
     [(0, 7), (1, 3), (2, 6), (4, 5), (8, 9)]),
    ('inf', 12, 2, '1.0',
     '86d313899c2ab215925d7ff5be78978509eb2cc1f68b0f722b99db9d7a09c1cb',
     [(0, 4), (1, 10), (2, 3), (5, 6), (7, 8), (9, 11)]),
    ('inf', 15, 2, '2.0',
     'a4a2fa03587e65e78590e9c21258daf16f987c2a3e0772ec9dc0e0de84076bcb',
     [(0, 8), (1, 7), (2, -1), (3, 11), (4, 9), (5, 10), (6, 12), (13, 14)]),
    ('inf', 16, 2, '1.0',
     'a94798061f52969e65285e71004a2c76c48963a8d924f575f956796f7b1d07f9',
     [(0, 14), (1, 11), (2, -1), (3, 12), (4, 9), (5, -1), (6, 8), (7, 13), (10, -1), (15, -1)]),
    ('none', 3, 3, 'inf',
     'd74608920775336de0d125f446018b990d234af1690774a266bc145046fd9f54',
     None),
]


def _slot_layout(n):
    """(i, j) -> slot, enumerated: for each vertex i, its pairs (i, j > i),
    then its boundary slot (i, n)."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n + 1)]
    return {pair: k for k, pair in enumerate(pairs)}


def _slot_list(w, boundary):
    """A matrix instance's pair costs ``w[i][j]``, i < j, as the kernel's
    flat slot list, each boundary slot holding its retirement cost."""
    n = len(boundary)
    return [w[i][j] if j < n else boundary[i] for i, j in _slot_layout(n)]


# The j of a boundary retirement in a move code (i << 32) | j.
RETIRE = 0xFFFFFFFF


def _by_mask(choice, n):
    """The kernel's choice list, which names for each reachable mask the
    position of the mask its best move came from, as the list a mask-indexed
    kernel returns: one move code per mask of all 2^n, (i << 32) | j for a
    pair and (i << 32) | RETIRE for a retirement, with -1 where no move
    was recorded."""
    masks = _dp.transitions(n)[0]
    out = [-1] * (1 << n)
    for mask, prev in zip(masks, choice):
        if prev >= 0:
            moved = [b for b in range(n) if (mask ^ masks[prev]) >> b & 1]
            assert len(moved) in (1, 2) and masks[prev] & ~mask == 0
            out[mask] = (moved[0] << 32) | (moved[1] if len(moved) == 2 else RETIRE)
    return out


@pytest.mark.parametrize(
    "kind,n,seed,cost,choice_sha,moves", KERNEL_GOLDEN, ids=[f"{c[0]}-{c[1]}" for c in KERNEL_GOLDEN]
)
def test_kernel_golden_output(kind, n, seed, cost, choice_sha, moves):
    w, boundary = _kernel_instance(kind, n, seed)
    got_cost, choice = _dp.solve_dense(_slot_list(w, boundary), boundary)
    assert repr(got_cost) == cost
    spread = [int(c) for c in _by_mask(choice, n)]
    assert hashlib.sha256(repr(spread).encode()).hexdigest() == choice_sha
    if moves is None:
        with pytest.raises(ValueError):
            _dp.reconstruct(choice, n)
    else:
        assert _dp.reconstruct(choice, n) == moves


def _fibonacci(k):
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


def _full_scan_reachable(n):
    """Masks a scan of all 2^n masks relaxes from the empty one."""
    top = (1 << n) - 1
    reached = {0}
    for mask in range(top):
        if mask not in reached:
            continue
        nm = mask | (~mask & (mask + 1))
        reached.add(nm)
        free = top ^ nm
        while free:
            bit = free & -free
            free ^= bit
            reached.add(nm | bit)
    return reached


@pytest.mark.parametrize("n", range(17))
def test_kernel_table_lists_the_reachable_masks(n):
    masks, rows = _dp.transitions(n)
    assert list(masks) == sorted(set(masks))
    assert set(masks) == _full_scan_reachable(n)
    assert len(masks) == _fibonacci(n + 2)
    # The full mask is reached last and has no moves, so it has no row.
    assert masks[-1] == (1 << n) - 1 and len(rows) == len(masks) - 1
    slot = _slot_layout(n)
    assert all(_dp.slot(i, j, n) == k for (i, j), k in slot.items())
    for mask, (i, retired, pairs) in zip(masks, rows):
        nm = mask | 1 << i
        assert i == (~mask & (mask + 1)).bit_length() - 1
        assert masks[retired] == nm
        free = [j for j in range(n) if not nm >> j & 1]
        assert [(k, masks[p]) for k, p in pairs] == [(slot[i, j], nm | 1 << j) for j in free]


def _solve_dense_full_scan(w, boundary):
    """The kernel's loop over all 2^n masks, kept as the reference."""
    n = len(boundary)
    full = 1 << n
    top = full - 1
    dp = [math.inf] * full
    dp[0] = 0.0
    choice = [-1] * full
    for mask in range(top):
        cost = dp[mask]
        if not math.isfinite(cost):
            continue
        bit_i = ~mask & (mask + 1)
        i = bit_i.bit_length() - 1
        nm = mask | bit_i
        cand = cost + boundary[i]
        if cand < dp[nm]:
            dp[nm] = cand
            choice[nm] = (i << 32) | RETIRE
        free = top ^ nm
        while free:
            bit_j = free & -free
            free ^= bit_j
            j = bit_j.bit_length() - 1
            cand = cost + w[i][j]
            if cand < dp[nm | bit_j]:
                dp[nm | bit_j] = cand
                choice[nm | bit_j] = (i << 32) | j
    return dp[top], choice


@pytest.mark.parametrize("kind", ["uniform", "ties", "inf", "none"])
def test_kernel_table_matches_full_scan(kind):
    start = 1 if kind == "none" else 0  # "none" instances need a vertex 0
    cases = [(n, seed) for n in range(start, 13) for seed in range(4)] + [(14, 0), (16, 0)]
    for n, seed in cases:
        w, boundary = _kernel_instance(kind, n, f"scan-{seed}")
        cost, choice = _dp.solve_dense(_slot_list(w, boundary), boundary)
        want_cost, want_choice = _solve_dense_full_scan(w, boundary)
        assert repr(cost) == repr(want_cost)
        assert _by_mask(choice, n) == want_choice


def _matrix_oracle(g: DefectGraph, weights):
    """The matcher's solve as it was before the slot layout, kept as the
    reference, with the full-scan DP for the kernel: ``edge_at[i][j]``,
    the last edge joining DP vertices i and j (-1 for none), read into an
    n x n cost matrix; the first strict minimum among a real's retirement
    candidates; the move walk; the leftover virtuals paired in order.  The
    DP vertices, virtuals and candidates are read from g's form.  Returns
    what ``_solve_outcome`` returns."""
    arrays = defect_arrays(g)
    ids, virts, retire = arrays.ids, arrays.virtuals, arrays.retire
    n = len(ids)
    assert n <= 12, "the full scan is sized for small graphs"
    if (n + len(virts)) % 2:
        return OddVertexCount
    index = {vid: i for i, vid in enumerate(ids)}
    edge_at = [[-1] * n for _ in range(n)]
    for k, e in enumerate(g.edges):
        i, j = index.get(e.u), index.get(e.v)
        if i is not None and j is not None:
            edge_at[i][j] = edge_at[j][i] = k
    boundary, owner = [math.inf] * n, [None] * n
    for i, virt, k in retire:
        cost = float(weights[k])
        if owner[i] is None or cost < boundary[i]:
            boundary[i], owner[i] = cost, (virt, k)
    padded = [*weights, math.inf]
    cost, choice = _solve_dense_full_scan([[padded[k] for k in row] for row in edge_at], boundary)
    if not math.isfinite(cost):
        return OddVertexCount
    moves, mask = [], (1 << n) - 1
    while mask:
        i, j = choice[mask] >> 32, choice[mask] & RETIRE
        moves.append((i, j))
        mask ^= 1 << i | (0 if j == RETIRE else 1 << j)
    pairs, edges, retired = [], [], set()
    for i, j in reversed(moves):
        if j == RETIRE:
            mate, k = owner[i]
            retired.add(mate)
        else:
            mate, k = ids[j], edge_at[i][j]
        pairs.append((ids[i], mate))
        edges.append(k)
    leftover = [v for v in virts if v not in retired]
    for a in range(0, len(leftover), 2):
        pairs.append((leftover[a], leftover[a + 1]))
        edges.append(None)
    return tuple(pairs), repr(cost), True, tuple(edges)


def _converted_case(rng: random.Random, layout: str, flavour: str):
    """A file-style graph and a weight list.  "own": 1 to 3 virtual
    candidates per real, so 1 to 12 reals enter the DP; "arbitrary": some
    virtual joined to two reals, so all of at most 12 vertices enter it.
    Real-real pairs go missing at random, random edges get a parallel copy
    (either orientation, anywhere in the list; in "own" only edges whose
    ends are both real or both virtual), and a few virtual-virtual
    edges are added.  Weights: "plain" positive floats, "ties" small
    integers, "special" with NaN, negative, +inf and -inf sprinkled in."""
    if layout == "own":
        reals = [vert(i, 1, 0) for i in range(rng.randint(1, 12))]
        virts, edges = [], []
        for r in reals:
            for c in range(rng.randint(1, 3)):
                virts.append(vert(f"b{r.id}-{c}", 1, 0, virtual=True))
                edges.append(DefectEdge(r.id, virts[-1].id, 1.0))
        if (len(reals) + len(virts)) % 2:
            virts.append(vert("spare", 1, 0, virtual=True))
    else:
        reals = [vert(i, 1, 0) for i in range(rng.randint(1, 9))]
        virts = [vert(f"x{c}", 1, 0, virtual=True) for c in range(rng.randint(1, 11 - len(reals)))]
        edges = [DefectEdge(r.id, x.id, 1.0) for x in virts for r in reals if rng.random() < 0.6]
        if len(virts) >= len(reals):  # make sure some virtual has two reals
            edges += [DefectEdge(r.id, virts[0].id, 1.0) for r in (reals[0], reals[-1])]
        if (len(reals) + len(virts)) % 2:
            virts.append(vert("spare", 1, 0, virtual=True))
            edges += [DefectEdge(r.id, "spare", 1.0) for r in reals]
    pairs = itertools.combinations(reals, 2)
    edges += [DefectEdge(u.id, v.id, 1.0) for u, v in pairs if rng.random() < 0.75]
    pairs = itertools.combinations(virts, 2)
    edges += [DefectEdge(u.id, v.id, 0.0) for u, v in pairs if rng.random() < 0.2]
    rng.shuffle(edges)
    # A second edge from a virtual to a real would make the layout arbitrary.
    virtual = {v.id for v in virts}
    copyable = [e for e in edges if layout == "arbitrary" or (e.u in virtual) == (e.v in virtual)]
    for e in rng.sample(copyable, min(len(copyable), rng.randint(0, 6))):
        copy = DefectEdge(e.v, e.u, e.d) if rng.random() < 0.5 else e
        edges.insert(rng.randrange(len(edges) + 1), copy)
    g = DefectGraph(tuple(reals + virts), tuple(edges))
    if flavour == "ties":
        weights = [float(rng.randint(0, 3)) for _ in edges]
    else:
        weights = [rng.uniform(0.1, 6.0) for _ in edges]
    if flavour == "special":
        for k in rng.sample(range(len(edges)), min(len(edges), 4)):
            weights[k] = rng.choice([math.nan, -0.75, -3.0, math.inf, -math.inf])
    return g, weights


@pytest.mark.parametrize("layout", ["own", "arbitrary"])
@pytest.mark.parametrize("flavour", ["plain", "ties", "special"])
def test_converted_forms_match_like_the_matrix_oracle(layout, flavour):
    """File-style graphs of at most 12 DP vertices, each layout with missing
    pairs, parallel edges and the given weights: the matcher, which reads a
    converted form's weights through its slot -> row map, returns the
    matrix oracle's pairs, edges and cost bits, or fails where it fails."""
    rng = random.Random(f"converted-{layout}-{flavour}")
    sizes = collections.Counter()
    for case in range(60):
        g, weights = _converted_case(rng, layout, flavour)
        assert bool(defect_arrays(g).retire) == (layout == "own")
        want = _matrix_oracle(g, weights)
        assert _solve_outcome(g, weights) == want, case
        sizes[len(defect_arrays(g).ids) >= matching_module.PRUNE_MIN, want is OddVertexCount] += 1
    assert sizes[True, False] and sizes[False, False], sizes


# --- decode and risk metrics ---


def test_decode_lambda_zero_reduces_to_plain_mwm():
    rng = np.random.default_rng(23)
    vs = [vert(i, int(rng.integers(1, 9)), int(rng.integers(0, 6))) for i in range(6)]
    g = complete_graph(vs, lambda u, v: float(rng.uniform(0.2, 3.0)))
    m0, rep0 = masd_decode(g, 0.0)
    plain = min_weight_perfect_matching(g, [e.d for e in g.edges])
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


def test_drg_pm_rejects_bad_lambda_and_beta_and_survives_large_beta():
    vs = [vert(0, 4, 1), vert(1, 4, 3), vert(2, 2, 0)]
    g = complete_graph(vs, lambda u, v: 1.0 + u.id + v.id)
    for lam in (math.nan, math.inf, -0.5):
        with pytest.raises(NegativeLambda, match="finite and >= 0"):
            drg_pm(g, lam, 1.0)
        with pytest.raises(NegativeLambda, match="finite and >= 0"):
            drg_toy([(1.0, 1)], lam)
        with pytest.raises(NegativeLambda, match="finite and >= 0"):
            edge_weights(g, lam, RAW)
    for beta in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(InvalidBeta, match="finite and > 0"):
            drg_pm(g, 1.0, beta)
    # every exp(-beta d) underflows at these beta; the weights relative to the
    # shortest edge (0-1, d = 2, raw delta_k = 2) do not
    for beta in (1000.0, 1e300):
        assert drg_pm(g, 1.0, beta, RAW) == 2 / 2.0


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
    virtuals; 3: 17 reals with one virtual each.
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
                    assert m.exact
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


LAYOUTS = {"own": 0, "own-sparse": 0, "arbitrary": 1, "no-virtuals": 2}


def _layout_graph(rng, kind: str) -> DefectGraph:
    """A ``_random_decoding_graph`` in one matcher layout, with parallel edges.

    "own": one virtual per real, with the virtual-virtual clique;
    "own-sparse": the same without the clique and without some real-real
    edges, plus two virtuals that touch nothing; "arbitrary": virtuals each
    joined to two reals; "no-virtuals": reals only.  Random edges get a
    reversed copy at a random position, so either copy may come last; in
    the own layouts only edges whose ends are both real or both virtual, so
    the layout stays own-boundary.
    """
    base = _random_decoding_graph(rng, LAYOUTS[kind])
    vertices, edges = list(base.vertices), list(base.edges)
    virtual = {v.id for v in base.vertices if v.is_virtual_boundary}
    if kind == "own-sparse":
        edges = [
            e for e in edges
            if (e.u in virtual) != (e.v in virtual) or (e.u not in virtual and rng.random() < 0.7)
        ]
        vertices += [vert("spare1", 1, 0, virtual=True), vert("spare2", 1, 0, virtual=True)]
    copyable = [
        e for e in edges if kind in ("arbitrary", "no-virtuals") or (e.u in virtual) == (e.v in virtual)
    ]
    for i in rng.integers(0, len(copyable), size=3 if copyable else 0):
        copy = DefectEdge(copyable[i].v, copyable[i].u, float(rng.uniform(0.2, 4.0)))
        edges.insert(int(rng.integers(0, len(edges) + 1)), copy)
    return DefectGraph(tuple(vertices), tuple(edges))


@pytest.mark.parametrize("kind", list(LAYOUTS))
def test_matching_names_the_edge_each_pair_paid(kind):
    """Matching.edges is None exactly for the virtual pairs the own-boundary
    layout matches for free, and otherwise names the last edge of g joining
    the pair; the named weights sum to the cost, and DRG_toy equals DRG_toy
    read through a frozenset({u, v}) -> position map of the edges with a
    real end."""
    own = kind.startswith("own")
    free_pairs = 0
    for seed in range(60):
        rng = np.random.default_rng(7000 + seed)
        g = _layout_graph(rng, kind)
        virtual = {v.id for v in g.vertices if v.is_virtual_boundary}
        last = {frozenset((e.u, e.v)): k for k, e in enumerate(g.edges)}
        arrays = defect_arrays(g)
        raw = arrays.edges
        positions = {key: k for key, k in last.items() if k not in arrays.virtual_rows}
        for mode in (RAW, NORMALIZED):
            for lam in (0.0, 0.5, 1.5):
                weights = edge_weights(g, lam, mode)
                m, rep = masd_decode(g, lam, mode=mode)
                assert len(m.edges) == len(m.pairs)
                paid = 0.0
                for pair, k in zip(m.pairs, m.edges):
                    free = own and set(pair) <= virtual
                    free_pairs += free
                    assert (k is None) == free, (seed, pair, k)
                    if k is not None:
                        assert k == last[frozenset(pair)], (seed, pair)
                        paid += weights[k]
                assert paid == pytest.approx(m.total_cost, rel=1e-12, abs=1e-12)
                rows = []
                for pair in m.pairs:
                    k = positions.get(frozenset(pair))
                    if k is not None and raw[k][0]:
                        rows.append(raw[k][:2])
                assert rep.drg_toy == drg_toy(rows, lam)
    assert (free_pairs > 0) == own


def _solve_outcome(g: DefectGraph, weights):
    """The matching of g under weights as comparable fields (``repr`` of the
    cost), or the exception type when there is none."""
    try:
        m = min_weight_perfect_matching(g, weights)
    except OddVertexCount:
        return OddVertexCount
    return m.pairs, repr(m.total_cost), m.exact, m.edges


def _two_partner_graph(rng) -> DefectGraph:
    """An "own" ``_layout_graph`` plus two virtuals, each joined to a random
    real: still the own-boundary layout, with reals that have two
    retirement candidates."""
    g = _layout_graph(rng, "own")
    extra = [vert("x0", 1, 0, virtual=True), vert("x1", 1, 0, virtual=True)]
    reals = [v.id for v in g.vertices if not v.is_virtual_boundary]
    edges = [DefectEdge(reals[int(rng.integers(0, len(reals)))], x.id, float(rng.uniform(0.2, 4.0)))
             for x in extra]
    return DefectGraph(g.vertices + tuple(extra), g.edges + tuple(edges))


@pytest.mark.parametrize("kind", [*LAYOUTS, "own-two-partners"])
def test_reused_matching_equals_fresh_solve(kind, monkeypatch):
    """One graph fed a sequence of weight vectors (raises off the matching,
    raises on a paid edge, decreases, equal repeats, +inf edges, NaN, ties)
    gives, field for field, what a fresh copy of it gives for each vector;
    the certificate both fires and refuses along the way."""
    solve, calls = _dp.solve_dense, []
    monkeypatch.setattr(_dp, "solve_dense", lambda *args: calls.append(1) or solve(*args))
    hits = misses = 0
    for seed in range(40):
        rng = np.random.default_rng(9000 + seed)
        g = _two_partner_graph(rng) if kind == "own-two-partners" else _layout_graph(rng, kind)
        weights = [e.d for e in g.edges]
        if seed % 2:  # small integers: many equal-cost matchings
            weights = [float(rng.integers(0, 4)) for _ in weights]
        paid = []
        for step in range(24):
            move = ("same", "off", "off", "paid", "down", "inf", "nan")[int(rng.integers(0, 7))]
            weights = list(weights)
            k = int(rng.integers(0, len(weights)))
            if move == "off":
                for j in rng.integers(0, len(weights), size=3).tolist():
                    if j not in paid:
                        weights[j] += float(rng.choice([0.0, 0.5, 1.0, 2.5]))
            elif move == "paid" and paid:
                weights[paid[int(rng.integers(0, len(paid)))]] += float(rng.choice([0.5, 1e-9]))
            elif move == "down":
                weights[k] -= float(rng.choice([0.5, 1e-9]))
            elif move == "inf":
                weights[k] = math.inf
            elif move == "nan":
                weights[k] = math.nan
            del calls[:]
            got = _solve_outcome(g, weights)
            assert got == _solve_outcome(DefectGraph(g.vertices, g.edges), weights), (seed, step)
            if got is not OddVertexCount:
                reused = len(calls) == 1  # the fresh copy always solves
                hits += reused
                misses += not reused
                paid = [k for k in got[3] if k is not None]
            if move == "nan":
                weights[k] = float(rng.uniform(0.0, 4.0))
    assert hits > 100 and misses > 100, (hits, misses)


def test_certified_repeat_makes_no_kernel_call(monkeypatch):
    """After a solve, an equal repeat and raises off the matching return the
    same object with no kernel call; a raised paid edge, any weight
    decreased or any NaN costs one."""
    solve, calls = _dp.solve_dense, []
    monkeypatch.setattr(_dp, "solve_dense", lambda *args: calls.append(1) or solve(*args))
    code = build_code(5)
    graphs = (sample_surface_code(5, 0.1, seed=55, trial=t, code=code)[1] for t in range(40))
    for g in [g for g in graphs if g.vertices][:20]:
        weights = edge_weights(g, 0.0, NORMALIZED)
        paid = {k for k in min_weight_perfect_matching(g, weights).edges if k is not None}
        cases = [(weights, 0)]
        for k in range(len(weights)):
            raised, lowered, nan = list(weights), list(weights), list(weights)
            raised[k] += 1e-9 if k in paid else 1.0
            lowered[k] -= 1e-9
            nan[k] = math.nan
            cases += [(raised, int(k in paid)), (lowered, 1), (nan, 1)]
        for case, want in cases:
            h = DefectGraph(g.vertices, g.edges)
            first = min_weight_perfect_matching(h, weights)
            del calls[:]
            try:
                again = min_weight_perfect_matching(h, case)
            except OddVertexCount:  # a NaN retirement cost can leave no matching
                again = None
            assert (again is first) == (want == 0)
            assert len(calls) == want


@pytest.fixture
def pruning(monkeypatch):
    """Switch ``matching._prune`` on (``state["on"]``, the default) or to a
    no-op, and count its calls and the pair entries it changed."""
    real = matching_module._prune
    state = {"on": True, "calls": 0, "pruned": 0}

    def switched(w, boundary, weights):
        if state["on"]:
            before = [row[:] for row in w]
            real(w, boundary, weights)
            state["calls"] += 1
            state["pruned"] += sum(a is not b for r0, r1 in zip(before, w) for a, b in zip(r0, r1))

    monkeypatch.setattr(matching_module, "_prune", switched)
    return state


def _own_instance(b: list, w: dict) -> tuple[DefectGraph, list]:
    """Reals 0..n-1, each with its own virtual, every real pair joined:
    the own-boundary layout, with retirement costs ``b`` and pair costs
    ``w[(i, j)]`` as the weight list."""
    n = len(b)
    vertices = [vert(i, 1, 0) for i in range(n)] + [vert(f"b{i}", 1, 0, virtual=True) for i in range(n)]
    edges, weights = [], []
    for i in range(n):
        for j in range(i + 1, n):
            edges.append(DefectEdge(i, j, 1.0))
            weights.append(w[(i, j)])
        edges.append(DefectEdge(i, f"b{i}", 1.0))
        weights.append(b[i])
    return DefectGraph(tuple(vertices), tuple(edges)), weights


def _pruned_against_plain(pruning, g: DefectGraph, weights) -> tuple[str, str, int]:
    """(the matching's ``repr`` with ``_prune`` on, the same with it a
    no-op, the pair entries pruned); each solve on a fresh copy of g, so no
    certified matching is reused."""

    def outcome():
        try:
            return repr(min_weight_perfect_matching(DefectGraph(g.vertices, g.edges), weights))
        except OddVertexCount:
            return "OddVertexCount"

    pruned = pruning["pruned"]
    pruning["on"] = True
    got = outcome()
    pruning["on"] = False
    want = outcome()
    pruning["on"] = True
    return got, want, pruning["pruned"] - pruned


def _ulps(x: float, k: int) -> float:
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


def _prune_case(kind: str, rng: random.Random, n: int) -> tuple[list, dict]:
    """Retirement and pair costs for one of the near-tie families."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if kind == "integer":
        b = [float(rng.randint(0, 3)) for _ in range(n)]
        return b, {p: float(rng.randint(0, 7)) for p in pairs}
    if kind == "zero":
        b = [rng.choice([0.0, 0.0, 0.5, 1.5]) for _ in range(n)]
        return b, {p: rng.choice([0.0, 0.5, 1.0, 3.0]) for p in pairs}
    # Retirement costs over several binades, so sums round.
    b = [rng.uniform(0.1, 1.0) * 2.0 ** rng.randint(0, 6) for _ in range(n)]
    w = {}
    for i, j in pairs:
        tie = b[i] + b[j]
        if kind == "exact-tie":
            w[(i, j)] = rng.choice([tie, tie, rng.uniform(0.5, 2.0) * tie])
        elif kind == "ulp-tie":
            w[(i, j)] = _ulps(tie, rng.randint(-2, 2))
        else:  # "scale-1e-6", "scale-1e6": any costs, scaled
            w[(i, j)] = rng.uniform(0.3, 1.6) * tie
    if kind.startswith("scale"):
        scale = 1e-6 if kind == "scale-1e-6" else 1e6
        b = [x * scale for x in b]
        w = {p: x * scale for p, x in w.items()}
    return b, w


@pytest.mark.parametrize(
    "kind", ["integer", "zero", "exact-tie", "ulp-tie", "scale-1e-6", "scale-1e6"]
)
def test_pruning_keeps_the_matching(kind, pruning):
    """Own-boundary graphs of 8 to 16 defects whose pairs tie, or nearly
    tie, with retiring both ends: each matching, cost bits included, is the
    one the unpruned DP returns, and every instance prunes some pair."""
    rng = random.Random(f"prune-{kind}")
    sizes = [8, 9, 10, 11, 12] * 24 + [13, 14, 16]
    for case, n in enumerate(sizes):
        b, w = _prune_case(kind, rng, n)
        w[(0, n - 1)] = (b[0] + b[n - 1]) * 3.0 + 1.0  # one pair surely dominated
        got, want, pruned = _pruned_against_plain(pruning, *_own_instance(b, w))
        assert got == want, (kind, case, n)
        assert pruned > 0, (kind, case, n)


def test_pruning_skips_solves_that_fail_a_precondition(pruning):
    """A negative weight, a NaN weight, a +inf retirement cost and an
    arbitrary virtual layout each leave every pair in place; the matching
    is still the unpruned one."""
    rng = random.Random("prune-refused")
    n = 10
    instances = []
    for bad in ("negative", "nan", "inf-retirement"):
        for _ in range(4):
            b = [rng.uniform(0.5, 2.0) for _ in range(n)]
            w = {(i, j): rng.uniform(0.5, 6.0) for i in range(n) for j in range(i + 1, n)}
            i, j = sorted(rng.sample(range(n), 2))
            if bad == "negative":
                w[(i, j)] = -0.25
            elif bad == "nan":
                w[(i, j)] = math.nan
            else:
                b[i] = math.inf
            instances.append(_own_instance(b, w))
    # Six reals and two virtuals, every pair joined: a virtual has six real
    # neighbours, so all eight vertices enter the DP and none retires.
    reals = [vert(i, 1, 0) for i in range(6)]
    virts = [vert(f"b{i}", 1, 0, virtual=True) for i in range(2)]
    arbitrary = complete_graph(reals + virts, lambda u, v: rng.uniform(0.5, 6.0))
    instances.append((arbitrary, [e.d for e in arbitrary.edges]))
    for g, weights in instances:
        calls = pruning["calls"]
        got, want, pruned = _pruned_against_plain(pruning, g, weights)
        assert got == want
        assert pruned == 0
        assert pruning["calls"] == calls + 1


@pytest.mark.parametrize("winding", ["two-sector", "uniform"])
def test_lambda_sweep_rows_do_not_depend_on_pruning(winding, pruning):
    """d = 7 sweeps at p = 0.15 and 0.25, in both modes: the rows with
    ``_prune`` a no-op equal the real ones, and some pairs were pruned."""
    code = build_code(7)
    model = WindingModel(kind=winding)
    lams = [0.0, 0.1, 0.3]
    for p in (0.15, 0.25):
        for mode in (RAW, NORMALIZED):
            rows = []
            for on in (True, False):
                pruning["on"] = on
                instances = [
                    sample_surface_code(7, p, 5, trial=t, winding=model, code=code)
                    for t in range(12)
                ]
                rows.append(lambda_sweep(instances, lams, mode=mode, code=code))
            assert rows[0] == rows[1], (p, mode)
    assert pruning["pruned"] > 0


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
