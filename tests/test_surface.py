"""Rotated surface-code harness: layout, sampling, decoding, sweeps."""

from __future__ import annotations

import collections
import dataclasses

import numpy as np
import pytest

from wplzx.errors import ConfigInvalid, InvalidDistance
from wplzx.masd import (
    DefectEdge,
    DefectGraph,
    WindingModel,
    build_code,
    correction_from_matching,
    lambda_sweep,
    logical_failure,
    masd_decode,
    sample_surface_code,
)
from wplzx.masd.graph import defect_arrays
from wplzx.masd.surface import _bfs_tables


@pytest.fixture(scope="module")
def code3():
    return build_code(3)


def _parity_syndrome(code, flipped) -> tuple[int, ...]:
    """Reference syndrome: the Z checks whose support meets the set of
    flipped qubits an odd number of times."""
    flipped = frozenset(flipped)
    return tuple(p.index for p in code.z_checks if len(p.qubits & flipped) % 2)


def _x_sector(d: int) -> tuple[list[frozenset[int]], frozenset[int]]:
    """Reference X sector of the rotated layout, which the code does not
    keep: the bulk X faces (i + j odd) and the weight-2 X faces on the top
    and bottom edges, plus the logical X on the first column."""
    q = lambda r, c: r * d + c  # noqa: E731
    faces = [
        frozenset({q(i, j), q(i, j + 1), q(i + 1, j), q(i + 1, j + 1)})
        for i in range(d - 1)
        for j in range(d - 1)
        if (i + j) % 2
    ]
    faces += [frozenset({q(0, j), q(0, j + 1)}) for j in range(0, d - 1, 2)]
    faces += [frozenset({q(d - 1, j), q(d - 1, j + 1)}) for j in range(1, d - 1, 2)]
    return faces, frozenset(q(r, 0) for r in range(d))


def test_stabilizer_layout_counts():
    """build_code asserts the layout of both sectors as it builds: (d*d-1)/2
    checks each, X and Z checks commute, each logical commutes with the
    other sector's checks, and the two logicals anticommute."""
    assert __debug__, "build_code's layout assertions are off under -O"
    for d in (3, 5, 7):
        code = build_code(d)
        assert len(code.z_checks) == (d * d - 1) // 2
        assert len(_x_sector(d)[0]) == (d * d - 1) // 2


def test_stabilizers_commute():
    for d in (3, 5):
        code = build_code(d)
        x_checks, _ = _x_sector(d)
        for xq in x_checks:
            for zp in code.z_checks:
                assert len(xq & zp.qubits) % 2 == 0


def test_logicals_anticommute_and_commute_with_checks():
    for d in (3, 5, 7):
        code = build_code(d)
        x_checks, logical_x = _x_sector(d)
        logical_z = frozenset(_bits(code.logical_z_mask))
        assert len(logical_z & logical_x) % 2 == 1
        for xq in x_checks:
            assert len(xq & logical_z) % 2 == 0
        for zp in code.z_checks:
            assert len(zp.qubits & logical_x) % 2 == 0


def test_invalid_distance():
    with pytest.raises(InvalidDistance):
        build_code(4)
    with pytest.raises(InvalidDistance):
        sample_surface_code(9, 0.01, seed=0)


def test_single_error_defect_counts(code3):
    # enumerate all single-qubit errors: 1 defect if the qubit touches one
    # check (boundary), 2 if it touches two (bulk); verified by parity oracle
    for q in range(9):
        syndrome = code3._syndrome_of([q])
        owners = [p.index for p in code3.z_checks if q in p.qubits]
        assert syndrome == _parity_syndrome(code3, {q}) == tuple(owners)
        assert len(syndrome) in (1, 2)


def test_bfs_distances_match_manhattan_in_bulk():
    code = build_code(5)
    # interior Z checks: distance equals the rotated-frame Manhattan distance
    interior = [p for p in code.z_checks if len(p.qubits) == 4]
    for a in interior:
        for b in interior:
            if a.index == b.index:
                continue
            (i1, j1), (i2, j2) = a.center, b.center
            u1, v1 = (i1 + j1) / 2, (i1 - j1) / 2
            u2, v2 = (i2 + j2) / 2, (i2 - j2) / 2
            manhattan = abs(u1 - u2) + abs(v1 - v2)
            u, v = sorted((a.index, b.index))
            bfs = code.pair_edge[u][v - u - 1].d
            assert bfs <= manhattan + 1e-9
            if manhattan <= 2:  # no boundary shortcut can undercut here
                assert bfs == int(round(manhattan))


def test_p_zero_no_defects_trivial_decode(code3, monkeypatch):
    from wplzx.masd import matching as matching_module

    kernel = matching_module._kernel
    solve, calls = kernel.solve_dense, []
    monkeypatch.setattr(kernel, "solve_dense", lambda *args: calls.append(1) or solve(*args))
    for trial in range(50):
        sample, graph = sample_surface_code(3, 0.0, seed=123, trial=trial)
        assert sample.syndrome == ()
        assert len(graph.vertices) == 0
        matching, report = masd_decode(graph, 0.5)
        assert matching == matching_module.Matching((), 0.0, exact=True, edges=())
        assert not logical_failure(code3, sample, matching)
    assert calls == []  # no defects, no kernel call
    masd_decode(sample_surface_code(3, 0.2, seed=123, trial=1)[1], 0.5)
    assert calls == [1]


def test_sampling_deterministic_per_seed():
    a1, g1 = sample_surface_code(3, 0.07, seed=9, trial=4)
    a2, g2 = sample_surface_code(3, 0.07, seed=9, trial=4)
    assert a1 == a2
    assert g1.serialize() == g2.serialize()
    b1, _ = sample_surface_code(3, 0.07, seed=9, trial=5)
    assert a1 != b1  # distinct trial stream


def test_correction_clears_syndrome(code3):
    for trial in range(80):
        sample, graph = sample_surface_code(3, 0.12, seed=77, trial=trial)
        matching, _ = masd_decode(graph, 0.2)
        corr = correction_from_matching(code3, matching, graph)
        composite = set(sample.x_errors) ^ corr
        assert _parity_syndrome(code3, composite) == ()
        # logical_failure runs its own residual assertion internally
        logical_failure(code3, sample, matching)


def test_logical_failure_rejects_residual_syndrome(code3, monkeypatch):
    """Every data qubit sits in at least one Z check, so a correction missing
    one qubit leaves a syndrome, and logical_failure's check must fire."""
    from wplzx.masd import surface

    full = surface.correction_from_matching

    def drop_one(code, matching, graph):
        corr = full(code, matching, graph)
        return corr - {min(corr)}

    monkeypatch.setattr(surface, "correction_from_matching", drop_one)
    fired = 0
    for trial in range(40):
        sample, graph = sample_surface_code(3, 0.12, seed=77, trial=trial)
        matching, _ = masd_decode(graph, 0.2)
        if not full(code3, matching, graph):
            continue
        with pytest.raises(AssertionError, match="residual syndrome"):
            logical_failure(code3, sample, matching, graph)
        fired += 1
    assert fired > 0


def test_correction_reads_virtual_flags_not_id_types():
    """Boundary partners renamed to int ids decode and correct exactly like
    the sampled "b<check>" ids."""
    code = build_code(5)

    def new_id(vid):
        return 100 + int(vid[1:]) if isinstance(vid, str) else vid

    def renamed(graph):
        return DefectGraph(
            tuple(dataclasses.replace(v, id=new_id(v.id)) for v in graph.vertices),
            tuple(DefectEdge(new_id(e.u), new_id(e.v), e.d) for e in graph.edges),
        )

    def real_pairs(matching, graph):
        return {
            frozenset(map(new_id, pair))
            for pair in matching.pairs
            if not all(graph.vertex(x).is_virtual_boundary for x in pair)
        }

    instances = [sample_surface_code(5, 0.12, seed=41, trial=t) for t in range(40)]
    twins = [(sample, renamed(graph)) for sample, graph in instances]
    for (sample, graph), (_, twin) in zip(instances, twins):
        m, _ = masd_decode(graph, 0.25)
        m_twin, _ = masd_decode(twin, 0.25)
        assert m_twin.total_cost == m.total_cost
        assert real_pairs(m_twin, twin) == real_pairs(m, graph)
        assert correction_from_matching(code, m_twin, twin) == correction_from_matching(
            code, m, graph
        )
        assert logical_failure(code, sample, m_twin, twin) == logical_failure(code, sample, m)
    lams = [0.0, 0.25]
    assert lambda_sweep(twins, lams, code=code) == lambda_sweep(instances, lams, code=code)


def test_single_error_always_corrected(code3):
    # distance 3 corrects any weight-1 error at lambda = 0
    model = WindingModel(kind="constant")
    for q in range(9):
        syndrome = _parity_syndrome(code3, {q})
        from wplzx.masd.surface import SurfaceSample, defect_graph_for
        from wplzx.rng import trial_stream

        graph = defect_graph_for(code3, syndrome, model, trial_stream(0, 0))
        sample = SurfaceSample(3, 0.0, 0, 0, (q,), syndrome)
        matching, _ = masd_decode(graph, 0.0)
        assert not logical_failure(code3, sample, matching)


def test_two_sector_winding_assignment(code3):
    model = WindingModel(kind="two-sector", a=8, k_left=0, k_right=3)
    from wplzx.masd.surface import defect_graph_for
    from wplzx.rng import trial_stream

    syndrome = tuple(p.index for p in code3.z_checks)
    g = defect_graph_for(code3, syndrome, model, trial_stream(0, 0))
    reals = [v for v in g.vertices if not v.is_virtual_boundary]
    midline = 1.0
    for v in reals:
        want = 0 if v.position[1] < midline else 3
        assert v.k == want and v.a == 8


def test_p_phys_domain():
    with pytest.raises(ConfigInvalid):
        sample_surface_code(3, 0.6, seed=0)
    with pytest.raises(ConfigInvalid):
        sample_surface_code(3, -0.1, seed=0)


def test_lambda_sweep_rows_and_monotone_drg():
    instances = [
        sample_surface_code(3, 0.06, seed=31, trial=t) for t in range(60)
    ]
    lams = [0.0, 0.1, 0.2, 0.4, 0.8]
    rows = lambda_sweep(instances, lams)
    assert [r["lambda"] for r in rows] == lams
    assert rows[0]["drg_toy_mean"] == 0.0
    assert rows[0]["drg_pm_mean"] == 0.0
    toys = [r["drg_toy_mean"] for r in rows]
    pms = [r["drg_pm_mean"] for r in rows]
    assert all(b >= a - 1e-12 for a, b in zip(pms, pms[1:]))
    assert all(t >= -1e-12 for t in toys)
    for r in rows:
        assert r["trials"] == 60
        assert 0.0 <= r["logical_error_rate"] <= 1.0


def test_lambda_sweep_baseline_only():
    instances = [sample_surface_code(3, 0.05, seed=2, trial=t) for t in range(20)]
    rows = lambda_sweep(instances, [0.0])
    assert len(rows) == 1
    assert rows[0]["drg_toy_mean"] == 0.0


def test_lambda_sweep_validates_inputs():
    with pytest.raises(ConfigInvalid):
        lambda_sweep([], [0.1])
    d3 = [sample_surface_code(3, 0.05, seed=4, trial=t) for t in range(3)]
    d5 = sample_surface_code(5, 0.05, seed=4, trial=3)
    other_p = sample_surface_code(3, 0.1, seed=4, trial=3)
    with pytest.raises(ConfigInvalid):
        lambda_sweep(d3 + [d5], [0.1])  # mixed distances
    with pytest.raises(ConfigInvalid):
        lambda_sweep(d3 + [other_p], [0.1])  # mixed p_phys
    with pytest.raises(ConfigInvalid):
        lambda_sweep(d3, [0.1], code=build_code(5))  # code of another distance
    assert len(lambda_sweep(d3, [0.1], code=build_code(3))) == 1


def test_lambda_sweep_rows_follow_the_grid_order():
    """A shuffled grid gives the sorted grid's rows, permuted, and an
    iterator of lambdas gives the rows a list gives."""
    lams = [0.0, 0.05, 0.1, 0.2, 0.3, 0.5, 1.0]
    shuffled = [0.3, 0.0, 1.0, 0.1, 0.5, 0.05, 0.2]

    def rows(grid, mode):
        # Fresh graphs per sweep: nothing carries over in their caches.
        instances = [sample_surface_code(5, 0.1, seed=17, trial=t) for t in range(40)]
        return lambda_sweep(instances, grid, mode=mode)

    for mode in ("normalized", "raw"):
        by_lambda = {row["lambda"]: row for row in rows(lams, mode)}
        assert rows(shuffled, mode) == [by_lambda[lam] for lam in shuffled]
        assert rows(iter(lams), mode) == list(by_lambda.values())


def test_lambda_sweep_reuses_certified_matchings(monkeypatch):
    """A seeded d = 7 slice: every (instance, lambda) is decoded, but the
    kernel and the failure check run only where the matching changed.  The
    counts are pinned; solving every non-empty instance at every lambda
    would take 4 * 80 = 320 kernel calls."""
    from wplzx.masd import _dp, surface

    counts = {"kernel": 0, "failure": 0, "decode": 0}

    def counting(name, fn):
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(_dp, "solve_dense", counting("kernel", _dp.solve_dense))
    monkeypatch.setattr(surface, "logical_failure", counting("failure", surface.logical_failure))
    monkeypatch.setattr(surface, "masd_decode", counting("decode", surface.masd_decode))
    code = build_code(7)
    instances = [
        sample_surface_code(7, 0.15, seed=seed, trial=t, code=code)
        for seed in (7, 8) for t in range(40)
    ]
    assert sum(1 for _, g in instances if g.vertices) == 80
    lambda_sweep(instances, [0.0, 0.1, 0.2, 0.3], code=code)
    assert counts == {"kernel": 171, "failure": 171, "decode": 320}


def _bits(mask: int) -> set[int]:
    return {q for q in range(mask.bit_length()) if mask >> q & 1}


def _bfs_paths(z_list, d):
    """Reference BFS over the Z-check adjacency, with explicit witness
    chains: (pair distance, pair chain, boundary distance, boundary chain),
    the chains as qubit tuples walked back along each node's BFS parent."""
    containing = {}
    for p in z_list:
        for q in p.qubits:
            containing.setdefault(q, []).append(p.index)
    adjacency = {p.index: [] for p in z_list}
    for q in range(d * d):
        owners = containing[q]
        if len(owners) == 2:
            a, b = owners
            adjacency[a].append((b, q))
            adjacency[b].append((a, q))
        else:
            adjacency[owners[0]].append((-1, q))
    for lst in adjacency.values():
        lst.sort()
    pair_dist, pair_path, b_dist, b_path = {}, {}, {}, {}
    for src in adjacency:
        dist, via, bvia = {src: 0}, {}, None
        queue = collections.deque([src])
        while queue:
            cur = queue.popleft()
            for nxt, q in adjacency[cur]:
                if nxt == -1:
                    bvia = bvia or (cur, q)
                elif nxt not in dist:
                    dist[nxt] = dist[cur] + 1
                    via[nxt] = (cur, q)
                    queue.append(nxt)

        def chain(dst):
            out = []
            while dst != src:
                dst, q = via[dst]
                out.append(q)
            return tuple(reversed(out))

        for dst in dist:
            if dst != src:
                pair_dist[(src, dst)] = dist[dst]
                pair_path[(src, dst)] = chain(dst)
        prev, q = bvia
        b_dist[src] = dist[prev] + 1
        b_path[src] = chain(prev) + (q,)
    return pair_dist, pair_path, b_dist, b_path


@pytest.mark.parametrize("d", (3, 5, 7))
def test_instance_tables_agree_with_bfs_tables(d):
    code = build_code(d)
    n = len(code.z_checks)
    pair_distance, pair_path, boundary_distance, boundary_path = _bfs_paths(code.z_checks, d)
    pair_mask, boundary_mask = _bfs_tables(code.z_checks, d)
    assert _bits(code.logical_z_mask) == set(range(d))  # the first row
    assert code.pair_mask == pair_mask and code.boundary_mask == boundary_mask
    assert list(pair_mask) == list(pair_path) and list(boundary_mask) == list(boundary_path)
    for key, path in pair_path.items():
        assert pair_mask[key] == sum(1 << q for q in path)
        assert code._syndrome_of(path) == tuple(sorted(key))  # the chain joins its ends
    for u, path in boundary_path.items():
        assert boundary_mask[u] == sum(1 << q for q in path)
        assert code._syndrome_of(path) == (u,)
    for u in range(n):
        assert len(code.pair_edge[u]) == len(code.virtual_pair_edge[u]) == n - u - 1
        for v in range(u + 1, n):
            edge = code.pair_edge[u][v - u - 1]
            virtual = code.virtual_pair_edge[u][v - u - 1]
            assert (edge.u, edge.v, edge.d) == (u, v, pair_distance[(u, v)])
            assert (virtual.u, virtual.v, virtual.d) == (f"b{u}", f"b{v}", 0.0)
        edge = code.boundary_edge[u]
        assert (edge.u, edge.v, edge.d) == (u, f"b{u}", boundary_distance[u])
        vertex = code.virtual_vertex[u]
        assert vertex.id == f"b{u}" and vertex.is_virtual_boundary
        assert vertex.position == code.z_checks[u].center
    # bitmask syndromes against frozenset parity on random errors
    rng = np.random.default_rng(d)
    for _ in range(50):
        flipped = np.flatnonzero(rng.random(code.n_data) < 0.2).tolist()
        assert code._syndrome_of(flipped) == _parity_syndrome(code, flipped)


def test_shared_edges_keep_caches_per_graph():
    """Two samples of one syndrome share every edge object, yet decoding one
    leaves the lambda-independent cache of the other's array form empty."""
    code = build_code(5)
    model = WindingModel(kind="two-sector")
    sample, graph = sample_surface_code(5, 0.1, seed=3, trial=0, winding=model, code=code)
    _, twin = sample_surface_code(5, 0.1, seed=3, trial=0, winding=model, code=code)
    assert sample.syndrome and graph is not twin
    assert all(a is b for a, b in zip(twin.edges, graph.edges, strict=True))
    masd_decode(graph, 0.3)
    assert defect_arrays(graph)._cache and defect_arrays(twin)._cache == {}


def test_sampled_graph_vertex_lookup_before_its_tuples_exist():
    """``vertex()`` on a sampled graph whose vertices and edges were never
    read finds every vertex, virtual partners included."""
    code = build_code(5)
    for t in range(10):
        sample, fresh = sample_surface_code(5, 0.1, seed=3, trial=t, code=code)
        _, read = sample_surface_code(5, 0.1, seed=3, trial=t, code=code)
        for v in read.vertices:
            assert fresh.vertex(v.id) == v
        assert fresh.serialize() == read.serialize()


@pytest.mark.parametrize("d", (3, 5, 7))
def test_qubit_checks_transpose_check_mask(d):
    """qubit_checks[q] is column q of the check-by-qubit incidence of the Z
    checks: the checks whose support holds q."""
    code = build_code(d)
    assert len(code.qubit_checks) == code.n_data
    for q, checks in enumerate(code.qubit_checks):
        assert _bits(checks) == {p.index for p in code.z_checks if q in p.qubits}


@pytest.mark.parametrize("d", (3, 5, 7))
def test_odd_z_checks_match_per_check_parity(d):
    """_syndrome_of lists the Z checks with odd overlap; a qubit listed
    twice cancels."""
    code = build_code(d)
    rng = np.random.default_rng(100 + d)
    for _ in range(200):
        listed = rng.integers(0, code.n_data, rng.integers(0, 2 * code.n_data)).tolist()
        odd = {q for q in listed if listed.count(q) % 2}
        assert code._syndrome_of(listed) == _parity_syndrome(code, odd)


def test_sample_rejects_code_of_another_distance():
    with pytest.raises(ConfigInvalid, match="code distance 7 does not match distance 3"):
        sample_surface_code(3, 0.2, 5, trial=1, code=build_code(7))
    sample, _ = sample_surface_code(3, 0.2, 5, trial=1, code=build_code(3))
    assert sample == sample_surface_code(3, 0.2, 5, trial=1)[0]


@pytest.mark.parametrize("d, p", [(3, 0.1), (5, 0.08), (7, 0.12)])
def test_sampled_and_file_array_forms_decode_alike(d, p):
    """The sampler's array form and the one ``defect_arrays`` converts from
    the same graph read back from its file give equal ``Matching`` and
    ``RiskReport`` fields (compared by ``repr``) at every lambda, for every
    winding model and both modes.  An ascending and a shuffled grid make
    the matcher's certificate both fire and refuse on both forms."""
    code = build_code(d)
    grids = ([0.0, 0.1, 0.2, 0.3, 1.5], [0.3, 0.0, 1.5, 0.1, 0.2])
    kept = solved = 0
    for kind in ("two-sector", "uniform", "constant"):
        model = WindingModel(kind=kind)
        for mode in ("raw", "normalized"):
            for grid in grids:
                for t in range(12):
                    _, sampled = sample_surface_code(d, p, seed=61, trial=t, winding=model, code=code)
                    # Decoded before its tuples exist, as in a sweep.
                    got = [masd_decode(sampled, lam, mode=mode) for lam in grid]
                    read = DefectGraph.deserialize(sampled.serialize())
                    assert defect_arrays(read) is not defect_arrays(sampled)
                    for lam, (matching, report) in zip(grid, got):
                        want = masd_decode(read, lam, mode=mode)
                        assert repr((matching, report)) == repr(want), (kind, t, lam)
                    if sampled.vertices:
                        for a, b in zip(got, got[1:]):
                            kept += a[0] is b[0]
                            solved += a[0] is not b[0]
    assert kept > 50 and solved > 50, (kept, solved)
