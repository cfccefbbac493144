"""Golden ``decode`` stdout: weight-format refactors must leave decode output alone.

Each graph file is hand-built from a seeded generator and covers one layout
the matcher treats differently: own-boundary virtuals with the
virtual-virtual clique, own-boundary virtuals with missing and parallel
edges, and arbitrary virtual layouts (fewer virtuals than reals, and a
virtual joined to two reals).  Ids are ints, strs, or both in one graph.
The expected text was printed by the decoder before its weight tables
became edge-ordered lists, and is compared as exact strings.
"""

from __future__ import annotations

import itertools
import json
import random

import pytest

from wplzx.cli import main

LAMBDAS = ("0", "0.25", "1.5")
MODES = ("raw", "normalized")
BETAS = ("0.5", "3")
GRIDS = (1, 2, 3, 4, 6, 8, 12)


def _vertex(vid, rng, virtual=False) -> dict:
    a = 1 if virtual else rng.choice(GRIDS)
    k = 0 if virtual else rng.randrange(-a, 2 * a)
    pos = [rng.randrange(7), rng.randrange(7)]
    return {"id": vid, "pos": pos, "a": a, "k": k, "virtual": virtual}


def _edge(u, v, rng, d=None) -> dict:
    return {"u": u, "v": v, "d": round(rng.uniform(0.2, 3.0), 3) if d is None else d}


def _own_clique() -> dict:
    """Six int-id reals, one str-id virtual each, complete real-real edges
    and the zero-cost virtual-virtual clique, as ``sweep`` builds them."""
    rng = random.Random(11)
    reals = list(range(6))
    virts = [f"b{i}" for i in reals]
    vertices = [_vertex(r, rng) for r in reals] + [_vertex(b, rng, True) for b in virts]
    edges = [_edge(u, v, rng) for u, v in itertools.combinations(reals, 2)]
    edges += [_edge(r, b, rng) for r, b in zip(reals, virts)]
    edges += [_edge(u, v, rng, 0.0) for u, v in itertools.combinations(virts, 2)]
    return {"vertices": vertices, "edges": edges}


def _own_sparse() -> dict:
    """Own-boundary virtuals without the clique: r0 has two virtuals, r1
    none, two virtuals touch no real; some real-real edges are missing and
    two pairs are joined twice (the last copy differs)."""
    rng = random.Random(23)
    reals = [f"r{i}" for i in range(5)]
    virts = ["v0", "v0b", "v2", "v3", "v4", "spare1", "spare2"]
    vertices = [_vertex(r, rng) for r in reals] + [_vertex(b, rng, True) for b in virts]
    edges = [
        _edge(u, v, rng)
        for u, v in itertools.combinations(reals, 2)
        if (u, v) not in {("r0", "r1"), ("r1", "r3"), ("r2", "r4")}
    ]
    edges += [_edge("r0", "v0", rng), _edge("v0b", "r0", rng)]
    edges += [_edge(f"r{i}", f"v{i}", rng) for i in (2, 3, 4)]
    edges += [_edge("r3", "r2", rng, 0.3), _edge("r1", "r4", rng, 2.9)]
    return {"vertices": vertices, "edges": edges}


def _mixed_ids() -> dict:
    """Int-id reals whose virtuals carry the same digits as strs, so 1 and
    "1" must stay distinct vertices; one real-real pair is joined three
    times, the cheapest copy last."""
    rng = random.Random(5)
    reals = list(range(4))
    virts = [str(i) for i in reals]
    vertices = [_vertex(r, rng) for r in reals] + [_vertex(b, rng, True) for b in virts]
    edges = [_edge(u, v, rng) for u, v in itertools.combinations(reals, 2)]
    edges += [_edge(b, r, rng) for r, b in zip(reals, virts)]
    edges += [_edge(0, 1, rng, 5.0), _edge(1, 0, rng, 0.4)]
    return {"vertices": vertices, "edges": edges}


def _fewer_virtuals() -> dict:
    """Arbitrary layout: six int-id reals share two int-id virtuals, each
    joined to several reals and to each other; some real-real edges are
    missing and one real-virtual pair is joined twice."""
    rng = random.Random(31)
    reals = list(range(10, 16))
    virts = [100, 101]
    vertices = [_vertex(r, rng) for r in reals] + [_vertex(b, rng, True) for b in virts]
    edges = [
        _edge(u, v, rng)
        for u, v in itertools.combinations(reals, 2)
        if rng.random() < 0.6
    ]
    edges += [_edge(r, 100, rng) for r in (10, 11, 12, 15)]
    edges += [_edge(r, 101, rng) for r in (12, 13, 14)]
    edges += [_edge(100, 101, rng, 0.0), _edge(13, 101, rng, 0.25)]
    return {"vertices": vertices, "edges": edges}


def _shared_virtual() -> dict:
    """Arbitrary layout: as many str-id virtuals as reals, but "w1" is
    joined to two reals; the virtual-virtual clique has nonzero costs."""
    rng = random.Random(47)
    reals = ["a", "b", "c", "d"]
    virts = ["w0", "w1", "w2", "w3"]
    vertices = [_vertex(r, rng) for r in reals] + [_vertex(b, rng, True) for b in virts]
    edges = [_edge(u, v, rng) for u, v in itertools.combinations(reals, 2)]
    edges += [_edge(r, b, rng) for r, b in zip(reals, virts)]
    edges += [_edge("c", "w1", rng)]
    edges += [_edge(u, v, rng) for u, v in itertools.combinations(virts, 2)]
    edges += [_edge("a", "w0", rng, 0.05)]
    return {"vertices": vertices, "edges": edges}


GRAPHS = {
    "own-clique": _own_clique,
    "own-sparse": _own_sparse,
    "mixed-ids": _mixed_ids,
    "fewer-virtuals": _fewer_virtuals,
    "shared-virtual": _shared_virtual,
}

# (graph, mode, beta, lambda) -> decode stdout.
EXPECTED = {
    ('own-clique', 'raw', '0.5', '0'): 'pairs 0-3;1-4;2-5;b0-b1;b2-b3;b4-b5\ntotal_cost 2.515\nexact True\ndrg_toy 0.0\ndrg_pm 0.0\nmode raw\nlambda 0.0\n',
    ('own-clique', 'raw', '0.5', '0.25'): 'pairs 0-1;2-5;3-b3;4-b4;b0-b1;b2-b5\ntotal_cost 5.063000000000001\nexact True\ndrg_toy 0.15420398859254497\ndrg_pm 3.9177122274601146\nmode raw\nlambda 0.25\n',
    ('own-clique', 'raw', '0.5', '1.5'): 'pairs 0-b0;1-b1;2-4;3-b3;5-b5;b2-b4\ntotal_cost 8.192\nexact True\ndrg_toy 0.351288056206089\ndrg_pm 23.506273364760688\nmode raw\nlambda 1.5\n',
    ('own-clique', 'raw', '3', '0'): 'pairs 0-3;1-4;2-5;b0-b1;b2-b3;b4-b5\ntotal_cost 2.515\nexact True\ndrg_toy 0.0\ndrg_pm 0.0\nmode raw\nlambda 0.0\n',
    ('own-clique', 'raw', '3', '0.25'): 'pairs 0-1;2-5;3-b3;4-b4;b0-b1;b2-b5\ntotal_cost 5.063000000000001\nexact True\ndrg_toy 0.15420398859254497\ndrg_pm 9.044819477184715\nmode raw\nlambda 0.25\n',
    ('own-clique', 'raw', '3', '1.5'): 'pairs 0-b0;1-b1;2-4;3-b3;5-b5;b2-b4\ntotal_cost 8.192\nexact True\ndrg_toy 0.351288056206089\ndrg_pm 54.26891686310829\nmode raw\nlambda 1.5\n',
    ('own-clique', 'normalized', '0.5', '0'): 'pairs 0-3;1-4;2-5;b0-b1;b2-b3;b4-b5\ntotal_cost 2.515\nexact True\ndrg_toy 0.0\ndrg_pm 0.0\nmode normalized\nlambda 0.0\n',
    ('own-clique', 'normalized', '0.5', '0.25'): 'pairs 0-3;1-4;2-5;b0-b1;b2-b3;b4-b5\ntotal_cost 2.9316666666666666\nexact True\ndrg_toy 2.2370754204684533\ndrg_pm 0.38228211059718537\nmode normalized\nlambda 0.25\n',
    ('own-clique', 'normalized', '0.5', '1.5'): 'pairs 0-3;1-4;2-5;b0-b1;b2-b3;b4-b5\ntotal_cost 5.015\nexact True\ndrg_toy 13.422452522810717\ndrg_pm 2.293692663583112\nmode normalized\nlambda 1.5\n',
    ('own-clique', 'normalized', '3', '0'): 'pairs 0-3;1-4;2-5;b0-b1;b2-b3;b4-b5\ntotal_cost 2.515\nexact True\ndrg_toy 0.0\ndrg_pm 0.0\nmode normalized\nlambda 0.0\n',
    ('own-clique', 'normalized', '3', '0.25'): 'pairs 0-3;1-4;2-5;b0-b1;b2-b3;b4-b5\ntotal_cost 2.9316666666666666\nexact True\ndrg_toy 2.2370754204684533\ndrg_pm 0.8318182073008702\nmode normalized\nlambda 0.25\n',
    ('own-clique', 'normalized', '3', '1.5'): 'pairs 0-3;1-4;2-5;b0-b1;b2-b3;b4-b5\ntotal_cost 5.015\nexact True\ndrg_toy 13.422452522810717\ndrg_pm 4.990909243805222\nmode normalized\nlambda 1.5\n',
    ('own-sparse', 'raw', '0.5', '0'): 'pairs r0-r3;r1-r2;r4-v4;spare1-spare2;v0-v0b;v2-v3\ntotal_cost 2.784\nexact True\ndrg_toy 0.0\ndrg_pm 0.0\nmode raw\nlambda 0.0\n',
    ('own-sparse', 'raw', '0.5', '0.25'): 'pairs r0-v0;r1-r2;r3-r4;spare1-spare2;v0b-v2;v3-v4\ntotal_cost 6.572\nexact True\ndrg_toy 0.28042624789680315\ndrg_pm 3.4906009280863652\nmode raw\nlambda 0.25\n',
    ('own-sparse', 'raw', '0.5', '1.5'): 'pairs r0-v0;r1-r2;r3-v3;r4-v4;spare1-spare2;v0b-v2\ntotal_cost 8.022\nexact True\ndrg_toy 0.0\ndrg_pm 20.94360556851819\nmode raw\nlambda 1.5\n',
    ('own-sparse', 'raw', '3', '0'): 'pairs r0-r3;r1-r2;r4-v4;spare1-spare2;v0-v0b;v2-v3\ntotal_cost 2.784\nexact True\ndrg_toy 0.0\ndrg_pm 0.0\nmode raw\nlambda 0.0\n',
    ('own-sparse', 'raw', '3', '0.25'): 'pairs r0-v0;r1-r2;r3-r4;spare1-spare2;v0b-v2;v3-v4\ntotal_cost 6.572\nexact True\ndrg_toy 0.28042624789680315\ndrg_pm 8.096305899385891\nmode raw\nlambda 0.25\n',
    ('own-sparse', 'raw', '3', '1.5'): 'pairs r0-v0;r1-r2;r3-v3;r4-v4;spare1-spare2;v0b-v2\ntotal_cost 8.022\nexact True\ndrg_toy 0.0\ndrg_pm 48.57783539631535\nmode raw\nlambda 1.5\n',
    ('own-sparse', 'normalized', '0.5', '0'): 'pairs r0-r3;r1-r2;r4-v4;spare1-spare2;v0-v0b;v2-v3\ntotal_cost 2.784\nexact True\ndrg_toy 0.0\ndrg_pm 0.0\nmode normalized\nlambda 0.0\n',
    ('own-sparse', 'normalized', '0.5', '0.25'): 'pairs r0-r3;r1-r2;r4-v4;spare1-spare2;v0-v0b;v2-v3\ntotal_cost 2.9715\nexact True\ndrg_toy 5.016722408026756\ndrg_pm 0.32013095632448063\nmode normalized\nlambda 0.25\n',
    ('own-sparse', 'normalized', '0.5', '1.5'): 'pairs r0-r3;r1-r2;r4-v4;spare1-spare2;v0-v0b;v2-v3\ntotal_cost 3.909\nexact True\ndrg_toy 30.100334448160538\ndrg_pm 1.9207857379468838\nmode normalized\nlambda 1.5\n',
    ('own-sparse', 'normalized', '3', '0'): 'pairs r0-r3;r1-r2;r4-v4;spare1-spare2;v0-v0b;v2-v3\ntotal_cost 2.784\nexact True\ndrg_toy 0.0\ndrg_pm 0.0\nmode normalized\nlambda 0.0\n',
    ('own-sparse', 'normalized', '3', '0.25'): 'pairs r0-r3;r1-r2;r4-v4;spare1-spare2;v0-v0b;v2-v3\ntotal_cost 2.9715\nexact True\ndrg_toy 5.016722408026756\ndrg_pm 0.6226389850592365\nmode normalized\nlambda 0.25\n',
    ('own-sparse', 'normalized', '3', '1.5'): 'pairs r0-r3;r1-r2;r4-v4;spare1-spare2;v0-v0b;v2-v3\ntotal_cost 3.909\nexact True\ndrg_toy 30.100334448160538\ndrg_pm 3.735833910355419\nmode normalized\nlambda 1.5\n',
    ('mixed-ids', 'raw', '0.5', '0'): 'pairs 0-1;2-2;3-3;0-1\ntotal_cost 2.416\nexact True\ndrg_toy 0.0\ndrg_pm 0.0\nmode raw\nlambda 0.0\n',
    ('mixed-ids', 'raw', '0.5', '0.25'): 'pairs 0-0;1-1;2-2;3-3\ntotal_cost 4.347\nexact True\ndrg_toy 0.0\ndrg_pm 2.691441638095065\nmode raw\nlambda 0.25\n',
    ('mixed-ids', 'raw', '0.5', '1.5'): 'pairs 0-0;1-1;2-2;3-3\ntotal_cost 4.347\nexact True\ndrg_toy 0.0\ndrg_pm 16.14864982857039\nmode raw\nlambda 1.5\n',
    ('mixed-ids', 'raw', '3', '0'): 'pairs 0-1;2-2;3-3;0-1\ntotal_cost 2.416\nexact True\ndrg_toy 0.0\ndrg_pm 0.0\nmode raw\nlambda 0.0\n',
    ('mixed-ids', 'raw', '3', '0.25'): 'pairs 0-0;1-1;2-2;3-3\ntotal_cost 4.347\nexact True\ndrg_toy 0.0\ndrg_pm 3.855164726409465\nmode raw\nlambda 0.25\n',
    ('mixed-ids', 'raw', '3', '1.5'): 'pairs 0-0;1-1;2-2;3-3\ntotal_cost 4.347\nexact True\ndrg_toy 0.0\ndrg_pm 23.13098835845679\nmode raw\nlambda 1.5\n',
    ('mixed-ids', 'normalized', '0.5', '0'): 'pairs 0-1;2-2;3-3;0-1\ntotal_cost 2.416\nexact True\ndrg_toy 0.0\ndrg_pm 0.0\nmode normalized\nlambda 0.0\n',
    ('mixed-ids', 'normalized', '0.5', '0.25'): 'pairs 0-1;2-2;3-3;0-1\ntotal_cost 2.7701666666666664\nexact True\ndrg_toy 3.5416666666666665\ndrg_pm 0.25460454109531694\nmode normalized\nlambda 0.25\n',
    ('mixed-ids', 'normalized', '0.5', '1.5'): 'pairs 0-0;1-1;2-2;3-3\ntotal_cost 4.347\nexact True\ndrg_toy 0.0\ndrg_pm 1.5276272465719016\nmode normalized\nlambda 1.5\n',
    ('mixed-ids', 'normalized', '3', '0'): 'pairs 0-1;2-2;3-3;0-1\ntotal_cost 2.416\nexact True\ndrg_toy 0.0\ndrg_pm 0.0\nmode normalized\nlambda 0.0\n',
    ('mixed-ids', 'normalized', '3', '0.25'): 'pairs 0-1;2-2;3-3;0-1\ntotal_cost 2.7701666666666664\nexact True\ndrg_toy 3.5416666666666665\ndrg_pm 0.3504207543046597\nmode normalized\nlambda 0.25\n',
    ('mixed-ids', 'normalized', '3', '1.5'): 'pairs 0-0;1-1;2-2;3-3\ntotal_cost 4.347\nexact True\ndrg_toy 0.0\ndrg_pm 2.102524525827958\nmode normalized\nlambda 1.5\n',
    ('fewer-virtuals', 'raw', '0.5', '0'): 'pairs 10-11;12-13;14-101;15-100\ntotal_cost 2.087\nexact True\ndrg_toy 0.0\ndrg_pm 0.0\nmode raw\nlambda 0.0\n',
    ('fewer-virtuals', 'raw', '0.5', '0.25'): 'pairs 10-11;12-13;14-101;15-100\ntotal_cost 3.5869999999999997\nexact True\ndrg_toy 0.8106355382619974\ndrg_pm 0.49769654350935977\nmode raw\nlambda 0.25\n',
    ('fewer-virtuals', 'raw', '0.5', '1.5'): 'pairs 10-14;11-13;12-101;15-100\ntotal_cost 7.192\nexact True\ndrg_toy 0.3068739770867431\ndrg_pm 2.986179261056159\nmode raw\nlambda 1.5\n',
    ('fewer-virtuals', 'raw', '3', '0'): 'pairs 10-11;12-13;14-101;15-100\ntotal_cost 2.087\nexact True\ndrg_toy 0.0\ndrg_pm 0.0\nmode raw\nlambda 0.0\n',
    ('fewer-virtuals', 'raw', '3', '0.25'): 'pairs 10-11;12-13;14-101;15-100\ntotal_cost 3.5869999999999997\nexact True\ndrg_toy 0.8106355382619974\ndrg_pm 0.6348243236370607\nmode raw\nlambda 0.25\n',
    ('fewer-virtuals', 'raw', '3', '1.5'): 'pairs 10-14;11-13;12-101;15-100\ntotal_cost 7.192\nexact True\ndrg_toy 0.3068739770867431\ndrg_pm 3.8089459418223637\nmode raw\nlambda 1.5\n',
    ('fewer-virtuals', 'normalized', '0.5', '0'): 'pairs 10-11;12-13;14-101;15-100\ntotal_cost 2.087\nexact True\ndrg_toy 0.0\ndrg_pm 0.0\nmode normalized\nlambda 0.0\n',
    ('fewer-virtuals', 'normalized', '0.5', '0.25'): 'pairs 10-11;12-13;14-101;15-100\ntotal_cost 2.337\nexact True\ndrg_toy 0.8106355382619974\ndrg_pm 0.10274851827528574\nmode normalized\nlambda 0.25\n',
    ('fewer-virtuals', 'normalized', '0.5', '1.5'): 'pairs 10-11;12-13;14-101;15-100\ntotal_cost 3.5869999999999997\nexact True\ndrg_toy 4.863813229571984\ndrg_pm 0.6164911096517144\nmode normalized\nlambda 1.5\n',
    ('fewer-virtuals', 'normalized', '3', '0'): 'pairs 10-11;12-13;14-101;15-100\ntotal_cost 2.087\nexact True\ndrg_toy 0.0\ndrg_pm 0.0\nmode normalized\nlambda 0.0\n',
    ('fewer-virtuals', 'normalized', '3', '0.25'): 'pairs 10-11;12-13;14-101;15-100\ntotal_cost 2.337\nexact True\ndrg_toy 0.8106355382619974\ndrg_pm 0.14348139166009763\nmode normalized\nlambda 0.25\n',
    ('fewer-virtuals', 'normalized', '3', '1.5'): 'pairs 10-11;12-13;14-101;15-100\ntotal_cost 3.5869999999999997\nexact True\ndrg_toy 4.863813229571984\ndrg_pm 0.8608883499605857\nmode normalized\nlambda 1.5\n',
    ('shared-virtual', 'raw', '0.5', '0'): 'pairs a-w0;b-w1;c-d;w2-w3\ntotal_cost 1.847\nexact True\ndrg_toy 0.0\ndrg_pm 0.0\nmode raw\nlambda 0.0\n',
    ('shared-virtual', 'raw', '0.5', '0.25'): 'pairs a-w0;b-w1;c-d;w2-w3\ntotal_cost 3.347\nexact True\ndrg_toy 0.4149377593360996\ndrg_pm 0.4171257952586645\nmode raw\nlambda 0.25\n',
    ('shared-virtual', 'raw', '0.5', '1.5'): 'pairs a-w0;b-w1;c-w2;d-w3\ntotal_cost 3.716\nexact True\ndrg_toy 0.0\ndrg_pm 2.502754771551987\nmode raw\nlambda 1.5\n',
    ('shared-virtual', 'raw', '3', '0'): 'pairs a-w0;b-w1;c-d;w2-w3\ntotal_cost 1.847\nexact True\ndrg_toy 0.0\ndrg_pm 0.0\nmode raw\nlambda 0.0\n',
    ('shared-virtual', 'raw', '3', '0.25'): 'pairs a-w0;b-w1;c-d;w2-w3\ntotal_cost 3.347\nexact True\ndrg_toy 0.4149377593360996\ndrg_pm 0.07820902472238364\nmode raw\nlambda 0.25\n',
    ('shared-virtual', 'raw', '3', '1.5'): 'pairs a-w0;b-w1;c-w2;d-w3\ntotal_cost 3.716\nexact True\ndrg_toy 0.0\ndrg_pm 0.46925414833430185\nmode raw\nlambda 1.5\n',
    ('shared-virtual', 'normalized', '0.5', '0'): 'pairs a-w0;b-w1;c-d;w2-w3\ntotal_cost 1.847\nexact True\ndrg_toy 0.0\ndrg_pm 0.0\nmode normalized\nlambda 0.0\n',
    ('shared-virtual', 'normalized', '0.5', '0.25'): 'pairs a-w0;b-w1;c-d;w2-w3\ntotal_cost 2.097\nexact True\ndrg_toy 0.4149377593360996\ndrg_pm 0.06178716148246638\nmode normalized\nlambda 0.25\n',
    ('shared-virtual', 'normalized', '0.5', '1.5'): 'pairs a-w0;b-w1;c-d;w2-w3\ntotal_cost 3.347\nexact True\ndrg_toy 2.489626556016597\ndrg_pm 0.3707229688947983\nmode normalized\nlambda 1.5\n',
    ('shared-virtual', 'normalized', '3', '0'): 'pairs a-w0;b-w1;c-d;w2-w3\ntotal_cost 1.847\nexact True\ndrg_toy 0.0\ndrg_pm 0.0\nmode normalized\nlambda 0.0\n',
    ('shared-virtual', 'normalized', '3', '0.25'): 'pairs a-w0;b-w1;c-d;w2-w3\ntotal_cost 2.097\nexact True\ndrg_toy 0.4149377593360996\ndrg_pm 0.009319161885741752\nmode normalized\nlambda 0.25\n',
    ('shared-virtual', 'normalized', '3', '1.5'): 'pairs a-w0;b-w1;c-d;w2-w3\ntotal_cost 3.347\nexact True\ndrg_toy 2.489626556016597\ndrg_pm 0.055914971314450515\nmode normalized\nlambda 1.5\n',
}


def decode_stdout(path, mode, beta, lam, capsys) -> str:
    argv = ["decode", "--graph", str(path), "--mode", mode, "--beta", beta, "--lambda", lam]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    return captured.out


@pytest.mark.parametrize("name", GRAPHS)
def test_decode_matches_golden_stdout(name, tmp_path, capsys):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(GRAPHS[name]()))
    for mode, beta, lam in itertools.product(MODES, BETAS, LAMBDAS):
        got = decode_stdout(path, mode, beta, lam, capsys)
        assert got == EXPECTED[(name, mode, beta, lam)], (name, mode, beta, lam)
