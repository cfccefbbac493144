"""Diagram construction, validation, partitions and serialization."""

from __future__ import annotations

import itertools
from collections import Counter

import pytest

from conftest import (
    bfs_color_regions,
    chain,
    random_small_diagram,
    scan_wires_between,
    spider,
    wires_of,
)
from wplzx import diagram as dg
from wplzx.datasets import GenConfig, gen_random_wplzx
from wplzx.diagram import (
    BoundaryPort,
    Node,
    NodePort,
    Wire,
    build,
    deserialize,
    monochrome_regions,
    serialize,
)
from wplzx.errors import BoundarySlotConflict, DanglingWire, DuplicateId, ParseError
from wplzx.phase import RationalAngle, SpiderLabel


def test_identity_diagram():
    d = build([], [Wire(BoundaryPort(dg.IN, 0), BoundaryPort(dg.OUT, 0))], 1, 1)
    assert len(d.nodes) == 0
    assert d.far == (1, 0)  # in[0] is port id 0, out[0] port id 1


def test_euler_chain_builds():
    d = chain(
        spider(0, dg.Z, alpha=(1, 8)),
        spider(1, dg.X, alpha=(1, 3)),
        spider(2, dg.Z, alpha=(1, 5)),
    )
    assert len(d.spiders) == 3
    assert d.n_inputs == d.n_outputs == 1


def test_dangling_wire_rejected():
    with pytest.raises(DanglingWire):
        build(
            [spider(0, dg.Z)],
            [
                Wire(BoundaryPort(dg.IN, 0), NodePort(99, 0)),
                Wire(NodePort(0, 0), NodePort(0, 1)),
            ],
            1,
            0,
        )


def test_unused_port_rejected():
    with pytest.raises(DanglingWire):
        build([spider(0, dg.Z)], [Wire(BoundaryPort(dg.IN, 0), NodePort(0, 0))], 1, 0)


def test_duplicate_id_rejected():
    with pytest.raises(DuplicateId):
        build(
            [spider(0, dg.Z, ins=0, outs=0), spider(0, dg.X, ins=0, outs=0)], [], 0, 0
        )


def test_boundary_slot_conflict():
    with pytest.raises(BoundarySlotConflict):
        build(
            [spider(0, dg.Z, ins=2, outs=0)],
            [
                Wire(BoundaryPort(dg.IN, 0), NodePort(0, 0)),
                Wire(BoundaryPort(dg.IN, 0), NodePort(0, 1)),
            ],
            1,
            0,
        )


@pytest.mark.parametrize("slots", [(-1, -1), (-1, 0), (0, -1)])
def test_negative_boundary_count_rejected(slots):
    with pytest.raises(BoundarySlotConflict, match="boundary counts must be >= 0"):
        build([], [], *slots)


def test_hadamard_constraints():
    with pytest.raises(ValueError):
        Node(0, dg.H, SpiderLabel(1, RationalAngle(0)), 1, 1)
    with pytest.raises(ValueError):
        Node(0, dg.H, None, 2, 1)
    with pytest.raises(ValueError):
        Node(0, dg.Z, None, 1, 1)  # spiders need labels


def test_self_loop_allowed_on_spider():
    n = spider(0, dg.Z, ins=1, outs=1)
    d = build([n], [Wire(NodePort(0, 0), NodePort(0, 1))], 0, 0)
    assert d.far == (1, 0)


def test_monochrome_regions_examples():
    zz = chain(spider(0, dg.Z, alpha=(1, 8)), spider(1, dg.Z, alpha=(1, 5)))
    assert monochrome_regions(zz) == [frozenset({0, 1})]

    zxz = chain(spider(0, dg.Z), spider(1, dg.X), spider(2, dg.Z))
    assert set(monochrome_regions(zxz)) == {
        frozenset({0}),
        frozenset({1}),
        frozenset({2}),
    }


def test_hadamard_breaks_regions():
    nodes = [spider(0, dg.Z), Node(1, dg.H, None, 1, 1), spider(2, dg.Z)]
    d = chain(*nodes)
    assert set(monochrome_regions(d)) == {frozenset({0}), frozenset({2})}


def test_regions_match_bfs_oracle():
    for seed in range(25):
        d = gen_random_wplzx(
            GenConfig(seed=seed, spiders_min=5, spiders_max=30, qubits=4), instance=0
        )
        assert set(monochrome_regions(d)) == set(bfs_color_regions(d))


def test_degree_consistency():
    d = gen_random_wplzx(GenConfig(seed=9, spiders_min=10, spiders_max=20, qubits=3))
    ports = {n.id: [] for n in d.nodes}
    for w in wires_of(d):
        for ep in (w.a, w.b):
            if isinstance(ep, NodePort):
                ports[ep.node].append(ep.port)
    for n in d.nodes:
        assert sorted(ports[n.id]) == list(range(n.degree))


def test_partition_invariant_under_renaming():
    d = chain(spider(0, dg.Z), spider(1, dg.Z), spider(2, dg.X))
    renamed = chain(spider(10, dg.Z), spider(11, dg.Z), spider(12, dg.X))
    f = lambda s: frozenset(x + 10 for x in s)
    assert set(map(f, monochrome_regions(d))) == set(monochrome_regions(renamed))


def test_boundary_order_is_identity():
    def with_inputs(p0, p1):
        return build(
            [spider(0, dg.Z, ins=2, outs=0)],
            [
                Wire(BoundaryPort(dg.IN, p0), NodePort(0, 0)),
                Wire(BoundaryPort(dg.IN, p1), NodePort(0, 1)),
            ],
            2,
            0,
        )

    assert with_inputs(0, 1) != with_inputs(1, 0)


def test_serialize_roundtrip_euler():
    d = chain(
        spider(0, dg.Z, a=4, alpha=(1, 4)),
        spider(1, dg.X, a=6, alpha=(1, 6), k=(1, 1)),
        spider(2, dg.Z, a=2, alpha=(1, 2)),
    )
    assert deserialize(serialize(d)) == d


def test_serialize_roundtrip_generated_corpus():
    for seed in range(100):
        d = gen_random_wplzx(
            GenConfig(seed=seed, spiders_min=3, spiders_max=15, qubits=3), instance=0
        )
        assert deserialize(serialize(d)) == d


def test_deserialize_malformed():
    with pytest.raises(ParseError):
        deserialize("{not json")
    with pytest.raises(ParseError):
        deserialize('{"inputs": [], "outputs": []}')
    with pytest.raises(ParseError):
        deserialize('{"inputs": [], "outputs": [], "nodes": [{"id": 0, "kind": "Q", "ins": 1}], "wires": []}')
    with pytest.raises(ParseError):
        deserialize("[1, 2, 3]")
    # ids are JSON integers or strings, and an endpoint names one by the
    # same type and value: true and 0.0 are not the node 0
    spider0 = '{"id": %s, "kind": "Z", "ins": 1, "a": 1, "alpha": {"num": 0, "den": 1}, "k": {"num": 0, "den": 1}}'
    wires = '[[{"boundary": "in", "pos": 0}, {"node": %s, "port": 0}], [{"node": 0, "port": 1}, {"boundary": "out", "pos": 0}]]'
    for node_id, end in (("true", "0"), ("0", "0.0"), ("0", "false"), ("1.0", "1.0")):
        text = '{"inputs": [0], "outputs": [0], "nodes": [%s], "wires": %s}' % (
            spider0 % node_id, wires % end)
        with pytest.raises(ParseError):
            deserialize(text)
    good = '{"inputs": [0], "outputs": [0], "nodes": [%s], "wires": %s}' % (spider0 % 0, wires % 0)
    assert deserialize(good).n_inputs == 1


def test_self_loop_forbidden_on_hadamard():
    h = Node(0, dg.H, None, 1, 1)
    with pytest.raises(DanglingWire):
        build([h], [Wire(NodePort(0, 0), NodePort(0, 1))], 0, 0)


def _port_table_cases():
    for seed in range(30):
        yield random_small_diagram(seed)
    # self-loops on a spider beside its boundary leg
    yield build(
        [spider(0, dg.Z, ins=2, outs=3)],
        [
            Wire(BoundaryPort(dg.IN, 0), NodePort(0, 0)),
            Wire(NodePort(0, 1), NodePort(0, 4)),
            Wire(NodePort(0, 2), NodePort(0, 3)),
        ],
        1,
        0,
    )
    # bare boundary-to-boundary wires, in to out, in to in and out to out
    yield build(
        [],
        [
            Wire(BoundaryPort(dg.IN, 1), BoundaryPort(dg.OUT, 0)),
            Wire(BoundaryPort(dg.IN, 0), BoundaryPort(dg.IN, 2)),
            Wire(BoundaryPort(dg.OUT, 2), BoundaryPort(dg.OUT, 1)),
        ],
        3,
        3,
    )
    # a Hadamard node between spiders, and parallel wires
    yield build(
        [spider(0, dg.Z, ins=1, outs=3), Node(1, dg.H, None, 1, 1), spider(2, dg.X, ins=3, outs=1)],
        [
            Wire(BoundaryPort(dg.IN, 0), NodePort(0, 0)),
            Wire(NodePort(0, 1), NodePort(1, 0)),
            Wire(NodePort(1, 1), NodePort(2, 0)),
            Wire(NodePort(0, 2), NodePort(2, 1)),
            Wire(NodePort(0, 3), NodePort(2, 2)),
            Wire(NodePort(2, 3), BoundaryPort(dg.OUT, 0)),
        ],
        1,
        1,
    )
    # string ids that spell the boundary sides: ("in", 0) and in[0] are both keys
    yield chain(spider("in", dg.Z), Node("out", dg.H, None, 1, 1), spider(0, dg.X))


def _same_color_neighbours(d):
    """Each spider's id -> the ids of the other spiders of its color wired
    to it, read from ``diagram._adjacency``."""
    ids = [n.id for n in d.nodes]
    return {ids[i]: {ids[j] for j in near} for i, near in dg._adjacency(d).items()}


def test_port_table_matches_wire_scan():
    for d in _port_table_cases():
        # a spider is never its own neighbour, not even through a self-loop
        near = {n.id: set() for n in d.spiders}
        for w in wires_of(d):
            if isinstance(w.a, NodePort) and isinstance(w.b, NodePort) and w.a.node != w.b.node:
                u, v = d.node(w.a.node), d.node(w.b.node)
                if u.kind == v.kind != dg.H:
                    near[u.id].add(v.id)
                    near[v.id].add(u.id)
        assert _same_color_neighbours(d) == near
        ids = [n.id for n in d.nodes] + ["missing", 99]
        for u in ids:
            for v in ids:
                if u != v:
                    assert d.wires_between(u, v) == scan_wires_between(d, u, v)


def _d1_main_diagrams():
    """The d1-main diagrams of seeds 3 and 7, each followed by its normal form."""
    from wplzx.datasets import preset
    from wplzx.rewrite import wzcc_normalize

    for seed in (3, 7):
        cfg = preset("d1-main", seed=seed)
        for i in range(20):
            d = gen_random_wplzx(cfg, instance=i)
            yield d
            yield wzcc_normalize(d)[0]


def test_port_tables_match_a_scan_of_the_wire_list():
    """wires_between and _adjacency, read from the port tables,
    against one scan of the serialized wire list."""
    import json

    for d in _d1_main_diagrams():
        obj = json.loads(serialize(d))
        kind = {n["id"]: n["kind"] for n in obj["nodes"]}
        # a node port's id, from the node order and each node's ends in the list
        degree = Counter(e["node"] for w in obj["wires"] for e in w if "node" in e)
        start = dict(zip(kind, itertools.accumulate((degree[u] for u in kind), initial=0)))
        between = {}
        near = {u: set() for u, k in kind.items() if k != dg.H}
        for a, b in obj["wires"]:
            if "node" in a and "node" in b and a["node"] != b["node"]:
                u, v = a["node"], b["node"]
                w = min(start[u] + a["port"], start[v] + b["port"])  # the wire's lower port id
                between.setdefault((u, v), []).append(w)
                between.setdefault((v, u), []).append(w)
                if kind[u] == kind[v] != dg.H:
                    near[u].add(v)
                    near[v].add(u)
        ends = {tuple(sorted(e.items())) for w in obj["wires"] for e in w}
        assert len(ends) == 2 * len(obj["wires"]) == d.first[-1] + d.n_inputs + d.n_outputs
        assert _same_color_neighbours(d) == near
        for u in kind:
            for v in kind:
                if u != v:
                    assert d.wires_between(u, v) == between.get((u, v), [])


@pytest.mark.parametrize(
    "nodes, wires, slots, error",
    [
        ([spider(0, dg.Z, ins=1, outs=0)], [(("in", 0), (99, 0))], (1, 0), DanglingWire),
        ([Node(0, dg.H, None, 1, 1)], [(("in", 0), (0, 0)), ((0, 1), ("out", 0)), ((0, 2), ("in", 1))],
         (2, 1), DanglingWire),
        ([spider(0, dg.Z, ins=0, outs=0), spider(0, dg.X, ins=0, outs=0)], [], (0, 0), DuplicateId),
        ([spider(0, dg.Z, ins=2, outs=0)], [(("in", 0), (0, 0)), (("in", 0), (0, 1))], (1, 0),
         BoundarySlotConflict),
        ([spider(0, dg.Z, ins=1, outs=0)], [(("in", 3), (0, 0))], (1, 0), BoundarySlotConflict),
        ([spider(0, dg.Z, ins=1, outs=0)], [(("in", 0), (0, 0))], (2, 0), BoundarySlotConflict),
        ([Node(0, dg.H, None, 1, 1)], [((0, 0), (0, 1))], (0, 0), DanglingWire),
    ],
    ids=["missing-node", "port-past-degree", "duplicate-id", "slot-used-twice",
         "slot-out-of-range", "slot-unused", "hadamard-self-loop"],
)
def test_malformed_files_raise_what_build_raises(nodes, wires, slots, error):
    """Each malformed wiring raises the same error class from ``build`` and,
    written as a file, from the loader.  A wire end is (node id, port) or
    (side, slot)."""

    def port(p):
        return BoundaryPort(*p) if p[0] in (dg.IN, dg.OUT) else NodePort(*p)

    def entry(p):
        if p[0] in (dg.IN, dg.OUT):
            return {"boundary": p[0], "pos": p[1]}
        return {"node": p[0], "port": p[1]}

    n_in, n_out = slots
    with pytest.raises(error):
        build(nodes, [Wire(port(a), port(b)) for a, b in wires], n_in, n_out)
    obj = {
        "inputs": list(range(n_in)),
        "outputs": list(range(n_out)),
        "nodes": [
            {"id": n.id, "kind": n.kind, "ins": n.ins, **(n.label.to_json() if n.label else {})}
            for n in nodes
        ],
        "wires": [[entry(a), entry(b)] for a, b in wires],
    }
    with pytest.raises(error):
        dg.from_json_obj(obj)


# --- spider labels in the loader ---

_LABEL = {"a": 8, "alpha": {"num": 3, "den": 8}, "k": {"num": 1, "den": 2}}


def _z_chain_obj(*labels) -> dict:
    """A file of Z spiders with these label fields, wired in a line from
    input 0 to output 0."""
    nodes = [{"id": i, "kind": "Z", "ins": 1, **lab} for i, lab in enumerate(labels)]
    ends = [{"boundary": "in", "pos": 0}]
    for i in range(len(nodes)):
        ends += [{"node": i, "port": 0}, {"node": i, "port": 1}]
    ends.append({"boundary": "out", "pos": 0})
    return {"inputs": [0], "outputs": [0], "nodes": nodes,
            "wires": [ends[j : j + 2] for j in range(0, len(ends), 2)]}


def test_equal_label_fields_load_to_equal_labels():
    other = {**_LABEL, "k": {"num": 3, "den": 2}}
    d = dg.from_json_obj(_z_chain_obj(_LABEL, other, dict(_LABEL)))
    first, second, third = (n.label for n in d.nodes)
    assert first == third == SpiderLabel(8, RationalAngle(3, 8), RationalAngle(1, 2))
    assert first is third  # one label per distinct label in a file
    assert second != first and second.winding == RationalAngle(3, 2)
    assert deserialize(serialize(d)) == d


def _with(path, value) -> dict:
    """_LABEL with the field at ``path`` set to value, or removed for None."""
    out = {**_LABEL, "alpha": dict(_LABEL["alpha"]), "k": dict(_LABEL["k"])}
    *outer, last = path
    at = out[outer[0]] if outer else out
    if value is None:
        del at[last]
    else:
        at[last] = value
    return out


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("a",), True, "a must be an integer, got True"),
        (("a",), 8.0, "a must be an integer, got 8.0"),
        (("alpha", "num"), True, "num must be an integer, got True"),
        (("alpha", "den"), 8.0, "den must be an integer, got 8.0"),
        (("k", "num"), False, "num must be an integer, got False"),
        (("k", "den"), 2.0, "den must be an integer, got 2.0"),
        (("a",), None, "malformed diagram object: 'a'"),
        (("alpha",), None, "malformed diagram object: 'alpha'"),
        (("k", "den"), None, "malformed diagram object: 'den'"),
        (("alpha",), [3, 8], "malformed diagram object: list indices must be integers or slices, not str"),
        (("alpha", "den"), 0, "malformed diagram object: RationalAngle denominator must be nonzero"),
    ],
)
def test_bad_label_fields_raise_the_same_error_after_a_good_label(path, value, message):
    bad = _with(path, value)
    for labels in ((bad,), (_LABEL, bad)):
        with pytest.raises(ParseError) as info:
            dg.from_json_obj(_z_chain_obj(*labels))
        assert str(info.value) == message


@pytest.mark.parametrize("value", [True, 1.0])
def test_bool_or_float_equal_to_a_loaded_label_is_rejected(value):
    # True == 1.0 == 1 with one hash: the label loaded first must not serve it
    one = {"a": 1, "alpha": {"num": 0, "den": 1}, "k": {"num": 1, "den": 1}}
    for path in (("a",), ("alpha", "den"), ("k", "num")):
        bad = {**one, "alpha": dict(one["alpha"]), "k": dict(one["k"])}
        (bad[path[0]] if len(path) == 2 else bad)[path[-1]] = value
        with pytest.raises(ParseError, match=f"^{path[-1]} must be an integer, got {value}$"):
            dg.from_json_obj(_z_chain_obj(one, bad))


def test_label_equality_hash_and_repr_ignore_the_cached_total_angle():
    read = SpiderLabel(8, RationalAngle(3, 8), RationalAngle(1, 2))
    fresh = SpiderLabel(8, RationalAngle(3, 8), RationalAngle(1, 2))
    assert read.total_angle.turns == RationalAngle(7, 16)
    assert "total_angle" in vars(read) and "total_angle" not in vars(fresh)
    assert read == fresh and hash(read) == hash(fresh) and repr(read) == repr(fresh)
    assert "total" not in repr(read)
    assert {read: 1}[fresh] == 1
