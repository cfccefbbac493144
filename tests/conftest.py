"""Shared fixtures and independent oracles.

The oracles here (dense gate matrices, brute-force matching enumeration,
BFS component search) are deliberately written from scratch so they share no
code path with the implementations they check.
"""

from __future__ import annotations

import functools
import itertools
import math
import os

import numpy as np
import pytest

from wplzx import diagram as dg
from wplzx.diagram import BoundaryPort, Node, NodePort, Wire, build
from wplzx.phase import RationalAngle, SpiderLabel

# --- diagram builders and wire lists ---


def spider(nid, kind, a=1, alpha=(0, 1), k=(0, 1), ins=1, outs=1) -> Node:
    return Node(
        nid, kind, SpiderLabel(a, RationalAngle(*alpha), RationalAngle(*k)), ins, outs
    )


def chain(*nodes: Node) -> dg.Diagram:
    """Single-wire chain: in -> n0 -> n1 -> ... -> out (all nodes 1-1)."""
    wires = [Wire(BoundaryPort(dg.IN, 0), NodePort(nodes[0].id, 0))]
    for a, b in zip(nodes, nodes[1:]):
        wires.append(Wire(NodePort(a.id, 1), NodePort(b.id, 0)))
    wires.append(Wire(NodePort(nodes[-1].id, 1), BoundaryPort(dg.OUT, 0)))
    return build(list(nodes), wires, 1, 1)


def clique_region(labels, kind=dg.Z) -> dg.Diagram:
    """All-to-all connected same-color region, one dangling leg per spider.

    Spider i gets ins = i direct wires to earlier spiders... arranged so the
    diagram validates: spider i has (i) input ports wired to each earlier
    spider, plus (n-1-i) output ports to later spiders, plus one boundary leg.
    """
    n = len(labels)
    nodes = []
    wires = []
    for i, lab in enumerate(labels):
        ins = i
        outs = (n - 1 - i) + 1  # later peers + one boundary leg
        nodes.append(Node(i, kind, lab, ins, outs))
    for i in range(n):
        for j in range(i + 1, n):
            # output port of i for peer j: ports are [0..i) inputs, then outputs
            port_i = i + (j - i - 1)
            port_j = i  # input port of j for peer i
            wires.append(Wire(NodePort(i, port_i), NodePort(j, port_j)))
    for i in range(n):
        wires.append(Wire(NodePort(i, i + (n - 1 - i)), BoundaryPort(dg.OUT, i)))
    return build(nodes, wires, 0, n)


def path_region(labels, kind=dg.Z) -> dg.Diagram:
    nodes = [Node(i, kind, lab, 1, 1) for i, lab in enumerate(labels)]
    return chain(*nodes)


def wires_of(d: dg.Diagram) -> list[Wire]:
    """d's wires in index order, read from its serialized wire list."""

    def end(e):
        return NodePort(e["node"], e["port"]) if "node" in e else BoundaryPort(e["boundary"], e["pos"])

    return [Wire(end(a), end(b)) for a, b in dg.to_json_obj(d)["wires"]]


# --- independent circuit-unitary oracle ---

_I2 = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)


def _rot(pauli: np.ndarray, theta: float) -> np.ndarray:
    return math.cos(theta / 2) * _I2 - 1j * math.sin(theta / 2) * pauli


def _embed(ops: dict, n: int) -> np.ndarray:
    m = np.eye(1, dtype=complex)
    for q in range(n):
        m = np.kron(m, ops.get(q, _I2))
    return m


def circuit_unitary(c) -> np.ndarray:
    """Textbook matrix of a circuit (qubit 0 = most significant)."""
    n = c.n_qubits
    u = np.eye(2**n, dtype=complex)
    for g in c.gates:
        if g.name == "CX":
            ctrl, tgt = g.qubits
            p0 = np.array([[1, 0], [0, 0]], dtype=complex)
            p1 = np.array([[0, 0], [0, 1]], dtype=complex)
            m = _embed({ctrl: p0}, n) + _embed({ctrl: p1, tgt: _X}, n)
        elif g.name == "H":
            m = _embed({g.qubits[0]: _H}, n)
        elif g.name == "RZ":
            m = _embed({g.qubits[0]: _rot(_Z, g.angle_radians())}, n)
        elif g.name == "RX":
            m = _embed({g.qubits[0]: _rot(_X, g.angle_radians())}, n)
        elif g.name == "RY":
            m = _embed({g.qubits[0]: _rot(_Y, g.angle_radians())}, n)
        else:
            raise AssertionError(f"oracle cannot handle {g.name}")
        u = m @ u
    return u


# --- brute-force matching oracle ---


def all_perfect_matchings(ids):
    """Yield every perfect matching of the id list (double-factorial many)."""
    ids = list(ids)
    if not ids:
        yield []
        return
    first = ids[0]
    for j in range(1, len(ids)):
        rest = ids[1:j] + ids[j + 1 :]
        for sub in all_perfect_matchings(rest):
            yield [(first, ids[j])] + sub


def weight_fn(g, weights):
    """Edge-cost lookup (u, v) -> cost over an edge-ordered weight list; the
    last of parallel edges wins and missing edges cost +inf."""
    table = {frozenset((e.u, e.v)): w for e, w in zip(g.edges, weights, strict=True)}

    def lookup(u, v) -> float:
        return float(table.get(frozenset((u, v)), math.inf))

    return lookup


def brute_force_min_matching(ids, weight):
    best, best_cost = None, math.inf
    for m in all_perfect_matchings(ids):
        cost = sum(weight(u, v) for u, v in m)
        if cost < best_cost:
            best, best_cost = m, cost
    return best, best_cost


# --- exact state-sum oracle (residues mod p) ---


@functools.lru_cache(maxsize=None)
def least_generator(p: int) -> int:
    """Least g of multiplicative order p - 1: no proper divisor k of p - 1
    has g^k = 1 mod p."""
    divisors = [k for k in range(1, p - 1) if (p - 1) % k == 0]
    return next(g for g in range(2, p) if all(pow(g, k, p) != 1 for k in divisors))


def state_sum_mod(d: dg.Diagram, p: int) -> list[list[int]]:
    """Matrix of d mod the prime p, by summing the product of node tensor
    entries over every 0/1 assignment to its wires, in Python integers.

    Phase e^{2 pi i t} maps to g^((p - 1) t) for the least generator g mod p,
    and 1/sqrt 2 to the inverse of zeta_8 + 1/zeta_8; Z spiders are 1 on all
    legs 0 and the phase on all legs 1, X spiders s^deg (1 + phase (-1)^|x|),
    H nodes s (-1)^(x0 x1).
    """
    from fractions import Fraction

    g = least_generator(p)
    z8 = pow(g, (p - 1) // 8, p)
    s = pow((z8 + pow(z8, p - 2, p)) % p, p - 2, p)
    legs = {n.id: [None] * n.degree for n in d.nodes}
    rows, cols = [None] * d.n_outputs, [None] * d.n_inputs
    wires = wires_of(d)
    for w_idx, w in enumerate(wires):
        for ep in (w.a, w.b):
            if isinstance(ep, NodePort):
                legs[ep.node][ep.port] = w_idx
            elif ep.side == dg.OUT:
                rows[ep.pos] = w_idx
            else:
                cols[ep.pos] = w_idx

    def factor(node, x) -> int:
        if node.kind == dg.H:
            return s * (-1) ** (x[0] * x[1])
        lab = node.label
        t = (Fraction(lab.alpha.num, lab.alpha.den)
             + Fraction(lab.winding.num, lab.winding.den * lab.grid)) % 1
        assert ((p - 1) * t).denominator == 1
        phase = pow(g, int((p - 1) * t), p)
        if node.kind == dg.X:
            return s ** len(x) * (1 + phase * (-1) ** sum(x))
        if not x:
            return 1 + phase
        return 1 if not any(x) else phase if all(x) else 0

    out = [[0] * 2 ** d.n_inputs for _ in range(2 ** d.n_outputs)]
    for bits in itertools.product((0, 1), repeat=len(wires)):
        term = 1
        for n in d.nodes:
            term = term * factor(n, [bits[w] for w in legs[n.id]]) % p
            if not term:
                break
        r = int("".join(str(bits[w]) for w in rows) or "0", 2)
        c = int("".join(str(bits[w]) for w in cols) or "0", 2)
        out[r][c] = (out[r][c] + term) % p
    return out


# --- BFS region oracle (independent of diagram.region_orders) ---


def bfs_color_regions(d: dg.Diagram):
    """Same-color spider regions by BFS restricted to same-color wires."""
    spiders = {n.id: n for n in d.nodes if n.is_spider()}
    adj: dict = {nid: set() for nid in spiders}
    for w in wires_of(d):
        ids = [ep.node for ep in (w.a, w.b) if isinstance(ep, NodePort)]
        if len(ids) != 2 or ids[0] == ids[1]:
            continue
        a, b = ids
        if a in spiders and b in spiders and spiders[a].kind == spiders[b].kind:
            adj[a].add(b)
            adj[b].add(a)
    seen = set()
    out = []
    for start in adj:
        if start in seen:
            continue
        comp = set()
        stack = [start]
        while stack:
            cur = stack.pop()
            if cur in comp:
                continue
            comp.add(cur)
            stack.extend(adj[cur] - comp)
        seen |= comp
        out.append(frozenset(comp))
    return out


# --- wire-scan oracle (independent of the port tables' neighbour reads) ---


def scan_wires_between(d: dg.Diagram, u, v) -> list[int]:
    """Lower port ids of the wires whose node ends are exactly u and v, the
    port ids counted from the node degrees."""
    degrees = [n.degree for n in d.nodes]
    start = dict(zip([n.id for n in d.nodes], itertools.accumulate(degrees, initial=0)))
    return [
        min(start[ep.node] + ep.port for ep in (w.a, w.b))
        for w in wires_of(d)
        if {ep.node for ep in (w.a, w.b) if isinstance(ep, NodePort)} == {u, v}
    ]


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail a test that leaves a child process running or unreaped: a sweep
    worker must not outlive ``cli.main``."""
    yield
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left a child process (waitpid gave pid {pid}, status {status})")


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def random_small_diagram(seed: int, max_spiders: int = 14, max_qubits: int = 5):
    """Seeded small diagram within the oracle's evaluation budget."""
    from wplzx.datasets import GenConfig, gen_random_wplzx

    r = np.random.default_rng(seed)
    q = int(r.integers(1, max_qubits + 1))
    lo = int(r.integers(2, max(3, max_spiders // 2)))
    hi = int(r.integers(lo, max_spiders + 1))
    cfg = GenConfig(
        seed=seed,
        spiders_min=lo,
        spiders_max=hi,
        grid_orders=(1, 2, 3, 4, 6, 8),
        density=float(r.uniform(0.2, 1.0)),
        qubits=q,
        layers=1,
    )
    return gen_random_wplzx(cfg)
