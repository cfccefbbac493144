"""Matrix semantics: spider tensors, contraction, comparisons, fidelity."""

from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import chain, least_generator, random_small_diagram, spider, state_sum_mod, wires_of
from wplzx import diagram as dg
from wplzx.diagram import BoundaryPort, Node, NodePort, Wire, build
from wplzx.errors import DimensionMismatch, DimensionOverflow, GridOverflow
from wplzx.phase import RationalAngle, SpiderLabel, TotalAngle
from wplzx.rewrite import color_change
from wplzx.semantics import (
    Residues,
    congruent_up_to_root_of_unity,
    equal_up_to_global_phase,
    equal_up_to_global_scalar,
    evaluate,
    exact_primes,
    fidelity,
    hadamard,
    phase_order,
    spider_matrix,
)

TA = lambda num, den: TotalAngle(RationalAngle(num, den))


def test_spider_matrix_pauli_z():
    m = spider_matrix(dg.Z, 1, 1, TA(1, 2))
    assert np.allclose(m, np.diag([1, -1]))


def test_spider_matrix_identity():
    assert np.allclose(spider_matrix(dg.Z, 1, 1, TA(0, 1)), np.eye(2))


def test_spider_matrix_x_state():
    # X spider 0 -> 1 at phase 0 is H (|0> + |1>) = sqrt(2) |+> ... = sqrt(2) H|0>
    m = spider_matrix(dg.X, 0, 1, TA(0, 1))
    want = hadamard() @ np.array([[1.0], [1.0]])
    assert np.allclose(m, want)


def test_spider_matrix_scalar():
    m = spider_matrix(dg.Z, 0, 0, TA(1, 2))
    assert m.shape == (1, 1)
    assert np.isclose(m[0, 0], 0.0)


def test_spider_matrix_cap():
    with pytest.raises(DimensionOverflow):
        spider_matrix(dg.Z, 15, 15, TA(0, 1))


def test_spider_matrix_legs_bounded_by_the_tensor_cap():
    # 2^25 entries is past MAX_TENSOR_ENTRIES; 21 legs, 2^21 entries, build
    with pytest.raises(DimensionOverflow, match="spider tensor of 33554432 entries"):
        spider_matrix(dg.Z, 12, 13, TA(0, 1))
    m = spider_matrix(dg.X, 10, 11, TA(1, 8))
    assert m.shape == (2**11, 2**10)
    assert np.isclose(m[0, 0], spider_matrix(dg.X, 0, 0, TA(1, 8))[0, 0] / 2**10.5)


def test_evaluate_identity_wire():
    d = build([], [Wire(BoundaryPort(dg.IN, 0), BoundaryPort(dg.OUT, 0))], 1, 1)
    assert np.allclose(evaluate(d), np.eye(2))


def test_evaluate_series_z_spiders():
    d = chain(spider(0, dg.Z, a=8, alpha=(1, 8)), spider(1, dg.Z, a=8, alpha=(3, 8)))
    want = spider_matrix(dg.Z, 1, 1, TA(1, 2))
    assert np.allclose(evaluate(d), want)


def test_evaluate_cx_gadget():
    nodes = [
        Node(0, dg.Z, SpiderLabel(1), 1, 2),
        Node(1, dg.X, SpiderLabel(1), 2, 1),
    ]
    wires = [
        Wire(BoundaryPort(dg.IN, 0), NodePort(0, 0)),
        Wire(BoundaryPort(dg.IN, 1), NodePort(1, 0)),
        Wire(NodePort(0, 2), NodePort(1, 1)),
        Wire(NodePort(0, 1), BoundaryPort(dg.OUT, 0)),
        Wire(NodePort(1, 2), BoundaryPort(dg.OUT, 1)),
    ]
    d = build(nodes, wires, 2, 2)
    cnot = np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    )
    got = evaluate(d)
    assert equal_up_to_global_scalar(got, cnot)
    assert np.allclose(got, cnot / math.sqrt(2))


def test_evaluate_hadamard_node():
    d = chain(Node(0, dg.H, None, 1, 1))
    assert np.allclose(evaluate(d), hadamard())


def test_evaluate_scalar_loop():
    # single self-looped spider: trace of diag(1, e^{i theta})
    n = spider(0, dg.Z, a=4, alpha=(1, 4), ins=1, outs=1)
    d = build([n], [Wire(NodePort(0, 0), NodePort(0, 1))], 0, 0)
    got = evaluate(d)
    assert got.shape == (1, 1)
    assert np.isclose(got[0, 0], 1 + 1j)


def test_evaluate_open_wire_cap():
    # 26 open wires: the final tensor alone has 2^26 > MAX_TENSOR_ENTRIES entries
    d = build(
        [],
        [Wire(BoundaryPort(dg.IN, i), BoundaryPort(dg.OUT, i)) for i in range(13)],
        13,
        13,
    )
    with pytest.raises(DimensionOverflow, match="final tensor of 67108864 entries"):
        evaluate(d)


def test_evaluate_high_degree_spider_split():
    # a 10-legged spider exceeds the split threshold; the chained expansion
    # must agree with the directly constructed matrix
    n = Node(0, dg.X, SpiderLabel(8, RationalAngle(3, 8)), 5, 5)
    wires = [Wire(BoundaryPort(dg.IN, i), NodePort(0, i)) for i in range(5)]
    wires += [Wire(NodePort(0, 5 + i), BoundaryPort(dg.OUT, i)) for i in range(5)]
    d = build([n], wires, 5, 5)
    got = evaluate(d)
    want = spider_matrix(dg.X, 5, 5, TA(3, 8))
    assert np.max(np.abs(got - want)) < 1e-9


def _steps(plan, rename=lambda lab: lab):
    """A contraction plan's steps as (labels of a, labels of b), each label
    passed through ``rename``."""
    pieces, pairs, _ = plan
    live = {k: [rename(lab) for lab in axes] for k, (_, _, axes) in enumerate(pieces)}
    steps = []
    for new, (a, b, _, _) in enumerate(pairs, start=len(pieces)):
        steps.append((tuple(live[a]), tuple(live[b])))
        shared = set(live[a]) & set(live[b])
        live[new] = [x for x in live.pop(a) + live.pop(b) if x not in shared]
    return steps


def test_contraction_order_independence():
    # Reversed node ids renumber the pieces, so the greedy schedule breaks
    # its ties differently; the matrix must not change.
    from wplzx.datasets import GenConfig, gen_random_wplzx
    from wplzx.semantics import _schedule

    differ = 0
    for seed in range(10):
        d = gen_random_wplzx(
            GenConfig(seed=seed, spiders_min=4, spiders_max=10, qubits=3), instance=0
        )
        ids = [n.id for n in d.nodes]
        new = dict(zip(ids, reversed(range(len(ids)))))

        def rename(ep, ids):
            return NodePort(ids[ep.node], ep.port) if isinstance(ep, NodePort) else ep

        r = build(
            [Node(new[n.id], n.kind, n.label, n.ins, n.outs) for n in d.nodes],
            [Wire(rename(w.a, new), rename(w.b, new)) for w in wires_of(d)],
            d.n_inputs,
            d.n_outputs,
        )

        # A wire between nodes is labelled by its higher port id.
        def label(g, w):
            return max(g.first[g.index[ep.node]] + ep.port for ep in (w.a, w.b))

        label_back = {
            label(r, Wire(rename(w.a, new), rename(w.b, new))): label(d, w)
            for w in wires_of(d)
            if isinstance(w.a, NodePort) and isinstance(w.b, NodePort)
        }

        # r's axis label in d's terms: a boundary slot's is the same in both,
        # and no generated spider has more than 4 legs, so none is split
        # into a chain with bonds.
        assert max(n.degree for n in d.nodes) <= 4
        back = lambda lab: label_back.get(lab, lab)

        canon = lambda steps: [frozenset(map(frozenset, step)) for step in steps]
        differ += canon(_steps(_schedule(d))) != canon(_steps(_schedule(r), back))
        assert np.max(np.abs(evaluate(d) - evaluate(r))) < 1e-9
    assert differ


def _rescan_plan(d):
    """(pairs, perm) of d's contraction plan, found by rescanning every live
    tensor at each step: the least (result size, lower number, higher
    number) among pairs of tensors sharing a wire label."""
    from wplzx.semantics import _network

    pieces = _network(d)
    tensors = {k: list(axes) for k, (_, _, axes) in enumerate(pieces)}
    pairs = []
    while True:
        holders = {}
        for k, axes in tensors.items():
            for x in axes:
                holders.setdefault(x, []).append(k)
        best = None
        for a, b in (h for h in holders.values() if len(h) == 2):
            shared = set(tensors[a]) & set(tensors[b])
            key = (len(tensors[a]) + len(tensors[b]) - 2 * len(shared), a, b)
            best = key if best is None or key < best else best
        if best is None:
            break
        _, a, b = best
        ax_a, ax_b = tensors.pop(a), tensors.pop(b)
        shared = [x for x in ax_a if x in ax_b]
        pairs.append((a, b, [ax_a.index(x) for x in shared], [ax_b.index(x) for x in shared]))
        tensors[len(pieces) + len(pairs) - 1] = [x for x in ax_a + ax_b if x not in shared]
    total = [x for axes in tensors.values() for x in axes]
    # the open axes are labelled by their slot ids: outputs, then inputs
    slots = range(d.first[-1], d.first[-1] + d.n_inputs + d.n_outputs)
    want = [*slots[d.n_inputs :], *slots[: d.n_inputs]]
    return pairs, [total.index(x) for x in want]


def test_schedule_keeps_rescan_pair_order():
    from wplzx.datasets import GenConfig, gen_random_wplzx, preset
    from wplzx.rewrite import wzcc_normalize
    from wplzx.semantics import _schedule

    cases = [
        gen_random_wplzx(GenConfig(seed=seed, spiders_min=10, spiders_max=60, qubits=4), 0)
        for seed in range(12)
    ]
    for i in range(20):
        d = gen_random_wplzx(preset("d1-main", seed=7), instance=i)
        cases += [d, wzcc_normalize(d)[0]]
    # Two self-loops on one spider, which its piece leaves out, and a bare wire.
    looped = spider(0, dg.Z, a=4, alpha=(1, 4), ins=1, outs=5)
    wires = [Wire(BoundaryPort(dg.IN, 0), NodePort(0, 0)), Wire(NodePort(0, 1), NodePort(0, 2)),
             Wire(NodePort(0, 3), NodePort(0, 4)), Wire(NodePort(0, 5), NodePort(1, 0)),
             Wire(NodePort(1, 1), BoundaryPort(dg.OUT, 0)),
             Wire(BoundaryPort(dg.IN, 1), BoundaryPort(dg.OUT, 1))]
    cases.append(build([looped, spider(1, dg.X)], wires, 2, 2))
    pieces = _schedule(cases[-1])[0]
    assert [len(axes) for _, _, axes in pieces] == [2, 2, 2]  # six legs less two loops
    for n, d in enumerate(cases):
        _, pairs, perm = _schedule(d)
        assert (pairs, perm) == _rescan_plan(d), n


def test_monoidality_tensor_and_compose(rng):
    from wplzx.datasets import GenConfig, gen_random_wplzx

    for seed in range(8):
        d1 = gen_random_wplzx(
            GenConfig(seed=seed, spiders_min=2, spiders_max=6, qubits=2), instance=0
        )
        d2 = gen_random_wplzx(
            GenConfig(seed=seed + 100, spiders_min=2, spiders_max=6, qubits=2),
            instance=0,
        )
        # tensor: shift d2's boundary positions and node ids
        shift = 2
        nodes = list(d1.nodes) + [
            Node(f"r{n.id}", n.kind, n.label, n.ins, n.outs) for n in d2.nodes
        ]

        def mv(ep):
            if isinstance(ep, NodePort):
                return NodePort(f"r{ep.node}", ep.port)
            return BoundaryPort(ep.side, ep.pos + shift)

        wires = wires_of(d1) + [Wire(mv(w.a), mv(w.b)) for w in wires_of(d2)]
        tens = build(nodes, wires, 4, 4)
        want = np.kron(evaluate(d1), evaluate(d2))
        assert np.max(np.abs(evaluate(tens) - want)) < 1e-9

        # compose: d2 after d1 (join d1 outputs to d2 inputs)
        joins = {}
        wires_c = []
        for w in wires_of(d1):
            a, b = w.a, w.b
            ends = []
            for ep in (a, b):
                if isinstance(ep, BoundaryPort) and ep.side == dg.OUT:
                    ends.append(("join", ep.pos))
                else:
                    ends.append(ep)
            wires_c.append(ends)
        for w in wires_of(d2):
            a, b = w.a, w.b
            ends = []
            for ep in (a, b):
                if isinstance(ep, NodePort):
                    ends.append(NodePort(f"r{ep.node}", ep.port))
                elif ep.side == dg.IN:
                    ends.append(("join", ep.pos))
                else:
                    ends.append(ep)
            wires_c.append(ends)
        # merge wire pairs sharing a join marker through a relay spider
        relay_nodes = [
            Node(f"j{i}", dg.Z, SpiderLabel(1), 1, 1) for i in range(2)
        ]
        final_wires = []
        seen_join: dict[int, int] = {}
        for ends in wires_c:
            fixed = []
            for ep in ends:
                if isinstance(ep, tuple) and ep[0] == "join":
                    pos = ep[1]
                    port = seen_join.get(pos, 0)
                    seen_join[pos] = port + 1
                    fixed.append(NodePort(f"j{pos}", port))
                else:
                    fixed.append(ep)
            final_wires.append(Wire(fixed[0], fixed[1]))
        comp = build(list(d1.nodes) + nodes[len(d1.nodes):] + relay_nodes, final_wires, 2, 2)
        want_c = evaluate(d2) @ evaluate(d1)
        assert np.max(np.abs(evaluate(comp) - want_c)) < 1e-9


def _exact_cases():
    """random_small_diagram cases with at most 12 internal wires, plus a
    color change (Hadamard nodes), a self-loop and a split 10-leg spider."""
    cases = []
    for seed in range(40):
        d = random_small_diagram(seed, max_spiders=10, max_qubits=3)
        wires = wires_of(d)
        internal = sum(all(isinstance(e, NodePort) for e in (w.a, w.b)) for w in wires)
        if internal <= 12 and len(wires) <= 12:
            cases.append(d)
    cases.append(color_change(cases[0], cases[0].spiders[0].id))
    loop = spider(0, dg.Z, a=4, alpha=(1, 4), ins=1, outs=2)
    cases.append(build([loop], [Wire(BoundaryPort(dg.IN, 0), NodePort(0, 0)),
                                Wire(NodePort(0, 1), NodePort(0, 2))], 1, 0))
    big = Node(0, dg.X, SpiderLabel(8, RationalAngle(3, 8)), 5, 5)
    wires = [Wire(BoundaryPort(dg.IN, i), NodePort(0, i)) for i in range(5)]
    wires += [Wire(NodePort(0, 5 + i), BoundaryPort(dg.OUT, i)) for i in range(5)]
    cases.append(build([big], wires, 5, 5))
    return cases


def test_exact_residues_match_state_sum():
    cases = _exact_cases()
    assert len(cases) >= 20
    for d in cases:
        primes = (exact_primes(phase_order(d))[0], 97)
        for p, got in zip(primes, evaluate(d, primes=Residues(primes))):
            assert got.dtype == np.int64
            assert got.tolist() == state_sum_mod(d, p)


def test_exact_primes_and_generator():
    assert exact_primes(24) == (1048273, 1048129)
    assert all((p - 1) % 24 == 0 for p in exact_primes(24))
    assert Residues((97, 1048273)).g == [least_generator(97), least_generator(1048273)]
    with pytest.raises(GridOverflow):
        exact_primes(2**21)


def test_residue_contraction_keeps_sums_in_int64():
    # many shared axes of residues near p: near 2^31, one unchunked sum of
    # 2^12 products of ~2^62 each would wrap around int64; the verify prime
    # sums its 2^18 products in one chunk
    rng = np.random.default_rng(3)
    for p, shared in ((2147483497, 12), (1048273, 18)):
        ring = Residues((p,))
        a = rng.integers(p - 1000, p, size=(2,) * (shared + 1), dtype=np.int64)
        b = rng.integers(p - 1000, p, size=(2,) * (shared + 2), dtype=np.int64)
        axes = (list(range(1, shared + 1)), list(range(2, shared + 2))[::-1])
        want = np.tensordot(a.astype(object), b.astype(object), axes=axes) % p
        assert ring.dot(a[None], b[None], axes)[0].tolist() == want.tolist()


def test_mixed_prime_batch_keeps_sums_in_int64():
    # the chunk size follows the largest prime of the batch, so the small
    # prime's slice is summed in chunks as short as the large one's
    primes, shared = (2147483497, 97), 12
    ring = Residues(primes)
    rng = np.random.default_rng(5)
    a = np.stack([rng.integers(p - 90, p, size=(2,) * (shared + 1)) for p in primes])
    b = np.stack([rng.integers(p - 90, p, size=(2,) * (shared + 2)) for p in primes])
    axes = (list(range(1, shared + 1)), list(range(2, shared + 2))[::-1])
    got = ring.dot(a, b, axes)
    assert got.dtype == np.int64 and got.shape == (2,) + (2,) * 3
    for k, p in enumerate(primes):
        want = np.tensordot(a[k].astype(object), b[k].astype(object), axes=axes) % p
        assert got[k].tolist() == want.tolist()


def _dot_reference(a, b, axes, primes):
    """Each prime's slice contracted by object-dtype ``np.tensordot`` on
    Python ints, then reduced: no int64 sums, no layout of its own."""
    return [
        np.asarray(np.tensordot(a[k].astype(object), b[k].astype(object), axes=axes) % p)
        for k, p in enumerate(primes)
    ]


def test_residue_dot_matches_object_tensordot():
    # random ranks 1-14 and shared axes in random order; every pair is
    # contracted under several axis orders of one signature, so the
    # layouts cached per (ranks, axes) must not mix them up
    rng = np.random.default_rng(26)
    primes = exact_primes(24)
    ring = Residues(primes)
    for _ in range(60):
        rank_a, rank_b = (int(r) for r in rng.integers(1, 15, size=2))
        low = max(0, (rank_a + rank_b - 14 + 1) // 2)  # keep the result within rank 14
        shared = int(rng.integers(low, min(rank_a, rank_b) + 1))
        a = np.stack([rng.integers(0, p, size=(2,) * rank_a) for p in primes])
        b = np.stack([rng.integers(0, p, size=(2,) * rank_b) for p in primes])
        for _ in range(3):
            on_a = [int(x) for x in rng.permutation(rank_a)[:shared]]
            on_b = [int(x) for x in rng.permutation(rank_b)[:shared]]
            got = ring.dot(a, b, (on_a, on_b))
            assert got.dtype == np.int64
            assert got.shape == (2,) + (2,) * (rank_a + rank_b - 2 * shared)
            want = _dot_reference(a, b, (on_a, on_b), primes)
            assert [g.tolist() for g in got] == [w.tolist() for w in want]


def test_residue_dot_chunks_match_object_tensordot():
    # with a prime near 2^31 a chunk holds two products, so 10 shared axes
    # (1024 products per entry) take the chunked path, under two axis orders
    primes = (2147483497, 1048273)
    ring = Residues(primes)
    assert ring.terms < 1 << 10
    rng = np.random.default_rng(11)
    a = np.stack([rng.integers(p - 50, p, size=(2,) * 11) for p in primes])
    b = np.stack([rng.integers(p - 50, p, size=(2,) * 12) for p in primes])
    for on_a, on_b in (
        (list(range(10)), list(range(2, 12))),
        (list(range(10))[::-1], [5, 2, 11, 3, 9, 4, 10, 7, 6, 8]),
    ):
        got = ring.dot(a, b, (on_a, on_b))
        want = _dot_reference(a, b, (on_a, on_b), primes)
        assert [g.tolist() for g in got] == [w.tolist() for w in want]


def test_congruent_up_to_root_of_unity():
    p, n = 97, 24
    zeta = pow(least_generator(p), (p - 1) // n, p)
    b = np.array([[0, 5], [7, 96]], dtype=np.int64)
    assert congruent_up_to_root_of_unity([b * zeta % p], [b], (p,), n)
    assert not congruent_up_to_root_of_unity([b * 2 % p], [b], (p,), n)  # 2 is no 24th root
    off = b.copy()
    off[1, 1] = 1
    assert not congruent_up_to_root_of_unity([off], [b], (p,), n)
    zero = np.zeros_like(b)
    assert congruent_up_to_root_of_unity([zero], [zero], (p,), n)
    assert not congruent_up_to_root_of_unity([zero], [b], (p,), n)
    assert not congruent_up_to_root_of_unity([b], [zero], (p,), n)


def test_congruence_needs_one_root_of_unity_under_every_prime():
    # a = zeta^3 b mod the first prime and zeta^5 b mod the second: each
    # prime alone is congruent, which read SOUND when verify checked the
    # primes one by one, but no single a = zeta^j b holds under both
    n = 24
    primes = exact_primes(n)
    b = [np.array([[0, 5], [7, q - 1]], dtype=np.int64) for q in primes]

    def times_root(j, mats):
        return [y * pow(least_generator(q), (q - 1) // n * j, q) % q for q, y in zip(primes, mats)]

    three, five = times_root(3, b), times_root(5, b)
    a = [three[0], five[1]]
    assert all(congruent_up_to_root_of_unity([x], [y], (q,), n) for x, y, q in zip(a, b, primes))
    assert not congruent_up_to_root_of_unity(a, b, primes, n)
    assert congruent_up_to_root_of_unity(five, b, primes, n)
    # j comes from the first prime under which b is nonzero
    b0 = [np.zeros_like(b[0]), b[1]]
    assert congruent_up_to_root_of_unity(times_root(5, b0), b0, primes, n)
    assert not congruent_up_to_root_of_unity(a, b0, primes, n)  # a is nonzero where b0 is 0


def test_equal_up_to_global_phase():
    m = np.array([[1, 2], [3, 4]], dtype=complex)
    assert equal_up_to_global_phase(np.exp(1j * 0.7) * m, m)
    z0 = spider_matrix(dg.Z, 1, 1, TA(0, 1))
    zpi = spider_matrix(dg.Z, 1, 1, TA(1, 2))
    assert not equal_up_to_global_phase(zpi, z0)
    noisy = np.exp(1j * 1.1) * m + 1e-12
    assert equal_up_to_global_phase(noisy, m)
    with pytest.raises(DimensionMismatch):
        equal_up_to_global_phase(np.eye(2), np.eye(4))
    # magnitude changes are NOT phases
    assert not equal_up_to_global_phase(2 * m, m)
    assert equal_up_to_global_scalar(2 * m, m)
    # the zero map is no phase or nonzero-scalar multiple of a nonzero map
    zero, eye = np.zeros((2, 2)), np.eye(2)
    for x, y in ((zero, eye), (eye, zero)):
        assert not equal_up_to_global_phase(x, y)
        assert not equal_up_to_global_scalar(x, y)
    assert equal_up_to_global_phase(zero, zero)
    assert equal_up_to_global_scalar(zero, zero)
    assert equal_up_to_global_phase(np.zeros((0, 2)), np.zeros((0, 2)))


def test_bialgebra_and_hopf_identities():
    """Mixed-color interaction laws hold as matrix identities up to scalar."""
    z12 = spider_matrix(dg.Z, 1, 2, TA(0, 1))
    x21 = spider_matrix(dg.X, 2, 1, TA(0, 1))
    swap = np.eye(4, dtype=complex)[[0, 2, 1, 3]]
    i2 = np.eye(2, dtype=complex)

    # bialgebra: copy-then-add equals add-then-copy
    lhs = np.kron(x21, x21) @ np.kron(np.kron(i2, swap), i2) @ np.kron(z12, z12)
    rhs = z12 @ x21
    assert equal_up_to_global_scalar(lhs, rhs)

    # Hopf: copy then add through both wires disconnects
    hopf_lhs = x21 @ z12
    hopf_rhs = spider_matrix(dg.X, 0, 1, TA(0, 1)) @ spider_matrix(dg.Z, 1, 0, TA(0, 1))
    assert equal_up_to_global_scalar(hopf_lhs, hopf_rhs)

    # phase-0 1-1 spiders compose to the identity
    z11 = spider_matrix(dg.Z, 1, 1, TA(0, 1))
    x11 = spider_matrix(dg.X, 1, 1, TA(0, 1))
    assert np.allclose(z11 @ x11 @ z11, np.eye(2))
    assert np.allclose(x11 @ z11 @ x11, np.eye(2))

    # commuting form holds at fully symmetric arities (m = n)
    z22 = spider_matrix(dg.Z, 2, 2, TA(0, 1))
    x22 = spider_matrix(dg.X, 2, 2, TA(0, 1))
    assert equal_up_to_global_scalar(z22 @ x22, x22 @ z22)


def test_color_change_matrix_identity():
    # H^{tensor n} Z H^{tensor m} = X at the matrix level, any phase
    h = hadamard()
    for m, n in [(1, 1), (2, 1), (1, 2), (2, 2)]:
        z = spider_matrix(dg.Z, m, n, TA(2, 5))
        x = spider_matrix(dg.X, m, n, TA(2, 5))
        hm = h
        for _ in range(m - 1):
            hm = np.kron(hm, h)
        hn = h
        for _ in range(n - 1):
            hn = np.kron(hn, h)
        assert np.allclose(hn @ z @ hm, x)


def test_fidelity_basics():
    e0 = np.array([1, 0], dtype=complex)
    e1 = np.array([0, 1], dtype=complex)
    assert fidelity(e0, e0) == pytest.approx(1.0)
    assert fidelity(e0, e1) == pytest.approx(0.0)
    plus = np.array([1, 1], dtype=complex) / math.sqrt(2)
    assert fidelity(e0, plus) == pytest.approx(0.5)
    with pytest.raises(DimensionMismatch):
        fidelity(e0, np.ones(4))


class _OnePrime:
    """Reference ring for a single prime: Python integers in object arrays,
    a batch of one, each product reduced after an unchunked ``tensordot``."""

    dtype, batch = object, 1

    def __init__(self, p: int):
        self.p, self.g = p, least_generator(p)
        z8 = pow(self.g, (p - 1) // 8, p)
        s = pow(z8 + pow(z8, -1, p), -1, p)
        self.h = np.array([[[s, s], [s, p - s]]], dtype=object)

    def phase(self, turns):
        return np.array([pow(self.g, (self.p - 1) // turns.den * turns.num, self.p)], dtype=object)

    def mod(self, t):
        return t % self.p

    def dot(self, a, b, axes):
        return np.tensordot(a[0], b[0], axes)[None] % self.p


def _spider_by_legs(kind, degree, phase, ring):
    """Reference spider tensor: the Z spider written entry by entry, 1 at
    0..0 plus phase at 1..1; for X, H contracted into each leg in turn."""
    t = np.zeros((ring.batch,) + (2,) * degree, dtype=ring.dtype)
    t[(slice(None),) + (0,) * degree] = 1
    t[(slice(None),) + (1,) * degree] += phase
    t = ring.mod(t)
    if kind == dg.X:
        for ax in range(degree):
            t = np.moveaxis(ring.dot(t, ring.h, ([ax], [0])), -1, ax + 1)
    return t


# The complex closed form against the leg-by-leg reference, relative to the
# largest entry: about 4.5 ulp of 1.
SPIDER_TOL = 1e-15
SPIDER_TURNS = [RationalAngle(0, 1), RationalAngle(1, 2), RationalAngle(1, 8), RationalAngle(7, 24)]


def test_spider_tensor_matches_leg_by_leg_reference_in_residues():
    # exact: both primes of one batched ring against each prime's own
    # object-array reference, both colours, scalars included
    from wplzx.semantics import _spider_tensor

    primes = exact_primes(24)
    ring, refs = Residues(primes), [_OnePrime(p) for p in primes]
    for kind in (dg.Z, dg.X):
        for turns in SPIDER_TURNS:
            for degree in range(11):
                got = _spider_tensor(kind, degree, ring.phase(turns), ring)
                assert got.dtype == np.int64 and got.shape == (2,) + (2,) * degree
                for k, one in enumerate(refs):
                    want = _spider_by_legs(kind, degree, one.phase(turns), one)
                    assert got[k : k + 1].tolist() == want.tolist(), (kind, turns, degree)


def test_spider_tensor_matches_leg_by_leg_reference_in_complex():
    # the closed-form X spider rounds differently from n products with H:
    # every entry within SPIDER_TOL of the largest, for degrees 0-20
    from wplzx.semantics import _Complex, _spider_tensor

    for kind in (dg.Z, dg.X):
        for turns in SPIDER_TURNS:
            phase = _Complex.phase(turns)
            for degree in range(21):
                got = _spider_tensor(kind, degree, phase, _Complex)
                want = _spider_by_legs(kind, degree, phase, _Complex)
                assert got.dtype == complex and got.shape == want.shape
                err = np.max(np.abs(got - want))
                assert err <= SPIDER_TOL * np.max(np.abs(want)), (kind, turns, degree, err)


def test_spider_traced_over_loops_is_the_spider_with_fewer_legs():
    # the identity behind leaving self-loops out of the network: a spider
    # traced over k loops is the same spider with 2k fewer legs, exactly in
    # residues (for X, 2 s^2 = 1) and within SPIDER_TOL of max(1, largest
    # entry) in complex, as 1 + phase is 0 for an X scalar at half a turn
    from wplzx.semantics import _Complex, _spider_tensor

    one = _OnePrime(exact_primes(24)[0])
    for kind in (dg.Z, dg.X):
        for turns in SPIDER_TURNS:
            for degree in range(2, 13):
                for ring in (one, _Complex):
                    phase = ring.phase(turns)
                    t = _spider_by_legs(kind, degree, phase, ring)
                    for k in range(1, degree // 2 + 1):
                        t = ring.mod(np.trace(t, axis1=t.ndim - 2, axis2=t.ndim - 1))
                        want = _spider_tensor(kind, degree - 2 * k, phase, ring)
                        case = (kind, turns, degree, k)
                        if ring is one:
                            assert t.tolist() == want.tolist(), case
                        else:
                            scale = max(1.0, np.max(np.abs(want)))
                            assert np.max(np.abs(t - want)) <= SPIDER_TOL * scale, case


def test_self_loops_evaluate_as_the_spider_without_them():
    # five loops on a 1-in/1-out spider make 12 legs, above _SPLIT_DEGREE;
    # a spider of loops alone is the scalar 1 + phase
    from wplzx.semantics import _SPLIT_DEGREE

    turns = RationalAngle(7, 24)
    primes = exact_primes(24)
    ring = Residues(primes)
    loops = [Wire(NodePort(0, p), NodePort(0, p + 1)) for p in range(2, 12, 2)]
    for kind in (dg.Z, dg.X):
        looped = build(
            [Node(0, kind, SpiderLabel(24, turns), 1, 11)],
            [Wire(BoundaryPort(dg.IN, 0), NodePort(0, 0)),
             Wire(NodePort(0, 1), BoundaryPort(dg.OUT, 0))] + loops,
            1,
            1,
        )
        assert looped.nodes[0].degree > _SPLIT_DEGREE
        plain = chain(Node(0, kind, SpiderLabel(24, turns), 1, 1))
        got, want = evaluate(looped, primes=ring), evaluate(plain, primes=ring)
        assert [g.tolist() for g in got] == [w.tolist() for w in want]

        loops_only = [Wire(NodePort(0, p), NodePort(0, p + 1)) for p in range(0, 10, 2)]
        only = build([Node(0, kind, SpiderLabel(24, turns), 4, 6)], loops_only, 0, 0)
        scalar = [[[(1 + int(z)) % p]] for z, p in zip(ring.phase(turns), primes)]
        assert [g.tolist() for g in evaluate(only, primes=ring)] == scalar
        assert np.isclose(evaluate(only)[0, 0], 1 + np.exp(2j * np.pi * 7 / 24))


def test_batched_residues_match_per_prime_reference():
    # d1-main seed 7 diagrams with their normal forms, and the snapped d2-main
    # circuits that verify decides on nonzero maps: one pass over both
    # primes gives each prime's own contraction
    from wplzx import datasets
    from wplzx.rewrite import wzcc_normalize
    from wplzx.semantics import _contract, _schedule

    cases = []
    d1 = datasets.preset("d1-main", seed=7)
    for i in range(20):
        d = datasets.gen_random_wplzx(d1, instance=i)
        cases += [d, wzcc_normalize(d)[0]]
    for seed in (1, 2, 3):
        cfg = datasets.preset("d2-main", seed=seed)
        for i in range(5):
            c = datasets.gen_hea(cfg, instance=i)
            cases.append(datasets.circuit_to_diagram(c, grid_map=lambda q: 8, snap=True))
    nonzero = 0
    for d in cases:
        primes = exact_primes(phase_order(d))
        got = evaluate(d, primes=Residues(primes))
        plan = _schedule(d)
        for p, residues in zip(primes, got):
            want = _contract(d, plan, _OnePrime(p))[0]
            assert residues.dtype == np.int64
            assert residues.tolist() == want.tolist()
        nonzero += any(r.any() for r in got)
    assert nonzero >= 15  # every d2 circuit, and some d1-main maps
