"""Generators, circuit parsing, and both conversion directions."""

from __future__ import annotations

import math
import re
from fractions import Fraction

import numpy as np
import pytest

from conftest import circuit_unitary
from wplzx import diagram as dg
from wplzx.datasets import (
    Circuit,
    Gate,
    GenConfig,
    circuit_to_diagram,
    diagram_to_circuit,
    gen_hea,
    gen_random_wplzx,
    parse_circuit,
    preset,
    serialize_circuit,
    snapped_phases,
)
from wplzx.diagram import Node, NodePort, Wire, build, serialize
from wplzx.errors import ConfigInvalid, NotCircuitLike, ParseError, UnsupportedGate
from wplzx.phase import RationalAngle, SpiderLabel
from wplzx.rewrite import wzcc_normalize
from wplzx.semantics import equal_up_to_global_scalar, evaluate

RA = RationalAngle


def elementary_gate_count(c: Circuit) -> int:
    return sum(3 if g.name == "RY" else 1 for g in c.gates)


# --- configs and presets ---


def test_config_validation():
    with pytest.raises(ConfigInvalid):
        GenConfig(spiders_min=5, spiders_max=4)
    with pytest.raises(ConfigInvalid):
        GenConfig(density=0.0)
    with pytest.raises(ConfigInvalid):
        GenConfig(grid_orders=())
    with pytest.raises(ConfigInvalid):
        preset("d9-nope")


def test_presets_carry_expected_parameters():
    d1 = preset("d1-main")
    assert d1.grid_orders == (1, 2, 3, 4, 6, 8)
    assert (d1.spiders_min, d1.spiders_max) == (30, 300)
    d1a = preset("d1-appendix")
    assert d1a.grid_orders == (4, 6, 8, 12)
    assert (d1a.spiders_min, d1a.spiders_max) == (30, 120)
    assert preset("d2-main").rotation_basis == ("RY", "RZ")
    assert preset("d2-appendix").rotation_basis == ("RX", "RZ")


# --- gen_random_wplzx ---


def test_d1_determinism():
    cfg = GenConfig(seed=5, spiders_min=10, spiders_max=30, qubits=4)
    assert serialize(gen_random_wplzx(cfg)) == serialize(gen_random_wplzx(cfg))
    assert serialize(gen_random_wplzx(cfg, instance=1)) != serialize(
        gen_random_wplzx(cfg, instance=2)
    )


def test_d1_labels_on_whitelisted_grids():
    cfg = GenConfig(seed=1, spiders_min=40, spiders_max=60, qubits=4, grid_orders=(4, 6, 8, 12))
    seen = set()
    for i in range(20):
        d = gen_random_wplzx(cfg, instance=i)
        for n in d.spiders:
            assert n.label.grid in cfg.grid_orders
            assert n.label.is_grid_compliant()
            assert n.label.winding.den == 1
            seen.add(n.label.grid)
    assert seen == set(cfg.grid_orders)


def test_d1_spider_count_in_range():
    cfg = GenConfig(seed=3, spiders_min=12, spiders_max=17, qubits=3)
    for i in range(20):
        d = gen_random_wplzx(cfg, instance=i)
        assert 12 <= len(d.spiders) <= 17


def test_d1_alpha_compliance_thousand_samples():
    cfg = GenConfig(seed=8, spiders_min=50, spiders_max=50, qubits=5)
    labels = 0
    for i in range(20):
        d = gen_random_wplzx(cfg, instance=i)
        for n in d.spiders:
            assert n.label.alpha.is_grid_compliant(n.label.grid)
            labels += 1
    assert labels == 1000


# --- gen_hea ---


def test_hea_gate_counts():
    c = gen_hea(GenConfig(seed=0, qubits=2, layers=1))
    assert c.gate_count == 5  # 4 rotations + 1 CX
    assert c.cnot_count == 1
    c3 = gen_hea(GenConfig(seed=0, qubits=4, layers=3))
    assert c3.gate_count == 3 * (8 + 3)
    assert c3.cnot_count == 9


def test_hea_determinism_and_depth_scaling():
    cfg = GenConfig(seed=11, qubits=3, layers=2)
    assert serialize_circuit(gen_hea(cfg)) == serialize_circuit(gen_hea(cfg))
    counts = [gen_hea(GenConfig(seed=1, qubits=3, layers=k)).gate_count for k in (1, 2, 3, 4)]
    diffs = [b - a for a, b in zip(counts, counts[1:])]
    assert len(set(diffs)) == 1  # linear in layers


def test_hea_basis_variants():
    main = gen_hea(GenConfig(seed=2, qubits=2, layers=1, rotation_basis=("RY", "RZ")))
    assert {g.name for g in main.gates} == {"RY", "RZ", "CX"}
    app = gen_hea(GenConfig(seed=2, qubits=2, layers=1, rotation_basis=("RX", "RZ")))
    assert {g.name for g in app.gates} == {"RX", "RZ", "CX"}


# --- text format ---


def test_circuit_text_roundtrip():
    c = Circuit(
        2,
        (
            Gate("RZ", (0,), RA(3, 8)),
            Gate("RX", (1,), 1.1780972451),
            Gate("H", (0,)),
            Gate("CX", (0, 1)),
        ),
    )
    text = serialize_circuit(c)
    assert "RZ q0 3/8" in text
    assert text.startswith("qubits 2\n")
    assert parse_circuit(text) == c


def test_parse_circuit_errors():
    with pytest.raises(ParseError):
        parse_circuit("RZ q0 0.5\n")  # missing header
    with pytest.raises(ParseError):
        parse_circuit("qubits 2\nFOO q0 1.0\n")
    with pytest.raises(ParseError):
        parse_circuit("qubits 2\nCX q0 q5\n")  # out of register
    with pytest.raises(ParseError):
        parse_circuit("qubits 1\nRZ x0 0.1\n")
    for angle in ("1/0", "nan", "inf", "-inf"):
        with pytest.raises(ParseError, match="^line 3: "):
            parse_circuit(f"qubits 1\n# comment\nRZ q0 {angle}\n")
    with pytest.raises(ParseError, match="^line 1: "):
        parse_circuit("qubits -1\n")


@pytest.mark.parametrize(
    "gate, message",
    [
        ("CX q0 q0", "CX control and target must differ"),
        ("RX q7 1/2", "qubit 'q7' is outside the 2-qubit register"),
        ("CX q0 q2", "qubit 'q2' is outside the 2-qubit register"),
        ("RZ q 1/2", "bad qubit token 'q'"),
        ("H q-1", "bad qubit token 'q-1'"),
        ("RZ q0 1/2/3", "bad angle '1/2/3'"),
        ("RZ q0 x/2", "bad angle 'x/2'"),
        ("RY q1 half", "bad angle 'half'"),
        ("RZ q0 3/0", "angle '3/0' has a zero denominator"),
    ],
)
def test_parse_circuit_errors_name_their_line_and_token(gate, message):
    # a blank line and a comment come first, so the line is the file's own 4
    with pytest.raises(ParseError, match=f"^line 4: {re.escape(message)}$"):
        parse_circuit(f"qubits 2\n\n# comment\n{gate}\n")


def test_parse_circuit_rejects_extra_tokens():
    # H and the qubits header take a fixed number of tokens, as CX does
    with pytest.raises(ParseError, match="^line 1: bad qubits header"):
        parse_circuit("qubits 2 junk\nH q0\n")
    with pytest.raises(ParseError, match="^line 3: H needs one qubit"):
        parse_circuit("qubits 2\n# comment\nH q0 q1\n")
    with pytest.raises(ParseError, match="^line 2: H needs one qubit"):
        parse_circuit("qubits 2\nH\n")
    with pytest.raises(ParseError, match="^line 2: CX needs two qubits"):
        parse_circuit("qubits 3\nCX q0 q1 q2\n")
    assert parse_circuit("qubits 2\nH q1\n") == Circuit(2, (Gate("H", (1,)),))
    with pytest.raises(ConfigInvalid):
        Circuit(-1, ())


# --- circuit_to_diagram ---


def test_empty_circuit_gives_identity_wires():
    d = circuit_to_diagram(Circuit(3, ()))
    assert len(d.nodes) == 0
    assert np.allclose(evaluate(d), np.eye(8))


def test_euler_chain_translation():
    c = Circuit(1, (Gate("RZ", (0,), 0.4), Gate("RX", (0,), 1.1), Gate("RZ", (0,), 2.2)))
    d = circuit_to_diagram(c)
    kinds = [n.kind for n in d.nodes]
    assert kinds.count(dg.Z) == 2 and kinds.count(dg.X) == 1
    assert equal_up_to_global_scalar(evaluate(d), circuit_unitary(c))


def test_cx_translation_matches_cnot():
    c = Circuit(2, (Gate("CX", (0, 1)),))
    d = circuit_to_diagram(c)
    assert equal_up_to_global_scalar(evaluate(d), circuit_unitary(c))
    flipped = Circuit(2, (Gate("CX", (1, 0)),))
    assert equal_up_to_global_scalar(
        evaluate(circuit_to_diagram(flipped)), circuit_unitary(flipped)
    )


def test_ry_decomposition_matches_unitary():
    for angle in (0.0, 0.7, math.pi / 2, 4.0):
        c = Circuit(1, (Gate("RY", (0,), angle),))
        d = circuit_to_diagram(c)
        assert equal_up_to_global_scalar(evaluate(d), circuit_unitary(c))


def test_unsupported_gate():
    c = Circuit(1, (Gate("RZ", (0,), 0.1),))
    bad = Circuit(1, (Gate("SWAPX", (0,)),))
    circuit_to_diagram(c)
    with pytest.raises(UnsupportedGate):
        circuit_to_diagram(bad)


def test_generated_circuits_evaluate_to_their_unitary():
    for seed in range(10):
        cfg = GenConfig(seed=seed, qubits=int(2 + seed % 3), layers=1 + seed % 2)
        c = gen_hea(cfg)
        d = circuit_to_diagram(c)
        assert equal_up_to_global_scalar(evaluate(d), circuit_unitary(c)), f"seed {seed}"


def test_snapping_projects_to_grid():
    c = Circuit(2, (Gate("RZ", (0,), 0.8), Gate("RZ", (1,), 2.4)))
    d = circuit_to_diagram(c, grid_map=lambda q: 4, snap=True)
    for n in d.spiders:
        assert n.label.grid == 4
        assert n.label.is_grid_compliant()
    raw, snapped = snapped_phases(c, lambda q: 4)
    assert raw == [0.8, 2.4]
    # round(4*0.8/2pi) = 1 -> pi/2; round(4*2.4/2pi) = 2 -> pi
    assert snapped == [math.pi / 2, math.pi]


def test_raw_mode_keeps_exact_dyadic_angle():
    theta = 0.8
    c = Circuit(1, (Gate("RZ", (0,), theta),))
    d = circuit_to_diagram(c)
    (n,) = d.spiders
    assert n.label.grid == 1
    assert n.label.alpha.fraction == Fraction(theta / (2 * math.pi))
    assert not n.label.is_grid_compliant()


# --- diagram_to_circuit ---


def test_extract_single_rz():
    d = circuit_to_diagram(Circuit(1, (Gate("RZ", (0,), RA(3, 8)),)))
    c = diagram_to_circuit(d)
    assert c.gates == (Gate("RZ", (0,), RA(3, 8)),)


def test_extract_rejects_non_circuit_shapes():
    n = Node(0, dg.Z, SpiderLabel(1, RA(1, 4)), 2, 2)
    wires = [
        Wire(dg.BoundaryPort(dg.IN, 0), NodePort(0, 0)),
        Wire(dg.BoundaryPort(dg.IN, 1), NodePort(0, 1)),
        Wire(NodePort(0, 2), dg.BoundaryPort(dg.OUT, 0)),
        Wire(NodePort(0, 3), dg.BoundaryPort(dg.OUT, 1)),
    ]
    d = build([n], wires, 2, 2)
    with pytest.raises(NotCircuitLike):
        diagram_to_circuit(d)


def test_extract_identity_skips_zero_spiders():
    d = circuit_to_diagram(Circuit(1, (Gate("RZ", (0,), RA(0)),)))
    c = diagram_to_circuit(d)
    assert c.gates == ()


def test_roundtrip_d2_after_normalization():
    for seed in range(12):
        cfg = GenConfig(seed=seed, qubits=2 + seed % 3, layers=1 + seed % 3)
        c = gen_hea(cfg)
        d = circuit_to_diagram(c)
        norm, _, _ = wzcc_normalize(d)
        c2 = diagram_to_circuit(norm)
        assert equal_up_to_global_scalar(circuit_unitary(c2), circuit_unitary(c)), seed
        assert c2.gate_count <= elementary_gate_count(c)
        assert c2.cnot_count == c.cnot_count


def test_roundtrip_d2_appendix_basis():
    for seed in range(6):
        cfg = GenConfig(
            seed=seed, qubits=2 + seed % 2, layers=1 + seed % 3, rotation_basis=("RX", "RZ")
        )
        c = gen_hea(cfg)
        norm, _, _ = wzcc_normalize(circuit_to_diagram(c))
        c2 = diagram_to_circuit(norm)
        assert equal_up_to_global_scalar(circuit_unitary(c2), circuit_unitary(c))
        assert c2.gate_count <= c.gate_count  # already elementary basis


def test_d3_preset_is_documented_stub():
    with pytest.raises(ConfigInvalid, match="calibration"):
        preset("d3")
    with pytest.raises(ConfigInvalid, match="calibration"):
        preset("d3-hardware")
