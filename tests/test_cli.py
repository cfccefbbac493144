"""End-to-end CLI behavior: files, determinism, exit codes."""

from __future__ import annotations

import json
import warnings
from pathlib import Path

import pytest

from wplzx.cli import main


def run(argv, capsys=None):
    code = main(argv)
    return code


def test_gen_deterministic_corpus(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    args = ["gen", "--preset", "d1-main", "--seed", "7", "--count", "2",
            "--qubits", "3", "--spiders-min", "6", "--spiders-max", "10"]
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args + ["--out", str(out2)]) == 0
    for name in ("d1-main-s7-000.diagram.json", "manifest.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    manifest = json.loads((out1 / "manifest.json").read_text())
    assert manifest["seed"] == 7 and manifest["count"] == 2
    assert len(manifest["files"]) == 2


def test_gen_d2_layered_circuit(tmp_path):
    out = tmp_path / "c"
    assert run(["gen", "--preset", "d2-main", "--seed", "1", "--qubits", "4",
                "--layers", "3", "--out", str(out)]) == 0
    text = (out / "d2-main-s1-000.circuit.txt").read_text()
    assert text.startswith("qubits 4\n")
    # 3 layers x (8 rotations + 3 CX)
    assert len(text.strip().splitlines()) == 1 + 3 * 11


def test_gen_unknown_preset_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(["gen", "--preset", "bogus", "--out", str(tmp_path)])
    assert exc.value.code == 2


def test_curvature_step_flag_usage_error(tmp_path):
    # grad_norm is the closed-form gradient, so there is no step to set.
    with pytest.raises(SystemExit) as exc:
        run(["curvature", "--h", "1e-5", "--out", str(tmp_path / "c.csv")])
    assert exc.value.code == 2
    assert not (tmp_path / "c.csv").exists()


def test_normalize_and_verify_roundtrip(tmp_path, capsys):
    gen_dir = tmp_path / "g"
    run(["gen", "--preset", "d1-main", "--seed", "3", "--qubits", "3",
         "--spiders-min", "6", "--spiders-max", "9", "--out", str(gen_dir)])
    src = next(gen_dir.glob("*.diagram.json"))
    norm1 = tmp_path / "n1"
    assert run(["normalize", "--input", str(src), "--out", str(norm1)]) == 0
    for name in ("normalized.diagram.json", "labels.json", "trace.jsonl"):
        assert (norm1 / name).exists()

    # idempotence: renormalizing is byte-identical
    norm2 = tmp_path / "n2"
    assert run(["normalize", "--input", str(norm1 / "normalized.diagram.json"),
                "--out", str(norm2)]) == 0
    assert (norm1 / "normalized.diagram.json").read_bytes() == (
        norm2 / "normalized.diagram.json"
    ).read_bytes()

    assert run(["verify", "--input", str(src)]) == 0
    out = capsys.readouterr().out
    assert "verdict SOUND" in out

    assert run(["verify", "--input", str(src), "--trace", str(norm1 / "trace.jsonl")]) == 0
    out = capsys.readouterr().out
    assert "verdict SOUND" in out and "trace replay" in out


def test_verify_corrupted_trace_unsound(tmp_path, capsys):
    gen_dir = tmp_path / "g"
    run(["gen", "--preset", "d1-main", "--seed", "5", "--qubits", "2",
         "--spiders-min", "5", "--spiders-max", "8", "--out", str(gen_dir)])
    src = next(gen_dir.glob("*.diagram.json"))
    norm = tmp_path / "n"
    run(["normalize", "--input", str(src), "--out", str(norm)])

    # corrupt: append a label rewrite that shifts one spider's phase
    from wplzx.diagram import deserialize
    from wplzx.rewrite import node_total_angle

    normalized = deserialize((norm / "normalized.diagram.json").read_text())
    victim = max(normalized.spiders, key=lambda n: n.degree)
    shifted = (node_total_angle(victim).turns + __import__(
        "wplzx.phase", fromlist=["RationalAngle"]
    ).RationalAngle(1, 3)).mod1()
    entry = {
        "rule": "normalize-label",
        "consumed": [victim.id],
        "produced": [victim.id],
        "detail": {"label": {"a": victim.label.grid,
                             "alpha": {"num": shifted.num, "den": shifted.den},
                             "k": {"num": 0, "den": 1}}},
    }
    trace_path = norm / "trace.jsonl"
    trace_path.write_text(trace_path.read_text() + json.dumps(entry) + "\n")
    code = run(["verify", "--input", str(src), "--trace", str(trace_path)])
    assert code == 1
    assert "verdict UNSOUND" in capsys.readouterr().out


def test_verify_zero_map_is_sound(tmp_path, capsys):
    # d1-main seed 7 instance 000 denotes the zero map: the float oracle saw
    # entries of about 3e-20 and could not decide it; the residues are exactly 0
    gen_dir = tmp_path / "g"
    assert run(["gen", "--preset", "d1-main", "--seed", "7", "--out", str(gen_dir)]) == 0
    src = gen_dir / "d1-main-s7-000.diagram.json"
    norm = tmp_path / "n"
    assert run(["normalize", "--input", str(src), "--out", str(norm)]) == 0
    capsys.readouterr()
    for extra, how in (([], "normalization"), (["--trace", str(norm / "trace.jsonl")], "trace replay")):
        assert run(["verify", "--input", str(src)] + extra) == 0
        assert capsys.readouterr().out == (
            f"verdict SOUND\nmethod {how}\nprimes 1048273,1048129\nzero_map true\n"
        )


def test_verify_decides_snapped_circuits(tmp_path, capsys):
    # d2-main circuits snapped to grid 8 denote nonzero multiples of unitaries,
    # so SOUND here is not the zero-map case, and a 1/8-turn phase shift in
    # the trace must read UNSOUND
    from fractions import Fraction

    from wplzx import datasets
    from wplzx.diagram import serialize

    for seed in (1, 2, 3):
        cfg = datasets.preset("d2-main", seed=seed)
        for i in range(5):
            c = datasets.gen_hea(cfg, instance=i)
            src = tmp_path / f"s{seed}-{i}.diagram.json"
            d = datasets.circuit_to_diagram(c, grid_map=lambda q: 8, snap=True)
            src.write_text(serialize(d))
            norm = tmp_path / f"n{seed}-{i}"
            assert run(["normalize", "--input", str(src), "--out", str(norm)]) == 0
            trace = norm / "trace.jsonl"
            capsys.readouterr()
            methods = (([], "normalization"), (["--trace", str(trace)], "trace replay"))
            for extra, how in methods:
                assert run(["verify", "--input", str(src)] + extra) == 0, (seed, i, how)
                out = capsys.readouterr().out
                assert out.startswith(f"verdict SOUND\nmethod {how}\n"), (seed, i, out)
                assert out.endswith("zero_map false\n"), (seed, i, out)

            entries = [json.loads(line) for line in trace.read_text().splitlines()]
            first = next(e for e in entries if e["rule"] == "normalize-label")
            alpha = first["detail"]["label"]["alpha"]
            shifted = (Fraction(alpha["num"], alpha["den"]) + Fraction(1, 8)) % 1
            alpha.update(num=shifted.numerator, den=shifted.denominator)
            trace.write_text("".join(json.dumps(e) + "\n" for e in entries))
            assert run(["verify", "--input", str(src), "--trace", str(trace)]) == 1, (seed, i)
            assert capsys.readouterr().out.startswith("verdict UNSOUND\n")


def test_verify_without_usable_prime_is_inconclusive(tmp_path, capsys):
    from conftest import chain, spider
    from wplzx import diagram as dg
    from wplzx.diagram import serialize

    # phase order 2^21: no prime p = 1 (mod 2^21) lies below 2^20
    src = tmp_path / "d.diagram.json"
    src.write_text(serialize(chain(spider(0, dg.Z, alpha=(1, 2**21)), spider(1, dg.Z))))
    norm = tmp_path / "n"
    assert run(["normalize", "--input", str(src), "--out", str(norm)]) == 0
    capsys.readouterr()
    for extra, how in (([], "normalization"), (["--trace", str(norm / "trace.jsonl")], "trace replay")):
        assert run(["verify", "--input", str(src)] + extra) == 3
        captured = capsys.readouterr()
        assert captured.out == f"verdict INCONCLUSIVE\nmethod {how}\n"
        assert captured.err.startswith("resource cap: phase order 2097152: ")


def test_lone_large_grid_spider_is_not_capped(tmp_path, capsys):
    from conftest import chain, spider
    from wplzx import diagram as dg
    from wplzx.diagram import serialize

    # grid 2^21 exceeds GRID_ORDER_CAP, but a lone spider refines nothing
    src = tmp_path / "d.diagram.json"
    src.write_text(serialize(chain(spider(0, dg.Z, a=2**21, alpha=(1, 4)))))
    assert run(["normalize", "--input", str(src), "--out", str(tmp_path / "n")]) == 0
    labels = json.loads((tmp_path / "n" / "labels.json").read_text())
    assert [lab["L"] for lab in labels] == [2**21]
    capsys.readouterr()
    assert run(["verify", "--input", str(src)]) == 0
    assert capsys.readouterr().out.startswith("verdict SOUND\n")


def test_verify_oversize_exit_3(tmp_path, capsys):
    # 13 rails: 26 open wires, a final tensor past the 2^24-entry cap
    gen_dir = tmp_path / "g"
    run(["gen", "--preset", "d1-main", "--seed", "5", "--qubits", "13",
         "--spiders-min", "4", "--spiders-max", "6", "--out", str(gen_dir)])
    src = next(gen_dir.glob("*.diagram.json"))
    assert run(["verify", "--input", str(src)]) == 3


def _identity_file(path: Path, width: int) -> Path:
    """A diagram file of the identity on ``width`` rails, input i to output
    i through a phase-free one-in, one-out Z spider."""
    from conftest import spider
    from wplzx import diagram as dg

    nodes = [spider(i, dg.Z) for i in range(width)]
    wires = [w for i in range(width) for w in (
        dg.Wire(dg.BoundaryPort(dg.IN, i), dg.NodePort(i, 0)),
        dg.Wire(dg.NodePort(i, 1), dg.BoundaryPort(dg.OUT, i)),
    )]
    path.write_text(dg.serialize(dg.build(nodes, wires, width, width)))
    return path


def test_verify_past_the_tensor_cap_exits_3_before_any_arithmetic(tmp_path, capsys, monkeypatch):
    from wplzx import semantics

    def no_network(d):
        raise AssertionError("planned a diagram past the tensor cap")

    monkeypatch.setattr(semantics, "_network", no_network)
    src = _identity_file(tmp_path / "id13.diagram.json", 13)
    assert run(["verify", "--input", str(src)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "verdict INCONCLUSIVE\nmethod normalization\n"
    assert captured.err == (
        "resource cap: final tensor of 67108864 entries exceeds cap 16777216\n"
    )


def test_verify_takes_no_size_flag():
    # the tensor cap is the oracle's only size limit, and no flag moves it
    from wplzx.cli import build_parser

    verify = build_parser().commands["verify"]
    options = sorted(o for action in verify.flags.values() for o in action.option_strings)
    assert options == ["--config", "--help", "--input", "--trace", "-h"]


def test_verify_decides_eight_qubit_diagrams(tmp_path, capsys):
    # 16 open wires: within the tensor cap, so every one is decided
    corpus = tmp_path / "g"
    assert run(["gen", "--preset", "d1-main", "--seed", "7", "--count", "6",
                "--qubits", "8", "--out", str(corpus)]) == 0
    sources = sorted(corpus.glob("*.diagram.json"))
    assert len(sources) == 6
    for i, src in enumerate(sources):
        norm = tmp_path / f"n{i}"
        assert run(["normalize", "--input", str(src), "--out", str(norm)]) == 0
        capsys.readouterr()
        for extra, how in (([], "normalization"),
                           (["--trace", str(norm / "trace.jsonl")], "trace replay")):
            assert run(["verify", "--input", str(src)] + extra) == 0, (src.name, how)
            out = capsys.readouterr().out.splitlines()
            assert out[:2] == ["verdict SOUND", f"method {how}"], src.name
            if i == 0:
                assert out[3] == "zero_map false"


def test_metrics_csv_shape(tmp_path, capsys):
    # appendix basis keeps the raw circuit in the elementary gate set, so
    # normalization can only shrink the gate count
    raw_dir = tmp_path / "raw"
    run(["gen", "--preset", "d2-appendix", "--seed", "2", "--count", "2",
         "--qubits", "3", "--layers", "2", "--out", str(raw_dir)])

    # optimize: normalize each circuit through the diagram pipeline
    from wplzx.datasets import (
        circuit_to_diagram,
        diagram_to_circuit,
        parse_circuit,
        serialize_circuit,
    )
    from wplzx.rewrite import wzcc_normalize

    opt_dir = tmp_path / "opt"
    opt_dir.mkdir()
    for p in sorted(raw_dir.glob("*.circuit.txt")):
        c = parse_circuit(p.read_text())
        norm, _, _ = wzcc_normalize(circuit_to_diagram(c))
        (opt_dir / p.name).write_text(serialize_circuit(diagram_to_circuit(norm)))

    out_csv = tmp_path / "m.csv"
    assert run(["metrics", "--raw", str(raw_dir), "--opt", str(opt_dir),
                "--out", str(out_csv)]) == 0
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0] == "seed,n_qubits,n_spiders,pqvr,csc_total,csc_cnot,fp"
    assert len(lines) == 1 + 2 + 2  # header + 2 rows + mean/stddev footer
    row = lines[1].split(",")
    assert row[0] == "2"  # seed parsed from filename
    fp = float(row[6])
    assert fp > 1 - 1e-9  # noiseless normalization preserves the state
    csc = float(row[4])
    assert csc >= 0.0  # alternating-color layers merge nothing, so 0 is legal
    pqvr = float(row[3])
    assert 0.0 < pqvr <= 1.0


def test_metrics_pairing_mismatch(tmp_path):
    raw_dir, opt_dir = tmp_path / "r", tmp_path / "o"
    raw_dir.mkdir()
    opt_dir.mkdir()
    (raw_dir / "a.circuit.txt").write_text("qubits 1\nRZ q0 1/4\n")
    assert run(["metrics", "--raw", str(raw_dir), "--opt", str(opt_dir)]) == 1


@pytest.mark.parametrize("side", ["raw", "opt"])
@pytest.mark.parametrize(
    "text, line",
    [
        ("qubits 1\nRZ q0 1/0\n", 2),
        ("qubits 1\nRZ q0 nan\n", 2),
        ("qubits 1\nRZ q0 inf\n", 2),
        ("qubits -1\n", 1),
    ],
)
def test_metrics_malformed_circuit_exits_1(tmp_path, capsys, side, text, line):
    """A zero denominator, a non-finite angle or a negative qubit count in
    either file is a parse error naming its line, not a traceback."""
    dirs = {"raw": tmp_path / "r", "opt": tmp_path / "o"}
    for name, d in dirs.items():
        d.mkdir()
        body = text if name == side else "qubits 1\nRZ q0 1/4\n"
        (d / "a.circuit.txt").write_text(body)
    assert run(["metrics", "--raw", str(dirs["raw"]), "--opt", str(dirs["opt"])]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: line {line}:")
    assert "Traceback" not in err


@pytest.fixture(scope="module")
def seed7_pairs(tmp_path_factory):
    """d1-main seed 7, 20 raw diagrams and their normalized forms under the
    same names, in directories ``raw`` and ``opt``."""
    root = tmp_path_factory.mktemp("seed7")
    raw, opt = root / "raw", root / "opt"
    assert run(["gen", "--preset", "d1-main", "--seed", "7", "--count", "20",
                "--out", str(raw)]) == 0
    opt.mkdir()
    for src in sorted(raw.glob("*.diagram.json")):
        assert run(["normalize", "--input", str(src), "--out", str(root / "n")]) == 0
        (opt / src.name).write_bytes((root / "n" / "normalized.diagram.json").read_bytes())
    return raw, opt


def _metric_lines(tmp_path, raw, opt) -> list[str]:
    out_csv = tmp_path / "m.csv"
    assert run(["metrics", "--raw", str(raw), "--opt", str(opt), "--out", str(out_csv)]) == 0
    return out_csv.read_text().splitlines()


def test_metrics_fp_only_for_proven_nonzero_states(tmp_path, seed7_pairs):
    # Row 000 denotes the exact zero map (its float entries are rounding
    # noise); only rows 002, 010 and 012 have a nonzero |0..0> column on
    # both sides.
    fp = [line.rsplit(",", 1)[1] for line in _metric_lines(tmp_path, *seed7_pairs)[1:-2]]
    trusted = {2: "1.0", 10: "1.0", 12: "1.0000000000000004"}
    assert fp == [trusted.get(i, "nan") for i in range(20)]


def test_metrics_untrusted_optimized_state_gives_nan(tmp_path, seed7_pairs):
    # raw instance 002 has a proven nonzero state, the normalized form of
    # instance 001 has none: the row reads nan instead of failing the run
    raw, opt = seed7_pairs
    lines = _metric_lines(
        tmp_path, raw / "d1-main-s7-002.diagram.json", opt / "d1-main-s7-001.diagram.json"
    )
    assert lines[1] == "7,4,30,1.0,-1.9333333333333331,0.0,nan"


def test_metrics_footer_nan_without_numeric_values(tmp_path, seed7_pairs):
    raw, opt = seed7_pairs
    name = "d1-main-s7-018.diagram.json"
    lines = _metric_lines(tmp_path, raw / name, opt / name)
    assert lines[1].endswith(",nan")
    assert lines[2].startswith("mean,") and lines[2].endswith(",nan")
    assert lines[3].startswith("stddev,") and lines[3].endswith(",nan")


def test_metrics_fp_is_a_number_for_seven_qubit_circuits(tmp_path):
    # 14 open wires: within the tensor cap, so the circuits' states are compared
    from wplzx.datasets import (
        circuit_to_diagram,
        diagram_to_circuit,
        parse_circuit,
        serialize_circuit,
    )
    from wplzx.rewrite import wzcc_normalize

    raw = tmp_path / "raw"
    assert run(["gen", "--preset", "d2-main", "--seed", "4", "--qubits", "7",
                "--out", str(raw)]) == 0
    src = raw / "d2-main-s4-000.circuit.txt"
    norm, _, _ = wzcc_normalize(circuit_to_diagram(parse_circuit(src.read_text())))
    opt = tmp_path / "opt.circuit.txt"
    opt.write_text(serialize_circuit(diagram_to_circuit(norm)))
    row = _metric_lines(tmp_path, src, opt)[1].split(",")
    assert row[1] == "7"
    assert abs(float(row[6]) - 1.0) < 1e-9


def test_metrics_fp_nan_past_the_tensor_cap(tmp_path):
    src = _identity_file(tmp_path / "id13.diagram.json", 13)
    lines = _metric_lines(tmp_path, src, src)
    assert lines[1].startswith("0,13,13,") and lines[1].endswith(",nan")


def test_decode_reproduces_worked_edge_weight(tmp_path, capsys):
    graph = {
        "vertices": [
            {"id": 0, "pos": [0, 0], "a": 8, "k": 3, "virtual": False},
            {"id": 1, "pos": [1, 1], "a": 12, "k": 9, "virtual": False},
        ],
        "edges": [{"u": 0, "v": 1, "d": 1.0}],
    }
    path = tmp_path / "toy.json"
    path.write_text(json.dumps(graph))
    assert run(["decode", "--graph", str(path), "--lambda", "0.5"]) == 0
    out = capsys.readouterr().out
    assert "total_cost 1.1875" in out


def _toy_graph_vertices(ids):
    return [{"id": i, "pos": [0, 0], "a": 1, "k": 0, "virtual": False} for i in ids]


@pytest.mark.parametrize(
    "graph",
    [
        {"vertices": _toy_graph_vertices([0, 1]), "edges": [{"u": 0, "v": 2, "d": 1.0}]},
        {"vertices": _toy_graph_vertices([0, 0]), "edges": []},
        {"vertices": _toy_graph_vertices([[0], 1]), "edges": []},
        {"vertices": _toy_graph_vertices([0, True]), "edges": []},
        {"vertices": _toy_graph_vertices([0, 1]), "edges": [{"u": 0, "v": 1.0, "d": 1.0}]},
        {"vertices": _toy_graph_vertices([0, 1]), "edges": [{"u": True, "v": 0, "d": 1.0}]},
        {"vertices": _toy_graph_vertices([0, "1"]), "edges": [{"u": 0, "v": 1, "d": 1.0}]},
        {"vertices": _toy_graph_vertices([0, True]), "edges": [{"u": 0.0, "v": True, "d": 1.5}]},
    ],
    ids=["missing-vertex", "duplicate-id", "list-id", "bool-id", "float-end", "bool-end",
         "int-end-for-str-id", "bool-id-float-end"],
)
def test_decode_malformed_graph_exit_1(tmp_path, capsys, graph):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(graph))
    assert run(["decode", "--graph", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def _one_error_line(capsys) -> None:
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "field, value",
    [("a", 8.7), ("k", 2.9), ("a", "8"), ("k", True), ("virtual", "false"), ("virtual", 0)],
)
def test_decode_non_integer_field_exit_1(tmp_path, capsys, field, value):
    """Grid orders and windings must be JSON integers and the virtual flag a
    JSON boolean: nothing is truncated or read by truthiness."""
    vertices = _toy_graph_vertices([0, 1])
    vertices[0][field] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"vertices": vertices, "edges": [{"u": 0, "v": 1, "d": 1.0}]}))
    assert run(["decode", "--graph", str(path)]) == 1
    _one_error_line(capsys)


@pytest.mark.parametrize(
    "vertex, edge",
    [
        ({}, {"d": "2.5"}),
        ({}, {"d": True}),
        ({}, {"d": 10**400}),
        ({"pos": ["1", 0]}, {}),
        ({"pos": [0, True]}, {}),
        ({"pos": ["1", True]}, {"d": "2.5"}),
        ({"pos": [1, 2, 3]}, {}),
        ({"pos": {"x": 1, "y": 2}}, {}),
    ],
    ids=["d-string", "d-bool", "d-too-large", "pos-string", "pos-bool", "both", "pos-three",
         "pos-object"],
)
def test_decode_non_number_float_field_exit_1(tmp_path, capsys, vertex, edge):
    """Distances and positions must be JSON numbers, two per position: a
    string or bool is an error, not converted, and so is an integer no float
    can hold or a third coordinate."""
    vertices = _toy_graph_vertices([0, 1])
    vertices[0].update(vertex)
    edges = [{"u": 0, "v": 1, "d": 1.0, **edge}]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"vertices": vertices, "edges": edges}))
    assert run(["decode", "--graph", str(path)]) == 1
    _one_error_line(capsys)


def _two_vertex_graph(vertex=None, edge=None) -> str:
    """A valid two-vertex, two-edge graph file with ``vertex`` merged into
    its second vertex and ``edge`` into its second edge; a None value
    deletes the field."""
    graph = {"vertices": _toy_graph_vertices([0, 1]),
             "edges": [{"u": 0, "v": 1, "d": 1.0}, {"u": 1, "v": 0, "d": 2.0}]}
    for entry, changes in ((graph["vertices"][1], vertex), (graph["edges"][1], edge)):
        for key, value in (changes or {}).items():
            if value is None:
                del entry[key]
            else:
                entry[key] = value
    return json.dumps(graph)


@pytest.mark.parametrize(
    "text, message",
    [
        ("[]", "top-level defect graph value must be an object"),
        ('{"vertices": 5, "edges": []}', "defect graph field 'vertices' must be a list"),
        ('{"vertices": "ab", "edges": []}', "defect graph field 'vertices' must be a list"),
        ('{"vertices": [], "edges": {"u": 1}}', "defect graph field 'edges' must be a list"),
        ('{"edges": []}', "defect graph field 'vertices' must be a list"),
        ('{"vertices": [5], "edges": []}', "vertices[0] must be an object"),
        ('{"vertices": [], "edges": [[0, 1]]}', "edges[0] must be an object"),
        (_two_vertex_graph(vertex={"a": 8.5}), "vertices[1]: a must be an integer, got 8.5"),
        (_two_vertex_graph(edge={"d": "x"}), "edges[1]: d must be a number, got 'x'"),
        (_two_vertex_graph(vertex={"pos": [0, "y"]}),
         "vertices[1]: pos[1] must be a number, got 'y'"),
        (_two_vertex_graph(vertex={"k": None}), "vertices[1]: missing field 'k'"),
        (_two_vertex_graph(edge={"u": None}), "edges[1]: missing field 'u'"),
        (_two_vertex_graph(vertex={"a": 0}),
         "vertices[1]: grid order must be a positive integer, got 0"),
        (_two_vertex_graph(vertex={"virtual": True, "k": 1}),
         "vertices[1]: virtual boundary vertices must have k = 0"),
        (_two_vertex_graph(edge={"v": 1}), "edges[1]: defect edges must join distinct vertices"),
        (_two_vertex_graph(edge={"d": -1}), "edges[1]: edge distance must be >= 0, got -1.0"),
        (_two_vertex_graph(vertex={"id": 0}), "vertices[1]: duplicate vertex id 0"),
        (_two_vertex_graph(edge={"v": 7}), "edges[1]: edge (1, 7) references missing vertex"),
        (_two_vertex_graph().replace('"d": 2.0', '"d": 1e400'),
         "edges[1]: d must be a finite number, got inf"),
        (_two_vertex_graph(edge={"d": float("inf")}), "edges[1]: d must be a finite number, got inf"),
        (_two_vertex_graph(edge={"d": float("-inf")}),
         "edges[1]: d must be a finite number, got -inf"),
        (_two_vertex_graph(edge={"d": float("nan")}), "edges[1]: d must be a finite number, got nan"),
        (_two_vertex_graph(vertex={"pos": [float("inf"), float("nan")]}),
         "vertices[1]: pos[0] must be a finite number, got inf"),
        (_two_vertex_graph(vertex={"pos": [0, float("nan")]}),
         "vertices[1]: pos[1] must be a finite number, got nan"),
    ],
    ids=["top-list", "vertices-int", "vertices-string", "edges-object", "vertices-missing",
         "vertex-int", "edge-list", "vertex-a-float", "edge-d-string", "vertex-pos-string",
         "vertex-k-missing", "edge-u-missing", "vertex-a-zero", "virtual-k-nonzero", "edge-self",
         "edge-d-negative", "vertex-id-duplicate", "edge-end-missing", "edge-d-1e400",
         "edge-d-infinity", "edge-d-minus-infinity", "edge-d-nan", "vertex-pos-infinity",
         "vertex-pos-nan"],
)
def test_decode_graph_shape_names_the_field(tmp_path, capsys, text, message):
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert run(["decode", "--graph", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def _one_spider_diagram() -> dict:
    return {
        "inputs": [0],
        "outputs": [0],
        "nodes": [
            {"id": 0, "kind": "Z", "ins": 1, "a": 8, "alpha": {"num": 1, "den": 8}, "k": {"num": 0, "den": 1}}
        ],
        "wires": [
            [{"boundary": "in", "pos": 0}, {"node": 0, "port": 0}],
            [{"node": 0, "port": 1}, {"boundary": "out", "pos": 0}],
        ],
    }


@pytest.mark.parametrize(
    "path, value",
    [
        (("nodes", 0, "alpha", "num"), 1.5),
        (("nodes", 0, "alpha", "den"), 8.0),
        (("nodes", 0, "k", "num"), "0"),
        (("nodes", 0, "a"), 8.0),
        (("nodes", 0, "a"), True),
        (("nodes", 0, "ins"), 1.0),
        (("wires", 0, 1, "port"), 0.0),
        (("wires", 1, 1, "pos"), 0.7),
        (("wires", 0, 0, "pos"), False),
        (("nodes", 0, "alpha", "den"), 0),
        (("inputs",), ["x"]),
        (("outputs",), [7]),
        (("inputs",), [0.0]),
        (("outputs",), [False]),
        (("inputs",), 1),
        (("nodes", 0, "id"), True),
        (("nodes", 0, "id"), 0.0),
        (("wires", 0, 1, "node"), 0.0),
        (("wires", 0, 1, "node"), False),
        (("wires", 0, 1, "node"), "0"),
    ],
)
def test_normalize_bad_integer_field_exit_1(tmp_path, capsys, path, value):
    """Spider labels, input counts, ports and boundary slots must be JSON
    integers: a float, string or bool is an error, not truncated, and so is
    a zero denominator.  The inputs and outputs lists must read 0, 1, ...,
    n-1, not just have the right length.  A node id is an integer or a
    string, and an endpoint names it by the same type and value."""
    obj = _one_spider_diagram()
    *parents, key = path
    target = obj
    for step in parents:
        target = target[step]
    target[key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    assert run(["normalize", "--input", str(bad), "--out", str(tmp_path / "o")]) == 1
    _one_error_line(capsys)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "index, wire",
    [
        (0, [{"boundary": "in", "pos": 0}, {"node": 0, "port": 0}, {"node": 0, "port": 1}]),
        (1, [{"node": 0, "port": 1}]),
        (1, {"a": {"node": 0, "port": 1}, "b": {"boundary": "out", "pos": 0}}),
    ],
    ids=["three-ends", "one-end", "object"],
)
def test_normalize_wire_without_two_ends_exit_1(tmp_path, capsys, index, wire):
    """A wire is a list of exactly two endpoints: a third end is an error,
    not dropped."""
    obj = _one_spider_diagram()
    obj["wires"][index] = wire
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    assert run(["normalize", "--input", str(bad), "--out", str(tmp_path / "o")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: wires[{index}] must be a list of two endpoints\n"
    assert not (tmp_path / "o").exists()


def test_decode_past_dp_cap_exit_3(tmp_path, capsys):
    # 25 reals, each with its own boundary virtual: 25 DP vertices
    graph = {
        "vertices": _toy_graph_vertices(range(25))
        + [{"id": f"b{i}", "pos": [0, 0], "a": 1, "k": 0, "virtual": True} for i in range(25)],
        "edges": [{"u": i, "v": f"b{i}", "d": 1.0} for i in range(25)],
    }
    path = tmp_path / "big.json"
    path.write_text(json.dumps(graph))
    assert run(["decode", "--graph", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "resource cap: 25 DP vertices exceed cap 24\n"


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--lambda", "nan"], "lambda must be finite and >= 0, got nan"),
        (["--lambda", "inf"], "lambda must be finite and >= 0, got inf"),
        (["--beta", "-1"], "beta must be finite and > 0, got -1.0"),
        (["--beta", "0"], "beta must be finite and > 0, got 0.0"),
        (["--beta", "nan"], "beta must be finite and > 0, got nan"),
    ],
    ids=["lambda-nan", "lambda-inf", "beta-negative", "beta-zero", "beta-nan"],
)
def test_decode_rejects_bad_lambda_or_beta(tmp_path, capsys, flags, message):
    graph = {"vertices": _toy_graph_vertices([0, 1]), "edges": [{"u": 0, "v": 1, "d": 1.0}]}
    path = tmp_path / "toy.json"
    path.write_text(json.dumps(graph))
    assert run(["decode", "--graph", str(path)] + flags) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--lambdas", "0,inf"], "lambda must be finite and >= 0, got inf"),
        (["--lambdas", "0,nan"], "lambda must be finite and >= 0, got nan"),
        (["--beta", "0"], "beta must be finite and > 0, got 0.0"),
        (["--beta", "inf"], "beta must be finite and > 0, got inf"),
    ],
    ids=["lambda-inf", "lambda-nan", "beta-zero", "beta-inf"],
)
def test_sweep_rejects_bad_lambda_or_beta(tmp_path, capsys, flags, message):
    out = tmp_path / "s.csv"
    args = ["sweep", "--lambdas", "0,1", "--distance", "3", "--p", "0.1", "--trials", "5"]
    assert run(args + flags + ["--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "flags", [["--distance", "3", "--p", "0.01"], ["--distance", "5", "--p", "0.2"]],
    ids=["no-defect-pairs", "defect-pairs"],
)
def test_sweep_winding_grid_past_cap_exit_3(tmp_path, capsys, flags):
    # The cap is checked on the flag, not on whichever sampled edge first
    # refines the grid: at d = 3, p = 0.01 no trial has two defects.
    out = tmp_path / "s.csv"
    args = ["sweep", "--lambdas", "0,1", "--winding", "uniform", "--winding-a", "100000000",
            "--trials", "5", "--seed", "1"]
    assert run(args + flags + ["--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        "resource cap: lcm(100000000, 100000000) = 100000000 exceeds grid-order cap 1048576\n"
    )
    assert not out.exists()


def test_sweep_unparsable_lambda_usage_error(tmp_path, capsys):
    out = tmp_path / "s.csv"
    with pytest.raises(SystemExit) as exc:
        run(["sweep", "--lambdas", "0,abc", "--trials", "1", "--out", str(out)])
    assert exc.value.code == 2
    assert "error: argument --lambdas: invalid float list: '0,abc'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["metrics", "--grid", "0"], "--grid must be >= 1, got 0"),
        (["curvature", "--lo", "0"], "--lo must lie in (0, 1], got 0.0"),
        (["curvature", "--hi", "2"], "--hi must lie in (0, 1], got 2.0"),
        (["curvature", "--points", "-1"], "--points must be >= 0, got -1"),
        (["gen", "--preset", "d1-main", "--count", "-1"], "--count must be >= 1, got -1"),
        (["gen", "--preset", "d2-main", "--count", "0"], "--count must be >= 1, got 0"),
        (["sweep", "--lambdas", "0", "--trials", "0"], "--trials must be >= 1, got 0"),
        (["sweep", "--lambdas", "0", "--trials", "-3"], "--trials must be >= 1, got -3"),
        (["gen", "--preset", "d1-main", "--layers", "9"],
         "--layers has no effect on preset d1-main"),
        (["gen", "--preset", "d1-appendix", "--layers", "0"],
         "--layers has no effect on preset d1-appendix"),
        (["gen", "--preset", "d2-main", "--spiders-min", "5"],
         "--spiders-min has no effect on preset d2-main"),
        (["gen", "--preset", "d2-main", "--spiders-max", "7"],
         "--spiders-max has no effect on preset d2-main"),
        (["gen", "--preset", "d2-appendix", "--density", "0.9"],
         "--density has no effect on preset d2-appendix"),
    ],
    ids=[
        "metrics-grid-zero", "curvature-lo-zero", "curvature-hi-two", "curvature-points-negative",
        "gen-count-negative", "gen-count-zero", "sweep-trials-zero", "sweep-trials-negative",
        "gen-d1-layers", "gen-d1-layers-zero", "gen-d2-spiders-min", "gen-d2-spiders-max",
        "gen-d2-density",
    ],
)
def test_out_of_domain_flag_exit_1(tmp_path, capsys, argv, message):
    if argv[0] == "metrics":
        corpus = tmp_path / "corpus"
        assert run(["gen", "--preset", "d2-main", "--seed", "1", "--out", str(corpus)]) == 0
        capsys.readouterr()
        argv = argv + ["--raw", str(corpus), "--opt", str(corpus)]
    out = tmp_path / "out.csv"
    assert run(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_sweep_at_large_beta(tmp_path):
    # exp(-beta d) underflows for every edge at beta = 1000; the DRG_pm
    # weights are taken relative to the shortest edge, so they do not
    out = tmp_path / "s.csv"
    args = ["sweep", "--lambdas", "0,1", "--distance", "5", "--trials", "20", "--seed", "3"]
    assert run(args + ["--beta", "1000", "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [float(r[6]) for r in rows] == [0.0, 0.0028125]


def test_sweep_reproducible_and_monotone(tmp_path):
    args = ["sweep", "--lambdas", "0,0.1,0.3", "--distance", "3", "--p", "0.05",
            "--trials", "50", "--seed", "1"]
    out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().strip().splitlines()
    assert lines[0] == (
        "lambda,p_phys,distance,trials,logical_error_rate,"
        "drg_toy_mean,drg_pm_mean,mean_cost,mode"
    )
    rows = [ln.split(",") for ln in lines[1:]]
    toys = [float(r[5]) for r in rows]
    pms = [float(r[6]) for r in rows]
    assert toys[0] == 0.0 and pms[0] == 0.0
    assert all(b >= a - 1e-12 for a, b in zip(pms, pms[1:]))


def test_config_file_overrides_defaults(tmp_path, capsys):
    graph = {
        "vertices": [
            {"id": 0, "pos": [0, 0], "a": 8, "k": 3, "virtual": False},
            {"id": 1, "pos": [1, 1], "a": 12, "k": 9, "virtual": False},
        ],
        "edges": [{"u": 0, "v": 1, "d": 1.0}],
    }
    gpath = tmp_path / "toy.json"
    gpath.write_text(json.dumps(graph))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lam": 0.5}))
    assert run(["decode", "--graph", str(gpath), "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "total_cost 1.1875" in out
    # explicit flag still wins over the config default
    assert run(["decode", "--graph", str(gpath), "--config", str(cfg),
                "--lambda", "0"]) == 0
    out = capsys.readouterr().out
    assert "total_cost 1.0" in out


def test_parse_error_exit_1(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert run(["normalize", "--input", str(bad), "--out", str(tmp_path / "o")]) == 1


def test_verify_decides_float_unstable_diagram(tmp_path, capsys):
    # a full-size interference-heavy diagram on which double precision was not
    # order-stable, so the float oracle printed INCONCLUSIVE; the exact check
    # decides it
    gen_dir = tmp_path / "g"
    run(["gen", "--preset", "d1-main", "--seed", "3", "--qubits", "4",
         "--out", str(gen_dir)])
    src = next(gen_dir.glob("*.diagram.json"))
    assert run(["verify", "--input", str(src)]) == 0
    assert "verdict SOUND\n" in capsys.readouterr().out


def test_normalize_grid_overflow_exit_3(tmp_path):
    from wplzx.diagram import serialize
    from conftest import chain, path_region, spider
    from wplzx import diagram as dg
    from wplzx.phase import SpiderLabel

    d = chain(spider(0, dg.Z, a=2**11, alpha=(0, 1)),
              spider(1, dg.Z, a=2**10 + 1, alpha=(0, 1)))
    # lcm(1024, 1021) fits under 2**20; folding in the grid 3 does not
    late = path_region([SpiderLabel(1024), SpiderLabel(1021), SpiderLabel(3)])
    for diagram in (d, late):
        src = tmp_path / "big.diagram.json"
        src.write_text(serialize(diagram))
        assert run(["normalize", "--input", str(src), "--out", str(tmp_path / "o")]) == 3


def test_verify_trace_grid_overflow_exit_3(tmp_path, capsys):
    from conftest import path_region
    from wplzx.diagram import serialize
    from wplzx.phase import SpiderLabel

    # lcm(1024, 1021) fits under 2**20; folding in the grid 3 does not
    src = tmp_path / "big.diagram.json"
    src.write_text(serialize(path_region([SpiderLabel(1024), SpiderLabel(1021), SpiderLabel(3)])))
    trace = tmp_path / "trace.jsonl"
    trace.write_text(
        '{"rule": "fuse", "consumed": [0, 1], "produced": [0]}\n'
        '{"rule": "fuse", "consumed": [0, 2], "produced": [0]}\n'
    )
    assert run(["verify", "--input", str(src), "--trace", str(trace)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("resource cap: trace entry ")
    assert captured.err.rstrip().endswith(
        "failed: lcm(1045504, 3) = 3136512 exceeds grid-order cap 1048576"
    )


@pytest.mark.parametrize(
    "line",
    [
        '{"rule": "fuse", "consumed": [0, 1]',
        "[1,2]",
        '{"rule": "fuse", "produced": [0]}',
        '{"rule": "fuse", "consumed": 0, "produced": [0]}',
    ],
    ids=["invalid-json", "not-an-object", "no-consumed", "consumed-not-a-list"],
)
def test_verify_malformed_trace_line_exit_1(tmp_path, capsys, line):
    from conftest import chain, spider
    from wplzx import diagram as dg
    from wplzx.diagram import serialize

    src = tmp_path / "d.diagram.json"
    src.write_text(serialize(chain(spider(0, dg.Z), spider(1, dg.Z))))
    trace = tmp_path / "trace.jsonl"
    trace.write_text('{"rule": "fuse", "consumed": [0, 1], "produced": [0]}\n' + line + "\n")
    assert run(["verify", "--input", str(src), "--trace", str(trace)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: trace line 2: ")


@pytest.mark.parametrize(
    "content", [None, "{broken", "[1,2]"], ids=["missing", "invalid-json", "not-an-object"]
)
def test_config_file_errors_exit_2(tmp_path, capsys, content):
    cfg = tmp_path / "cfg.json"
    if content is not None:
        cfg.write_text(content)
    with pytest.raises(SystemExit) as exc:
        run(["decode", "--graph", str(tmp_path / "g.json"), "--config", str(cfg)])
    assert exc.value.code == 2
    assert f"error: --config {cfg}: " in capsys.readouterr().err


@pytest.mark.parametrize(
    "command", ["verify", "decode", "sweep"], ids=["verify-input", "decode-graph", "sweep-out"]
)
def test_unreadable_path_exit_1(tmp_path, capsys, command):
    missing = tmp_path / "no" / "such"
    argv = {
        "verify": ["verify", "--input", str(missing / "d.diagram.json")],
        "decode": ["decode", "--graph", str(missing / "g.json")],
        "sweep": ["sweep", "--lambdas", "0", "--trials", "1", "--out", str(missing / "x.csv")],
    }[command]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(missing) in err
    assert not missing.exists()


def test_negative_seeds_give_their_own_outputs(tmp_path):
    """Seeds are keyed modulo 2^64, so -1 and -2 are streams of their own,
    not seed 0 again, and keying them raises no cast warning."""
    csvs, diagrams = {}, {}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for seed in ("0", "-1", "-2"):
            out = tmp_path / f"sweep{seed}.csv"
            args = ["sweep", "--lambdas", "0,1", "--distance", "3", "--p", "0.1",
                    "--trials", "50", "--seed", seed, "--out", str(out)]
            assert run(args) == 0
            csvs[seed] = out.read_bytes()
            gen_dir = tmp_path / f"gen{seed}"
            assert run(["gen", "--preset", "d1-main", "--seed", seed, "--out", str(gen_dir)]) == 0
            diagrams[seed] = [p.read_bytes() for p in sorted(gen_dir.glob("*.diagram.json"))]
    assert len(set(csvs.values())) == 3
    assert diagrams["0"] and len({tuple(files) for files in diagrams.values()}) == 3


@pytest.mark.parametrize(
    "overrides, key",
    [
        ({"mode": "bogus"}, "mode"),
        ({"p": None}, "p"),
        ({"trials": 2.5}, "trials"),
        ({"trials": True}, "trials"),
        ({"out": True}, "out"),
        ({"seed": 1.5}, "seed"),
        ({"lambdas": [0.1]}, "lambdas"),
        ({"lambdas": "0,abc"}, "lambdas"),
    ],
    ids=["choice", "null", "float-for-int", "bool", "bool-for-text", "fractional-seed", "list",
         "bad-list"],
)
def test_config_values_parse_like_flags(tmp_path, capsys, overrides, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(overrides))
    with pytest.raises(SystemExit) as exc:
        run(["sweep", "--lambdas", "0", "--config", str(cfg), "--out", str(tmp_path / "o.csv")])
    assert exc.value.code == 2
    assert f"error: --config {cfg}: {key}: " in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()


def test_config_is_read_through_argparse_and_rejects_unknown_keys(tmp_path, capsys):
    """--config=FILE is read as --config FILE is, and a key that no flag of
    the chosen command has (a typo, the removed verify --tol, a flag of
    another command) is a usage error, not dropped."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"trials": 3}))
    out = tmp_path / "o.csv"
    assert run(["sweep", "--lambdas", "0", f"--config={cfg}", "--out", str(out)]) == 0
    assert "over 3 trials" in capsys.readouterr().err
    for key in ("trails", "tol", "preset", "help", "config"):
        cfg.write_text(json.dumps({key: 3}))
        with pytest.raises(SystemExit) as exc:
            run(["sweep", "--lambdas", "0", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        assert f"error: --config {cfg}: {key}: no flag of sweep sets it" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_config_string_values_go_through_the_flag_type(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"trials": "3", "p": 0.1, "mode": "raw", "seed": 4}))
    out = tmp_path / "o.csv"
    assert run(["sweep", "--lambdas", "0", "--config", str(cfg), "--out", str(out)]) == 0
    assert "over 3 trials" in capsys.readouterr().err
    assert run(["sweep", "--lambdas", "0", "--trials", "3", "--p", "0.1", "--mode", "raw",
                "--seed", "4", "--out", str(tmp_path / "flags.csv")]) == 0
    assert out.read_text() == (tmp_path / "flags.csv").read_text()
