"""Tests of the benchmark harness itself.

Run from the repository root: ``python -m pytest perfbench/tests``.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

from perfbench import run, tracing, workloads

ROOT = Path(__file__).resolve().parents[2]

SMALL_SWEEP = workloads.SweepWorkload(
    "small-sweep", distance=7, p=0.15, winding="two-sector", mode="normalized",
    trials=6, calls=2,
)
SMALL_REWRITE = workloads.RewriteWorkload("small-rewrite", preset="d1-main", count=3)


def _traced(workload, seed, workdir):
    ops = workload.prepare(seed, workdir)
    tracer, outcomes, _ = run.traced_pass(ops)
    return tracer, workloads.check(workload, seed, ops, outcomes)


def _counters(tracer, check):
    metrics = tracer.metrics()
    counts = {k: v for k, v in metrics.items() if not k.endswith("_s")}
    return counts, dict(tracer.defects), check.figures.get("verdicts")


def test_traced_counters_repeat_exactly(tmp_path):
    for workload in (SMALL_SWEEP, SMALL_REWRITE):
        first = _counters(*_traced(workload, 5, tmp_path / f"{workload.name}-a"))
        second = _counters(*_traced(workload, 5, tmp_path / f"{workload.name}-b"))
        assert first == second
    sweep_counts, defects, _ = _counters(*_traced(SMALL_SWEEP, 5, tmp_path / "c"))
    assert sweep_counts["kernel.masks"] > 0 and sum(defects.values()) == 2 * 6 * 4
    rewrite_counts, _, verdicts = _counters(*_traced(SMALL_REWRITE, 5, tmp_path / "d"))
    assert rewrite_counts["rewrite.fusions"] > 0 and rewrite_counts["diagram.build_nodes"] > 0
    assert sum(verdicts.values()) == 2 * SMALL_REWRITE.count


def test_tracing_restores_layers(tmp_path):
    originals = [getattr(module, attr) for module, attr, _, _ in tracing.LAYERS]
    _traced(SMALL_SWEEP, 1, tmp_path)
    assert [getattr(module, attr) for module, attr, _, _ in tracing.LAYERS] == originals


def test_self_time_excludes_child_spans():
    tracer = tracing.Tracer()
    inner = tracer.wrap("semantics.evaluate", lambda: sum(range(10000)))
    outer = tracer.wrap(tracing.CLI_SPAN, lambda: [inner() for _ in range(3)])
    outer()
    t = tracer.times()
    assert t["semantics.evaluate_self_s"] == t["semantics.evaluate_s"] > 0
    assert abs(t["cli.main_self_s"] + t["semantics.evaluate_s"] - t["cli.main_s"]) < 1e-12


def test_check_counts_wrong_outputs(tmp_path):
    ops = SMALL_REWRITE.prepare(1, tmp_path)
    outcomes, _, _ = run.run_pass(ops, workloads.call_cli)
    clean = workloads.check(SMALL_REWRITE, 1, ops, outcomes)
    key = next(
        op.key for op in ops
        if outcomes[op.key].codes[0] == 0 and set(outcomes[op.key].codes[1:]) <= {0, 3}
    )
    good = outcomes[key]
    outcomes[key] = dataclasses.replace(
        good,
        stdouts=(good.stdouts[0], "verdict UNSOUND\n", good.stdouts[2]),
        artefact=good.artefact.replace('"inputs"', '"inputs" ', 1),
    )
    doctored = workloads.check(SMALL_REWRITE, 1, ops, outcomes)
    assert doctored.failed == clean.failed + 2
    assert any("replay differs" in note for note in doctored.notes)


def test_sweep_check_rejects_a_wrong_csv(tmp_path):
    ops = SMALL_SWEEP.prepare(3, tmp_path)
    outcomes, _, _ = run.run_pass(ops, workloads.call_cli)
    assert workloads.check(SMALL_SWEEP, 3, ops, outcomes).correct
    key = ops[1].key
    lines = outcomes[key].artefact.splitlines()
    cells = lines[2].split(",")
    cells[4] = "0.5" if cells[4] != "0.5" else "0.25"  # logical_error_rate
    lines[2] = ",".join(cells)
    outcomes[key] = dataclasses.replace(outcomes[key], artefact="\n".join(lines) + "\n")
    assert not workloads.check(SMALL_SWEEP, 3, ops, outcomes).correct


def test_untraced_run_meets_the_result_contract():
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "perfbench/run.py", "--workload", "sweep-d5",
         "--seed", "11", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "perfbench.tracing" not in proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in bench["end_to_end"]}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 20000


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-d5", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
