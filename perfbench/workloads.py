"""Benchmark workloads: seeded ``wplzx.cli`` command sequences and their checks.

A workload turns a seed into a list of operations.  An operation is one or
more ``wplzx.cli.main`` calls run in-process, one after another (a closed
loop with a single client).  ``check`` runs after the timed loop and compares
what those calls produced with references that do not share the code path
being timed: ``networkx.min_weight_matching`` over independently computed
edge weights for decodes, and a byte-for-byte trace replay for
normalizations.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import traceback
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from wplzx import cli, diagram, rewrite
from wplzx.masd import surface
from wplzx.masd.decode import masd_decode

LAMBDAS = "0,0.1,0.2,0.3"
COMMANDS = ("normalize", "verify", "verify --trace")
COST_RTOL = 1e-9
ORACLE_DECODES = 200  # seeded subsample of decodes checked against networkx


@dataclass(frozen=True)
class Op:
    """CLI calls timed as one unit; ``work`` is what throughput counts."""

    key: str
    argvs: tuple[tuple[str, ...], ...]
    work: int
    artefact: Path


@dataclass(frozen=True)
class Outcome:
    """Exit codes and stdout of each call, plus the artefact file's text."""

    codes: tuple
    stdouts: tuple[str, ...]
    artefact: str | None


@dataclass
class Check:
    """What the check pass found; ``counts`` and ``hist`` accumulate per op."""

    attempted: int
    failed: int = 0
    correct: bool = True
    notes: list[str] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    hist: Counter = field(default_factory=Counter)
    figures: dict = field(default_factory=dict)


def check(workload, seed: int, ops: list[Op], outcomes: dict[str, Outcome]) -> Check:
    """Check every op's outcome against the workload's references."""
    chk = Check(workload.attempted(ops))
    for i, op in enumerate(ops):
        workload.check_op(seed, i, op, outcomes[op.key], chk)
    chk.figures = workload.figures(chk)
    return chk


def call_cli(argv) -> tuple[int | None, str]:
    """Run one CLI command in-process; returns (exit code, stdout).

    The command's stderr log is discarded.  A command that raises is a failed
    operation, reported with its traceback, not a crashed benchmark.
    """
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    except Exception:
        traceback.print_exc()
        code = None
    return code, out.getvalue()


def outcome_of(op: Op, results) -> Outcome:
    text = op.artefact.read_text(encoding="utf-8") if op.artefact.is_file() else None
    return Outcome(
        tuple(code for code, _ in results), tuple(out for _, out in results), text
    )


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= COST_RTOL * max(1.0, abs(b))


def reference_cost(graph, lam: float, mode: str) -> float:
    """Minimum perfect-matching cost from networkx, with edge weights
    d + lam * dk (raw) or d + lam * dk / L (normalized) computed here rather
    than by ``wplzx.masd.graph``."""
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(v.id for v in graph.vertices)
    for e in graph.edges:
        u, v = graph.vertex(e.u), graph.vertex(e.v)
        weight = e.d
        if not (u.is_virtual_boundary or v.is_virtual_boundary):
            lcm = math.lcm(u.a, v.a)
            dk = lcm * abs(Fraction(u.k, u.a) - Fraction(v.k, v.a))
            weight = e.d + lam * float(dk if mode == "raw" else dk / lcm)
        g.add_edge(e.u, e.v, weight=weight)
    pairs = nx.min_weight_matching(g)
    if 2 * len(pairs) != g.number_of_nodes():
        return math.inf
    return sum(g[u][v]["weight"] for u, v in pairs)


@dataclass(frozen=True)
class SweepWorkload:
    """``wplzx sweep`` calls, each over ``trials`` fresh surface-code samples."""

    name: str
    distance: int
    p: float
    winding: str
    mode: str
    trials: int
    calls: int
    unit = "decodes"

    def prepare(self, seed: int, workdir: Path) -> list[Op]:
        n_lambdas = len(LAMBDAS.split(","))
        ops = []
        for i in range(self.calls):
            csv = workdir / f"sweep-{i:03d}.csv"
            argv = (
                "sweep", "--distance", str(self.distance), "--p", repr(self.p),
                "--lambdas", LAMBDAS, "--winding", self.winding,
                "--mode", self.mode, "--trials", str(self.trials),
                "--seed", str(self.call_seed(seed, i)), "--out", str(csv),
            )
            ops.append(Op(f"sweep-{i:03d}", (argv,), self.trials * n_lambdas, csv))
        return ops

    @staticmethod
    def call_seed(seed: int, i: int) -> int:
        return seed * 1000 + i

    def attempted(self, ops: list[Op]) -> int:
        return sum(op.work for op in ops)

    def check_op(self, seed: int, i: int, op: Op, out: Outcome, chk: Check) -> None:
        """Decode the call's instances again through the library, compare its
        CSV rows with them, and check a seeded subsample of all decodes (plus
        every approximate one) against the networkx matching cost."""
        if out.codes != (0,) or out.artefact is None:
            chk.failed += op.work
            chk.notes.append(f"{op.key}: exit code {out.codes[0]}")
            return
        lambdas = [float(tok) for tok in LAMBDAS.split(",")]
        code = surface.build_code(self.distance)
        model = surface.WindingModel(kind=self.winding)
        picked = set(
            random.Random(seed).sample(range(chk.attempted), min(ORACLE_DECODES, chk.attempted))
        )
        index = i * op.work
        rows = _parse_csv(out.artefact)
        instances = [
            surface.sample_surface_code(
                self.distance, self.p, self.call_seed(seed, i),
                trial=t, winding=model, code=code,
            )
            for t in range(self.trials)
        ]
        chk.hist.update(len(sample.syndrome) for sample, _ in instances)
        if len(rows) != len(lambdas):
            chk.correct = False
            chk.notes.append(f"{op.key}: {len(rows)} CSV rows for {len(lambdas)} lambdas")
        for lam, row in zip(lambdas, rows):
            costs = []
            failures = 0
            for sample, graph in instances:
                matching, report = masd_decode(graph, lam, mode=self.mode)
                failures += surface.logical_failure(code, sample, matching)
                costs.append(report.total_cost)
                chk.counts["approx"] += not matching.exact
                if index in picked or not matching.exact:
                    ref = reference_cost(graph, lam, self.mode)
                    chk.counts["oracle_checked"] += 1
                    # A flagged approximation may cost more than the optimum;
                    # an exact one must hit it, and none may undercut it.
                    if _close(matching.total_cost, ref):
                        pass
                    elif matching.exact or matching.total_cost < ref:
                        chk.failed += 1
                        chk.notes.append(
                            f"{op.key} trial {sample.trial} lambda {lam}: cost "
                            f"{matching.total_cost!r} vs networkx {ref!r}"
                        )
                    else:
                        chk.counts["approx_suboptimal"] += 1
                index += 1
            expected = {
                "lambda": lam,
                "trials": float(self.trials),
                "logical_error_rate": failures / self.trials,
                "mean_cost": float(np.mean(costs)),
            }
            if any(float(row[k]) != v for k, v in expected.items()):
                chk.correct = False
                chk.notes.append(f"{op.key} lambda {lam}: CSV row {row} != library {expected}")
            chk.counts["logical_failures"] += round(float(row["logical_error_rate"]) * self.trials)

    def figures(self, chk: Check) -> dict:
        return {
            "approx_share": chk.counts["approx"] / chk.attempted,
            "logical_error_rate": chk.counts["logical_failures"] / chk.attempted,
            "oracle_checked": chk.counts["oracle_checked"],
            "approx_suboptimal": chk.counts["approx_suboptimal"],
            "defects_per_instance": dict(sorted(chk.hist.items())),
        }


def _parse_csv(text: str) -> list[dict]:
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def verdict_of(stdout: str) -> str | None:
    for line in stdout.splitlines():
        if line.startswith("verdict "):
            return line.split()[1]
    return None


@dataclass(frozen=True)
class RewriteWorkload:
    """normalize, verify and verify --trace on every diagram of a corpus."""

    name: str
    preset: str
    count: int
    unit = "spiders"

    def prepare(self, seed: int, workdir: Path) -> list[Op]:
        corpus = workdir / "corpus"
        code, _ = call_cli(
            ("gen", "--preset", self.preset, "--seed", str(seed),
             "--count", str(self.count), "--out", str(corpus))
        )
        if code != 0:
            raise RuntimeError(f"gen --preset {self.preset} --seed {seed} exited {code}")
        manifest = json.loads((corpus / "manifest.json").read_text(encoding="utf-8"))
        ops = []
        for name in manifest["files"]:
            src = str(corpus / name)
            out = workdir / "normalized" / name
            argvs = (
                ("normalize", "--input", src, "--out", str(out)),
                ("verify", "--input", src),
                ("verify", "--input", src, "--trace", str(out / "trace.jsonl")),
            )
            spiders = manifest["counts"][name]["spiders"]
            ops.append(Op(name, argvs, spiders, out / "normalized.diagram.json"))
        return ops

    def attempted(self, ops: list[Op]) -> int:
        return len(COMMANDS) * len(ops)

    def check_op(self, seed: int, i: int, op: Op, out: Outcome, chk: Check) -> None:
        """Count failed commands and UNSOUND verdicts, and replay the recorded
        trace: the result must equal normalize's output byte for byte."""
        bad = [out.codes[0] != 0] + [code not in (0, 3) for code in out.codes[1:]]
        for k, stdout in enumerate(out.stdouts[1:], start=1):
            verdict = verdict_of(stdout)
            chk.hist[verdict] += 1
            if verdict not in ("SOUND", "INCONCLUSIVE"):
                bad[k] = True
        if out.artefact is not None:
            src = Path(op.argvs[0][2])
            trace_path = Path(op.argvs[2][4])
            replayed = diagram.serialize(
                rewrite.apply_trace(
                    diagram.deserialize(src.read_text(encoding="utf-8")),
                    rewrite.RewriteTrace.from_jsonl(trace_path.read_text(encoding="utf-8")),
                )
            )
            if replayed != out.artefact:
                bad[2] = True
                chk.notes.append(f"{op.key}: trace replay differs from normalize output")
        for label, code, stdout, b in zip(COMMANDS, out.codes, out.stdouts, bad):
            if b:
                chk.notes.append(f"{op.key}: {label} exit {code} {stdout.splitlines()[:1]}")
        chk.failed += sum(bad)

    def figures(self, chk: Check) -> dict:
        verify_calls = chk.attempted * 2 // len(COMMANDS)
        return {
            "undecided_share": chk.hist["INCONCLUSIVE"] / verify_calls,
            "verdicts": {str(k): v for k, v in sorted(chk.hist.items(), key=str)},
        }


WORKLOADS = {
    w.name: w
    for w in (
        SweepWorkload(
            "sweep-d7",
            distance=7, p=0.15, winding="two-sector", mode="normalized",
            trials=40, calls=30,
        ),
        SweepWorkload(
            "sweep-d5",
            distance=5, p=0.05, winding="uniform", mode="raw",
            trials=250, calls=20,
        ),
        RewriteWorkload(
            "rewrite-d1main",
            preset="d1-main", count=20,
        ),
    )
}
