"""End-to-end benchmark of the wplzx CLI.

Runs one workload (or all of them) in-process against the sources in
``src/`` of the checkout this file sits in, prints every metric by name with
its unit, checks the outputs, and prints one JSON result as the last line of
stdout.  With ``--trace 0`` the timed loop repeats whole passes over the
workload's operations until they have taken ``--seconds`` and reports the
end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` it runs one untraced and one traced
pass and reports the per-layer metrics.

    python3 perfbench/run.py --workload sweep-d7 --seed 7 --seconds 10 --trace 0
    python3 perfbench/run.py                     # every workload, seed 7
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DEFAULT_SEED = 7  # the seed the paper's d1-main corpus uses
SETUP_REPEATS = 5
REF_ITERATIONS = 20000  # about 9 ms of reference loop per operation here


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all", help="workload name, or 'all'")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def load_program():
    """Import wplzx from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "wplzx" / "__init__.py").is_file():
        raise SystemExit(f"error: no wplzx sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(ROOT))
    import wplzx

    if Path(wplzx.__file__).resolve().parent != SRC / "wplzx":
        raise SystemExit(f"error: imported wplzx from {wplzx.__file__}, not {SRC}")


def environment() -> dict:
    import numpy
    from wplzx.masd import kernel_name

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel": kernel_name(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


def workdir_for(tag: str) -> Path:
    path = ROOT / ".perfbench" / f"work-{os.getpid()}-{tag}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def setup_sample(name: str, seed: int) -> float:
    """Wall time of a fresh process that imports wplzx and builds the
    workload's inputs, i.e. from process start to the first timed call."""
    t0 = perf_counter()
    # No timeout: with one, the wait polls in steps of up to 50 ms, which
    # would round the measured time up to the next step.
    subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--setup-only",
         "--workload", name, "--seed", str(seed)],
        check=True, stdout=subprocess.DEVNULL,
    )
    return perf_counter() - t0


def reference_loop() -> float:
    """Wall time of a fixed pure-Python loop of list, dict, int and float work.

    It shares the host with the program but none of the program's code, so
    its time follows the host's speed and not a change to the program.  The
    cyclic garbage collector is off meanwhile, so the program's heap does
    not change it either.
    """
    table, counts, acc = [0] * 1024, {}, 0.0
    gc.disable()
    try:
        t0 = perf_counter()
        for i in range(REF_ITERATIONS):
            k = (i * 7919) & 1023
            table[k] += i
            counts[k % 1009] = counts.get(k % 1009, 0) + 1
            acc += table[(k * 31) & 1023] * 0.5
        return perf_counter() - t0
    finally:
        gc.enable()


def run_pass(ops, call) -> tuple[dict, list[float], list[float]]:
    """Each op once, with the reference loop timed just before it; returns
    the outcomes, per-op wall times and reference-loop times."""
    from perfbench.workloads import outcome_of

    outcomes, times, refs = {}, [], []
    for op in ops:
        refs.append(reference_loop())
        t0 = perf_counter()
        results = [call(argv) for argv in op.argvs]
        times.append(perf_counter() - t0)
        outcomes[op.key] = outcome_of(op, results)
    return outcomes, times, refs


def traced_pass(ops):
    """One pass with every layer wrapped; returns tracer, outcomes, wall time."""
    from perfbench import tracing
    from perfbench.workloads import call_cli

    tracer = tracing.Tracer()
    tracer.install()
    try:
        outcomes, times, _ = run_pass(ops, tracer.wrap(tracing.CLI_SPAN, call_cli))
    finally:
        tracer.uninstall()
    return tracer, outcomes, sum(times)


def timed_loop(ops, seconds: float):
    """Whole passes over ops until their summed wall time reaches ``seconds``.

    Only whole passes are timed, so every run measures the same work mix
    whatever the program's speed.  Returns the first pass's outcomes, per-op
    wall times and reference-loop times, the pass count, and whether every
    pass reproduced the first.
    """
    from perfbench.workloads import call_cli

    outcomes, times, refs = run_pass(ops, call_cli)
    passes, repeatable = 1, True
    while sum(times) < seconds:
        again, more, more_refs = run_pass(ops, call_cli)
        times += more
        refs += more_refs
        passes += 1
        repeatable &= again == outcomes
    return outcomes, times, refs, passes, repeatable


def percentile_line(times: list[float]) -> str:
    """Median and the highest percentile with at least ten samples above it."""
    ordered = sorted(times)
    n = len(ordered)
    line = f"median {statistics.median(ordered) * 1e3:.1f} ms"
    if n >= 20:
        q = (n - 10) / n
        line += f", p{100 * q:.0f} {ordered[n - 11] * 1e3:.1f} ms"
    return line + f" over {n} ops"


def show(name: str, value, unit: str) -> None:
    text = "n/a" if value is None else (f"{value:.6g}" if isinstance(value, float) else str(value))
    print(f"  {name:<30} {text:>14} {unit}")


def result_line(check, metrics: dict, declared: list[dict]) -> dict:
    return {
        "correct": check.correct,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }


def run_workload(workload, seed: int, seconds: float, trace: bool, bench: dict, env: dict) -> dict:
    from perfbench import workloads

    name = workload.name
    print(f"== {name}  seed {seed}  trace {int(trace)}")
    print("  env " + " ".join(f"{k}={v}" for k, v in env.items()))
    workdir = workdir_for(name)
    try:
        ops = workload.prepare(seed, workdir)
        if trace:
            # Both passes run back to back, so their difference is the
            # tracing overhead alone.
            outcomes, plain, _ = run_pass(ops, workloads.call_cli)
            plain_s = sum(plain)
            tracer, traced, traced_s = traced_pass(ops)
            repeatable = traced == outcomes
        else:
            outcomes, times, refs, passes, repeatable = timed_loop(ops, seconds)
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        check = workloads.check(workload, seed, ops, outcomes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not trace:
        setup_s = statistics.median(setup_sample(name, seed) for _ in range(SETUP_REPEATS))
    check.correct &= repeatable
    if not repeatable:
        check.notes.append("an operation's output changed between repeats")
    for note in check.notes[:20]:
        log(f"{name}: {note}")

    figures = check.figures
    if trace:
        metrics = tracer.metrics()
        verdicts = figures.get("verdicts", {})
        metrics.update({
            "verify.sound": verdicts.get("SOUND", 0),
            "verify.unsound": verdicts.get("UNSOUND", 0),
            "verify.inconclusive": verdicts.get("INCONCLUSIVE", 0),
            "trace.untraced_s": plain_s,
            "trace.traced_s": traced_s,
            "trace.overhead_s": traced_s - plain_s,
            "trace.overhead_share": (traced_s - plain_s) / plain_s,
        })
        for m in bench["per_layer"]:
            show(m["name"], metrics[m["name"]], m["unit"])
        if tracer.defects:
            print("  defects per matching call " + json.dumps(dict(sorted(tracer.defects.items()))))
        path = ROOT / ".perfbench" / f"trace-{name}-s{seed}.jsonl"
        tracer.write(path, {"workload": name, "seed": seed, "env": env, "metrics": metrics,
                            "defects": dict(tracer.defects), "verdicts": verdicts})
        print(f"  spans written to {path.relative_to(ROOT)}")
        declared = bench["per_layer"]
    else:
        busy = sum(times)
        work = passes * sum(op.work for op in ops)
        ref_s = sum(refs) / len(refs)
        metrics = {
            "setup_s": setup_s,
            "throughput": work / busy,
            "relative_throughput": work * ref_s / busy,
            "peak_rss_mb": peak_mb,
        }
        is_sweep = workload.unit == "decodes"
        show("setup_s", setup_s, "s")
        show("throughput", metrics["throughput"], f"{workload.unit}/s")
        show("relative_throughput", metrics["relative_throughput"], f"{workload.unit}/ref")
        show("reference_loop", ref_s * 1e3, "ms")
        show("decodes_per_s", work / busy if is_sweep else None, "1/s")
        show("diagrams_per_s", None if is_sweep else len(times) / busy, "1/s")
        show("peak_rss_mb", peak_mb, "MB")
        show("failed_share", check.failed / check.attempted, "ratio")
        show("approx_share", figures.get("approx_share"), "ratio")
        show("undecided_share", figures.get("undecided_share"), "ratio")
        show("logical_error_rate", figures.get("logical_error_rate"), "ratio")
        print(f"  op latency {percentile_line(times)}, {passes} passes")
        declared = bench["end_to_end"]
    extra = {k: v for k, v in figures.items() if k not in ("approx_share", "undecided_share", "logical_error_rate")}
    if extra:
        print("  " + json.dumps(extra, sort_keys=True))
    result = result_line(check, metrics, declared)
    print(json.dumps(result), flush=True)
    return result


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    load_program()
    from perfbench.workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        raise SystemExit(f"error: unknown workload {args.workload!r}; have {sorted(WORKLOADS)}")
    if args.setup_only:
        workdir = workdir_for("setup")
        try:
            WORKLOADS[names[0]].prepare(args.seed, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    env = environment()
    if env["kernel"] == "pure":
        log("warning: the compiled matching kernel is not built; timing the pure-Python kernel")
    results = {
        n: run_workload(WORKLOADS[n], args.seed, args.seconds, bool(args.trace), bench, env)
        for n in names
    }
    if len(results) > 1:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
