"""Command-line entry point: gen, normalize, verify, metrics, decode, sweep, curvature.

Machine output (JSON/CSV) goes to files or stdout; human-readable logging
goes to stderr.  Every command is deterministic given its flags and seed, so
re-running produces byte-identical outputs.  Exit codes: 0 success, 1 domain
error, 2 usage error, 3 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import datasets, diagram, metrics, rewrite, semantics
from .errors import ResourceCapError, WplzxError
from .masd import (
    NORMALIZED,
    RAW,
    DefectGraph,
    WindingModel,
    lambda_sweep,
    masd_decode,
    sample_surface_code,
)
from .masd import parallel
from .masd.surface import CONSTANT, SWEEP_COLUMNS, TWO_SECTOR, UNIFORM, build_code
from .metrics import METRIC_COLUMNS
from .phase import snap_to_grid


def log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _csv(rows: list[dict], columns: list[str]) -> str:
    lines = [",".join(columns)]
    lines.extend(",".join(_fmt(row[c]) for c in columns) for row in rows)
    return "\n".join(lines) + "\n"


# --- gen ---


def cmd_gen(args) -> int:
    if args.count < 1:
        raise WplzxError(f"--count must be >= 1, got {args.count}")
    flags = ("qubits", "layers", "spiders_min", "spiders_max", "density")
    overrides = {f: getattr(args, f) for f in flags if getattr(args, f) is not None}
    # d1 presets draw diagrams and d2 presets circuits; neither reads the other's knobs
    d1 = args.preset.startswith("d1")
    for f in ("layers",) if d1 else ("spiders_min", "spiders_max", "density"):
        if f in overrides:
            raise WplzxError(f"--{f.replace('_', '-')} has no effect on preset {args.preset}")
    cfg = datasets.preset(args.preset, seed=args.seed, **overrides)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    files = []
    counts = {}
    for i in range(args.count):
        if d1:
            d = datasets.gen_random_wplzx(cfg, instance=i)
            name = f"{args.preset}-s{args.seed}-{i:03d}.diagram.json"
            (out / name).write_text(diagram.serialize(d), encoding="utf-8")
            counts[name] = {"spiders": len(d.spiders), "wires": len(d.far) // 2}
        else:
            c = datasets.gen_hea(cfg, instance=i)
            name = f"{args.preset}-s{args.seed}-{i:03d}.circuit.txt"
            (out / name).write_text(datasets.serialize_circuit(c), encoding="utf-8")
            counts[name] = {"gates": c.gate_count, "cnots": c.cnot_count}
        files.append(name)
    manifest = {
        "preset": args.preset,
        "seed": args.seed,
        "count": args.count,
        "config": {k: v for k, v in asdict(cfg).items() if k != "seed"},
        "files": files,
        "counts": counts,
    }
    (out / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    log(f"wrote {len(files)} files + manifest to {out}")
    return 0


# --- normalize ---


def _load_diagram(path: str) -> diagram.Diagram:
    return diagram.deserialize(Path(path).read_text(encoding="utf-8"))


def cmd_normalize(args) -> int:
    d = _load_diagram(args.input)
    norm, labels, trace = rewrite.wzcc_normalize(d)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "normalized.diagram.json").write_text(diagram.serialize(norm), encoding="utf-8")
    (out / "labels.json").write_text(
        json.dumps([lab.to_json() for lab in labels], sort_keys=True, indent=2) + "\n",
        encoding="utf-8",
    )
    (out / "trace.jsonl").write_text(trace.to_jsonl(), encoding="utf-8")
    log(
        f"normalized {len(d.spiders)} -> {len(norm.spiders)} spiders "
        f"({len(labels)} regions, {len(trace)} rewrites)"
    )
    return 0


# --- verify ---


def cmd_verify(args) -> int:
    d = _load_diagram(args.input)
    if args.trace is not None:
        trace = rewrite.RewriteTrace.from_jsonl(Path(args.trace).read_text(encoding="utf-8"))
        candidate = rewrite.apply_trace(d, trace)
        how = "trace replay"
    else:
        candidate, _, _ = rewrite.wzcc_normalize(d)
        how = "normalization"
    # Exact check: both matrices' residues mod two primes, compared up to one
    # n-th root of unity.  Only a resource cap leaves the question open.
    try:
        primes, n, (before, after) = semantics.exact_residues(d, candidate)
    except ResourceCapError as exc:
        sys.stdout.write(f"verdict INCONCLUSIVE\nmethod {how}\n")
        log(f"resource cap: {exc}")
        return 3
    sound = semantics.congruent_up_to_root_of_unity(after, before, primes, n)
    zero_map = not any(b.any() for b in before)
    sys.stdout.write(
        f"verdict {'SOUND' if sound else 'UNSOUND'}\nmethod {how}\n"
        f"primes {primes[0]},{primes[1]}\nzero_map {str(zero_map).lower()}\n"
    )
    return 0 if sound else 1


# --- metrics ---


def _pair_files(raw: str, opt: str) -> list[tuple[Path, Path]]:
    rp, op = Path(raw), Path(opt)
    if rp.is_file() and op.is_file():
        return [(rp, op)]
    if rp.is_dir() and op.is_dir():
        raws = sorted(p for p in rp.iterdir() if p.name != "manifest.json" and p.is_file())
        opts = sorted(p for p in op.iterdir() if p.name != "manifest.json" and p.is_file())
        if len(raws) != len(opts):
            raise WplzxError(
                f"pairing mismatch: {len(raws)} raw files vs {len(opts)} optimized"
            )
        return list(zip(raws, opts))
    raise WplzxError("--raw and --opt must both be files or both directories")


def _state_of(d: diagram.Diagram) -> np.ndarray | None:
    """The normalized |0..0>-column state of d, contracted in double
    precision, or None past a resource cap.  The column must be nonzero, as
    it is for a circuit's diagram, a nonzero multiple of a unitary."""
    try:
        state = semantics.evaluate(d)[:, 0]
    except ResourceCapError:
        return None
    return state / np.linalg.norm(state)


def _proven_state_of(d: diagram.Diagram) -> np.ndarray | None:
    """``_state_of(d)`` when d's |0..0> column is proven nonzero: its
    ``exact_residues`` are not all zero.  None when they are all zero, when
    no primes exist for d or past a resource cap."""
    try:
        _, _, (residues,) = semantics.exact_residues(d)
    except ResourceCapError:
        return None
    if not any(r[:, 0].any() for r in residues):
        return None
    return _state_of(d)


def _metric_row(idx: int, raw_path: Path, opt_path: Path, grid: int) -> dict:
    seed = idx
    for tok in raw_path.stem.split("-"):
        if tok.startswith("s") and tok[1:].isdigit():
            seed = int(tok[1:])
            break
    if raw_path.suffix == ".txt" or raw_path.name.endswith(".circuit.txt"):
        raw_c = datasets.parse_circuit(raw_path.read_text(encoding="utf-8"))
        opt_c = datasets.parse_circuit(opt_path.read_text(encoding="utf-8"))
        phases, snapped = datasets.snapped_phases(raw_c, lambda q: grid)
        raw_d = datasets.circuit_to_diagram(raw_c)
        opt_d = datasets.circuit_to_diagram(opt_c)
        counts = (raw_c.gate_count, opt_c.gate_count, raw_c.cnot_count, opt_c.cnot_count)
        state_of = _state_of
    else:
        raw_d = diagram.deserialize(raw_path.read_text(encoding="utf-8"))
        opt_d = diagram.deserialize(opt_path.read_text(encoding="utf-8"))
        phases = [rewrite.node_total_angle(n).radians() for n in raw_d.spiders]
        grids = [n.label.grid for n in raw_d.spiders]
        snapped = [snap_to_grid(t, a).radians() for t, a in zip(phases, grids)]
        counts = (len(raw_d.spiders), len(opt_d.spiders), 0, 0)
        state_of = _proven_state_of
    row = dict(zip(METRIC_COLUMNS, (seed, raw_d.n_inputs, len(raw_d.spiders))))
    row.update(metrics.report(phases, snapped, *counts, state_of(raw_d), state_of(opt_d)))
    return row


def cmd_metrics(args) -> int:
    if args.grid < 1:
        raise WplzxError(f"--grid must be >= 1, got {args.grid}")
    pairs = _pair_files(args.raw, args.opt)
    rows = [
        _metric_row(i, rp, op, args.grid) for i, (rp, op) in enumerate(pairs)
    ]
    text = _csv(rows, METRIC_COLUMNS)
    # Footer rows: a label under the seed, blanks under the sizes, and each
    # report column's statistic over its non-nan values.
    for label, stat in (("mean", lambda v: float(np.mean(v))), ("stddev", statistics.pstdev)):
        cells = [label, "", ""]
        for col in METRIC_COLUMNS[3:]:
            vals = [row[col] for row in rows if not np.isnan(row[col])]
            cells.append(stat(vals) if vals else float("nan"))
        text += ",".join(map(_fmt, cells)) + "\n"
    _write_text(args.out, text)
    log(f"metrics over {len(rows)} pairs")
    return 0


# --- decode / sweep ---


def cmd_decode(args) -> int:
    g = DefectGraph.deserialize(Path(args.graph).read_text(encoding="utf-8"))
    matching, report = masd_decode(g, args.lam, mode=args.mode, beta=args.beta)
    lines = [
        "pairs " + ";".join(f"{u}-{v}" for u, v in matching.pairs),
        f"total_cost {matching.total_cost!r}",
        f"exact {matching.exact}",
        f"drg_toy {report.drg_toy!r}",
        f"drg_pm {report.drg_pm!r}",
        f"mode {args.mode}",
        f"lambda {args.lam!r}",
    ]
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


def _winding_model(args) -> WindingModel:
    return WindingModel(
        kind=args.winding,
        a=args.winding_a,
        k_left=args.k_left,
        k_right=args.k_right,
        k_const=args.k_const,
    )


def cmd_curvature(args) -> int:
    from .geometry import curvature_sweep

    for flag, x in (("--lo", args.lo), ("--hi", args.hi)):
        if not 0.0 < x <= 1.0:
            raise WplzxError(f"{flag} must lie in (0, 1], got {x}")
    if args.points < 0:
        raise WplzxError(f"--points must be >= 0, got {args.points}")
    vals = [float(x) for x in np.linspace(args.lo, args.hi, args.points)]
    rows = curvature_sweep(vals, vals)
    cols = ["lambda_perp", "lambda_par", "b_eff", "R", "grad_norm"]
    _write_text(args.out, _csv(rows, cols))
    log(f"curvature landscape over {len(rows)} grid points")
    return 0


def _float_list(text: str) -> list[float]:
    """A comma-separated list of floats; empty items are skipped."""
    try:
        return [float(tok) for tok in text.split(",") if tok != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float list: {text!r}") from None


def cmd_sweep(args) -> int:
    lambdas = args.lambdas
    if not lambdas:
        raise WplzxError("empty lambda list")
    if args.trials < 1:
        raise WplzxError(f"--trials must be >= 1, got {args.trials}")
    code = build_code(args.distance)
    model = _winding_model(args)
    workers = parallel.worker_count(args.trials)
    rows = reason = None
    if workers > 1:
        rows = parallel.forked_sweep(
            code, args.p, args.seed, model, args.trials, lambdas,
            args.mode, args.beta, workers,
        )
        if isinstance(rows, str):
            rows, reason = None, rows
    if rows is None:
        # The one path that raises a sweep's errors: not inside an except
        # block, so a traceback carries no context from the workers.
        instances = [
            sample_surface_code(args.distance, args.p, args.seed, trial=t, winding=model, code=code)
            for t in range(args.trials)
        ]
        rows = lambda_sweep(instances, lambdas, mode=args.mode, beta=args.beta, code=code)
        if reason is not None:
            log(f"{reason}; swept serially")
        workers = 1
    _write_text(args.out, _csv(rows, SWEEP_COLUMNS))
    log(
        f"swept {len(lambdas)} lambda values over {args.trials} trials "
        f"on {workers} worker{'s' if workers > 1 else ''}"
    )
    return 0


# --- parser ---


class _Command(argparse.ArgumentParser):
    """A subcommand's parser that keeps each flag's action by its dest, so a
    --config value can go through the flag's type and choices."""

    def __init__(self, **kwargs) -> None:
        self.flags: dict[str, argparse.Action] = {}
        super().__init__(**kwargs)

    def add_argument(self, *args, **kwargs) -> argparse.Action:
        action = super().add_argument(*args, **kwargs)
        self.flags[action.dest] = action
        return action


def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser; ``commands`` maps each subcommand to its parser."""
    p = argparse.ArgumentParser(prog="wplzx", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Command)

    g = sub.add_parser("gen", help="generate a seeded corpus")
    g.add_argument("--preset", required=True, choices=sorted(datasets.PRESETS))
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--count", type=int, default=1)
    g.add_argument("--out", required=True)
    g.add_argument("--qubits", type=int)
    g.add_argument("--layers", type=int)
    g.add_argument("--spiders-min", type=int)
    g.add_argument("--spiders-max", type=int)
    g.add_argument("--density", type=float)
    g.set_defaults(func=cmd_gen)

    n = sub.add_parser("normalize", help="normalize a diagram file")
    n.add_argument("--input", required=True)
    n.add_argument("--out", required=True)
    n.set_defaults(func=cmd_normalize)

    v = sub.add_parser("verify", help="matrix-check a normalization or trace replay")
    v.add_argument("--input", required=True)
    v.add_argument("--trace")
    v.set_defaults(func=cmd_verify)

    m = sub.add_parser("metrics", help="compression/fidelity metrics over pairs")
    m.add_argument("--raw", required=True)
    m.add_argument("--opt", required=True)
    m.add_argument("--grid", type=int, default=8, help="grid order for phase alignment")
    m.add_argument("--out", default="-")
    m.set_defaults(func=cmd_metrics)

    d = sub.add_parser("decode", help="decode one defect-graph file")
    d.add_argument("--graph", required=True)
    d.add_argument("--lambda", dest="lam", type=float, default=0.0)
    d.add_argument("--mode", choices=[NORMALIZED, RAW], default=NORMALIZED)
    d.add_argument("--beta", type=float, default=1.0)
    d.add_argument("--out", default="-")
    d.set_defaults(func=cmd_decode)

    s = sub.add_parser("sweep", help="Monte-Carlo lambda sweep on surface codes")
    s.add_argument(
        "--lambdas", required=True, type=_float_list, help="comma-separated lambda grid"
    )
    s.add_argument("--distance", type=int, default=3)
    s.add_argument("--p", type=float, default=0.05)
    s.add_argument("--trials", type=int, default=100)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--mode", choices=[NORMALIZED, RAW], default=NORMALIZED)
    s.add_argument("--beta", type=float, default=1.0)
    s.add_argument("--winding", choices=[UNIFORM, TWO_SECTOR, CONSTANT], default=TWO_SECTOR)
    s.add_argument("--winding-a", type=int, default=8)
    s.add_argument("--k-left", type=int, default=0)
    s.add_argument("--k-right", type=int, default=1)
    s.add_argument("--k-const", type=int, default=0)
    s.add_argument("--out", default="-")
    s.set_defaults(func=cmd_sweep)

    c = sub.add_parser("curvature", help="curvature landscape CSV over anisotropy grid")
    c.add_argument("--lo", type=float, default=0.1)
    c.add_argument("--hi", type=float, default=1.0)
    c.add_argument("--points", type=int, default=10)
    c.add_argument("--out", default="-")
    c.set_defaults(func=cmd_curvature)

    p.commands = {"gen": g, "normalize": n, "verify": v, "metrics": m, "decode": d,
                  "sweep": s, "curvature": c}
    for command in p.commands.values():
        command.add_argument("--config", help="JSON file of flag overrides applied as defaults")
    return p


def _config_value(action: argparse.Action, value):
    """A --config value parsed as the flag would parse it on the command line:
    a JSON string or non-bool number, as text, through the flag's type, then
    checked against its choices."""
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise ValueError(f"expected a string or a number, got {json.dumps(value)}")
    value = str(value)
    if action.type is not None:
        value = action.type(value)
    if action.choices is not None and value not in action.choices:
        choices = ", ".join(map(repr, action.choices))
        raise ValueError(f"invalid choice: {value!r} (choose from {choices})")
    return value


def _with_config(parser: argparse.ArgumentParser, args, argv: list) -> argparse.Namespace:
    """``argv`` parsed again with the values of the --config file as the
    chosen command's defaults, so explicit flags still win.  A key that no
    flag of that command sets (``help`` and ``config`` included), or a value
    its flag would reject, is a usage error."""
    path = args.config
    try:
        overrides = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        parser.error(f"--config {path}: {exc}")
    if not isinstance(overrides, dict):
        parser.error(f"--config {path}: top-level value must be an object")
    command = parser.commands[args.command]
    defaults = {}
    for key, value in overrides.items():
        if key not in command.flags or key in ("help", "config"):
            parser.error(f"--config {path}: {key}: no flag of {args.command} sets it")
        try:
            defaults[key] = _config_value(command.flags[key], value)
        except (ValueError, TypeError, argparse.ArgumentTypeError) as exc:
            parser.error(f"--config {path}: {key}: {exc}")
    command.set_defaults(**defaults)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config is not None:
        args = _with_config(parser, args, argv)
    try:
        return args.func(args)
    except ResourceCapError as exc:
        log(f"resource cap: {exc}")
        return 3
    except (WplzxError, OSError) as exc:
        log(f"error: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
