"""Command-line front end: dataset generation, single sessions, multi-run
experiments, ablation sweeps, calibration sweeps, and report emission.

Subcommands
-----------
generate    write a patient cohort + history store to a JSON file
run         simulate one session, emit metrics JSON (optionally a trace CSV)
experiment  N sessions of one strategy -> runs.jsonl + summary tables
ablation    the four memory/drift variants of the adaptive strategy
compare     Welch t / Cohen's d between two experiment directories
calibrate   grid-sweep drift constants against target outcome statistics

Exit codes: 0 success, 2 usage error, 3 validation error, 4 I/O error.

All outputs are deterministic for fixed inputs (manifest timestamps aside)
and files are written atomically (temp file + rename).  Config precedence is
CLI flag > config file > built-in default; the effective config is echoed in
every experiment manifest.
"""

from __future__ import annotations

import argparse
import csv
import datetime as _dt
import hashlib
import io
import json
import math
import multiprocessing
import os
import sys
from pathlib import Path

import numpy as np

from .assignment import Physician, default_roster
from .engine import ABLATION_VARIANTS, TRACE_FIELDS, SessionMetrics, Strategy, StrategyConfig, run_session
from .errors import ValidationError
from .patients import (
    Specialty,
    UrgencyLevel,
    dataset_fingerprint,
    dataset_from_dict,
    dataset_to_dict,
    generate_dataset,
)
from .stats import summarize_runs, summary_table, welch_t
from .triage import DriftParams
from . import __version__

DEFAULT_DATASET_SEED = 42
DEFAULT_RUNS = 30
DEFAULT_BASE_SEED = 1000
DEFAULT_CALIBRATE_RUNS = 10

# Targets for `calibrate`, taken from the published outcome statistics the
# drift constants are meant to reproduce.
DEFAULT_TARGET_DRIFTS = 235.6
DEFAULT_TARGET_CRIT = 24.9


# ---------------------------------------------------------------------------
# small file helpers


def _atomic_write_text(path: Path, text: str) -> None:
    """Write via temp file + rename so readers never see a partial file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _atomic_write_json(path: Path, obj) -> None:
    _atomic_write_text(path, _json_text(obj))


def _csv_text(header: list, rows) -> str:
    """One CSV document in the csv module's default dialect (`\\r\\n` rows)."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _refuse_constant(name: str):
    raise ValidationError(f"{name} is not a valid JSON number")


def _read_json(path: Path):
    try:
        return json.loads(Path(path).read_text(), parse_constant=_refuse_constant)
    except (json.JSONDecodeError, ValidationError) as exc:
        raise ValidationError(f"{path}: not valid JSON ({exc})") from exc


# ---------------------------------------------------------------------------
# config / roster / dataset loading


def _load_config(args) -> StrategyConfig:
    """CLI flag > config file > built-in default."""
    base = _read_json(Path(args.config)) if args.config else {}
    if not isinstance(base, dict):
        raise ValidationError(f"{args.config}: config must be a JSON object")
    if args.strategy:
        base["strategy"] = args.strategy
    if args.no_memory:
        base["memory_enabled"] = False
    if args.no_drift:
        base["drift_enabled"] = False
    config = StrategyConfig.from_dict(base)
    if (args.no_memory or args.no_drift) and config.strategy is not Strategy.AGENTIC:
        print(
            f"warning: --no-memory/--no-drift are redundant for "
            f"{config.strategy.value} (it has no reassessment loop)",
            file=sys.stderr,
        )
    return config


def _load_roster(path: str | None) -> list[Physician]:
    if path is None:
        return default_roster()
    raw = _read_json(Path(path))
    if not isinstance(raw, list) or not raw:
        raise ValidationError(f"{path}: roster must be a non-empty JSON list")
    roster = []
    for row in raw:
        try:
            roster.append(
                Physician(physician_id=row["id"], specialty=Specialty(row["specialty"]))
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"{path}: bad roster row {row!r} ({exc})") from exc
    ids = [p.physician_id for p in roster]
    if not all(type(i) is str and i for i in ids) or len(set(ids)) != len(ids):
        raise ValidationError(f"{path}: roster ids must be unique non-empty strings, got {ids!r}")
    return roster


def _roster_rows(roster: list[Physician]) -> list[dict]:
    return [{"id": p.physician_id, "specialty": p.specialty.value} for p in roster]


def _load_dataset(path: str | None):
    if path is None:
        return generate_dataset(DEFAULT_DATASET_SEED)
    return dataset_from_dict(_read_json(Path(path)))


# ---------------------------------------------------------------------------
# manifest


def build_manifest(
    config: StrategyConfig,
    dataset_fp: str,
    roster: list[Physician],
    base_seed: int,
    n_runs: int,
) -> dict:
    """Reproducibility envelope for an experiment directory.

    `compat_hash` covers everything two directories must share for a paired
    comparison to be meaningful: cohort, roster, seed ladder and code version
    — but not the strategy config (comparing strategies is the whole point)
    and not the wall-clock timestamp.  NumPy does not promise the same
    random streams across releases, so its version is recorded beside it.
    """
    seeds = list(range(base_seed, base_seed + n_runs))
    roster_fp = _sha256(_canonical_json(_roster_rows(roster)))
    compat = _sha256(
        _canonical_json(
            {
                "dataset": dataset_fp,
                "roster": roster_fp,
                "seeds": seeds,
                "version": __version__,
            }
        )
    )
    return {
        "code_version": __version__,
        "config": config.to_dict(),
        "dataset_fingerprint": dataset_fp,
        "roster_fingerprint": roster_fp,
        "base_seed": base_seed,
        "n_runs": n_runs,
        "seeds": seeds,
        "compat_hash": compat,
        "numpy_version": np.__version__,
        "bit_generator": type(np.random.default_rng(0).bit_generator).__name__,
        "created_at": _dt.datetime.now(_dt.timezone.utc).isoformat(timespec="seconds"),
    }


# ---------------------------------------------------------------------------
# experiment plumbing
#
# One runner serves experiment, ablation and calibrate.  `_init_worker` hands
# each process the cohort, the command's configs and the roster once; a task
# is then a (config index, seed) pair.
#
# perfbench/run.py times each session by wrapping `_worker_run` and
# `_run_many`, looked up by name on this module, and pops its stamps from the
# flat list `_run_many` returns.  Renaming either one, changing their
# one-task-in, one-dict-out shape or nesting that list silently drops
# session_ms_p50/p90 from the experiment_serial and experiment_parallel
# workloads.

# The columns of escalations.csv; a worker's escalation row leaves out the run seed.
ESCALATION_FIELDS = ("run_seed", "time", "patient_id", "from_level", "to_level", "cause")

# (patients, history, configs, roster) of the current command.  `_run_many`
# sets it in every process before its first run, so no run reads another's.
_shared: tuple = ()


def _init_worker(patients, history, configs, roster) -> None:
    """Pool initializer; under fork its arguments are inherited, not pickled."""
    global _shared
    _shared = (patients, history, configs, roster)


def _worker_run(task: tuple[int, int]) -> dict:
    """Task `(cell, seed)`: one session of `configs[cell]`; top-level so it
    pickles by name.  Escalations are rows in `ESCALATION_FIELDS[1:]` order."""
    patients, history, configs, roster = _shared
    cell, seed = task
    result = run_session(patients, history, configs[cell], seed, roster=roster)
    return {
        "metrics": result.metrics.to_dict(),
        "critical_waits": result.critical_waits,
        "overall_waits": result.overall_waits,
        "escalations": [
            [round(e.time, 4), e.patient_id, e.from_level._value_, e.to_level._value_, e.cause]
            for e in result.escalations
        ],
    }


def _run_many(patients, history, configs, roster, base_seed, n_runs, workers) -> list[dict]:
    """`n_runs` sessions of each config, in seed order, config after config."""
    if n_runs < 1:
        raise ValidationError(f"--runs must be at least 1, got {n_runs}")
    if workers < 1:
        raise ValidationError(f"--workers must be at least 1, got {workers}")
    tasks = [(cell, s) for cell in range(len(configs)) for s in range(base_seed, base_seed + n_runs)]
    shared = (patients, history, configs, roster)
    # pool.map keeps task order, so the worker count never changes the output
    workers = min(workers, len(tasks))
    if workers > 1:
        with multiprocessing.Pool(workers, _init_worker, shared) as pool:
            return pool.map(_worker_run, tasks, chunksize=1)
    _init_worker(*shared)
    return [_worker_run(t) for t in tasks]


def _experiment_dir(out_dir: Path, manifest: dict, run_payloads: list[dict]) -> dict:
    """Write one config's runs.jsonl + waits.json + escalations.csv +
    summary.csv + manifest.json from its payloads, in seed order; return its
    summaries."""
    compat = manifest["compat_hash"]
    lines, esc_rows = [], []
    for payload, seed in zip(run_payloads, manifest["seeds"], strict=True):
        row = dict(payload["metrics"])
        row["manifest"] = compat
        lines.append(_canonical_json(row))
        esc_rows.extend([seed, *e] for e in payload["escalations"])
    _atomic_write_text(out_dir / "runs.jsonl", "\n".join(lines) + "\n")
    _atomic_write_json(
        out_dir / "waits.json",
        {
            "manifest": compat,
            "critical": [p["critical_waits"] for p in run_payloads],
            "overall": [p["overall_waits"] for p in run_payloads],
        },
    )
    _atomic_write_text(out_dir / "escalations.csv", _csv_text(ESCALATION_FIELDS, esc_rows))
    summaries = summarize_runs([SessionMetrics(**p["metrics"]) for p in run_payloads])
    rows = [[name, f"{s.mean:.6f}", f"{s.std:.6f}", s.n] for name, s in summaries.items()]
    summary = f"# manifest: {compat}\n" + _csv_text(["metric", "mean", "std", "n"], rows)
    _atomic_write_text(out_dir / "summary.csv", summary)
    _atomic_write_json(out_dir / "manifest.json", manifest)
    return summaries


def _read_experiment(d: Path) -> tuple[dict, dict]:
    """The manifest and waits `_experiment_dir` wrote to `d`, refused unless
    the waits carry the manifest's compat_hash and n_runs lists of numbers."""
    manifest, waits = _read_json(d / "manifest.json"), _read_json(d / "waits.json")
    try:
        n_runs, columns = manifest["n_runs"], (waits["critical"], waits["overall"])
        ok = waits["manifest"] == manifest["compat_hash"]
        ok = ok and type(manifest["config"]["strategy"]) is str and type(n_runs) is int
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"{d}: not an experiment directory ({exc!r})") from exc
    if not ok or not all(
        type(runs) is list and len(runs) == n_runs
        and all(type(r) is list and all(type(w) in (int, float) for w in r) for r in runs)
        for runs in columns
    ):
        raise ValidationError(f"{d}: waits.json is not {n_runs} runs of this manifest")
    return manifest, waits


# ---------------------------------------------------------------------------
# subcommand handlers


def cmd_generate(args) -> int:
    patients, history = generate_dataset(args.seed)
    _atomic_write_json(Path(args.out), dataset_to_dict(patients, history))
    counts = {lvl.value: 0 for lvl in UrgencyLevel}
    for p in patients:
        counts[p.face_urgency.value] += 1
    print(f"wrote {args.out}: {len(patients)} patients, {len(history)} history records")
    print("face urgency counts:", _canonical_json(counts))
    print("fingerprint:", dataset_fingerprint(patients, history))
    return 0


def cmd_run(args) -> int:
    patients, history = _load_dataset(args.dataset)
    config = _load_config(args)
    roster = _load_roster(args.roster)
    trace = args.trace or args.trace_out is not None  # a trace path asks for the trace
    result = run_session(patients, history, config, args.seed, roster=roster, collect_trace=trace)
    metrics_json = _json_text(result.metrics.to_dict())
    if args.out:
        _atomic_write_text(Path(args.out), metrics_json)
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(metrics_json)
    if trace:
        trace_path = Path(args.trace_out or _default_trace_path(args.out))
        rows = (row.values() for row in result.trace)  # in TRACE_FIELDS order
        _atomic_write_text(trace_path, _csv_text(TRACE_FIELDS, rows))
        print(f"wrote {trace_path}", file=sys.stderr)
    m = result.metrics
    avg_wait = "n/a" if m.avg_wait is None else f"{m.avg_wait:.1f} min"
    print(
        f"{m.strategy} seed={m.seed}: served {m.served_count}, "
        f"avg wait {avg_wait}, escalations {m.escalation_count}",
        file=sys.stderr,
    )
    return 0


def _default_trace_path(out: str | None) -> str:
    if not out:
        return "trace.csv"
    p = Path(out)
    return str(p.with_name(p.stem + ".trace.csv"))


def cmd_experiment(args) -> int:
    patients, history = _load_dataset(args.dataset)
    config = _load_config(args)
    roster = _load_roster(args.roster)
    dataset_fp = dataset_fingerprint(patients, history)
    manifest = build_manifest(config, dataset_fp, roster, args.base_seed, args.runs)
    payloads = _run_many(patients, history, [config], roster, args.base_seed, args.runs, args.workers)
    summaries = _experiment_dir(Path(args.out_dir), manifest, payloads)
    print(f"wrote {args.out_dir} ({args.runs} runs of {config.strategy.value})")
    print(summary_table({config.strategy.value: summaries}))
    return 0


def cmd_ablation(args) -> int:
    patients, history = _load_dataset(args.dataset)
    roster = _load_roster(args.roster)
    dataset_fp = dataset_fingerprint(patients, history)
    configs = [StrategyConfig(strategy=Strategy.AGENTIC, **f) for f in ABLATION_VARIANTS.values()]
    # every session of every variant runs before the first file is written
    payloads = _run_many(patients, history, configs, roster, args.base_seed, args.runs, args.workers)
    all_summaries = {}
    for k, name in enumerate(ABLATION_VARIANTS):
        manifest = build_manifest(configs[k], dataset_fp, roster, args.base_seed, args.runs)
        all_summaries[name] = _experiment_dir(
            Path(args.out_dir) / name, manifest, payloads[k * args.runs:(k + 1) * args.runs]
        )
    fields = [
        "escalation_count",
        "drift_event_count",
        "memory_escalation_count",
        "composition_critical",
        "avg_wait",
        "critical_wait_mean",
        "throughput_per_hour",
    ]
    table = summary_table(all_summaries, fields=fields)
    rows = ([name] + [f"{summaries[f].mean:.4f}" for f in fields]
            for name, summaries in all_summaries.items())
    _atomic_write_text(
        Path(args.out_dir) / "ablation_summary.csv", _csv_text(["variant"] + fields, rows)
    )
    print(f"wrote {args.out_dir} (4 variants x {args.runs} runs)")
    print(table)
    return 0


def cmd_compare(args) -> int:
    manifests, waits = zip(*(_read_experiment(Path(d)) for d in (args.dir_a, args.dir_b)))
    if manifests[0]["n_runs"] != manifests[1]["n_runs"]:
        raise ValidationError(
            f"run-count mismatch: {manifests[0]['n_runs']} vs {manifests[1]['n_runs']}"
        )
    if manifests[0]["compat_hash"] != manifests[1]["compat_hash"]:
        raise ValidationError(
            "manifest mismatch: directories were built from different cohorts, "
            "rosters, seed ladders or code versions"
        )
    for field in ("numpy_version", "bit_generator"):
        a, b = (m.get(field) for m in manifests)
        if a is not None and b is not None and a != b:
            raise ValidationError(f"{field} mismatch: {a} vs {b}; the random streams may differ")
    key = {"critical-wait": "critical", "overall-wait": "overall"}[args.metric]
    sample_a = [w for run in waits[0][key] for w in run]
    sample_b = [w for run in waits[1][key] for w in run]
    res = welch_t(sample_a, sample_b)
    header = ["metric", "arm_a", "arm_b", "mean_a", "mean_b", "t", "df", "p", "cohen_d", "n_a", "n_b"]
    row = [
        args.metric,
        manifests[0]["config"]["strategy"],
        manifests[1]["config"]["strategy"],
        f"{res.mean_a:.4f}",
        f"{res.mean_b:.4f}",
        f"{res.t_stat:.4f}",
        f"{res.df:.2f}",
        f"{res.p_value:.6g}",
        f"{res.cohen_d:.4f}",
        res.n_a,
        res.n_b,
    ]
    print("  ".join(header))
    print("  ".join(str(c) for c in row))
    if args.out:
        _atomic_write_text(Path(args.out), _csv_text(header, [row]))
    return 0


def _parse_floats(text: str, flag: str) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValidationError(f"{flag}: expected comma-separated numbers, got {text!r}") from exc
    if not values:
        raise ValidationError(f"{flag}: empty grid")
    return list(dict.fromkeys(values))  # a repeated value would run its cells twice


def cmd_calibrate(args) -> int:
    targets = (("--target-drifts", args.target_drifts), ("--target-crit", args.target_crit))
    for flag, target in targets:
        if not 0 < target < math.inf:  # NaN fails both comparisons
            raise ValidationError(f"{flag} must be a positive finite number, got {target}")
    patients, history = _load_dataset(args.dataset)
    roster = _load_roster(args.roster)
    kappas = _parse_floats(args.kappas, "--kappas")
    p_hists = _parse_floats(args.p_hists, "--p-hists")
    # every cell is checked before the first session runs
    drifts = [DriftParams(history_multiplier=k, p_history_escalation=p)
              for k in kappas for p in p_hists]
    configs = [StrategyConfig(strategy=Strategy.AGENTIC, drift=drift) for drift in drifts]
    payloads = _run_many(patients, history, configs, roster, args.base_seed, args.runs, args.workers)
    rows = []
    for k, drift in enumerate(drifts):
        cell = payloads[k * args.runs:(k + 1) * args.runs]
        summaries = summarize_runs([SessionMetrics(**p["metrics"]) for p in cell])
        esc, crit = summaries["escalation_count"].mean, summaries["composition_critical"].mean
        dist = (
            abs(esc - args.target_drifts) / args.target_drifts
            + abs(crit - args.target_crit) / args.target_crit
        )
        rows.append((drift.history_multiplier, drift.p_history_escalation, esc, crit, dist, drift))
    best = min(rows, key=lambda row: row[4])  # the first of equal distances
    print("kappa  p_hist  escalations  critical  distance")
    for row in rows:
        mark = "  <-- chosen" if row is best else ""
        # repr is the shortest text that reads back as the same float, so
        # distinct cells never print alike.
        print("{!r:>5}  {!r:>6}  {:11.1f}  {:8.2f}  {:8.4f}".format(*row[:5]) + mark)
    if args.out:
        _atomic_write_json(Path(args.out), {"drift": best[5].to_dict()})
        print(f"wrote {args.out}")
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_dataset_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dataset", help="cohort JSON from `generate` (default: built-in seed-42 cohort)")
    p.add_argument("--roster", help="physician roster JSON: list of {id, specialty}")


def _add_experiment_flags(p: argparse.ArgumentParser, runs: int = DEFAULT_RUNS) -> None:
    p.add_argument("--runs", type=int, default=runs, help="number of sessions (default %(default)s)")
    p.add_argument("--base-seed", type=int, default=DEFAULT_BASE_SEED,
                   help="seeds are base, base+1, ... (default %(default)s)")
    p.add_argument("--workers", type=int, default=1, help="parallel worker processes (default 1)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opdsim",
        description="Outpatient-department queueing simulator: FCFS vs rule-based "
        "vs adaptive (memory + deterioration-aware) triage.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a patient cohort JSON file")
    p.add_argument("--seed", type=int, required=True, help="cohort RNG seed")
    p.add_argument("--out", default="dataset.json", help="output path (default %(default)s)")
    p.set_defaults(handler=cmd_generate)

    p = sub.add_parser("run", help="simulate a single session")
    p.add_argument("--strategy", choices=[s.value for s in Strategy], help="queueing strategy")
    p.add_argument("--seed", type=int, required=True, help="session RNG seed")
    p.add_argument("--config", help="strategy config JSON (CLI flags win)")
    p.add_argument("--out", help="metrics JSON path (default: stdout)")
    p.add_argument("--no-memory", action="store_true", help="disable history escalation")
    p.add_argument("--no-drift", action="store_true", help="disable deterioration checks")
    p.add_argument("--trace", action="store_true", help="also write a CSV event log")
    p.add_argument("--trace-out", help="trace path, implies --trace (default: <out>.trace.csv)")
    _add_dataset_flags(p)
    p.set_defaults(handler=cmd_run)

    p = sub.add_parser("experiment", help="N sessions of one strategy -> report dir")
    p.add_argument("--strategy", choices=[s.value for s in Strategy], required=True)
    p.add_argument("--config", help="strategy config JSON (CLI flags win)")
    p.add_argument("--no-memory", action="store_true", help="disable history escalation")
    p.add_argument("--no-drift", action="store_true", help="disable deterioration checks")
    p.add_argument("--out-dir", required=True, help="report directory")
    _add_experiment_flags(p)
    _add_dataset_flags(p)
    p.set_defaults(handler=cmd_experiment)

    p = sub.add_parser("ablation", help="memory/drift ablation grid of the adaptive strategy")
    p.add_argument("--out-dir", required=True, help="report directory (one subdir per variant)")
    _add_experiment_flags(p)
    _add_dataset_flags(p)
    p.set_defaults(handler=cmd_ablation)

    p = sub.add_parser("compare", help="Welch t / Cohen's d between two experiment dirs")
    p.add_argument("dir_a")
    p.add_argument("dir_b")
    p.add_argument("--metric", choices=["critical-wait", "overall-wait"],
                   default="critical-wait")
    p.add_argument("--out", help="optional CSV output path")
    p.set_defaults(handler=cmd_compare)

    p = sub.add_parser("calibrate", help="sweep drift constants against target statistics")
    p.add_argument("--kappas", default="1.0,1.2,1.5",
                   help="comma-separated history multipliers (default %(default)s)")
    p.add_argument("--p-hists", default="0.145,0.5,1.0",
                   help="comma-separated history-escalation probabilities (default %(default)s)")
    p.add_argument("--target-drifts", type=float, default=DEFAULT_TARGET_DRIFTS,
                   help="target mean escalation count (default %(default)s)")
    p.add_argument("--target-crit", type=float, default=DEFAULT_TARGET_CRIT,
                   help="target mean final critical count (default %(default)s)")
    p.add_argument("--out", help="write the chosen constants as a config fragment JSON")
    _add_experiment_flags(p, runs=DEFAULT_CALIBRATE_RUNS)
    _add_dataset_flags(p)
    p.set_defaults(handler=cmd_calibrate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
