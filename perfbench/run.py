#!/usr/bin/env python3
"""opdsim benchmark: session throughput, experiment wall time, per-module spans.

    python3 perfbench/run.py --workload agentic_sessions --seed 0 --seconds 20 --trace 0

Run from the root of a checkout.  opdsim is imported from `src/` beside this
directory, never from an installed copy.  `--seed` picks the session-seed
ladder (30 seeds starting at 1000 + 30 * seed) over the seed-42 cohort and
the default roster.  With `--trace 0` the run prints the end-to-end metrics;
with `--trace 1` it alternates untraced and traced passes and prints the
per-layer metrics and the tracing overhead.  Every session is checked for
patient conservation and determinism; at the default seed the outputs must
also match the digests pinned in `pins.json`.  Human-readable lines come
first; the last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  Exit status: 0 when every output is
correct, 1 when some output is wrong, 2 when the benchmark cannot start.
README.md in this directory explains each workload and metric.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import heapq
import importlib
import io
import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy

from tracing import Tracer, layer_metrics

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
TMP_DIR = ROOT / ".bench_tmp"
PINS = BENCH_DIR / "pins.json"

COHORT_SEED = 42
LADDER_BASE = 1000
LADDER_LEN = 30
DEFAULT_SEED = 0
SETUP_REPS = 15
WARMUP_SESSIONS = 3
EXPERIMENT_FILES = ("runs.jsonl", "waits.json", "escalations.csv", "summary.csv")
# Reference speed: the kernel in `reference_kernel` takes REF_MS.  That is
# about its time on a shared 2-vCPU Intel Xeon VM; never change it, or every
# time reported before the change stops being comparable.
REF_MS = 1.0
HALF_WINDOW = 4  # ticks on each side of a session that set its speed
BRACKET_TICKS = 4  # ticks before and after a unit timed without inner ticks


class BenchError(Exception):
    """The benchmark cannot run here (no opdsim sources, unreadable pins)."""


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def sha256(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def median(xs) -> float:
    return statistics.median(xs)


def p90(xs) -> float:
    return statistics.quantiles(xs, n=10)[8]


# ---------------------------------------------------------------------------
# reference speed

_PROFILE_T = numpy.array([0.0, 90.0, 360.0])
_PROFILE_RATE = numpy.array([0.8, 1.6, 0.4])


class _Entry:
    __slots__ = ("pid", "since", "priority", "desk")

    def __init__(self, pid: int, since: float, desk: int):
        self.pid, self.since, self.priority, self.desk = pid, since, 0.0, desk


def reference_kernel() -> None:
    """About a millisecond of fixed work of the three kinds opdsim spends
    its time on: an event calendar (heap of tuples, numpy scalar draws, dict
    counts); thinned Poisson trajectories (small numpy array draws, cumsum,
    interp, masks); a priority pool (attribute updates, filtered argmin with
    a key function)."""
    rng = numpy.random.default_rng(12345)
    heap: list = []
    counts: dict = {}
    for i in range(300):
        heapq.heappush(heap, (float(rng.random()), i % 7, i))
        counts[i % 53] = counts.get(i % 53, 0) + 1
    while heap:
        heapq.heappop(heap)
    for _ in range(4):
        ts = numpy.cumsum(rng.exponential(0.6, size=700))
        ts = ts[ts < 360.0]
        keep = rng.random(ts.size) < numpy.interp(ts, _PROFILE_T, _PROFILE_RATE) / 1.6
        ts = ts[keep]
    pool = {i: _Entry(i, float(i), i % 6) for i in range(60)}
    for step in range(6):
        for e in pool.values():
            e.priority = 0.45 * (e.pid % 4) / 4 + 0.2 * min((step - e.since) / 120.0, 1.0) + 0.15 * (1 - e.desk / 6)
        best = min((e for e in pool.values() if e.desk == step), key=lambda e: (-e.priority, e.since, e.pid))
        del pool[best.pid]


def time_kernel() -> float:
    t0 = time.perf_counter()
    reference_kernel()
    return (time.perf_counter() - t0) * 1000.0


def local_scales(ticks: list[float]) -> list[float]:
    """REF_MS over the median of each tick's neighbourhood, tick by tick."""
    n = len(ticks)
    return [
        REF_MS / median(ticks[max(0, i - HALF_WINDOW) : min(n, i + HALF_WINDOW + 1)])
        for i in range(n)
    ]


class SpeedReference:
    """Scales wall times to reference speed.

    On a shared VM the CPU speed switches between states up to twice apart
    within seconds, and opdsim slows down with a fixed kernel of the same
    kinds of work.  The kernel is timed (a "tick") right before each session; the
    session's time is multiplied by REF_MS over the median of the ticks
    around it.  A unit without ticks inside is bracketed by ticks before and
    after.  Scaled times are what the same work takes at the speed where the
    kernel takes REF_MS.  Every tick is kept for the run's summary.
    """

    def __init__(self):
        self.ticks: list[float] = []

    def tick(self) -> float:
        self.ticks.append(time_kernel())
        return self.ticks[-1]

    def bracket(self, fn):
        """(fn(), raw seconds, scale) for a call timed between ticks."""
        before = [self.tick() for _ in range(BRACKET_TICKS)]
        t0 = time.perf_counter()
        result = fn()
        raw = time.perf_counter() - t0
        after = [self.tick() for _ in range(BRACKET_TICKS)]
        return result, raw, REF_MS / median(before + after)


# ---------------------------------------------------------------------------
# set-up


def _purge_opdsim() -> None:
    for name in [m for m in sys.modules if m == "opdsim" or m.startswith("opdsim.")]:
        del sys.modules[name]


def _import_and_generate():
    try:
        importlib.import_module("opdsim")
        importlib.import_module("opdsim.cli")
    except ImportError as exc:
        raise BenchError(f"cannot import opdsim from {SRC}: {exc}") from exc
    return sys.modules["opdsim.patients"].generate_dataset(COHORT_SEED)


def measure_setup(reps: int, speed: SpeedReference):
    """Import opdsim and build the cohort `reps` times from a clean slate.

    numpy is already imported: it is a dependency, and its one-off import
    would otherwise land in the first repetition only.  Returns the raw and
    reference-speed times and the cohort of the last repetition, whose modules
    the workloads then use.
    """
    sys.path.insert(0, str(SRC))
    raw, scaled = [], []
    dataset = None
    for _ in range(reps):
        _purge_opdsim()
        dataset, seconds, scale = speed.bracket(_import_and_generate)
        raw.append(seconds)
        scaled.append(seconds * scale)
        origin = Path(sys.modules["opdsim"].__file__).resolve()
        if SRC.resolve() not in origin.parents:
            raise BenchError(f"opdsim was imported from {origin}, not from {SRC}")
    return raw, scaled, dataset


# ---------------------------------------------------------------------------
# correctness


def conservation_problems(m: dict, n_patients: int) -> list[str]:
    problems = []
    if m["served_count"] + m["unserved_count"] != n_patients:
        problems.append("served + unserved != cohort")
    if sum(m["final_composition"].values()) != n_patients:
        problems.append("composition does not sum to cohort")
    if sum(m["per_physician_served"].values()) != m["served_count"]:
        problems.append("per-physician totals != served")
    return problems


class Checker:
    """Counts sessions attempted and failed.

    A session fails if it raises, breaks conservation, or its metrics differ
    from an earlier run of the same (arm, seed) in this process; a whole
    experiment fails if the CLI exits nonzero or its report files change
    between repetitions.  Pinned digests are compared at the end.
    """

    def __init__(self, n_patients: int):
        self.n_patients = n_patients
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self._seen: dict = {}

    def fail(self, what: str, sessions: int = 1) -> None:
        self.attempted += sessions
        self.failed += sessions
        if len(self.errors) < 20:
            self.errors.append(what)

    def session(self, key, metrics: dict) -> str:
        """Check one session's metrics dict; returns its canonical JSON."""
        blob = canonical(metrics)
        problems = conservation_problems(metrics, self.n_patients)
        if self._seen.setdefault(key, blob) != blob:
            problems.append("metrics differ from an earlier run of the same seed")
        if problems:
            self.fail(f"{key}: {'; '.join(problems)}")
        else:
            self.attempted += 1
        return blob

    def same_as_before(self, key, value) -> bool:
        return self._seen.setdefault(key, value) == value


# ---------------------------------------------------------------------------
# workloads
#
# `run_once(speed)` runs one pass (session workloads) or one experiment and
# returns (reference-speed seconds, raw seconds, sessions); it appends each
# session's reference-speed and raw time in ms to `samples` / `raw_samples`.


class SessionWorkload:
    """`engine.run_session` over the ladder, one arm after another per seed."""

    def __init__(self, arms, ctx):
        self.ctx = ctx
        engine = sys.modules["opdsim.engine"]
        self.configs = {arm: engine.StrategyConfig(strategy=arm) for arm in arms}
        self.plan = [(arm, seed) for seed in ctx.ladder for arm in arms]
        self.first_pass: list[str] | None = None
        self.samples: list[float] = []
        self.raw_samples: list[float] = []

    def warm_up(self) -> None:
        engine = sys.modules["opdsim.engine"]
        for arm, seed in self.plan[:WARMUP_SESSIONS]:
            engine.run_session(*self.ctx.dataset, self.configs[arm], seed)

    def run_once(self, speed: SpeedReference):
        engine = sys.modules["opdsim.engine"]  # looked up per pass: tracing swaps it
        checker = self.ctx.checker
        patients, history = self.ctx.dataset
        blobs, raw, ticks = [], [], []
        for arm, seed in self.plan:
            tick = speed.tick()
            t0 = time.perf_counter()
            try:
                result = engine.run_session(patients, history, self.configs[arm], seed)
            except Exception as exc:  # a failed session is counted, not fatal
                checker.fail(f"{arm}/{seed}: {exc!r}")
                continue
            raw.append((time.perf_counter() - t0) * 1000.0)
            ticks.append(tick)
            blobs.append(checker.session((arm, seed), result.metrics.to_dict()))
        scaled = [ms * s for ms, s in zip(raw, local_scales(ticks))]
        self.samples.extend(scaled)
        self.raw_samples.extend(raw)
        if self.first_pass is None:
            self.first_pass = blobs
        return sum(scaled) / 1000.0, sum(raw) / 1000.0, len(self.plan)

    def digests(self) -> dict[str, str]:
        return {"metrics": sha256("".join(b + "\n" for b in self.first_pass or []))}

    @contextlib.contextmanager
    def session_timing(self):
        yield


class ExperimentWorkload:
    """`cli.main(["experiment", ...])` for 30 agentic runs into a fresh directory."""

    STAMP = "_bench_session"

    def __init__(self, workers: int, ctx):
        self.ctx = ctx
        self.workers = workers
        self.first: dict[str, str] | None = None
        self.samples: list[float] = []
        self.raw_samples: list[float] = []
        self._stamps: list[tuple[int, float, float]] = []

    def argv(self, out_dir: Path, runs: int) -> list[str]:
        return [
            "experiment", "--strategy", "agentic", "--runs", str(runs),
            "--workers", str(self.workers), "--base-seed", str(self.ctx.ladder[0]),
            "--out-dir", str(out_dir),
        ]  # fmt: skip

    def _call_cli(self, out_dir: Path, runs: int):
        cli = sys.modules["opdsim.cli"]  # looked up per call: tracing swaps it
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(self.argv(out_dir, runs))

    def _experiment(self, speed: SpeedReference, runs: int):
        TMP_DIR.mkdir(exist_ok=True)
        out_dir = Path(tempfile.mkdtemp(dir=TMP_DIR))
        try:
            code, raw, bracket_scale = speed.bracket(lambda: self._call_cli(out_dir, runs))
            files = {}
            for name in EXPERIMENT_FILES:
                path = out_dir / name
                files[name] = path.read_bytes() if path.exists() else None
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        return code, raw, bracket_scale, files

    def warm_up(self) -> None:
        self._experiment(SpeedReference(), 2)

    def _scale(self, raw: float, bracket_scale: float) -> tuple[float, float]:
        """(reference-speed seconds, raw seconds net of ticks) for one experiment.

        With worker stamps, each session is scaled by the ticks around it in
        its own process, and the experiment by the sessions' mean scale;
        the ticks' own time, spread over the workers, is taken off first.
        Without them, the bracketing ticks set the scale.
        """
        stamps, self._stamps = self._stamps, []
        if not stamps:
            return raw * bracket_scale, raw
        scaled_total = raw_total = tick_total = 0.0
        for pid in sorted({pid for pid, _, _ in stamps}):
            mine = [(ms, tick) for p, ms, tick in stamps if p == pid]
            scales = local_scales([tick for _, tick in mine])
            for (ms, tick), scale in zip(mine, scales):
                self.samples.append(ms * scale)
                self.raw_samples.append(ms)
                scaled_total += ms * scale
                raw_total += ms
                tick_total += tick
        net = raw - tick_total / 1000.0 / min(self.workers, len(stamps))
        return net * scaled_total / raw_total, net

    def run_once(self, speed: SpeedReference):
        checker = self.ctx.checker
        try:
            code, raw, bracket_scale, files = self._experiment(speed, LADDER_LEN)
        except Exception as exc:  # a crashed experiment fails all its sessions
            checker.fail(f"experiment raised {exc!r}", LADDER_LEN)
            self._stamps.clear()
            return None
        scaled, raw = self._scale(raw, bracket_scale)
        if code != 0 or files["runs.jsonl"] is None:
            checker.fail(f"experiment exited {code}", LADDER_LEN)
            return scaled, raw, LADDER_LEN
        digests = {name: sha256(data or b"") for name, data in files.items()}
        if not checker.same_as_before("experiment files", digests):
            checker.fail("report files differ from the first experiment", LADDER_LEN)
            return scaled, raw, LADDER_LEN
        blobs = []
        for line in files["runs.jsonl"].decode().splitlines():
            row = json.loads(line)
            row.pop("manifest", None)  # the compat hash, identical on every row
            blobs.append(checker.session(("agentic", row["seed"]), row))
        if len(blobs) != LADDER_LEN:
            checker.fail(f"runs.jsonl has {len(blobs)} rows", LADDER_LEN - len(blobs))
        if self.first is None:
            self.first = dict(digests, metrics=sha256("".join(b + "\n" for b in blobs)))
        return scaled, raw, LADDER_LEN

    def digests(self) -> dict[str, str]:
        return self.first or {}

    @contextlib.contextmanager
    def session_timing(self):
        """Time each `_worker_run` (round trip, session, payload) where it runs.

        The worker ticks, times the call and stamps its payload with
        (pid, ms, tick ms); `_run_many` removes the stamps in the parent
        before anything is written.  Forked workers inherit the wrapper.
        Without either name there are no session times and the experiment
        is scaled by its bracketing ticks.
        """
        cli = sys.modules["opdsim.cli"]
        worker = getattr(cli, "_worker_run", None)
        run_many = getattr(cli, "_run_many", None)
        if worker is None or run_many is None:
            yield
            return
        stamp = self.STAMP

        @functools.wraps(worker)
        def timed_worker(payload):
            tick = time_kernel()
            t0 = time.perf_counter()
            out = worker(payload)
            out[stamp] = (os.getpid(), (time.perf_counter() - t0) * 1000.0, tick)
            return out

        @functools.wraps(run_many)
        def collecting_run_many(*args, **kwargs):
            payloads = run_many(*args, **kwargs)
            self._stamps.extend(p.pop(stamp) for p in payloads if stamp in p)
            return payloads

        cli._worker_run, cli._run_many = timed_worker, collecting_run_many
        try:
            yield
        finally:
            cli._worker_run, cli._run_many = worker, run_many


WORKLOADS = {
    "agentic_sessions": lambda ctx: SessionWorkload(("agentic",), ctx),
    "token_sessions": lambda ctx: SessionWorkload(("fcfs", "rule_based"), ctx),
    "experiment_serial": lambda ctx: ExperimentWorkload(1, ctx),
    "experiment_parallel": lambda ctx: ExperimentWorkload(2, ctx),
}


class Context:
    def __init__(self, seed: int, dataset, checker: Checker):
        start = LADDER_BASE + LADDER_LEN * seed
        self.ladder = list(range(start, start + LADDER_LEN))
        self.dataset = dataset
        self.checker = checker


# ---------------------------------------------------------------------------
# runs


def measure(workload, seconds: float, speed: SpeedReference) -> dict[str, tuple[float, str]]:
    """Untraced: whole passes (or experiments) until `seconds` have passed.

    Times are at reference speed; the raw medians are printed beside them.
    """
    workload.warm_up()
    units = []
    with workload.session_timing():
        deadline = time.perf_counter() + seconds
        while True:
            unit = workload.run_once(speed)
            if unit is not None:
                units.append(unit)
            if time.perf_counter() >= deadline:
                break
    if not units:
        return {}
    sessions = units[0][2]
    unit_s = median(scaled for scaled, _, _ in units)
    metrics = {
        "sessions_per_s": (sessions / unit_s, "1/s"),
        "experiment_s": (unit_s, "s"),
    }
    samples = workload.samples
    if len(samples) >= 100:  # p90 needs at least ten samples beyond it
        metrics["session_ms_p50"] = (median(samples), "ms")
        metrics["session_ms_p90"] = (p90(samples), "ms")
    raw_session = median(workload.raw_samples) if samples else float("nan")
    print(
        f"# {len(units)} passes of {sessions} sessions, {len(samples)} session samples; "
        f"raw medians: pass {median(raw for _, raw, _ in units):.4f} s, session {raw_session:.3f} ms"
    )
    return metrics


def measure_traced(workload, seconds: float, tracer: Tracer, speed: SpeedReference):
    """Alternate untraced and traced passes, so drift hits both alike.

    Per-layer times are scaled to reference speed by the median tick of the
    whole run; the overhead compares the rates of reference-speed passes.
    """
    patients = sys.modules["opdsim.patients"]
    tracer.install()
    try:
        for _ in range(3):
            patients.generate_dataset(COHORT_SEED)
    finally:
        tracer.uninstall()
    workload.warm_up()
    totals = {False: [0.0, 0], True: [0.0, 0]}  # traced? -> [seconds, sessions]
    with workload.session_timing():
        deadline = time.perf_counter() + seconds
        while True:
            for traced in (False, True):
                if traced:
                    tracer.install()
                try:
                    unit = workload.run_once(speed)
                finally:
                    tracer.uninstall()
                if unit is not None:
                    totals[traced][0] += unit[0]
                    totals[traced][1] += unit[2]
            if time.perf_counter() >= deadline:
                break
    scale = REF_MS / median(speed.ticks)
    metrics = {
        name: (value * scale if unit == "ms" else value, unit)
        for name, (value, unit) in layer_metrics(tracer, totals[True][1]).items()
    }
    plain_rate = totals[False][1] / totals[False][0]
    traced_rate = totals[True][1] / totals[True][0]
    metrics["trace.sessions"] = (float(totals[True][1]), "count")
    metrics["trace.untraced_sessions_per_s"] = (plain_rate, "1/s")
    metrics["trace.traced_sessions_per_s"] = (traced_rate, "1/s")
    metrics["trace.overhead_pct"] = ((plain_rate / traced_rate - 1.0) * 100.0, "%")
    if tracer.missing:
        print(f"# not wrapped (renamed or removed): {sorted(tracer.missing)}")
    return metrics


# ---------------------------------------------------------------------------
# environment and pins


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )  # fmt: skip
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "opdsim").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(args, ctx: Context) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model(),
        "mp_start_method": multiprocessing.get_start_method(),
        "workload": args.workload,
        "seed": args.seed,
        "ladder": [ctx.ladder[0], ctx.ladder[-1]],
        "cohort_seed": COHORT_SEED,
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
    }


def load_pins(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise BenchError(f"cannot read pins {path}: {exc}") from exc


def check_pins(pins: dict, workload: str, seed: int, observed: dict, checker: Checker) -> None:
    """At the pinned seed every pinned digest must match, or every session fails."""
    if seed != pins.get("seed"):
        print(f"# seed {seed} is not the pinned seed; checked conservation and determinism only")
        return
    expected = pins.get("workloads", {}).get(workload)
    if not expected:
        print(f"# no pins for {workload}")
        return
    wrong = [k for k, v in expected.items() if observed.get(k) != v]
    for key in wrong:
        print(f"# digest mismatch {key}: expected {expected[key]}, got {observed.get(key)}")
    if wrong:
        checker.errors.append(f"pinned digests differ: {wrong}")
        checker.failed = checker.attempted


# ---------------------------------------------------------------------------
# main


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="session-seed ladder index")
    p.add_argument("--seconds", type=float, default=20.0, help="measurement time")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--pins", type=Path, default=PINS, help="pinned digests (default: pins.json)")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        pins = load_pins(args.pins)
        speed = SpeedReference()
        setup_raw, setup_scaled, dataset = measure_setup(SETUP_REPS, speed)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    n_patients = sys.modules["opdsim.patients"].N_PATIENTS
    checker = Checker(n_patients)
    ctx = Context(args.seed, dataset, checker)
    workload = WORKLOADS[args.workload](ctx)

    if args.trace:
        tracer = Tracer()
        metrics = measure_traced(workload, args.seconds, tracer, speed)
    else:
        metrics = measure(workload, args.seconds, speed)
        metrics["setup_s"] = (median(setup_scaled), "s")
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = (peak_kib / 1024.0, "MB")

    observed = workload.digests()
    for key, digest in sorted(observed.items()):
        print(f"# digest {key} {digest}")
    check_pins(pins, args.workload, args.seed, observed, checker)
    for error in checker.errors:
        print(f"# FAILED {error}")

    env = environment(args, ctx)
    failed_frac = checker.failed / checker.attempted if checker.attempted else 1.0
    print(f"# env {canonical(env)}")
    print(
        f"# raw setup median {median(setup_raw):.4f} s; reference kernel median "
        f"{median(speed.ticks):.4f} ms over {len(speed.ticks)} ticks (reference {REF_MS} ms)"
    )
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{name:<42} {value:14.6f} {unit}")
    print(f"{'failed_frac':<42} {failed_frac:14.6f} fraction")
    result = {
        "correct": checker.failed == 0 and checker.attempted > 0,
        "attempted": max(checker.attempted, 1),
        "failed": checker.failed if checker.attempted else 1,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{stem}.json").write_text(
        json.dumps(dict(result, env=env, failed_frac=failed_frac, errors=checker.errors), indent=2) + "\n"
    )
    if args.trace:
        tracer.dump(OUT_DIR / f"spans-{stem}.jsonl.gz", {"env": env})
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
