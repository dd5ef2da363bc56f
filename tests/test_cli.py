"""Command-line interface tests, run in-process through main(argv)."""

import contextlib
import csv
import hashlib
import io
import json
import multiprocessing
import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opdsim import cli
from opdsim.assignment import default_roster
from opdsim.cli import main
from opdsim.engine import StrategyConfig, run_session
from opdsim.patients import UrgencyLevel, dataset_fingerprint, dataset_from_dict, dataset_to_dict
from opdsim.waitqueue import CAUSE_DRIFT, EscalationEvent

from test_engine import TWIN_ROOMS

GOLDEN_FCFS_SERVED = 252
GOLDEN_AGENTIC_TRACE = "14058ec0e2267f1336b9d238a23d76f111858517c66bcc4cb20cac09bb88e2e4"
GOLDEN_AGENTIC_ROWS = 1774


def _experiment(out_dir, strategy="agentic", runs=3, base_seed=1000, extra=()):
    argv = [
        "experiment", "--strategy", strategy, "--runs", str(runs),
        "--base-seed", str(base_seed), "--out-dir", str(out_dir), *extra,
    ]
    assert main(argv) == 0


# ---------------------------------------------------------------- parser


def test_help_and_version_exit_zero(capsys):
    for flag in (["--help"], ["--version"]):
        with pytest.raises(SystemExit) as exc:
            main(flag)
        assert exc.value.code == 0
        capsys.readouterr()


def test_generate_requires_seed():
    with pytest.raises(SystemExit) as exc:
        main(["generate"])
    assert exc.value.code == 2


# ---------------------------------------------------------------- generate


def test_generate_writes_reproducible_dataset(tmp_path, capsys):
    out = tmp_path / "cohort.json"
    assert main(["generate", "--seed", "42", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    data = json.loads(out.read_text())
    patients, history = dataset_from_dict(data)
    assert len(patients) == 368 and len(history) == 120
    assert dataset_fingerprint(patients, history) in stdout

    first = out.read_bytes()
    assert main(["generate", "--seed", "42", "--out", str(out)]) == 0
    assert out.read_bytes() == first


# ---------------------------------------------------------------- run


def test_run_prints_metrics_json(capsys):
    assert main(["run", "--strategy", "fcfs", "--seed", "7"]) == 0
    captured = capsys.readouterr()
    metrics = json.loads(captured.out)
    assert metrics["served_count"] == GOLDEN_FCFS_SERVED
    assert metrics["strategy"] == "fcfs"
    assert "served 252" in captured.err


def test_run_trace_file_matches_golden(tmp_path, capsys):
    out = tmp_path / "m.json"
    assert main(["run", "--strategy", "agentic", "--seed", "7",
                 "--out", str(out), "--trace"]) == 0
    capsys.readouterr()
    trace_path = tmp_path / "m.trace.csv"
    blob = trace_path.read_bytes()
    assert hashlib.sha256(blob).hexdigest() == GOLDEN_AGENTIC_TRACE
    assert len(blob.decode().splitlines()) == GOLDEN_AGENTIC_ROWS + 1
    assert json.loads(out.read_text())["served_count"] == 216


def test_run_with_config_file_and_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"strategy": "fcfs", "session_minutes": 120.0}))
    # CLI flag beats the file's strategy; the file's session length sticks.
    assert main(["run", "--strategy", "rule_based", "--seed", "1",
                 "--config", str(cfg)]) == 0
    metrics = json.loads(capsys.readouterr().out)
    assert metrics["strategy"] == "rule_based"
    assert metrics["session_minutes"] == 120.0


def test_run_malformed_config_exits_3(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{not json")
    assert main(["run", "--strategy", "fcfs", "--seed", "1", "--config", str(cfg)]) == 3
    assert "error:" in capsys.readouterr().err


def test_run_invalid_config_value_exits_3(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"strategy": "lifo"}))
    assert main(["run", "--seed", "1", "--config", str(cfg)]) == 3
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "config",
    [
        {"strategy": ["x"]},
        {"registration_desks": 2.5},
        {"registration_desks": True},
        {"memory_enabled": "no"},
        {"drift_enabled": 0},
        {"session_minutes": float("nan")},
        {"session_minutes": float("inf")},
        {"session_minutes": True},
        {"weights": {"wait_cap": -1.0}},
        {"weights": {"urgency": 0.9, "load": -0.3}},
        {"drift": {"p_low": True}},
        {"registration_mean": True},
        {"registration_std": False},
        {"weights": {"wait_horizon": True}},
        {"drift": {"check_interval": 0.0001}},
        {"drift": {"history_multiplier": 10**400}},
        {"registration_mean": 0.1, "registration_std": 0.001},
        [{"strategy": "fcfs"}],
    ],
)
def test_run_mistyped_config_exits_3(tmp_path, capsys, config):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(config))
    assert main(["run", "--seed", "1", "--config", str(cfg)]) == 3
    assert "error:" in capsys.readouterr().err


_MAX = 1.7976931348623157e308
_JUNK = st.one_of(
    st.none(), st.booleans(), st.text(max_size=4), st.lists(st.integers(), max_size=2),
    st.integers(-3, 3), st.just(10**400), st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-1.0, 5e-324, 1e-300, 1e300, _MAX]),
)
_PROBABILITY = st.floats(0.0, 1.0)
_WEIGHTS = st.tuples(*[st.floats(0.0, 1.0)] * 4).filter(lambda w: sum(w) > 0).map(
    lambda w: dict(zip(["urgency", "acuity", "waiting", "load"], (x / sum(w) for x in w)))
)
# Each field drawn in its valid range, tiny and huge floats included.
_VALID = st.fixed_dictionaries(
    {"session_minutes": st.floats(5e-324, 60.0)},
    optional={
        "strategy": st.sampled_from(["fcfs", "rule_based", "agentic"]),
        "memory_enabled": st.booleans(),
        "drift_enabled": st.booleans(),
        "registration_desks": st.integers(1, 10**6),
        "registration_mean": st.floats(5e-324, _MAX),
        "registration_std": st.floats(0.0, _MAX),
        "drift": st.fixed_dictionaries({}, optional={
            "check_interval": st.floats(0.1, _MAX), "p_high": _PROBABILITY,
            "p_medium": _PROBABILITY, "p_low": _PROBABILITY,
            "history_multiplier": st.floats(0.0, _MAX), "p_history_escalation": _PROBABILITY,
        }),
        "weights": st.one_of(_WEIGHTS, st.fixed_dictionaries({}, optional={
            "wait_horizon": st.floats(5e-324, _MAX), "wait_cap": st.floats(0.0, _MAX),
        })),
    },
)
_KEYS = ["session_minutes", "strategy", "memory_enabled", "drift_enabled", "registration_desks",
         "registration_mean", "registration_std", "drift", "weights"]
_DRIFT_KEYS = ["check_interval", "p_high", "p_medium", "p_low", "history_multiplier",
               "p_history_escalation"]
_WEIGHT_KEYS = ["urgency", "acuity", "waiting", "load", "wait_horizon", "wait_cap"]


@st.composite
def _configs(draw):
    """A valid config, or one with a single key set to a wrong type, an
    out-of-range number, a non-dict section or an unknown name."""
    config = draw(_VALID)
    where = draw(st.sampled_from(["none", "top", "drift", "weights"]))
    if where == "top":
        config[draw(st.one_of(st.sampled_from(_KEYS), st.text(max_size=4)))] = draw(_JUNK)
    elif where != "none":
        keys = _DRIFT_KEYS if where == "drift" else _WEIGHT_KEYS
        section = config.get(where)
        section = dict(section) if isinstance(section, dict) else {}
        section[draw(st.one_of(st.sampled_from(keys), st.text(max_size=4)))] = draw(_JUNK)
        config[where] = section
    return config


@pytest.fixture(scope="module")
def fuzz_config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "config.json"


@settings(derandomize=True, max_examples=60, deadline=None)
@given(config=_configs())
def test_run_survives_any_config(fuzz_config_path, config):
    # Every config file either runs or is refused with exit 3: no traceback,
    # and the metrics written are valid JSON.
    fuzz_config_path.write_text(json.dumps(config))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["run", "--seed", "1", "--config", str(fuzz_config_path)])
    if code == 3:
        assert err.getvalue().startswith("error:")
    else:
        assert code == 0
        json.loads(out.getvalue(), parse_constant=pytest.fail)


def test_run_with_nobody_served(tmp_path, capsys):
    cfg = tmp_path / "short.json"
    cfg.write_text(json.dumps({"session_minutes": 2}))
    assert main(["run", "--seed", "1", "--config", str(cfg)]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["avg_wait"] is None
    assert "avg wait n/a" in captured.err


@pytest.mark.parametrize(
    "config",
    [{"session_minutes": 5e-324}, {"registration_mean": 1.7e308, "registration_std": 1.7e308}],
    ids=["subnormal-session", "overflowing-registration"],
)
def test_run_at_extreme_values_serves_nobody(tmp_path, capsys, config):
    # A session too short to divide by and registrations that overflow to
    # infinity both run to an empty session instead of failing.
    cfg = tmp_path / "extreme.json"
    cfg.write_text(json.dumps(config))
    assert main(["run", "--seed", "1", "--config", str(cfg)]) == 0
    captured = capsys.readouterr()
    metrics = json.loads(captured.out)
    assert metrics["served_count"] == 0 and metrics["throughput_per_hour"] == 0.0
    assert metrics["unserved_count"] == 368


def test_run_unwritable_out_exits_4(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory")
    out = blocker / "metrics.json"
    assert main(["run", "--strategy", "fcfs", "--seed", "1", "--out", str(out)]) == 4
    assert "I/O error:" in capsys.readouterr().err


def test_run_redundant_flags_warn_but_run(capsys):
    assert main(["run", "--strategy", "fcfs", "--seed", "1", "--no-drift"]) == 0
    captured = capsys.readouterr()
    assert "no reassessment loop" in captured.err
    assert json.loads(captured.out)["drift_event_count"] == 0


def _first_patient(d):
    return d["patients"][0]


def _first_record(d):
    return d["history"][min(d["history"])]


@pytest.mark.parametrize(
    "edit",
    [
        lambda d: d.update(patients=5),
        lambda d: d.update(history=[]),
        lambda d: d["patients"].__setitem__(0, 7),
        lambda d: _first_patient(d).update(age=[1]),
        lambda d: _first_patient(d).update(has_history="no"),
        lambda d: _first_patient(d).update(face_acuity=_first_patient(d)["face_acuity"] + 0.7),
        lambda d: _first_record(d).update(conditions="abc"),
        lambda d: d.update(schema_version=99),
        lambda d: d.update(schema_version="x"),
        lambda d: d.update(schema_version=True),
        lambda d: d.update(schema_version=1.0),
        lambda d: d.pop("schema_version"),
    ],
    ids=["patients-number", "history-list", "patient-row-number", "age-list",
         "has-history-string", "acuity-float", "conditions-string", "schema-99",
         "schema-string", "schema-true", "schema-float", "schema-missing"],
)
def test_run_mistyped_dataset_exits_3(tmp_path, capsys, dataset42, edit):
    data = json.loads(json.dumps(dataset_to_dict(*dataset42)))
    edit(data)
    path = tmp_path / "cohort.json"
    path.write_text(json.dumps(data))
    assert main(["run", "--strategy", "fcfs", "--seed", "1", "--dataset", str(path)]) == 3
    assert "error:" in capsys.readouterr().err


def _history_patient(d):
    """The patient row of `_first_record`."""
    return next(p for p in d["patients"] if p["patient_id"] == min(d["history"]))


def _patient_without_history(d):
    return next(p for p in d["patients"] if not p["has_history"])


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: d["patients"][1].update(patient_id=d["patients"][0]["patient_id"]),
         "duplicate patient ids"),
        (lambda d: _first_patient(d).update(face_acuity=11), "acuity 11 outside"),
        (lambda d: _first_patient(d).update(age=3, age_band="elderly"), "age 3 outside the elderly band"),
        (lambda d: _first_record(d).update(patient_id="P9999"), "does not match a patient"),
        (lambda d: _history_patient(d).update(face_urgency="critical", face_acuity=9),
         "history on critical-face patient"),
        (lambda d: _first_record(d)["escalation_rule"].update(target="low"),
         "escalation target not above face urgency"),
        (lambda d: _patient_without_history(d).update(has_history=True), "has_history flags disagree"),
        (lambda d: _first_record(d).update(conditions=["diabetes", 3]),
         "conditions must be a list of strings"),
    ],
    ids=["duplicate-id", "acuity-outside-band", "elderly-three-year-old", "record-id-not-key",
         "record-on-critical", "target-not-above-face", "has-history-disagrees",
         "condition-not-a-string"],
)
def test_run_inconsistent_dataset_exits_3(tmp_path, capsys, dataset42, edit, message):
    data = json.loads(json.dumps(dataset_to_dict(*dataset42)))
    edit(data)
    path = tmp_path / "cohort.json"
    path.write_text(json.dumps(data))
    assert main(["run", "--strategy", "fcfs", "--seed", "1", "--dataset", str(path)]) == 3
    assert message in capsys.readouterr().err


def test_run_roster_file_equals_the_same_roster_in_process(tmp_path, capsys, dataset42):
    path = tmp_path / "twin.json"
    path.write_text(json.dumps([{"id": p.physician_id, "specialty": p.specialty.value} for p in TWIN_ROOMS]))
    for strategy in ("fcfs", "rule_based", "agentic"):
        assert main(["run", "--strategy", strategy, "--seed", "7", "--roster", str(path)]) == 0
        want = run_session(*dataset42, StrategyConfig(strategy=strategy), 7, roster=TWIN_ROOMS)
        assert json.loads(capsys.readouterr().out) == want.metrics.to_dict()


@pytest.mark.parametrize(
    "rows, message",
    [
        ({"id": "D1", "specialty": "general_medicine"}, "roster must be a non-empty JSON list"),
        ([], "roster must be a non-empty JSON list"),
        ([{"id": "D1"}], "bad roster row"),
        ([{"id": "D1", "specialty": "dermatology"}], "bad roster row"),
    ],
    ids=["object", "empty", "no-specialty", "unknown-specialty"],
)
def test_run_bad_roster_file_exits_3(tmp_path, capsys, rows, message):
    path = tmp_path / "roster.json"
    path.write_text(json.dumps(rows))
    assert main(["run", "--strategy", "fcfs", "--seed", "1", "--roster", str(path)]) == 3
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "ids",
    [[None, "D2"], [7, "D2"], [["x"], "D2"], ["", "D2"], ["D1", "D1"]],
    ids=["null", "number", "list", "empty", "duplicate"],
)
def test_run_bad_roster_ids_exit_3(tmp_path, capsys, ids):
    path = tmp_path / "roster.json"
    path.write_text(json.dumps(
        [{"id": i, "specialty": "general_medicine"} for i in ids]
        + [{"id": "D3", "specialty": "pediatrics"}]
    ))
    for strategy in ("fcfs", "rule_based", "agentic"):
        argv = ["run", "--strategy", strategy, "--seed", "1", "--roster", str(path)]
        assert main(argv) == 3, strategy
        assert "roster ids must be unique non-empty strings" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "--seed", "-1", "--out", "{tmp}/cohort.json"],
        ["run", "--strategy", "fcfs", "--seed", "-1", "--out", "{tmp}/m.json"],
        ["experiment", "--strategy", "fcfs", "--base-seed", "-1", "--out-dir", "{tmp}/exp"],
        ["calibrate", "--base-seed", "-1", "--out", "{tmp}/drift.json"],
        ["experiment", "--strategy", "fcfs", "--runs", "0", "--out-dir", "{tmp}/exp"],
        ["experiment", "--strategy", "fcfs", "--runs", "-2", "--out-dir", "{tmp}/exp"],
        ["ablation", "--runs", "0", "--out-dir", "{tmp}/abl"],
        ["calibrate", "--runs", "0", "--out", "{tmp}/drift.json"],
        ["calibrate", "--target-drifts", "0", "--out", "{tmp}/drift.json"],
        ["calibrate", "--target-crit", "0", "--out", "{tmp}/drift.json"],
        ["calibrate", "--target-crit", "-3", "--out", "{tmp}/drift.json"],
        ["calibrate", "--target-drifts", "nan", "--out", "{tmp}/drift.json"],
        ["calibrate", "--target-crit", "inf", "--out", "{tmp}/drift.json"],
    ],
    ids=["generate-seed", "run-seed", "experiment-base-seed", "calibrate-base-seed",
         "experiment-runs-0", "experiment-runs-negative", "ablation-runs-0", "calibrate-runs-0",
         "calibrate-drifts-0", "calibrate-crit-0", "calibrate-crit-negative",
         "calibrate-drifts-nan", "calibrate-crit-inf"],
)
def test_invalid_seed_runs_or_target_exits_3_and_writes_nothing(tmp_path, capsys, argv):
    assert main([a.format(tmp=tmp_path) for a in argv]) == 3
    assert "error:" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["experiment", "--strategy", "fcfs", "--runs", "1", "--workers", "0",
         "--out-dir", "{tmp}/e"],
        ["experiment", "--strategy", "fcfs", "--runs", "1", "--workers", "-4",
         "--out-dir", "{tmp}/e"],
        ["ablation", "--runs", "1", "--workers", "0", "--out-dir", "{tmp}/abl"],
        ["ablation", "--runs", "1", "--workers", "-4", "--out-dir", "{tmp}/abl"],
        ["calibrate", "--runs", "1", "--workers", "0", "--out", "{tmp}/drift.json"],
        ["calibrate", "--runs", "1", "--workers", "-4", "--out", "{tmp}/drift.json"],
        ["calibrate", "--runs", "1", "--kappas", "inf", "--out", "{tmp}/drift.json"],
        ["calibrate", "--runs", "1", "--kappas", "1,x", "--out", "{tmp}/drift.json"],
        ["calibrate", "--runs", "1", "--kappas", "1.2", "--p-hists", "0.5,2",
         "--out", "{tmp}/drift.json"],
    ],
    ids=["experiment-workers-0", "experiment-workers-negative", "ablation-workers-0",
         "ablation-workers-negative", "calibrate-workers-0", "calibrate-workers-negative",
         "calibrate-kappa-inf", "calibrate-kappa-not-a-number", "calibrate-bad-cell"],
)
def test_invalid_workers_or_grid_exits_3_before_any_session(tmp_path, capsys, monkeypatch, argv):
    def no_session(*args, **kwargs):
        raise AssertionError("a session ran")

    monkeypatch.setattr(cli, "run_session", no_session)
    assert main([a.format(tmp=tmp_path) for a in argv]) == 3
    assert "error:" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------- experiment


def test_experiment_directory_layout(tmp_path, capsys):
    out_dir = tmp_path / "exp"
    _experiment(out_dir, runs=3)
    stdout = capsys.readouterr().out
    assert "| metric |" in stdout

    lines = (out_dir / "runs.jsonl").read_text().splitlines()
    assert len(lines) == 3
    rows = [json.loads(line) for line in lines]
    assert [r["seed"] for r in rows] == [1000, 1001, 1002]

    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["seeds"] == [1000, 1001, 1002]
    assert rows[0]["manifest"] == manifest["compat_hash"]
    assert "dataset_fingerprint" in manifest and "created_at" in manifest

    waits = json.loads((out_dir / "waits.json").read_text())
    assert waits["manifest"] == manifest["compat_hash"]
    assert len(waits["critical"]) == 3 and len(waits["overall"]) == 3

    summary = (out_dir / "summary.csv").read_text().splitlines()
    assert summary[0] == f"# manifest: {manifest['compat_hash']}"
    assert summary[1] == "metric,mean,std,n"

    esc_header = (out_dir / "escalations.csv").read_text().splitlines()[0]
    assert esc_header == "run_seed,time,patient_id,from_level,to_level,cause"


# sha256 of each report file of `experiment --runs 2 --base-seed 1000`: the
# agentic arm's pooled pool and rule_based's per-desk pool.
REPORT_PINS = {
    "agentic": {
        "runs.jsonl": "69c4c016fe3786420c30edd27542d84264c3af54aa24375986fff56a96a91375",
        "waits.json": "69b1abaac7f5b14682d464117b4071a10acba72da21fccda1bef7ca32d6634bf",
        "escalations.csv": "28d77774a84e6edc4eec91c3afec6fb95f5104d726dde2cf76756fbcc8443802",
        "summary.csv": "6ef739cf1f8c66ef829edfb936c0919c59e917b3fd04ee89d88ca9c60b5cfa75",
    },
    "rule_based": {
        "runs.jsonl": "170086bb213a3fdc3e6351fc98b73d08ee53af00d98739a0fe29a45775fe17cf",
        "waits.json": "c118a4eb5dd324ba8ff399cb29614bf305e9a902561d428c8bb9c474e1e67ef0",
        "escalations.csv": "4437a0118ff57bf186430ece4331ef8e5f89e9c1520de7a3126f92c49cbb5c21",
        "summary.csv": "42b79efd800007d07ef6ed977f7f580244c4ee32aa3471aa3065045c92330797",
    },
    # The ablation arm: no entry carries a history record.
    "agentic --no-memory": {
        "runs.jsonl": "9e7d830a1d9060f0bcba73c45084a8707d145261aa9ef912e70a662340d049ee",
        "waits.json": "e37737e59f547ad3ac1394a37e86d6ae2c6c24c80e5dfbfcbdb1846f5bc8b745",
        "escalations.csv": "5f2e8d98e19ca0b83fddab3a60c510edc8fb3cda45d2b21fff4701f595f37baa",
        "summary.csv": "0fb92bb7b6f7d28dacf3d4cf1aa49e9ffb37844c7f3da10a0d7b131225ccf44a",
    },
}


def test_experiment_reruns_are_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    _experiment(a, runs=2)
    _experiment(b, runs=2, extra=["--workers", "2"])
    for name in ("runs.jsonl", "waits.json", "escalations.csv", "summary.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
    # Manifests agree except for the wall-clock stamp.
    ma = json.loads((a / "manifest.json").read_text())
    mb = json.loads((b / "manifest.json").read_text())
    ma.pop("created_at")
    mb.pop("created_at")
    assert ma == mb
    c = tmp_path / "c"
    _experiment(c, strategy="rule_based", runs=2)
    for strategy, out in (("agentic", a), ("rule_based", c)):
        for name, digest in REPORT_PINS[strategy].items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, (strategy, name)


def test_memory_off_experiment_is_pinned(tmp_path):
    _experiment(tmp_path, runs=2, extra=["--no-memory"])
    for name, digest in REPORT_PINS["agentic --no-memory"].items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


@pytest.fixture
def serial_pool(monkeypatch):
    """Replace `multiprocessing.Pool` with one that runs its initializer and
    tasks in this process; returns (processes, initializer, initargs, fn,
    tasks) for each `map`."""
    maps = []

    class SerialPool:
        def __init__(self, processes, initializer, initargs):
            self.init = (processes, initializer, initargs)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=None):
            items = list(items)
            maps.append((*self.init, fn, items))
            return [fn(x) for x in items]

    monkeypatch.setattr(multiprocessing, "Pool", SerialPool)
    return maps


def test_experiment_pool_is_capped_at_the_run_count(tmp_path, serial_pool):
    a, b = tmp_path / "a", tmp_path / "b"
    _experiment(a, strategy="fcfs", runs=2)
    _experiment(b, strategy="fcfs", runs=2, extra=["--workers", "64"])
    sizes = [processes for processes, *_ in serial_pool]
    assert sizes == [2]
    for name in ("runs.jsonl", "waits.json", "escalations.csv", "summary.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_experiment_pool_tasks_are_bare_seeds(tmp_path, serial_pool):
    # The cohort, config and roster reach each worker once, through the
    # initializer; what the pool sends per task is the run's seed alone.
    _experiment(tmp_path / "x", strategy="fcfs", runs=3, base_seed=500, extra=["--workers", "2"])
    [(_, initializer, initargs, fn, tasks)] = serial_pool
    assert initializer is cli._init_worker and fn is cli._worker_run
    patients, history, config, roster = initargs
    assert len(patients) == 368 and len(history) == 120 and config.strategy.value == "fcfs"
    assert tasks == [500, 501, 502] and all(type(x) is int for x in tasks)


def test_escalation_rows_follow_the_csv_header(dataset42, monkeypatch):
    # escalations.csv is run_seed + these rows: time to 4 places, levels by
    # value, and no reason column.
    ev = EscalationEvent(12.345678, "P0001", UrgencyLevel.LOW, UrgencyLevel.MEDIUM,
                         CAUSE_DRIFT, "worsened")
    run_session = cli.run_session

    def with_event(*args, **kwargs):
        result = run_session(*args, **kwargs)
        result.escalations = [ev]
        return result

    monkeypatch.setattr(cli, "run_session", with_event)
    cli._init_worker(*dataset42, StrategyConfig(strategy="fcfs"), default_roster())
    assert cli._worker_run(1000)["escalations"] == [[12.3457, "P0001", "low", "medium", CAUSE_DRIFT]]


# ---------------------------------------------------------------- compare


def test_compare_two_arms(tmp_path, capsys):
    da, db = tmp_path / "fcfs", tmp_path / "agentic"
    _experiment(da, strategy="fcfs", runs=3)
    _experiment(db, strategy="agentic", runs=3)
    out_csv = tmp_path / "cmp.csv"
    assert main(["compare", str(da), str(db), "--metric", "critical-wait",
                 "--out", str(out_csv)]) == 0
    stdout = capsys.readouterr().out
    table = [line for line in stdout.splitlines() if line.startswith("critical-wait")]
    assert len(table) == 1 and " fcfs " in table[0] and " agentic " in table[0]
    with out_csv.open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert {"t", "df", "p", "cohen_d", "n_a", "n_b"} <= set(rows[0])
    assert rows[0]["metric"] == "critical-wait"
    assert 0.0 <= float(rows[0]["p"]) <= 1.0


@pytest.fixture(scope="module")
def compare_dirs(tmp_path_factory):
    """Two arms on one protocol, and a third directory on another seed ladder."""
    root = tmp_path_factory.mktemp("compare")
    for name, strategy, base_seed in (("a", "fcfs", 1000), ("b", "agentic", 1000),
                                      ("other", "agentic", 2000)):
        _experiment(root / name, strategy=strategy, runs=2, base_seed=base_seed)
    return root


def _without(d, key):
    return {k: v for k, v in d.items() if k != key}


def _with_wait(waits, value):
    return dict(waits, overall=[waits["overall"][0] + [value], *waits["overall"][1:]])


@pytest.mark.parametrize(
    "file, edit",
    [
        ("manifest.json", lambda m, other: list(m)),
        ("manifest.json", lambda m, other: _without(m, "config")),
        ("manifest.json", lambda m, other: _without(m, "n_runs")),
        ("manifest.json", lambda m, other: _without(m, "compat_hash")),
        ("manifest.json", lambda m, other: dict(m, config=["agentic"])),
        ("waits.json", lambda w, other: _with_wait(w, "x")),
        ("waits.json", lambda w, other: _with_wait(w, True)),
        ("waits.json", lambda w, other: other),
        ("waits.json", lambda w, other: dict(w, critical=w["critical"][:-1],
                                             overall=w["overall"][:-1])),
        ("waits.json", lambda w, other: dict(w, overall={})),
    ],
    ids=["manifest-list", "no-config", "no-n-runs", "no-compat-hash", "config-list",
         "wait-string", "wait-bool", "waits-of-another-experiment", "waits-one-run-short",
         "waits-not-lists"],
)
def test_compare_refuses_mismatched_inputs(tmp_path, capsys, compare_dirs, file, edit):
    # compare reads both directories through one reader: a manifest without the
    # fields it uses, or waits that are not this manifest's runs, exit 3.
    d = tmp_path / "b"
    shutil.copytree(compare_dirs / "b", d)
    other = json.loads((compare_dirs / "other" / file).read_text())
    (d / file).write_text(json.dumps(edit(json.loads((d / file).read_text()), other)))
    out = tmp_path / "cmp.csv"
    for dirs in ([compare_dirs / "a", d], [d, compare_dirs / "a"]):
        assert main(["compare", *map(str, dirs), "--out", str(out)]) == 3
        assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_compare_refuses_unequal_run_counts(tmp_path, capsys):
    da, db = tmp_path / "a", tmp_path / "b"
    _experiment(da, strategy="fcfs", runs=2)
    _experiment(db, strategy="agentic", runs=3)
    assert main(["compare", str(da), str(db)]) == 3
    assert "error:" in capsys.readouterr().err


def test_compare_refuses_different_protocols(tmp_path, capsys):
    da, db = tmp_path / "a", tmp_path / "b"
    _experiment(da, strategy="fcfs", runs=2, base_seed=1000)
    _experiment(db, strategy="agentic", runs=2, base_seed=2000)
    assert main(["compare", str(da), str(db)]) == 3
    assert "error:" in capsys.readouterr().err


def test_compare_refuses_a_different_random_stream(tmp_path, capsys):
    # NumPy does not promise the same streams across releases, so two
    # directories that record different versions or bit generators are not
    # compared; directories written before these fields existed still are.
    da, db = tmp_path / "a", tmp_path / "b"
    _experiment(da, strategy="fcfs", runs=2)
    _experiment(db, strategy="agentic", runs=2)
    manifest_b = json.loads((db / "manifest.json").read_text())
    assert manifest_b["numpy_version"] == np.__version__
    assert manifest_b["bit_generator"] == "PCG64"
    for field, other in (("numpy_version", "0.0.0"), ("bit_generator", "MT19937")):
        (db / "manifest.json").write_text(json.dumps(dict(manifest_b, **{field: other})))
        assert main(["compare", str(da), str(db)]) == 3
        assert f"{field} mismatch" in capsys.readouterr().err
    older = {k: v for k, v in manifest_b.items() if k not in ("numpy_version", "bit_generator")}
    (db / "manifest.json").write_text(json.dumps(older))
    assert main(["compare", str(da), str(db)]) == 0


# ---------------------------------------------------------------- ablation


def test_ablation_grid(tmp_path, capsys):
    out_dir = tmp_path / "abl"
    assert main(["ablation", "--runs", "2", "--base-seed", "100",
                 "--out-dir", str(out_dir)]) == 0
    capsys.readouterr()
    with (out_dir / "ablation_summary.csv").open() as fh:
        rows = {r["variant"]: r for r in csv.DictReader(fh)}
    assert set(rows) == {"full", "no_memory", "no_drift", "neither"}
    assert float(rows["neither"]["escalation_count"]) == 0.0
    assert float(rows["no_drift"]["escalation_count"]) == 0.0
    assert float(rows["no_memory"]["memory_escalation_count"]) == 0.0
    assert float(rows["full"]["escalation_count"]) > 0.0
    for variant in rows:
        assert (out_dir / variant / "runs.jsonl").exists()


def test_ablation_reruns_are_byte_identical_across_worker_counts(tmp_path, capsys):
    # Each variant starts its own pool, so every worker runs that variant's
    # config, not the one the previous pool was started with.
    dirs = tmp_path / "w1", tmp_path / "w2"
    for d, workers in zip(dirs, ("1", "2")):
        assert main(["ablation", "--runs", "2", "--base-seed", "100",
                     "--workers", workers, "--out-dir", str(d)]) == 0
    capsys.readouterr()
    a, b = dirs
    files = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    assert files == sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    assert len(files) == 1 + 4 * 5
    for name in files:
        if name.name == "manifest.json":
            ma, mb = (json.loads((d / name).read_text()) for d in dirs)
            ma.pop("created_at")
            mb.pop("created_at")
            assert ma == mb, name
        else:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name


# ---------------------------------------------------------------- calibrate


def test_calibrate_picks_cell_and_writes_fragment(tmp_path, capsys):
    frag = tmp_path / "drift.json"
    assert main(["calibrate", "--kappas", "1.2", "--p-hists", "0.145",
                 "--runs", "2", "--out", str(frag)]) == 0
    stdout = capsys.readouterr().out
    assert "<-- chosen" in stdout
    fragment = json.loads(frag.read_text())
    assert fragment["drift"]["history_multiplier"] == 1.2
    assert fragment["drift"]["p_history_escalation"] == 0.145


def test_calibrate_runs_a_repeated_value_once(capsys, monkeypatch):
    sessions = []
    run_session = cli.run_session

    def counted(*args, **kwargs):
        sessions.append(args)
        return run_session(*args, **kwargs)

    monkeypatch.setattr(cli, "run_session", counted)
    assert main(["calibrate", "--kappas", "1.2,1.2", "--p-hists", "0.5,0.5,0.5",
                 "--runs", "1"]) == 0
    table = capsys.readouterr().out.splitlines()[1:]
    assert len(table) == 1 and table[0].endswith("<-- chosen")
    assert len(sessions) == 1


def test_calibrate_prints_distinct_cells_apart(tmp_path, capsys):
    # Two decimals used to print kappa 1.0 and 1.0001 as the same "1.00"
    # row; the table must tell which cell the fragment holds.
    frag = tmp_path / "drift.json"
    assert main(["calibrate", "--runs", "1", "--kappas", "1.0,1.0001", "--p-hists", "0.5",
                 "--out", str(frag)]) == 0
    table = capsys.readouterr().out.splitlines()[1:3]
    cells = [row.split()[:2] for row in table]
    assert cells == [["1.0", "0.5"], ["1.0001", "0.5"]]
    assert sum(row.endswith("<-- chosen") for row in table) == 1
    chosen = next(cells[k] for k, row in enumerate(table) if row.endswith("<-- chosen"))
    drift = json.loads(frag.read_text())["drift"]
    assert [float(x) for x in chosen] == [drift["history_multiplier"], drift["p_history_escalation"]]


def test_calibrate_empty_grid_exits_3(capsys):
    assert main(["calibrate", "--kappas", "", "--runs", "2"]) == 3
    assert "error:" in capsys.readouterr().err
