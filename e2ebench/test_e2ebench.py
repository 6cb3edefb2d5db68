"""The benchmark's own tests.  Run from the checkout root::

    python3 -m pytest e2ebench -q
"""

from __future__ import annotations

import ast
import dataclasses
import json
import pathlib
import shutil
import subprocess
import sys
import textwrap

import pytest

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import metrics  # noqa: E402
import run  # noqa: E402
from harness import run_window, time_setup  # noqa: E402
from oracle import Oracle  # noqa: E402
from tracer import LAYERS, Tracer, targets_for  # noqa: E402
from workloads import MIN_EVENTS, MIN_SAMPLES, WORKLOADS, generate_stream, tiny  # noqa: E402

#: A traced served tiny run reads lower coverage than the full-size one
#: (0.92-0.93): its replies are smaller, so the server's event loop and socket
#: work outside every span is a larger share of its CPU.
MIN_COVERAGE = {"served-chord-1k": 0.75}


def _run(workload: str, seed: int, trace: int, cwd: pathlib.Path = ROOT):
    command = [sys.executable, str(cwd / "e2ebench" / "run.py"),
               "--workload", workload, "--seed", str(seed), "--seconds", "3",
               "--trace", str(trace), "--tiny"]
    return subprocess.run(command, cwd=str(cwd), capture_output=True,
                          text=True, timeout=300)


def _result(completed) -> dict:
    assert completed.returncode == 0, completed.stderr[-3000:]
    return json.loads(completed.stdout.strip().splitlines()[-1])


def _detail(workload: str, seed: int, trace: int) -> dict:
    path = ROOT / ".e2ebench-out" / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    result = _result(_run(workload, 3, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = metrics.END_TO_END if trace == 0 else metrics.PER_LAYER
    assert list(result["metrics"]) == [entry[0] for entry in expected]
    for name, unit, *_rest in expected:
        entry = result["metrics"][name]
        assert entry["unit"] == unit
        assert isinstance(entry["value"], float) or isinstance(entry["value"], int)
    if trace == 0:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())
    else:
        coverage = result["metrics"]["trace.coverage"]["value"]
        assert MIN_COVERAGE.get(workload, 0.9) <= coverage <= 1.0
        assert result["metrics"]["error_rate"]["value"] == 0


def test_same_seed_repeats_counts_and_other_seed_changes_the_stream():
    counted = ("msgs_per_op", "bytes_per_op", "current_rate")
    first = _result(_run("churn-can-200", 5, 0))
    first_wire = _detail("churn-can-200", 5, 0)["windows"][0]
    second = _result(_run("churn-can-200", 5, 0))
    second_wire = _detail("churn-can-200", 5, 0)["windows"][0]
    for name in counted:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"]
    for field in ("messages", "model_bytes", "wire_bytes", "data_ops", "events"):
        assert first_wire[field] == second_wire[field]
    spec = tiny(WORKLOADS["served-chord-1k"])
    assert generate_stream(spec, 5, 200) == generate_stream(spec, 5, 200)
    assert generate_stream(spec, 5, 200) != generate_stream(spec, 6, 200)


def test_full_size_streams_hold_enough_samples():
    for spec in WORKLOADS.values():
        _warmup, stream = generate_stream(spec, 1, spec.items_per_second * 10)
        kinds = [item[0] for item in stream]
        assert kinds.count("retrieve") >= MIN_SAMPLES
        assert kinds.count("insert") >= MIN_SAMPLES
        if spec.event_every:
            assert sum(kind in ("join", "leave", "fail") for kind in kinds) >= MIN_EVENTS


class _StaleService:
    """Wraps a service: every retrieve returns old data flagged current."""

    def __init__(self, inner) -> None:
        self.inner = inner

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def retrieve(self, key, **kwargs):
        result = self.inner.retrieve(key, **kwargs)
        return dataclasses.replace(result, data={"w": "stale"}, is_current=True)


def test_oracle_catches_a_stale_answer_flagged_current():
    spec = tiny(WORKLOADS["local-kademlia-10k"])
    system, oracle, _seconds, _factor = time_setup(spec)
    system.session.service = _StaleService(system.session.service)
    warmup, stream = generate_stream(spec, 1, 40)
    stream = [item for item in stream if item[0] != "retrieve"] + [
        ("retrieve", "key-00001")]
    window = run_window(system, oracle, [], stream)
    assert window.failed == 1
    assert any("flagged current" in error for error in window.errors)
    assert metrics.workload_extras(window)["error_rate"] > 0


def test_oracle_catches_a_timestamp_that_does_not_rise():
    oracle = Oracle()

    @dataclasses.dataclass
    class Stamp:
        key: str
        value: int

    @dataclasses.dataclass
    class Answer:
        replicas_written: int
        timestamp: Stamp

    assert oracle.check_insert("k", 1, Answer(10, Stamp("k", 5)))
    assert not oracle.check_insert("k", 2, Answer(10, Stamp("k", 5)))
    assert oracle.violations


def test_a_violation_makes_the_run_exit_non_zero(monkeypatch, capsys):
    from repro.core.ums import UpdateManagementService

    original = UpdateManagementService.retrieve

    def stale(self, key, **kwargs):
        result = original(self, key, **kwargs)
        return dataclasses.replace(result, data={"w": "stale"}, is_current=True)

    monkeypatch.setattr(UpdateManagementService, "retrieve", stale)
    code = run.main(["--workload", "local-kademlia-10k", "--seed", "1",
                     "--seconds", "1", "--trace", "0", "--tiny"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert result["correct"] is False and result["failed"] > 0


def _launcher_without(tmp_path: pathlib.Path, layers) -> pathlib.Path:
    """A traced-server launcher that leaves ``layers`` unwrapped."""
    script = tmp_path / "serve_without.py"
    script.write_text(textwrap.dedent(f"""
        import runpy, sys
        sys.path.insert(0, {str(BENCH_DIR)!r})
        import tracer
        every = tracer.targets_for
        tracer.targets_for = lambda protocol, side: [
            pair for pair in every(protocol, side) if pair[0] not in {sorted(layers)!r}]
        runpy.run_path({str(run.SERVER_LAUNCHER)!r}, run_name="__main__")
    """), encoding="utf-8")
    return script


def _served_traced(monkeypatch, capsys, launcher: pathlib.Path):
    monkeypatch.setattr(run, "SERVER_LAUNCHER", launcher)
    code = run.main(["--workload", "served-chord-1k", "--seed", "3",
                     "--seconds", "3", "--trace", "1", "--tiny"])
    return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_coverage_drops_when_server_layers_are_left_out(tmp_path, monkeypatch,
                                                         capsys):
    # Only the codec stays wrapped in the server: dispatch and everything
    # below it run outside every span, and coverage must show it.
    below_codec = {layer for layer, (side, _targets) in LAYERS.items()
                   if side == "server"}
    code, result = _served_traced(monkeypatch, capsys,
                                  _launcher_without(tmp_path, below_codec))
    assert code == 0 and result["correct"] is True
    assert result["metrics"]["trace.coverage"]["value"] < 0.5


def test_a_traced_server_without_spans_fails_the_run(tmp_path, monkeypatch, capsys):
    code, result = _served_traced(monkeypatch, capsys,
                                  _launcher_without(tmp_path, set(LAYERS)))
    assert code != 0 and result["correct"] is False
    detail = _detail("served-chord-1k", 3, 1)
    assert "the traced server recorded no spans" in detail["errors"]


def test_calibration_imports_nothing_from_repro():
    tree = ast.parse((BENCH_DIR / "calibration.py").read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
    assert imported <= {"__future__", "hashlib", "statistics", "time", "typing"}
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import calibration; "
             "c = calibration.Calibration(); c.slice(); c.slice(); c.factor_for_block(0); "
             "assert not [m for m in sys.modules if m.split('.')[0] == 'repro']")
    subprocess.run([sys.executable, "-c", probe, str(BENCH_DIR)], check=True,
                   timeout=60)


def test_missing_target_is_reported_not_fatal():
    tracer = Tracer()
    tracer.install([("dht.route", "repro.dht.chord:ChordRing.no_such_route"),
                    ("net.codec", "repro.no_such_module:encode_frame"),
                    ("dht.hashing", "repro.dht.hashing:PairwiseIndependentHash.__call__")])
    try:
        assert tracer.missing == ["repro.dht.chord:ChordRing.no_such_route",
                                  "repro.no_such_module:encode_frame"]
        from repro.dht.hashing import HashFamily

        HashFamily(bits=32, seed=1).sample("h")("key")
        assert tracer.calls["repro.dht.hashing:PairwiseIndependentHash.__call__"] == 1
    finally:
        tracer.uninstall()
    from repro.dht.hashing import PairwiseIndependentHash

    assert not hasattr(PairwiseIndependentHash.__call__, "__wrapped__")


def test_every_named_target_exists_today():
    for protocol in ("chord", "kademlia", "can"):
        tracer = Tracer()
        tracer.install(targets_for(protocol, "all"))
        tracer.uninstall()
        assert tracer.missing == []


def test_benchmark_json_matches_the_definitions():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert spec["command"] == ["python3", "e2ebench/run.py"]
    assert spec["paths"] == ["e2ebench"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]] == metrics.END_TO_END
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == metrics.PER_LAYER


def test_bare_directory_exits_non_zero_without_a_result(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    completed = _run("served-chord-1k", 1, 0, cwd=tmp_path)
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
