"""Tests of the benchmark itself.

Run from the repository root with ``python -m pytest perfbench -q``
(about a minute: every workload runs once plain and once traced).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SEED = workloads.DEFAULT_SEED
REFERENCE = json.loads((HERE / "digests.json").read_text())


@pytest.fixture(scope="module")
def reps():
    """One plain and one traced repetition per workload (plus the
    telemetry-off arm of ``wrf-diagnosed``), measured in this process."""
    out = {}
    for name in workloads.NAMES:
        modes = ["plain", "traced"]
        if name == "wrf-diagnosed":
            modes.append("telemetry-off")
        out[name] = [worker.measure(name, SEED, mode, 1, None) for mode in modes]
    return out


SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def declared():
    return (
        {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
        {m["name"]: m["unit"] for m in SPEC["per_layer"]},
    )


def test_benchmark_json_declares_what_run_reports():
    end_to_end, per_layer = declared()
    assert end_to_end == run.END_TO_END
    assert per_layer == run.per_layer_units()
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.NAMES)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_every_metric_is_emitted_with_its_unit(reps, name):
    end_to_end, per_layer = declared()
    plain = run.evaluate(name, SEED, reps[name], trace=False)
    assert {k: v["unit"] for k, v in run.metrics_json(plain, False).items()} == end_to_end
    traced = run.evaluate(name, SEED, reps[name], trace=True)
    metrics = run.metrics_json(traced, True)
    assert {k: v["unit"] for k, v in metrics.items()} == per_layer
    for value in run.metrics_json(plain, False).values():
        assert value["value"] > 0
    # the workload-specific virtual metrics are there where they apply
    applies = {"sim_consumed_per_s"} if name == "events" else {"sim_read_time_s", "hit_ratio"}
    assert set(plain["virtual"]) == applies
    assert traced["correct"] and traced["failed"] == 0


@pytest.mark.parametrize("name", workloads.NAMES)
def test_digest_matches_reference_traced_or_not(reps, name):
    plain, traced = reps[name][:2]
    assert plain["digest"] == REFERENCE[name][str(SEED)]
    assert traced["digest"] == plain["digest"]


@pytest.mark.parametrize("name", workloads.NAMES)
def test_held_out_seed_changes_digest(name):
    seed = workloads.HELD_OUT_SEED
    prepared = workloads.build(name, seed)
    prepared.run()
    out, _counts = prepared.outputs()
    got = workloads.digest(out)
    assert got != REFERENCE[name][str(SEED)]
    assert got == REFERENCE[name][str(seed)]


@pytest.mark.parametrize("name", workloads.NAMES)
def test_self_times_account_for_traced_run_s(reps, name):
    traced = reps[name][1]
    covered = sum(traced["layer_self_s"].values())
    # the root span opens right after the timer starts and closes right
    # before it stops, so only those few instructions are unaccounted
    assert covered <= traced["run_s"]
    assert traced["run_s"] - covered < 0.01 * traced["run_s"]
    layers = set(traced["layer_self_s"])
    assert layers <= set(run.LAYERS)


def test_events_harness_is_the_fig3a_cell():
    from repro.experiments.fig3a import consumption_rate
    from repro.storage.files import FileSystemModel

    fs = FileSystemModel(default_segment_size=workloads.MB)
    file = fs.create("/pfs/events-bench", size=1 << 30)
    cores = workloads.EVENTS_CORES
    starts = [(c * 37) % file.num_segments for c in range(cores)]
    prepared = workloads.events_harness(fs, file, starts, [0.0] * cores)
    prepared.run()
    out, _counts = prepared.outputs()
    expected = consumption_rate(
        workloads.EVENTS_DAEMONS, workloads.EVENTS_ENGINES, cores,
        events_per_client=workloads.EVENTS_PER_CLIENT,
    )
    assert out["consumption_rate"] == expected


def test_traced_generator_keeps_the_generator_protocol():
    rec = tracing.SpanRecorder()
    nid = rec.name_id("t.gen", "t")

    def body():
        got = yield 1
        try:
            yield got + 1
        except KeyError as exc:
            yield f"caught {exc.args[0]}"
        return "done"

    gen = tracing._traced_generator(body(), nid, rec)
    assert next(gen) == 1
    assert gen.send(10) == 11
    assert gen.throw(KeyError("k")) == "caught k"
    with pytest.raises(StopIteration) as stop:
        next(gen)
    assert stop.value.value == "done"
    assert rec.per_name()[0][nid] == 4 and rec.stack == [-1]

    closed = []

    def closing():
        try:
            yield 1
        finally:
            closed.append(True)

    gen = tracing._traced_generator(closing(), nid, rec)
    next(gen)
    gen.close()
    assert closed == [True]


def test_install_restores_every_entry_point():
    from repro.sim.core import Environment
    from repro.storage.tier import StorageTier

    before = (Environment.process, Environment.run, StorageTier.read)
    handle = tracing.install(tracing.SpanRecorder())
    assert Environment.run is not before[1]
    handle.uninstall()
    assert (Environment.process, Environment.run, StorageTier.read) == before


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "events", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
