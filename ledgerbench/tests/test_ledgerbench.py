"""Smoke-length tests of the ledger benchmark.

Run from the repository root::

    python3 -m pytest ledgerbench/tests -q

Each workload runs a handful of episodes, about five minutes in all.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from ledger import WAIT, Recorder  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
DETERMINISTIC = ("final_loss", "final_top1", "grad_nmse", "fct_ms_mean")


def run_bench(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_episode(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "episode.py"), "--workload", workload,
         "--seed", str(seed), "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result = run_bench(workload, seed=0, trace=trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["attempted"] >= 1 and result["failed"] == 0
        expected = {m["name"]: m["unit"] for m in SPEC[key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == expected
        if trace == 0:
            assert all(m["value"] != 0 for m in result["metrics"].values())
        else:
            layers = result["metrics"]
            assert layers["ledger.other_share"]["value"] <= 0.05
            bypass = workload == "fig3-trim"
            assert (layers["net.events"]["value"] == 0) == bypass
            assert (layers["core.packetize_s"]["value"] == 0) == bypass
            assert (layers["net.trimmed"]["value"] > 0) != bypass


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_repeats_and_other_seed_differs(workload):
    first, again, other = (run_episode(workload, s) for s in (5, 5, 6))
    assert first["checks"] == [] and other["checks"] == []
    for key in DETERMINISTIC:
        assert first["outputs"][key] == again["outputs"][key]
    assert first["counts"] == again["counts"]
    assert first.get("report_sha256") == again.get("report_sha256")
    assert any(first["outputs"][k] != other["outputs"][k] for k in DETERMINISTIC)
    if workload != "fig3-trim":  # fig3-trim's counts are its fixed shape
        assert first["counts"] != other["counts"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("out"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", WORKLOADS[0],
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_ledger_shares_overlapping_threads_and_sums_to_wall():
    rec = Recorder(trace=True)
    t0 = time.perf_counter()
    rec.begin("a", start=t0)
    rec.begin("b")
    time.sleep(0.01)
    rec.end()
    rec.end()
    # Another thread parks in a wait span while this one works.
    import threading

    def parked():
        rec.begin(WAIT)
        time.sleep(0.02)
        rec.end()

    worker = threading.Thread(target=parked)
    rec.begin("c")
    worker.start()
    worker.join(timeout=5)
    assert not worker.is_alive()
    rec.end()
    time.sleep(0.005)
    t1 = time.perf_counter()
    ledger = rec.ledger(t0, t1)
    assert sum(ledger.values()) == pytest.approx(t1 - t0, rel=1e-9)
    assert ledger["c"] >= 0.02  # the parked thread claims nothing
    assert ledger["b"] >= 0.01 and ledger["other"] >= 0.005


def test_round_times_are_scaled_to_the_reference_speed():
    import run

    def episode(slowdown: float) -> dict:
        rounds = []
        t = 0.0
        for i in range(6):
            t += 0.05 * slowdown
            rounds.append((t, 0.05 * slowdown, 8, 1, run.REFERENCE_S * slowdown))
            t += run.REFERENCE_S * slowdown
        return {
            "rounds": rounds, "phase_end": t, "phase_s": t, "rss_mb": 1.0,
            "outputs": {key: 1.0 for key in DETERMINISTIC},
        }

    fast, _ = run.end_to_end([episode(1.0)], [0.5])
    slow, detail = run.end_to_end([episode(1.6)], [0.5])
    for key in ("samples_per_s", "round_ms_p50", "round_ms_tail"):
        assert slow[key] == pytest.approx(fast[key], rel=1e-9)
    assert fast["round_ms_p50"] == pytest.approx(50.0)
    assert fast["samples_per_s"] == pytest.approx(8 / 0.05)
    assert detail["wall"]["round_ms_p50"] == pytest.approx(80.0)
