"""Ledger benchmark: three closed-loop training workloads, one command.

Run from the repository root::

    python3 ledgerbench/run.py --workload fig3-trim --seed 0 --seconds 30 --trace 0

Each run starts fresh episode processes (``episode.py``) one after the
other, then extra set-up-only processes until there are at least
``SETUP_SAMPLES`` set-up times.  Only one workload process runs at a
time.  The number of episodes is ``--seconds`` over the workload's
nominal episode length on a 2-core x86 host, so a run does a fixed
amount of work: a faster program finishes sooner, with the same number
of rounds behind every percentile.

All of them run on one CPU.  Host round times are reported at a fixed
reference speed: each round is scaled by a reference kernel timed right
after it (``ledger.reference_kernel``), because the speed of a shared
host's cores swings by up to 1.6x within seconds.

``--trace 0`` prints the end-to-end metrics, measured without spans.
``--trace 1`` alternates untraced and traced episodes and prints the
per-layer ledger of the traced episode with the median wall time.  Both
write details under ``ledgerbench/out/``.  The last stdout line is the
JSON result; a failed output check sets ``"correct": false``.  The exit
code is non-zero, with no result printed, when the program cannot run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

from workloads import WORKLOADS, write_cluster_scenario

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: Rounds per thread left out of host timings at the start of every
#: episode process (cold caches and allocator).
WARMUP_ROUNDS = 2
MIN_EPISODES = 2
#: Wall seconds of one untraced episode process, set-up and checks
#: included, on a shared 2-core x86 host; they only set how many
#: episodes ``--seconds`` buys.
NOMINAL_EPISODE_S = {"fig3-trim": 18.5, "ddp-fabric": 3.9, "cluster-contended": 4.3}
#: CPU seconds of ``ledger.reference_kernel`` on that host when it runs
#: at full speed; host round times are reported at this speed.
REFERENCE_S = 3.0e-3
SETUP_SAMPLES = 5
#: Wall-clock cap for one episode process.
EPISODE_TIMEOUT_S = 120
#: One BLAS thread per episode.  On a shared 2-core host a two-thread
#: BLAS call waits for its slower core: over six alternating pairs of
#: fig3-trim episodes the median round time was about the same (63 ms)
#: but varied by 13 % (sd) with two threads against 5 % with one.
EPISODE_ENV = dict(
    os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1"
)

UNITS = {
    "setup_s": "s",
    "samples_per_s": "samples/s",
    "round_ms_p50": "ms",
    "round_ms_tail": "ms",
    "peak_rss_mb": "MB",
    "final_loss": "nats",
    "final_top1": "fraction",
    "grad_nmse": "ratio",
    "fct_ms_mean": "model_ms",
}
DETERMINISTIC = ("final_loss", "final_top1", "grad_nmse", "fct_ms_mean")

LAYER_TIMES = (
    "setup.import",
    "setup.data",
    "setup.build",
    "nn.forward",
    "nn.backward",
    "nn.optim",
    "nn.eval",
    "core.encode",
    "core.decode",
    "collectives.aggregate",
    "core.packetize",
    "core.decode_packets",
    "net.build",
    "net.sim",
)
LAYER_COUNTS = (
    "collectives.messages",
    "packet.packets",
    "net.events",
    "net.forwarded",
    "net.trimmed",
    "net.dropped",
    "transport.retransmissions",
    "transport.timeouts",
    "transport.surrenders",
)


def pin_to_one_cpu() -> None:
    """Run this process, and so every episode it starts, on one CPU.

    The job threads of ``cluster-contended`` hand the GIL and the fabric
    wave back and forth every round.  Across two CPUs each hand-off waits
    for the other CPU to wake: unpinned, its episodes spent about 13 % of
    their wall time idle, and that share swung from run to run.  The
    other workloads run one thread and lose nothing.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


class BenchError(RuntimeError):
    """The program could not be run; no result is printed."""


def spawn_episode(args: argparse.Namespace, trace: int, extra: List[str]) -> Dict:
    t0 = time.perf_counter()
    cmd = [
        sys.executable,
        str(HERE / "episode.py"),
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--t0",
        repr(t0),
        "--trace",
        str(trace),
        *extra,
    ]
    proc = subprocess.run(
        cmd,
        cwd=ROOT,
        env=EPISODE_ENV,
        capture_output=True,
        text=True,
        timeout=EPISODE_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(
            f"episode exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
    return json.loads(lines[-1])


def tail(durations: List[float]):
    """Highest percentile with at least 10 samples beyond it."""
    ranked = sorted(durations)
    n = len(ranked)
    if n <= 10:
        return ranked[-1], 100.0 * (n - 1) / n if n > 1 else 0.0
    return ranked[n - 11], 100.0 * (n - 10) / n


def timed_rounds(episode: Dict, warmup: int):
    """Rounds after each thread's warm-up and the seconds they span.

    Returns ``(durations, references, samples, seconds)``: one duration
    and one reference-kernel time per kept round, their training samples,
    and the wall seconds from the end of the last warm-up round to the
    end of the phase, less the reference kernels run in that window.
    """
    seen: Dict[int, int] = {}
    t_warm = episode["phase_end"] - episode["phase_s"]
    rounds = sorted(episode["rounds"])
    for end, _, _, thread, _ in rounds:
        seen[thread] = seen.get(thread, 0) + 1
        if seen[thread] <= warmup:
            t_warm = max(t_warm, end)
    seen.clear()
    kept = []
    kernels = 0.0
    for end, duration, samples, thread, reference in rounds:
        seen[thread] = seen.get(thread, 0) + 1
        if end >= t_warm:
            kernels += reference
        if seen[thread] > warmup:
            kept.append((duration, reference, samples))
    return (
        [d for d, _, _ in kept],
        [r for _, r, _ in kept],
        sum(s for _, _, s in kept),
        episode["phase_end"] - t_warm - kernels,
    )


def cluster_cli_digest(args: argparse.Namespace) -> str:
    """SHA-256 of ``repro-cluster run <scenario> --seed S`` output."""
    scenario = write_cluster_scenario(args.seed, OUT)
    out_file = OUT / f"cli-report-seed{args.seed}.json"
    env = dict(EPISODE_ENV, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "repro.cluster",
            "run",
            str(scenario),
            "--seed",
            str(args.seed),
            "--out",
            str(out_file),
        ],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=EPISODE_TIMEOUT_S,
    )
    if proc.returncode != 0:
        return f"cli exited {proc.returncode}"
    return hashlib.sha256(out_file.read_bytes()).hexdigest()


def run_episodes(args: argparse.Namespace) -> Tuple[List[Dict], List[Dict]]:
    """Untraced and traced episodes; with ``--trace 1`` every other one."""
    count = max(MIN_EPISODES, round(args.seconds / NOMINAL_EPISODE_S[args.workload]))
    plain: List[Dict] = []
    traced: List[Dict] = []
    OUT.mkdir(exist_ok=True)
    for index in range(count):
        trace = bool(args.trace) and index % 2 == 1
        extra = []
        if trace:
            spans = OUT / f"spans-{args.workload}-seed{args.seed}-{len(traced)}.jsonl"
            extra = ["--spans", str(spans)]
        episode = spawn_episode(args, int(trace), extra)
        (traced if trace else plain).append(episode)
    return plain, traced


def collect_checks(episodes: List[Dict], args: argparse.Namespace) -> List[str]:
    checks = [c for e in episodes for c in e["checks"]]
    first = episodes[0]
    for e in episodes[1:]:
        for key in DETERMINISTIC:
            if e["outputs"][key] != first["outputs"][key]:
                checks.append(f"{key} differs between same-seed episodes")
        if e.get("report_sha256") != first.get("report_sha256"):
            checks.append("cluster report differs between same-seed episodes")
    if args.workload == "cluster-contended":
        cli = cluster_cli_digest(args)
        if cli != first["report_sha256"]:
            checks.append(f"report is not byte-identical to repro-cluster run ({cli})")
    return checks


def end_to_end(plain: List[Dict], setups: List[float]) -> Tuple[Dict, Dict]:
    """End-to-end metrics; round times at the reference host's speed.

    Each round's wall time is scaled by ``REFERENCE_S`` over the reference
    kernel's time just after it, and the phase seconds behind
    ``samples_per_s`` by ``REFERENCE_S`` over the kernel's mean time.
    The unscaled wall-clock figures go to the details as ``wall``.
    """
    raw: List[float] = []
    scaled: List[float] = []
    references: List[float] = []
    samples = 0
    seconds = 0.0
    for episode in plain:
        d, r, s, t = timed_rounds(episode, WARMUP_ROUNDS)
        raw += d
        scaled += [x * REFERENCE_S / y for x, y in zip(d, r)]
        references += r
        samples += s
        seconds += t
    scale = REFERENCE_S / statistics.fmean(references)
    tail_ms, tail_pct = tail(scaled)
    outputs = plain[0]["outputs"]
    metrics = {
        "setup_s": statistics.median(setups),
        "samples_per_s": samples / (seconds * scale),
        "round_ms_p50": 1e3 * statistics.median(scaled),
        "round_ms_tail": 1e3 * tail_ms,
        "peak_rss_mb": statistics.median(e["rss_mb"] for e in plain),
        **{key: outputs[key] for key in DETERMINISTIC},
    }
    detail = {
        "rounds_timed": len(scaled),
        "round_ms_tail_percentile": tail_pct,
        "setup_samples": len(setups),
        "episodes": len(plain),
        "reference_ms_mean": 1e3 * statistics.fmean(references),
        "wall": {
            "samples_per_s": samples / seconds,
            "round_ms_p50": 1e3 * statistics.median(raw),
            "round_ms_tail": 1e3 * tail(raw)[0],
        },
    }
    return metrics, detail


def per_layer(plain: List[Dict], traced: List[Dict]) -> Tuple[Dict, Dict]:
    ranked = sorted(traced, key=lambda e: e["wall_s"])
    rep = ranked[(len(ranked) - 1) // 2]
    ledger, counts, wall = rep["ledger"], rep["counts"], rep["wall_s"]
    metrics = {f"{layer}_s": ledger.get(layer, 0.0) for layer in LAYER_TIMES}
    metrics.update({name: counts.get(name, 0) for name in LAYER_COUNTS})
    coords = counts.get("core.coords", 0)
    codec_s = ledger.get("core.encode", 0.0) + ledger.get("core.decode", 0.0)
    events = counts.get("net.events", 0)
    delivered = counts.get("packet.data_delivered", 0)
    metrics.update(
        {
            "core.ns_per_coord": 1e9 * codec_s / coords if coords else 0.0,
            "net.ns_per_event": 1e9 * ledger.get("net.sim", 0.0) / events
            if events
            else 0.0,
            "packet.wire_bytes": counts.get("packet.wire_bytes", 0),
            "packet.trimmed_share": counts.get("packet.data_trimmed", 0) / delivered
            if delivered
            else 0.0,
            "ledger.wall_s": wall,
            "ledger.other_share": ledger["other"] / wall,
            "obs.trace_overhead": statistics.median(e["wall_s"] for e in traced)
            / statistics.median(e["wall_s"] for e in plain)
            - 1.0,
        }
    )
    return metrics, rep


PER_LAYER_UNITS = {
    **{f"{layer}_s": "s" for layer in LAYER_TIMES},
    **{name: "count" for name in LAYER_COUNTS},
    "core.ns_per_coord": "ns/coord",
    "net.ns_per_event": "ns/event",
    "packet.wire_bytes": "bytes",
    "packet.trimmed_share": "fraction",
    "ledger.wall_s": "s",
    "ledger.other_share": "fraction",
    "obs.trace_overhead": "fraction",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    pin_to_one_cpu()
    try:
        plain, traced = run_episodes(args)
        episodes = plain + traced
        checks = collect_checks(episodes, args)
        setups = [e["setup_s"] for e in episodes]
        while not args.trace and len(setups) < SETUP_SAMPLES:
            setups.append(spawn_episode(args, 0, ["--setup-only"])["setup_s"])
    except (BenchError, subprocess.TimeoutExpired, KeyError, ValueError) as error:
        print(f"benchmark could not run: {error}", file=sys.stderr)
        return 1
    attempted = sum(e["attempted"] for e in episodes)
    failed = sum(e["failed"] for e in episodes)
    if args.trace:
        metrics, rep = per_layer(plain, traced)
        units = PER_LAYER_UNITS
        detail = {"ledger": rep["ledger"], "counts": rep["counts"]}
    else:
        metrics, detail = end_to_end(plain, setups)
        units = UNITS
    detail.update(
        {
            "workload": args.workload,
            "seed": args.seed,
            "attempted": attempted,
            "failed": failed,
            "failed_share": failed / attempted,
            "checks": checks,
            "metrics": metrics,
        }
    )
    name = f"{'ledger' if args.trace else 'result'}-{args.workload}-seed{args.seed}.json"
    (OUT / name).write_text(json.dumps(detail, indent=2, sort_keys=True) + "\n")
    for check in checks:
        print(f"CHECK FAILED: {check}")
    summary = {k: v for k, v in detail.items() if k not in ("metrics", "ledger")}
    print(json.dumps(summary, sort_keys=True))
    result = {
        "correct": not checks,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
