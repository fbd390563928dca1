"""One benchmark episode: a fresh process that sets up and trains once.

Run from the repository root by ``ledgerbench/run.py``::

    python3 ledgerbench/episode.py --workload fig3-trim --seed 0 --t0 <spawn time>

``--t0`` is the parent's ``time.perf_counter()`` just before it spawned
this process (the clock is system-wide on Linux), so set-up time counts
interpreter start and every import.  The last stdout line is one JSON
object; the exit code is 0 whenever that object was printed, including
when a check failed (the checks travel in the object).
"""

from __future__ import annotations

import time

T_ENTRY = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from ledger import Recorder, install_common, transport_counts  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", help="write the traced spans here (JSONL)")
    args = parser.parse_args(argv)
    t0 = T_ENTRY if args.t0 is None else args.t0

    rec = Recorder(trace=bool(args.trace), calibrate=not args.trace)
    rec.begin("setup.import", start=t0)
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, rec)
    workload.imports()
    install_common(rec)
    rec.end()
    rec.begin("setup.data")
    workload.data()
    rec.end()
    rec.begin("setup.build")
    workload.build()
    rec.end()
    rec.start_phase()
    setup_s = rec.phase_start - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    workload.run()
    t_end = time.perf_counter()
    outputs = workload.result()
    out = {
        "setup_s": setup_s,
        # Reference kernels ran on the episode's critical path; the
        # trace overhead compares wall times without them.
        "wall_s": t_end - t0 - sum(r[4] for r in rec.rounds),
        "phase_s": t_end - rec.phase_start,
        "phase_end": t_end,
        "rounds": rec.rounds,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "outputs": outputs,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "checks": workload.checks,
        "counts": {"net.events": rec.counts.get("net.events", 0)},
    }
    if args.trace:
        out["counts"] = {**rec.counts, **transport_counts()}
        out["ledger"] = rec.ledger(t0, t_end)
        if args.spans:
            rec.write_spans(args.spans)
    if hasattr(workload, "report_text"):
        out["report_sha256"] = hashlib.sha256(
            workload.report_text.encode()
        ).hexdigest()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
