"""One workload in one fresh process (started by run.py).

    python3 worker.py WORKLOAD --seed N --mode setup|untraced|traced
                      [--seconds S] [--trace-file FILE]

Prints ``ready`` once the inputs are built, so the parent can time
set-up from spawn; ``--mode setup`` exits there.  The other modes run
passes in a closed loop and print one JSON object as the last line.
Timing wrappers are installed only with ``--mode traced``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"


def _passes(workload, inputs, spans, seconds):
    """Run passes until the pass count or the time budget is used up."""
    from spans import ROOT as ROOT_SPAN, SpanRecorder
    from workloads import PassLog

    recorder = spans if isinstance(spans, SpanRecorder) else None

    out = []
    walls = []
    start = time.perf_counter()
    while True:
        gc.collect()  # garbage of the previous pass is not this pass's cost
        began = time.perf_counter()
        log = PassLog()
        if recorder is not None:
            recorder.totals, recorder.counts, recorder.check = {}, {}, -1
            recorder.enter(ROOT_SPAN)
        workload.run_pass(inputs, spans, log)
        for _ in range(workload.checks - log.attempted):
            log.verdict(False, "check skipped after a crash")
        record = {
            "seconds": log.seconds,
            "segments": log.segments,
            "attempted": log.attempted,
            "failed": log.failed,
            "failures": log.failures[:5],
            "peak_live_nodes": log.peak_live_nodes,
            "counters": log.counters,
        }
        if recorder is not None:
            recorder.leave()
            record["spans"] = {
                name: [t.self_s, t.calls, t.inclusive]
                for name, t in recorder.totals.items()
            }
            record["counts"] = dict(recorder.counts)
        out.append(record)
        now = time.perf_counter()
        walls.append(now - began)
        if seconds is None:
            if len(out) >= workload.passes:
                return out
        # Start another pass only if it should end within half a pass of
        # the budget: long passes then get a second sample in a run.
        elif now - start + statistics.median(walls) / 2 > seconds:
            return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--mode", choices=("setup", "untraced", "traced"),
                        required=True)
    parser.add_argument("--seconds", type=float,
                        help="measuring time (default: the fixed passes)")
    parser.add_argument("--trace-file")
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"worker: no source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import spans as spans_mod
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    inputs = workload.setup(args.seed)
    print("ready", flush=True)
    if args.mode == "setup":
        return 0

    result = {"workload": workload.name, "mode": args.mode}
    if args.mode == "untraced":
        spans_mod.assert_unwrapped()
        result["passes"] = _passes(workload, inputs, spans_mod.NullSpans(),
                                   args.seconds)
    else:
        recorder = spans_mod.SpanRecorder()
        restore = spans_mod.install(recorder)
        try:
            result["passes"] = _passes(workload, inputs, recorder, args.seconds)
        finally:
            restore()
        if args.trace_file:
            from repro.trace import load_chrome, validate_chrome, write_chrome

            Path(args.trace_file).parent.mkdir(parents=True, exist_ok=True)
            write_chrome(recorder.chrome_events(), args.trace_file,
                         process_name=f"e2e {workload.name}")
            result["trace_file"] = args.trace_file
            result["trace_problems"] = validate_chrome(load_chrome(args.trace_file))
    result["rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
