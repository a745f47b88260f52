"""One pass of one workload, in a fresh process so no program cache carries over.

Run by run.py, not by hand:

    python3 bench/worker.py --workload W --seed N --trace 0|1 \
        --launch-ns T --result FILE --workdir DIR [--spans FILE] [--tiny]
        [--setup-only] [--speed-index]

``--launch-ns`` is the parent's ``time.monotonic_ns()`` just before it
started this process; set-up time runs from there to the first operation
and so covers interpreter start, imports, input generation and map or
config construction.  The pass writes one JSON object to ``--result``;
with ``--setup-only`` it stops before the first operation and reports
only its set-up time.  With ``--speed-index`` a SpeedSampler (speed.py)
runs from before the package import to the end of the pass, and every
time is reported in reference-speed seconds, with the raw times beside.
"""

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seconds(sampler, t0_ns: int, t1_ns: int) -> tuple:
    """(reported, raw) seconds of an interval; equal without a sampler."""
    if sampler is None:
        raw = (t1_ns - t0_ns) / 1e9
        return raw, raw
    return sampler.normalized_s(t0_ns, t1_ns), sampler.raw_s(t0_ns, t1_ns)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--launch-ns", type=int, required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spans", default=None)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--speed-index", action="store_true")
    args = ap.parse_args()

    sampler = None
    if args.speed_index:
        from speed import SpeedSampler
        sampler = SpeedSampler()
        sampler.start()

    sys.path.insert(0, str(ROOT / "src"))
    import homconj
    if not Path(homconj.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"homconj imported from {homconj.__file__}, "
                         f"not from {ROOT / 'src'}")

    tracer = None
    if args.trace:
        from tracer import OP_SPAN, Tracer
        tracer = Tracer()
        tracer.install()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.tiny,
                                        Path(args.workdir))
    t_setup = time.monotonic_ns()
    if args.setup_only:
        if sampler is not None:
            sampler.stop()
        setup = seconds(sampler, args.launch_ns, t_setup)
        Path(args.result).write_text(json.dumps(
            {"setup_s": setup[0], "raw": {"setup_s": setup[1]}}))
        return 0

    spans = []
    failures = []
    t_start = time.monotonic_ns()
    for i, label in enumerate(workload.ops):
        t0 = time.monotonic_ns()
        problems = []
        try:
            if tracer is None:
                out = workload.run(i)
            else:
                tracer.op_id = i
                idx = tracer.open(OP_SPAN)
                try:
                    out = workload.run(i)
                finally:
                    tracer.close(idx)
        except Exception as e:  # a raising operation is a failed operation
            problems = [f"{type(e).__name__}: {e}"]
        t1 = time.monotonic_ns()
        spans.append((t0, t1))
        if not problems:
            try:
                problems = workload.check(i, out)
            except Exception as e:
                problems = [f"check raised {type(e).__name__}: {e}"]
        if problems:
            failures.append(f"{label}: {'; '.join(problems)}")
    t_end = time.monotonic_ns()
    if sampler is not None:
        sampler.stop()

    setup = seconds(sampler, args.launch_ns, t_setup)
    wall = seconds(sampler, t_start, t_end)
    ops = [seconds(sampler, t0, t1) for t0, t1 in spans]
    result = {
        "setup_s": setup[0],
        "wall_s": wall[0],
        "op_ms": [op[0] * 1e3 for op in ops],
        "raw": {"setup_s": setup[1], "wall_s": wall[1],
                "op_ms": [op[1] * 1e3 for op in ops]},
        "speed_index": 1.0 if sampler is None else sampler.median_index(),
        "attempted": len(ops),
        "failures": failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "bytes_written": getattr(workload, "bytes_written", 0),
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
        if args.spans:
            tracer.dump(args.spans)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
