"""homconj benchmark: closed-loop workloads timed from outside the program.

    python3 bench/run.py --workload picard_eta --seed 1 --seconds 40 --trace 0

Runs passes of the workload's fixed work list, each pass in a fresh worker
process (bench/worker.py), one after the other, until the next pass would
end after ``--seconds``; at least one pass always runs.  With ``--trace 0``
it reports the end-to-end metrics, timed in reference-speed seconds
(speed.py); with ``--trace 1`` it alternates traced and untraced passes and
reports the per-layer metrics in raw seconds.  Human-readable
lines come first; the last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  README.md explains
the workloads and the metrics.
"""

import argparse
import hashlib
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("picard_eta", "premetric_pool", "config_suite")
TOTAL_BUDGET_S = 170.0     # a run must exit within 180 s
SETUP_REPEATS = 5

# -- per-layer metrics, read off the span summary of one traced pass

SELF_S = {
    "families.inverse.self_s": ("families.inverse",),
    "families.forward.self_s": ("families.forward",),
    "conjugacy.picard_solve.self_s": ("conjugacy.picard_solve",),
    "conjugacy.negative_iterates_bound.self_s":
        ("conjugacy.negative_iterates_bound",),
    "funcspace.sample_tables.self_s": ("funcspace.doubling_sample_sets",
                                       "funcspace.exhaustion_sets",
                                       "funcspace.sample_points"),
    "funcspace.validate.self_s": ("funcspace.validate_scale_pair",
                                  "funcspace.validate_gauge"),
    "homspace.premetric.self_s": ("homspace.premetric",),
    "homspace.displacement.self_s": ("homspace.displacement",),
    "homspace.group_membership.self_s": ("homspace.group_membership",),
    "koopman.r_lipschitz.self_s": ("koopman.r_lipschitz",),
    "koopman.check_p_alpha.self_s": ("koopman.check_p_alpha",),
    "koopman.koenigs.self_s": ("koopman.koenigs_eigenfunction",),
    "cli.main.self_s": ("cli.main",),
}
TOTAL_S = {
    "conjugacy.picard_solve.total_s": "conjugacy.picard_solve",
    "conjugacy.negative_iterates_bound.total_s":
        "conjugacy.negative_iterates_bound",
}
CALLS = {
    "conjugacy.negative_iterates_bound.calls":
        "conjugacy.negative_iterates_bound",
    "homspace.premetric.calls": "homspace.premetric",
    "homspace.displacement.calls": "homspace.displacement",
    "koopman.r_lipschitz.calls": "koopman.r_lipschitz",
}
COUNT_UNITS = {
    "cli.bytes_written": "bytes",
    "conjugacy.inverse_rows_per_step": "rows/step",
    "funcspace.sample_tables.reuse_ratio": "ratio",
}
LAYER_NAMES = ("funcspace", "homspace", "koopman", "conjugacy", "families",
               "cli")


def layer_metrics(pass_result: dict) -> tuple:
    """Per-layer values of one traced pass, split into (counts, times)."""
    tr = pass_result["trace"]
    spans, counters = tr["spans"], tr["counters"]

    def self_s(names):
        return sum(spans.get(n, {}).get("self_ns", 0) for n in names) / 1e9

    counts = dict(counters)
    for metric, name in CALLS.items():
        counts[metric] = spans.get(name, {}).get("calls", 0)
    counts["cli.bytes_written"] = pass_result["bytes_written"]
    steps = counters["conjugacy.picard.steps"]
    calls = counters["funcspace.sample_tables.calls"]
    counts["conjugacy.inverse_rows_per_step"] = (
        counters["families.inverse.rows"] / steps if steps else 0.0)
    counts["funcspace.sample_tables.reuse_ratio"] = (
        counters["funcspace.sample_tables.distinct_keys"] / calls
        if calls else 0.0)

    times = {m: self_s(names) for m, names in SELF_S.items()}
    for metric, name in TOTAL_S.items():
        times[metric] = spans.get(name, {}).get("total_ns", 0) / 1e9
    by_layer = {layer: 0 for layer in LAYER_NAMES}
    for name, rec in spans.items():
        layer = name.split(".")[0]
        if layer in by_layer:
            by_layer[layer] += rec["self_ns"]
    for layer, ns in by_layer.items():
        times[f"{layer}.self_s"] = ns / 1e9
    return counts, times


# -- provenance --------------------------------------------------------

def provenance(seed: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    rev = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0:
                rev = out.stdout.strip()
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    try:
        import numpy
        np_version = numpy.__version__
    except ImportError:
        np_version = "missing"
    return {"seed": seed, "nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": np_version,
            "git_rev": rev, "src_sha256": digest.hexdigest()[:16]}


# -- passes ------------------------------------------------------------

def run_pass(workload: str, seed: int, trace: bool, tiny: bool,
             deadline: float, index: int, setup_only: bool = False,
             speed_index: bool = False) -> dict:
    workdir = OUT / f"work-{os.getpid()}-{index}"
    result_file = OUT / f"pass-{os.getpid()}-{index}.json"
    cmd = [sys.executable, str(BENCH / "worker.py"),
           "--workload", workload, "--seed", str(seed),
           "--trace", "1" if trace else "0",
           "--result", str(result_file), "--workdir", str(workdir)]
    if trace:
        cmd += ["--spans", str(OUT / f"spans-{workload}-seed{seed}.json")]
    if tiny:
        cmd.append("--tiny")
    if setup_only:
        cmd.append("--setup-only")
    if speed_index:
        cmd.append("--speed-index")
    env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    workdir.mkdir(parents=True)
    t0 = time.monotonic()
    launch_ns = time.monotonic_ns()
    proc = subprocess.Popen(cmd + ["--launch-ns", str(launch_ns)], env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                            text=True)
    try:
        _, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"{workload} pass {index} overran the run budget")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} pass {index} exited "
                           f"{proc.returncode}:\n{err[-4000:]}")
    result = json.loads(result_file.read_text())
    result_file.unlink()
    result["elapsed_s"] = time.monotonic() - t0
    return result


def run_passes(args) -> tuple:
    """Closed loop: next pass only after the previous one returned.

    Untraced runs first launch SETUP_REPEATS workers that stop after
    set-up, so setup_s is a median of many set-ups even when a pass is
    long.  Traced runs alternate traced and untraced passes.
    """
    start = time.monotonic()
    deadline = start + TOTAL_BUDGET_S
    counter = itertools.count()

    def launch(trace: bool, setup_only: bool = False) -> dict:
        return run_pass(args.workload, args.seed, trace, args.tiny, deadline,
                        next(counter), setup_only, speed_index=not args.trace)

    setups = [] if args.trace else [launch(False, setup_only=True)
                                    for _ in range(SETUP_REPEATS)]
    kinds = (True, False) if args.trace else (False,)
    plain, traced = [], []
    for n in itertools.count():
        kind = kinds[n % len(kinds)]
        done = traced if kind else plain
        # every kind runs once; after that, stop before a pass that would
        # end past --seconds, judged by the last pass of the same kind
        if n >= len(kinds) and \
                time.monotonic() - start + done[-1]["elapsed_s"] > args.seconds:
            break
        done.append(launch(kind))
    return setups + plain, plain, traced


# -- reporting ---------------------------------------------------------

def quantile(values, q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def work_list_s(passes: list) -> float:
    """Time to finish the work list, robust to a burst in one pass.

    Sum over operations of each operation's median latency across the
    passes, plus the median time the pass spent between operations.
    """
    ops_s = sum(statistics.median(col)
                for col in zip(*(p["op_ms"] for p in passes))) / 1e3
    between = statistics.median(p["wall_s"] - sum(p["op_ms"]) / 1e3
                                for p in passes)
    return ops_s + between


def timings(setups: list, plain: list) -> dict:
    """wall_s, op_p50_ms, op_p90_ms and setup_s of the given passes."""
    ops = [ms for p in plain for ms in p["op_ms"]]
    return {
        "wall_s": work_list_s(plain),
        "op_p50_ms": statistics.median(ops),
        "op_p90_ms": quantile(ops, 90),
        "setup_s": statistics.median(p["setup_s"] for p in setups),
    }


def end_to_end(setups: list, plain: list) -> tuple:
    """End-to-end metrics in reference-speed time, raw times in the notes."""
    timed = timings(setups, plain)
    raw = timings([p["raw"] for p in setups], [p["raw"] for p in plain])
    units = {"wall_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms",
             "setup_s": "s"}
    metrics = {name: (val, units[name]) for name, val in timed.items()}
    metrics["peak_rss_mb"] = (
        statistics.median(p["peak_rss_mb"] for p in plain), "MiB")
    n_ops = sum(len(p["op_ms"]) for p in plain)
    beyond = sum(1 for p in plain for ms in p["op_ms"]
                 if ms > timed["op_p90_ms"])
    notes = {"op_p50_ms": f"n={n_ops}",
             "op_p90_ms": f"n={n_ops}, {beyond} beyond"
             + ("" if beyond >= 10 else "; fewer than 10 beyond, read as the"
                " slowest operations"),
             "wall_s": f"per-operation medians over {len(plain)} passes",
             "setup_s": f"median of {len(setups)} set-ups",
             "peak_rss_mb": f"median of {len(plain)} passes"}
    for name, val in raw.items():
        notes[name] += f"; raw {val:.6g} {units[name]}"
    index = statistics.median(p["speed_index"] for p in plain)
    notes["wall_s"] += f"; median host speed index {index:.3f}"
    return metrics, notes


def per_layer(plain: list, traced: list) -> tuple:
    problems = []
    counts, times = [], []
    for p in traced:
        c, t = layer_metrics(p)
        counts.append(c)
        times.append(t)
    if any(c != counts[0] for c in counts[1:]):
        problems.append("counts differ between traced passes")
    metrics = {}
    for name, val in counts[0].items():
        metrics[name] = (val, COUNT_UNITS.get(name, "count"))
    for name in times[0]:
        metrics[name] = (statistics.median(t[name] for t in times), "s")
    wall = work_list_s(traced)
    layers = sum(metrics[f"{layer}.self_s"][0] for layer in LAYER_NAMES)
    metrics["trace.wall_s"] = (wall, "s")
    metrics["trace.unattributed_s"] = (wall - layers, "s")
    metrics["trace.overhead_s"] = (wall - work_list_s(plain), "s")
    notes = {"trace.overhead_s": "traced wall_s minus untraced wall_s, "
             f"{len(traced)} traced and {len(plain)} untraced passes",
             "trace.unattributed_s": "trace.wall_s minus the six layers' "
             "self_s: the benchmark's own code between and around calls"}
    return metrics, notes, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="shrink every workload (smoke test)")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be a nonnegative integer")

    if not (ROOT / "src" / "homconj" / "__init__.py").is_file():
        print(f"error: no homconj sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        for name in WORKLOADS:
            code = main([*(argv if argv is not None else sys.argv[1:]),
                         "--workload", name])
            if code:
                return code
        return 0

    OUT.mkdir(exist_ok=True)
    prov = provenance(args.seed)
    try:
        setups, plain, traced = run_passes(args)
    except RuntimeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    passes = plain + traced
    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    problems = []
    if args.trace:
        metrics, notes, problems = per_layer(plain, traced)
    else:
        metrics, notes = end_to_end(setups, plain)

    print(f"workload {args.workload}  trace {args.trace}  "
          + "  ".join(f"{k}={v}" for k, v in prov.items()))
    print(f"  fail_ratio = {len(failures) / attempted:.6g} ratio "
          f"({len(failures)} of {attempted} operations)")
    for name, (val, unit) in metrics.items():
        note = notes.get(name)
        print(f"  {name} = {val:.6g} {unit}" + (f"  ({note})" if note else ""))
    for line in (failures + problems)[:20]:
        print(f"  FAIL {line}")

    print(json.dumps({
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
