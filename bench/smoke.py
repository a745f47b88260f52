"""Smoke test of the benchmark: every workload at tiny size, every metric emitted.

    python3 bench/smoke.py

For each workload in BENCHMARK.json it runs ``run.py --tiny`` untraced and
traced and checks the last output line: exactly the keys correct,
attempted, failed and metrics; a correct result with nothing failed; and
exactly the end-to-end (untraced) or per-layer (traced) metric names of
BENCHMARK.json, each with its unit and a finite value.  It then copies
BENCHMARK.json and the benchmark directory alone into a temporary directory
and checks that the benchmark refuses to run there.  Exits 0 when all
checks pass.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def last_json(stdout: str):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def check_run(spec: dict, workload: str, trace: int) -> list:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=180)
    where = f"{workload} trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr[-2000:]}"]
    out = last_json(proc.stdout)
    if not isinstance(out, dict):
        return [f"{where}: no JSON result line"]
    problems = []
    if set(out) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: keys {sorted(out)}")
    if out.get("correct") is not True or out.get("failed") != 0 \
            or not out.get("attempted", 0) >= 1:
        problems.append(f"{where}: correct={out.get('correct')} "
                        f"attempted={out.get('attempted')} "
                        f"failed={out.get('failed')}\n{proc.stdout}")
    want = spec["per_layer" if trace else "end_to_end"]
    got = out.get("metrics", {})
    if set(got) != {m["name"] for m in want}:
        problems.append(f"{where}: missing "
                        f"{sorted({m['name'] for m in want} - set(got))}, "
                        f"extra {sorted(set(got) - {m['name'] for m in want})}")
    for m in want:
        val = got.get(m["name"])
        if val is None:
            continue
        if val.get("unit") != m["unit"]:
            problems.append(f"{where}: {m['name']} unit {val.get('unit')!r}, "
                            f"BENCHMARK.json says {m['unit']!r}")
        if not (isinstance(val.get("value"), (int, float))
                and math.isfinite(val["value"])):
            problems.append(f"{where}: {m['name']} value {val.get('value')!r}")
    return problems


def check_refuses_without_sources(spec: dict) -> list:
    bare = BENCH / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run(
            spec["command"] + ["--workload", spec["workloads"][0]["name"],
                               "--seed", "1", "--seconds", "1",
                               "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    out = proc.stdout.strip().splitlines()
    if proc.returncode == 0 or (out and out[-1].startswith("{")):
        return ["the benchmark ran without the program's sources"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            found = check_run(spec, w["name"], trace)
            problems += found
            print(f"{w['name']} trace {trace}: "
                  f"{'FAIL' if found else 'ok'}", flush=True)
    problems += check_refuses_without_sources(spec)
    for p in problems:
        print(f"FAIL {p}")
    print("smoke: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
