"""Fresh-process checks: no result depends on what ran before it in the
process, and one traced benchmark pass per workload keeps its counts.

The image, table, gauge, pair-cloud and scale-pair report memos outlive
each call, so every premetric, Picard iterate, gate number and validation
report must read the same bits whatever ran before it.  Run as a script,
this file runs one kind's operations in one order and prints one line per
operation, in operation order, with every float as ``float.hex``:

    PYTHONPATH=src:bench python -W error::RuntimeWarning \\
        tests/test_fresh_process.py KIND forward|reverse SEED

The kinds are ``premetric`` (the 400 ``premetric_pool`` pairs),
``picard`` (the 3 ``picard_eta`` solves, each with its scale-pair and
gauge reports), ``configs`` (the 8 bundled configs through ``cli.main``
``validate``, ``run`` and ``report``; they carry their own seeds, so SEED
is not read) and ``lozi`` (the same for the 8 ``lozi_membership`` configs
that ``ConfigSuite(SEED)`` generates).  Under pytest,
``test_results_do_not_depend_on_call_order`` runs a kind forward and
reversed, each in a fresh process, compares the two outputs and, for the
two config kinds, requires every exit code to be 0;
``test_traced_pass_keeps_its_counts`` runs one traced ``bench/worker.py``
pass per workload and compares its counts with ``counts.json``.  A change
that moves a count edits ``counts.json`` and says why in CHANGES.md.
"""

import contextlib
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
COUNTS = json.loads(Path(__file__).with_name("counts.json").read_text())
TIMEOUT_S = 300


# -- the script: one kind's operations in one order ----------------------

def _hexes(xs) -> list:
    return [float(x).hex() for x in xs]


def _hexed(x):
    """A JSON value with every float written as ``float.hex``."""
    if isinstance(x, dict):
        return {k: _hexed(v) for k, v in x.items()}
    if isinstance(x, list):
        return [_hexed(v) for v in x]
    return x.hex() if isinstance(x, float) else x


def _in_order(n: int, reverse: bool, line) -> list:
    """``line(i)`` for every operation, run in the given order, listed in
    operation order."""
    order = reversed(range(n)) if reverse else range(n)
    lines = {i: line(i) for i in order}
    return [lines[i] for i in range(n)]


def _premetric(seed: int, reverse: bool, tmp: Path) -> list:
    from homconj import homspace
    from workloads import PremetricPool
    pool = PremetricPool(seed, False, tmp)

    def side(d):
        point = [] if d.argmax_point is None else d.argmax_point.tolist()
        return " ".join([d.finiteness, *_hexes([d.value]), str(d.dropped),
                         *_hexes(point),
                         *_hexes(v for _, v in d.window_trace)])

    def line(i):
        est = pool.run(i)
        return " | ".join([pool.ops[i], *_hexes([est.rho]), side(est.left),
                           side(est.right)])

    lines = _in_order(len(pool.ops), reverse, line)
    # a pass that read every image afresh would agree with any order
    if not homspace._PROCESS_MEMO.entries:
        raise SystemExit("the premetric pass filed no entry in "
                         "homspace._PROCESS_MEMO")
    return lines


def _picard(seed: int, reverse: bool, tmp: Path) -> list:
    from workloads import PicardEta
    work = PicardEta(seed, False, tmp)

    def probe(rep):
        return "-" if rep is None else " ".join(
            [str(rep.flagged)] + [f"{n}:{float(v).hex()}"
                                  for n, v in rep.values.items()])

    def disp(d):
        return " ".join([d.finiteness, *_hexes([d.value]),
                         *_hexes(v for _, v in d.window_trace)])

    def report(rep):
        return " ".join(" ".join([c.name, str(c.passed), *_hexes(
            [c.margin, *(c.witness or ())])]) for c in rep.checks)

    def line(i):
        out = work.run(i)
        res, eigen = out["result"], out["eigen"]
        tr, m = res.trace, res.membership
        steps = [" ".join([str(s.n), *_hexes(
                     [s.rho_increment, s.conj_residual, s.compact_bound,
                      s.fk_envelope])]) for s in tr.steps]
        return " | ".join(
            [work.ops[i], report(out["pair"]), report(out["gauge"]),
             tr.verdict, *_hexes([res.residual]),
             " ".join(_hexes([eigen.min_slack_f, eigen.min_slack_g])),
             probe(tr.bound_pre), probe(tr.bound_post),
             "-" if m is None else " ".join([m.verdict, disp(m.forward),
                                             disp(m.inverse)]), *steps])

    return _in_order(len(work.ops), reverse, line)


def _cli_runs(paths: list, reverse: bool, tmp: Path) -> list:
    """Each config through ``cli.main`` ``validate``, ``run`` and
    ``report``: the three exit codes, its results and its results.csv and
    trace.csv, as one JSON line."""
    from homconj import cli

    def line(i):
        out = tmp / "runs" / paths[i].stem
        with open(os.devnull, "w") as null, contextlib.redirect_stdout(null):
            exits = [cli.main(["validate", str(paths[i])]),
                     cli.main(["run", str(paths[i]), "--out", str(out)])]
            run, = out.iterdir()
            exits.append(cli.main(["report", str(run)]))
        record = json.loads((run / "record.json").read_text())
        files = {name: (run / name).read_text()
                 for name in ("results.csv", "trace.csv")
                 if (run / name).exists()}
        return paths[i].stem + " " + json.dumps(
            {"exits": exits, "results": _hexed(record["results"]), **files},
            sort_keys=True)

    return _in_order(len(paths), reverse, line)


def _configs(seed: int, reverse: bool, tmp: Path) -> list:
    return _cli_runs(sorted((ROOT / "configs").glob("*.json")), reverse, tmp)


def _lozi(seed: int, reverse: bool, tmp: Path) -> list:
    from workloads import ConfigSuite
    suite = ConfigSuite(seed, False, tmp / "suite")
    paths = [path for path, exp in zip(suite.paths, suite.experiments)
             if exp == "lozi_membership"]
    return _cli_runs(paths, reverse, tmp)


KINDS = {"premetric": _premetric, "picard": _picard, "configs": _configs,
         "lozi": _lozi}


def main(argv: list) -> int:
    if len(argv) != 3 or argv[0] not in KINDS \
            or argv[1] not in ("forward", "reverse"):
        raise SystemExit(f"usage: test_fresh_process.py "
                         f"{'|'.join(KINDS)} forward|reverse SEED")
    kind, order, seed = argv
    with tempfile.TemporaryDirectory() as tmp:
        lines = KINDS[kind](int(seed), order == "reverse", Path(tmp))
    print("\n".join(lines))
    return 0


# -- the tests -----------------------------------------------------------

OPERATIONS = {"premetric": 400, "picard": 3, "configs": 8, "lozi": 8}


@pytest.mark.parametrize("kind, seed", [
    ("premetric", 1), ("premetric", 7919), ("picard", 1), ("picard", 7919),
    ("configs", 7919), ("lozi", 7919)])
def test_results_do_not_depend_on_call_order(kind, seed):
    # at seed 1 nearly every damped_inverse call of premetric_pool finishes
    # its rows as Python floats, at seed 7919 a sixth start in numpy sweeps
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "bench")]))
    # the two processes share nothing, so they run side by side
    procs = [subprocess.Popen(
        [sys.executable, "-W", "error::RuntimeWarning", __file__, kind,
         order, str(seed)], env=env, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True) for order in ("forward", "reverse")]
    try:
        outputs = [proc.communicate(timeout=TIMEOUT_S) for proc in procs]
    finally:
        for proc in procs:
            proc.kill()
            proc.wait()
    for proc, (_, err) in zip(procs, outputs):
        assert proc.returncode == 0, err[-4000:]
    forward, reverse = (out.splitlines() for out, _ in outputs)
    assert len(forward) == OPERATIONS[kind]
    assert forward == reverse
    if kind in ("configs", "lozi"):
        # every config validates, runs and reports with exit 0
        exits = {name: json.loads(rest)["exits"]
                 for name, rest in (line.split(" ", 1) for line in forward)}
        assert exits == {name: [0, 0, 0] for name in exits}


@pytest.mark.parametrize("workload", sorted(COUNTS["workloads"]))
def test_traced_pass_keeps_its_counts(workload, tmp_path):
    result = tmp_path / "result.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "worker.py"),
         "--workload", workload, "--seed", str(COUNTS["seed"]),
         "--trace", "1", "--launch-ns", str(time.monotonic_ns()),
         "--result", str(result), "--workdir", str(tmp_path / "work")],
        env=dict(os.environ, PYTHONWARNINGS="error::RuntimeWarning"),
        capture_output=True, text=True, timeout=TIMEOUT_S)
    assert proc.returncode == 0, proc.stderr[-4000:]
    out = json.loads(result.read_text())
    assert out["failures"] == []
    trace = out["trace"]
    got = {"attempted": out["attempted"], **trace["counters"],
           "koopman.r_lipschitz.calls":
               trace["spans"].get("koopman.r_lipschitz", {}).get("calls", 0)}
    want = COUNTS["workloads"][workload]
    assert {name: got[name] for name in want} == want


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
