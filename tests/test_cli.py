"""Config schema, run artifacts, and the command-line surface."""

import csv
import dataclasses
import json
import os
import subprocess
import sys
from datetime import datetime
from pathlib import Path

import numpy as np
import pytest

from homconj.cli import (
    _EXPERIMENTS,
    ConfigError,
    EXPERIMENTS,
    TRACE_COLUMNS,
    load_config,
    main,
    parse_config,
)
from homconj import cli
from homconj.families import FAMILIES
from homconj.funcspace import Tolerances

ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"


def write_cfg(tmp_path, payload, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


def fk_sweep_payload():
    return {"schema": 1, "experiment": "fk_sweep",
            "options": {"epsilons": [0.1], "Cs": [0.5], "k_max": 16}}


def picard_payload():
    return {"schema": 1, "experiment": "picard",
            "family": {"name": "contraction_pair", "params": {"eta": 0.25}},
            "sampling": {"window_radius": 4.0, "grid_points_per_axis": 15,
                         "quasirandom_count": 8, "exhaustion_levels": 2},
            "options": {"h0": "g"}}


def only_run_dir(root):
    dirs = [p for p in Path(root).iterdir() if p.is_dir()]
    assert len(dirs) == 1
    return dirs[0]


# ===================================================================
# config parsing
# ===================================================================

def test_parse_minimal_fk_sweep():
    cfg = parse_config(fk_sweep_payload())
    assert cfg.experiment == "fk_sweep"
    assert cfg.family is None
    assert cfg.scheme.window_radius == 8.0
    assert cfg.options["epsilons"] == [0.1]


def test_parse_picard_with_sampling():
    cfg = parse_config(picard_payload())
    assert cfg.family == "contraction_pair"
    assert cfg.scheme.window_radius == 4.0
    assert cfg.scheme.grid_points_per_axis == 15


@pytest.mark.parametrize("mutate, fragment", [
    (lambda d: d.update(extra=1), "unknown key"),
    (lambda d: d.update(schema=2), "schema"),
    (lambda d: d.update(schema=True), "schema: expected an integer"),
    (lambda d: d.update(schema=1.0), "schema: expected an integer"),
    (lambda d: d.update(experiment="picnic"), "unknown experiment"),
    (lambda d: d.update(family={"name": "lozi", "params": {"a": 1, "b": 1}}),
     "fk_sweep takes no family"),
    (lambda d: d["options"].update(alpha=2.0), "unknown key"),
])
def test_parse_rejects_fk_sweep_variations(mutate, fragment):
    payload = fk_sweep_payload()
    mutate(payload)
    with pytest.raises(ConfigError, match=fragment):
        parse_config(payload)


@pytest.mark.parametrize("mutate, fragment", [
    (lambda d: d.pop("family"), "needs a family"),
    (lambda d: d["family"]["params"].update(slope=2), "unknown key"),
    (lambda d: d["family"]["params"].pop("eta"), "missing required"),
    (lambda d: d["family"].update(name="henon"), "unknown family"),
    (lambda d: d["sampling"].update(window="big"), "unknown key"),
    (lambda d: d["sampling"].update(window_radius="big"), "expected a number"),
    (lambda d: d.update(tolerances={"tau_abs": -1.0}), "tolerances"),
    (lambda d: d.update(tolerances={"tau_abz": 1.0}), "unknown key"),
])
def test_parse_rejects_picard_variations(mutate, fragment):
    payload = picard_payload()
    mutate(payload)
    with pytest.raises(ConfigError, match=fragment):
        parse_config(payload)


def _cfg(experiment, family=None, **options):
    payload = {"schema": 1, "experiment": experiment, "options": options}
    if family is not None:
        payload["family"] = {"name": family[0], "params": family[1]}
    return payload


PAIR = ("contraction_pair", {"eta": 0.25})


def _with_tol(payload, **tolerances):
    return {**payload, "tolerances": tolerances}


# each of these used to pass validate, then crash or be half honoured by run
REJECTED = [
    (_cfg("picard", ("contraction_pair", {"eta": "abc"})),
     "eta: expected a number"),
    (_cfg("picard", PAIR, n_max=2.7), "n_max: expected an integer"),
    (_cfg("picard", ("lozi", {"a": 1.4, "b": 0.3})),
     "needs family 'contraction_pair'"),
    (_cfg("validate", PAIR, gauge="sqrt_plus"), "carries its own gauge"),
    (_cfg("eigen_check", PAIR, gauge="sqrt_plus"), "carries its own gauge"),
    (_cfg("validate", ("pure_linear", {"scale": 2.0}), gauge="cubic"),
     "gauge: expected one of"),
    (_cfg("picard", PAIR, h0="zero"), "h0: expected one of"),
    (_cfg("koenigs", ("pure_linear", {"scale": 2.0})),
     "linearization needs scale"),
    (_cfg("koenigs", ("pure_linear", {"scale": 0.5}), use="f"),
     "options.use"),
    (_cfg("wandering", ("translation", {"offset": 1.0}),
          covering_radius=0.025), "missing required key"),
    (_cfg("wandering", ("translation", {"offset": 1.0}), cloud=[[1.0, 2.0]],
          covering_radius=0.025), "points must have"),
    (_cfg("eigen_check", ("pure_linear", {"scale": 2.0})),
     "alpha: required"),
    (_cfg("lozi_membership", ("lozi", {"a": 1.4, "b": 0.3,
                                       "norm": "manhattan"})),
     "unknown norm"),
    (_cfg("validate", ("perturbed_linear", {"scale": 2.0, "dim": "two"})),
     "dim: expected an integer"),
    (_cfg("validate", ("perturbed_linear", {"scale": 2.0, "dim": 0})),
     "dim >= 1"),
    # numpy's seed sequence takes no negative entropy
    ({**_cfg("eigen_check", PAIR), "sampling": {"seed": -1}},
     "sampling: seed must be >= 0"),
    # option ranges the library enforces only at run time
    (_cfg("picard", PAIR, alpha=0.5), "alpha: must exceed 1"),
    (_cfg("picard", PAIR, n_max=0), "n_max: must be >= 1"),
    (_cfg("picard", PAIR, n_bnd=-1), "n_bnd: must be >= 0"),
    (_cfg("eigen_check", PAIR, alpha=0.5), "alpha: must exceed 1"),
    (_cfg("koenigs", PAIR, multiplier=1.5), "multiplier: must lie in"),
    (_cfg("koenigs", ("pure_linear", {"scale": 0.5}), n_max=0),
     "n_max: must be >= 1"),
    (_cfg("wandering", ("translation", {"offset": 1.0}), cloud=[1.0],
          covering_radius=0.025, nu=0), "nu: must be >= 1"),
    (_cfg("wandering", ("translation", {"offset": 1.0}), cloud=[1.0],
          covering_radius=0.0), "covering_radius: must be positive"),
    (_cfg("wandering", ("pure_linear", {"scale": 1.0}), cloud=[1.0, 1.1],
          covering_radius=0.5, n_max=0), "n_max: must be >= nu"),
    (_cfg("abel", ("pure_linear", {"scale": 0.5}), inner_radius=0.0),
     "inner_radius: must be positive"),
    # x -> 0.1 x does not map [1, inf) onto itself
    (_cfg("eigen_check", ("pure_linear", {"scale": 0.1, "lo": 1.0}),
          alpha=1.1), "family.params: unknown key"),
    (_cfg("fk_sweep", epsilons=[0.1, 0.0]), "epsilons: must be positive"),
    (_cfg("fk_sweep", epsilons=[float("inf")]), r"epsilons\[0\]: not finite"),
    (_cfg("fk_sweep", epsilons=[1e-320]), "with a finite reciprocal"),
    (_cfg("fk_sweep", Cs=[1.5]), "Cs: must lie in"),
    (_cfg("fk_sweep", k_max=-1), "k_max: must be >= 0"),
    # epsilon / (1 - a_m) overflows at every m for (1e308, 0.5), not at 0.3
    (_cfg("fk_sweep", epsilons=[0.1, 1e308], Cs=[0.3, 0.5], k_max=4),
     r"epsilons: no seed step tames 1e\+308 at C 0.5"),
    # json reads NaN, Infinity and integers past the float range, which no
    # family parameter can honour; the last one crashed validate
    (_cfg("lozi_membership", ("lozi", {"a": float("nan"), "b": 0.3})),
     "params.a: not finite, got nan"),
    (_cfg("eigen_check", ("pure_linear", {"scale": float("nan")}),
          alpha=1.1), "params.scale: not finite, got nan"),
    (_cfg("eigen_check", ("pure_linear", {"scale": float("inf")}),
          alpha=1.1), "params.scale: not finite, got inf"),
    (_cfg("wandering", ("translation", {"offset": float("inf")}),
          cloud=[1.0], covering_radius=0.025),
     "params.offset: not finite, got inf"),
    (_cfg("eigen_check", ("pure_linear", {"scale": 10 ** 400}), alpha=1.1),
     "params.scale: not finite, got 10{400}"),
    # tolerances the experiment never reads
    (_with_tol(_cfg("eigen_check", PAIR), tau_tri=5.0, tol_conj=0.5),
     r"tolerances: unknown key\(s\) 'tau_tri', 'tol_conj'"),
    (_with_tol(_cfg("picard", PAIR), tau_contr=1e-3),
     r"tolerances: unknown key\(s\) 'tau_contr'"),
    (_with_tol(_cfg("fk_sweep"), tol_conj=0.5),
     r"tolerances: unknown key\(s\) 'tol_conj' \(allowed: tau_env\)"),
    (_with_tol(_cfg("abel", ("pure_linear", {"scale": 0.5})), tau_abs=1e-9),
     r"tolerances: unknown key\(s\) 'tau_abs' \(allowed: none\)"),
    # --out or $HOMCONJ_RUNS set the output root; abel passes at 1e-9
    ({**fk_sweep_payload(), "output_dir": "elsewhere"},
     r"unknown key\(s\) 'output_dir'"),
    (_cfg("abel", ("pure_linear", {"scale": 0.5}), residual_tol=1e-6),
     r"options: unknown key\(s\) 'residual_tol'"),
    # quasirandom points exist up to dim 8 (2 grid points per axis keep
    # the table small)
    ({**_cfg("validate", ("perturbed_linear", {"scale": 2.0, "dim": 9})),
      "sampling": {"window_radius": 4.0, "grid_points_per_axis": 2,
                   "quasirandom_count": 4}},
     "quasirandom_count: quasirandom sampling supports dim <= 8"),
]
REJECTED_IDS = [f"{p['experiment']}-{frag}" for p, frag in REJECTED]


@pytest.mark.parametrize("payload, fragment", REJECTED, ids=REJECTED_IDS)
def test_parse_rejects_what_run_would_not_honour(payload, fragment):
    with pytest.raises(ConfigError, match=fragment):
        parse_config(payload)


@pytest.mark.parametrize("payload, fragment", REJECTED, ids=REJECTED_IDS)
def test_rejected_config_fails_validate_and_run(tmp_path, payload, fragment):
    cfg = write_cfg(tmp_path, payload)
    assert main(["validate", cfg]) == 2
    out = tmp_path / "runs"
    assert main(["run", cfg, "--out", str(out)]) == 1
    assert not out.exists()


def test_only_runs_that_sample_a_table_limit_its_dimension():
    # wandering samples no table, and a table without quasirandom points
    # takes any dimension (parsing samples nothing, so dim 9 is cheap here)
    family = ("translation", {"offset": [1.0] * 9})
    parse_config(_cfg("wandering", family, cloud=[[0.0] * 9],
                      covering_radius=0.025))
    for payload in (_cfg("validate", family),
                    _cfg("eigen_check", family, alpha=1.1)):
        parse_config({**payload, "sampling": {"quasirandom_count": 0}})
        with pytest.raises(ConfigError, match="supports dim <= 8"):
            parse_config(payload)


def test_bump_parameters_reach_eigen_check_and_koenigs(tmp_path):
    sampling = picard_payload()["sampling"]
    results = {}
    for exp in ("eigen_check", "koenigs"):
        for center in (2.0, 5.0):
            payload = _cfg(exp, ("contraction_pair",
                                 {"eta": 0.25, "bump_center": center}))
            payload["sampling"] = sampling
            out = tmp_path / f"{exp}-{center}"
            assert main(["run", write_cfg(tmp_path, payload),
                         "--out", str(out)]) == 0
            record = json.loads((only_run_dir(out) / "record.json").read_text())
            results[exp, center] = record["results"]
    lam = [results["eigen_check", c]["eigen"]["lambda_g"] for c in (2.0, 5.0)]
    assert lam[0] != lam[1]
    assert results["koenigs", 2.0] != results["koenigs", 5.0]


def _koenigs_run(tmp_path, family, **options):
    payload = _cfg("koenigs", family, **options)
    payload["sampling"] = {"window_radius": 4.0}
    out = tmp_path / f"{family[0]}-{options.get('multiplier')}"
    code = main(["run", write_cfg(tmp_path, payload), "--out", str(out)])
    record = json.loads((only_run_dir(out) / "record.json").read_text())
    return code, record["results"]


def test_koenigs_linearizes_a_pure_linear_map_at_its_scale(tmp_path):
    # x -> 0.5x is its own linearization: psi(x) = x after one step, exactly
    linear = ("pure_linear", {"scale": 0.5})
    code, results = _koenigs_run(tmp_path, linear)
    assert code == 0
    assert results == {"family": "pure_linear", "multiplier": 0.5,
                       "converged": True, "n_steps": 1, "residual": 0.0,
                       "final_increment": 0.0, "growth_exponent": 1.0}
    assert _koenigs_run(tmp_path, linear, multiplier=0.5) == (code, results)


@pytest.mark.parametrize("family, multiplier", [
    (("pure_linear", {"scale": 0.5}), 0.3),
    (PAIR, 0.1),
], ids=["pure_linear", "contraction_pair"])
def test_koenigs_reports_a_mis_specified_multiplier(tmp_path, family,
                                                    multiplier):
    # the multiplier option replaces the default (scale or eta); one below
    # the map's own makes (f^n(x) - 0) / multiplier^n blow up
    assert _koenigs_run(tmp_path, family)[0] == 0
    code, results = _koenigs_run(tmp_path, family, multiplier=multiplier)
    assert code == 2
    assert results.pop("reason").startswith("linearization diverging")
    assert results == {"family": family[0], "converged": False}


class _RecordingTolerances:
    """Tolerances that remember which fields were read."""

    def __init__(self, tol):
        self._tol, self.read = tol, set()

    def __getattr__(self, name):
        self.read.add(name)
        return getattr(self._tol, name)


@pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.json")),
                         ids=lambda p: p.stem)
def test_each_experiment_reads_exactly_its_declared_tolerances(path):
    cfg = load_config(str(path))
    exp = _EXPERIMENTS[cfg.experiment]
    tol = _RecordingTolerances(cfg.tol)
    exp.run(dataclasses.replace(cfg, tol=tol))
    assert tol.read == set(exp.tolerances)


@pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.json")),
                         ids=lambda p: p.stem)
def test_validate_accepts_only_the_tolerances_the_experiment_reads(
        tmp_path, capsys, path):
    payload = json.loads(path.read_text())
    declared = _EXPERIMENTS[payload["experiment"]].tolerances
    for field in dataclasses.fields(Tolerances):
        cfg = write_cfg(tmp_path, _with_tol(payload, **{field.name: 0.5}),
                        path.name)
        capsys.readouterr()
        if field.name in declared:
            assert main(["validate", cfg]) == 0
            continue
        assert main(["validate", cfg]) == 2
        assert f"{path.name}.tolerances: unknown key(s) '{field.name}'" \
            in capsys.readouterr().err


def test_bundled_configs_all_parse():
    paths = sorted(CONFIG_DIR.glob("*.json"))
    assert len(paths) == 8
    seen = set()
    for p in paths:
        cfg = load_config(str(p))
        seen.add(cfg.experiment)
    assert len(seen) == 8  # one bundled config per experiment


# ===================================================================
# run artifacts
# ===================================================================

def test_run_fk_sweep_writes_artifacts(tmp_path, capsys):
    cfg = write_cfg(tmp_path, fk_sweep_payload())
    code = main(["run", cfg, "--out", str(tmp_path / "runs")])
    assert code == 0
    rd = only_run_dir(tmp_path / "runs")
    assert rd.name.startswith("fk_sweep-")

    record = json.loads((rd / "record.json").read_text())
    assert set(record) == {"meta", "config", "results"}
    assert record["meta"]["tool"] == "homconj"
    assert record["config"]["experiment"] == "fk_sweep"

    with (rd / "results.csv").open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:2] == ["epsilon", "C"]
    assert len(rows) == 2  # one grid cell
    assert not (rd / "trace.csv").exists()
    assert "run directory" in capsys.readouterr().out


def test_runs_of_one_config_in_one_second_get_their_own_directories(
        tmp_path, monkeypatch):
    class OneSecond(datetime):
        @classmethod
        def now(cls, tz=None):
            return datetime(2026, 1, 2, 3, 4, 5, tzinfo=tz)

    monkeypatch.setattr(cli, "datetime", OneSecond)
    cfg = write_cfg(tmp_path, fk_sweep_payload())
    root = tmp_path / "runs"
    for _ in range(3):
        assert main(["run", cfg, "--out", str(root)]) == 0
    first, *rest = sorted(root.iterdir())
    assert first.name.startswith("fk_sweep-20260102T030405Z-")
    assert [p.name for p in rest] == [first.name + "-2", first.name + "-3"]
    for rd in (first, *rest):
        assert sorted(p.name for p in rd.iterdir()) == ["record.json",
                                                        "results.csv"]
        assert json.loads((rd / "record.json").read_text())["results"]


def test_fk_sweep_near_one_validates_and_runs(tmp_path):
    # C = 0.99999 tames the envelope only at seed step 1,417,428
    payload = {"schema": 1, "experiment": "fk_sweep",
               "options": {"epsilons": [0.1], "Cs": [0.99999], "k_max": 4}}
    cfg = write_cfg(tmp_path, payload)
    assert main(["validate", cfg]) == 0
    assert main(["run", cfg, "--out", str(tmp_path / "runs")]) == 0
    record = json.loads(
        (only_run_dir(tmp_path / "runs") / "record.json").read_text())
    assert record["results"]["grid"][0]["threshold_n"] == 1_417_427
    assert record["results"]["all_ok"] is True


def test_run_picard_writes_trace(tmp_path):
    cfg = write_cfg(tmp_path, picard_payload())
    code = main(["run", cfg, "--out", str(tmp_path / "runs")])
    assert code == 0
    rd = only_run_dir(tmp_path / "runs")
    record = json.loads((rd / "record.json").read_text())
    assert record["results"]["verdict"] == "converged"
    with (rd / "trace.csv").open() as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == TRACE_COLUMNS
    assert len(rows) > 2
    assert float(rows[-1][1]) < 1e-8  # final increment column


def test_run_picard_fails_on_a_non_finite_probe(tmp_path, capsys):
    # at eta = 1e-10 the probe's g^-32 leaves the float range; the run must
    # end unbounded and say where, not report "converged" with exit 0
    payload = _cfg("picard", ("contraction_pair", {"eta": 1e-10}))
    out = tmp_path / "runs"
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["run", write_cfg(tmp_path, payload), "--out", str(out)])
    assert code == 2
    run_dir = only_run_dir(out)
    record = json.loads((run_dir / "record.json").read_text())
    assert record["results"]["verdict"] == "unbounded_on_compacts"
    note = "boundedness probe: iterate n=32 is not finite"
    assert note in record["meta"]["notes"]
    assert f"note: {note}" in capsys.readouterr().err
    assert main(["report", str(run_dir)]) == 0
    assert f"note: {note}" in capsys.readouterr().out


def test_run_uses_env_root(tmp_path, monkeypatch):
    monkeypatch.setenv("HOMCONJ_RUNS", str(tmp_path / "via_env"))
    monkeypatch.chdir(tmp_path)
    cfg = write_cfg(tmp_path, fk_sweep_payload())
    assert main(["run", cfg]) == 0
    assert only_run_dir(tmp_path / "via_env").is_dir()


def test_run_exit_two_when_gate_fails(tmp_path):
    payload = {"schema": 1, "experiment": "eigen_check",
               "family": {"name": "contraction_pair",
                          "params": {"eta": 0.25}},
               "sampling": {"window_radius": 4.0,
                            "grid_points_per_axis": 15,
                            "quasirandom_count": 8,
                            "exhaustion_levels": 2},
               "options": {"alpha": 3.0}}
    cfg = write_cfg(tmp_path, payload)
    code = main(["run", cfg, "--out", str(tmp_path / "runs")])
    assert code == 2
    # the record is still written for a failed gate
    rd = only_run_dir(tmp_path / "runs")
    record = json.loads((rd / "record.json").read_text())
    assert record["results"]["eigen"]["satisfied"] is False


def test_run_missing_config_exits_one(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.json")]) == 1
    assert "error" in capsys.readouterr().err


# ===================================================================
# validate / report / list-families
# ===================================================================

def test_validate_good_and_bad(tmp_path, capsys):
    good = write_cfg(tmp_path, fk_sweep_payload(), "good.json")
    assert main(["validate", good]) == 0
    assert "config valid" in capsys.readouterr().out

    payload = fk_sweep_payload()
    payload["extra"] = True
    bad = write_cfg(tmp_path, payload, "bad.json")
    assert main(["validate", bad]) == 2
    assert "invalid" in capsys.readouterr().err

    broken = tmp_path / "broken.json"
    broken.write_text("{oops")
    assert main(["validate", str(broken)]) == 2
    assert main(["validate", str(tmp_path / "absent.json")]) == 2


def test_the_module_entry_point_passes_on_the_exit_code(tmp_path):
    # `python -m homconj.cli` reaches main only through the module's
    # __main__ block, which the in-process calls above never run
    payload = fk_sweep_payload()
    payload["extra"] = True
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def validate(path):
        return subprocess.run(
            [sys.executable, "-W", "error", "-m", "homconj.cli", "validate",
             str(path)], env=env, capture_output=True, text=True, timeout=60)

    good = validate(CONFIG_DIR / "contraction_pair.json")
    assert good.returncode == 0, good.stderr
    assert "config valid" in good.stdout
    bad = validate(write_cfg(tmp_path, payload, "bad.json"))
    assert bad.returncode == 2, bad.stderr


def test_report_summarizes_run(tmp_path, capsys):
    cfg = write_cfg(tmp_path, fk_sweep_payload())
    assert main(["run", cfg, "--out", str(tmp_path / "runs")]) == 0
    rd = only_run_dir(tmp_path / "runs")
    capsys.readouterr()
    assert main(["report", str(rd)]) == 0
    out = capsys.readouterr().out
    assert "experiment: fk_sweep" in out
    assert "results:" in out


def test_a_crashing_run_still_writes_its_record(tmp_path, capsys,
                                                monkeypatch):
    def crash(cfg):
        raise FloatingPointError("overflow in the runner")

    monkeypatch.setitem(_EXPERIMENTS, "fk_sweep", dataclasses.replace(
        _EXPERIMENTS["fk_sweep"], run=crash))
    cfg = write_cfg(tmp_path, fk_sweep_payload())
    assert main(["run", cfg, "--out", str(tmp_path / "runs")]) == 1
    assert "FloatingPointError: overflow in the runner" \
        in capsys.readouterr().err
    rd = only_run_dir(tmp_path / "runs")
    assert [p.name for p in rd.iterdir()] == ["record.json"]
    record = json.loads((rd / "record.json").read_text())
    assert record["meta"]["error"] == {
        "type": "FloatingPointError", "message": "overflow in the runner",
        "phase": "run"}
    assert "results" not in record
    assert record["config"]["experiment"] == "fk_sweep"
    assert main(["report", str(rd)]) == 0
    assert "error: FloatingPointError in phase run: overflow in the runner" \
        in capsys.readouterr().out


def test_a_wandering_cloud_that_overflows_is_an_error(tmp_path, capsys):
    # x + 1e308 overflows on the second iterate; the inf cloud would
    # otherwise read as wandering, with min_separation inf and exit 0
    cfg = write_cfg(tmp_path, _cfg(
        "wandering", ("translation", {"offset": 1e308}), cloud=[1.0, 1.1, 1.2],
        covering_radius=0.01, nu=1, n_max=3))
    assert main(["validate", cfg]) == 0
    with np.errstate(over="ignore"):
        assert main(["run", cfg, "--out", str(tmp_path / "runs")]) == 1
    assert "EvaluationError" in capsys.readouterr().err
    record = json.loads(
        (only_run_dir(tmp_path / "runs") / "record.json").read_text())
    assert record["meta"]["error"]["type"] == "EvaluationError"
    assert "iterate 2" in record["meta"]["error"]["message"]
    assert "results" not in record


@pytest.mark.parametrize("payload", [
    _cfg("eigen_check", ("pure_linear", {"scale": 1e308}), alpha=1.1),
    _cfg("abel", ("pure_linear", {"scale": 1e308})),
    _cfg("lozi_membership", ("lozi", {"a": 1e308, "b": 0.3})),
], ids=["eigen_check", "abel", "lozi_membership"])
def test_a_map_that_overflows_is_an_error(tmp_path, payload):
    # 1e308 * x leaves the float range on the samples; the estimate must
    # stop the run, not read an inf or NaN residual or ratio as a verdict
    cfg = write_cfg(tmp_path, payload)
    assert main(["validate", cfg]) == 0
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["run", cfg, "--out", str(tmp_path / "runs")]) == 1
    record = json.loads(
        (only_run_dir(tmp_path / "runs") / "record.json").read_text())
    assert record["meta"]["error"]["type"] == "EvaluationError"
    assert "results" not in record


def test_a_failed_write_still_leaves_a_record(tmp_path, capsys,
                                             monkeypatch):
    # the CSV writer fails after the header: the record must say so, not
    # hold results beside a partial results.csv
    real_writer = csv.writer

    class HeaderOnly:
        def __init__(self, fh):
            self.writer, self.rows = real_writer(fh), 0

        def writerow(self, row):
            if self.rows:
                raise OSError("disk full")
            self.rows += 1
            self.writer.writerow(row)

    monkeypatch.setattr(csv, "writer", HeaderOnly)
    cfg = write_cfg(tmp_path, fk_sweep_payload())
    assert main(["run", cfg, "--out", str(tmp_path / "runs")]) == 1
    assert "OSError: disk full" in capsys.readouterr().err
    rd = only_run_dir(tmp_path / "runs")
    assert sorted(p.name for p in rd.iterdir()) == ["record.json",
                                                    "results.csv"]
    record = json.loads((rd / "record.json").read_text())
    assert record["meta"]["error"] == {
        "type": "OSError", "message": "disk full", "phase": "write"}
    assert "results" not in record
    monkeypatch.undo()
    assert main(["report", str(rd)]) == 0
    assert "error: OSError in phase write: disk full" \
        in capsys.readouterr().out


def test_report_missing_dir(tmp_path, capsys):
    assert main(["report", str(tmp_path / "ghost")]) == 1
    assert "not found" in capsys.readouterr().err


def test_list_families(capsys):
    assert main(["list-families"]) == 0
    out = capsys.readouterr().out
    for name in list(FAMILIES) + list(EXPERIMENTS):
        assert f"\n  {name}" in out
    entries = [p for fam in FAMILIES.values() for p in fam.params]
    entries += [o for exp in _EXPERIMENTS.values() for o in exp.options]
    for name in entries:
        assert f"\n    {name} (" in out
    assert "norm (string, default 'euclidean')" in out
    assert "n_max (integer, default 200)" in out
    assert "tolerances read: tau_abs, rel, kappa_div, tol_conj, tau_env" in out
    assert "tolerances read: none" in out
