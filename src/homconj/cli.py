"""Command-line front end: config-driven experiment runs with durable records.

Subcommands:

* ``run <config.json>``: execute the configured experiment, write a run
  directory (record.json, results.csv, trace.csv for iterative runs).
* ``report <run_dir>``: print a summary of a recorded run.
* ``list-families``: show the map families, experiments, and gauges, with
  each family parameter and experiment option.
* ``validate <config.json>``: schema-check a config without running it.

Exit codes: 0 success (converged / satisfied / all checks pass), 2 a
negative result (gate failed, collision, non-member, invalid config for
``validate``), 1 operational error (unreadable file, bad schema on ``run``,
crash).  The default output root is ``$HOMCONJ_RUNS`` or ``./runs``.
"""

import argparse
import csv
import dataclasses
import functools
import hashlib
import inspect
import itertools
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from .conjugacy import (
    PicardContext,
    cauchy_envelope,
    envelope_threshold,
    picard_solve,
)
from .families import (
    FAMILIES,
    REQUIRED,
    FamilySpec,
    Param,
    build_pure_linear,
)
from .funcspace import (
    BUILTIN_TRIPLE_NAMES,
    Domain,
    SampleScheme,
    Tolerances,
    builtin_triple,
    doubling_sample_sets,
    validate_gauge,
    validate_scale_pair,
)
from .homspace import (
    EstimateContext,
    group_membership,
    identity,
    koopman_lambda,
    roundtrip_error,
)
from .koopman import (
    ConvergenceError,
    abel_check,
    check_p_alpha,
    koenigs_eigenfunction,
    r_lipschitz,
    schroeder_functional_check,
    wandering_check,
)

__all__ = ["main", "load_config", "ConfigError", "EXPERIMENTS", "TRACE_COLUMNS"]

TRACE_COLUMNS = ("n", "rho_increment", "conj_residual", "fk_envelope",
                 "compact_bound")

ENV_RUNS = "HOMCONJ_RUNS"


class ConfigError(ValueError):
    """Schema violation; the message carries the config path of the offender."""


# ---------------------------------------------------------------------------
# config parsing


_TOP_KEYS = {
    "schema": True,
    "experiment": True,
    "family": False,
    "sampling": False,
    "tolerances": False,
    "output_dir": False,
    "options": False,
}

def _check_keys(obj: dict, path: str, allowed, required=()):
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise ConfigError(
            f"{path}: unknown key(s) {', '.join(map(repr, unknown))} "
            f"(allowed: {', '.join(sorted(allowed)) or 'none'})")
    missing = sorted(set(required) - set(obj))
    if missing:
        raise ConfigError(f"{path}: missing required key(s) "
                          f"{', '.join(map(repr, missing))}")


def _number(val, path: str) -> float:
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {val!r}")
    # Python's json reads NaN, Infinity and integers past the float range
    try:
        out = float(val)
    except OverflowError:
        out = np.inf
    if not np.isfinite(out):
        raise ConfigError(f"{path}: not finite, got {val!r}")
    return out


def _integer(val, path: str) -> int:
    if isinstance(val, bool) or not isinstance(val, int):
        raise ConfigError(f"{path}: expected an integer, got {val!r}")
    return int(val)


def _string(val, path: str) -> str:
    if not isinstance(val, str):
        raise ConfigError(f"{path}: expected a string, got {val!r}")
    return val


def _numbers(val, path: str) -> list:
    if not isinstance(val, list):
        raise ConfigError(f"{path}: expected a list of numbers, got {val!r}")
    return [_number(v, f"{path}[{i}]") for i, v in enumerate(val)]


def _vector(val, path: str):
    return _numbers(val, path) if isinstance(val, list) else _number(val, path)


def _points(val, path: str) -> np.ndarray:
    """A nonempty list of points, each a number or a list of numbers."""
    rows = [_vector(v, f"{path}[{i}]") for i, v in enumerate(val)] \
        if isinstance(val, list) else []
    if not rows or len({np.shape(row) for row in rows}) > 1:
        raise ConfigError(f"{path}: expected a nonempty list of points of "
                          f"one dimension, got {val!r}")
    pts = np.asarray(rows, dtype=float)
    return pts[:, None] if pts.ndim == 1 else pts


_KINDS = {"number": _number, "integer": _integer, "string": _string,
          "numbers": _numbers, "vector": _vector, "points": _points}


def _typed(schema: dict, given, path: str) -> dict:
    """Check ``given`` against a name -> Param schema; return typed values."""
    if not isinstance(given, dict):
        raise ConfigError(f"{path}: expected an object")
    _check_keys(given, path, schema,
                [k for k, p in schema.items() if p.default is REQUIRED])
    out = {}
    for key, val in given.items():
        param = schema[key]
        out[key] = _KINDS[param.kind](val, f"{path}.{key}")
        if param.choices and out[key] not in param.choices:
            raise ConfigError(
                f"{path}.{key}: expected one of "
                f"{', '.join(map(repr, param.choices))}, got {val!r}")
    return out


def _fields_schema(cls) -> dict:
    """Optional config entries for the numeric fields of a dataclass."""
    return {f.name: Param("integer" if f.type is int else "number", "", None)
            for f in dataclasses.fields(cls)}


def _call(fn: Callable, kwargs: dict, path: str):
    """fn(**kwargs), with its ValueError reported against the config path."""
    try:
        return fn(**kwargs)
    except ValueError as e:
        raise ConfigError(f"{path}: {e}") from e


@dataclass(frozen=True)
class RunConfig:
    raw: dict
    experiment: str
    family: FamilySpec | None    # typed params, as given
    built: object                # the family's builder output, or None
    scheme: SampleScheme
    tol: Tolerances
    output_dir: str | None
    options: dict                # typed, every option's default filled in


def parse_config(raw: dict, source: str = "config") -> RunConfig:
    """Schema-check a config, build its family and run the experiment checks.

    Every check happens here, so a config that parses is one the
    experiment honours in full.
    """
    if not isinstance(raw, dict):
        raise ConfigError(f"{source}: top level must be a JSON object")
    _check_keys(raw, source, _TOP_KEYS,
                [k for k, req in _TOP_KEYS.items() if req])

    if raw["schema"] != 1:
        raise ConfigError(f"{source}.schema: unsupported value {raw['schema']!r}"
                          " (this tool reads schema 1)")

    experiment = _string(raw["experiment"], f"{source}.experiment")
    if experiment not in _EXPERIMENTS:
        raise ConfigError(f"{source}.experiment: unknown experiment "
                          f"{experiment!r} (one of: {', '.join(EXPERIMENTS)})")
    exp = _EXPERIMENTS[experiment]

    family = built = None
    if "family" in raw:
        if not exp.families:
            raise ConfigError(f"{source}.family: {experiment} takes no family")
        fam = raw["family"]
        if not isinstance(fam, dict):
            raise ConfigError(f"{source}.family: expected an object")
        _check_keys(fam, f"{source}.family", ("name", "params"), ("name",))
        name = _string(fam["name"], f"{source}.family.name")
        if name not in FAMILIES:
            raise ConfigError(
                f"{source}.family.name: unknown family {name!r} "
                f"(one of: {', '.join(sorted(FAMILIES))})")
        if name not in exp.families:
            raise ConfigError(
                f"{source}.family.name: experiment {experiment!r} needs "
                f"family {' or '.join(map(repr, exp.families))}, got {name!r}")
        path = f"{source}.family.params"
        family = FamilySpec(family=name, params=_typed(
            FAMILIES[name].params, fam.get("params", {}), path))
        built = _call(FAMILIES[name].builder, family.params, path)
    elif exp.families:
        raise ConfigError(f"{source}: experiment {experiment!r} needs a family")

    path = f"{source}.sampling"
    scheme = _call(SampleScheme, {"window_radius": 8.0, **_typed(
        _fields_schema(SampleScheme), raw.get("sampling", {}), path)}, path)
    path = f"{source}.tolerances"
    read = {k: p for k, p in _fields_schema(Tolerances).items()
            if k in exp.tolerances}
    tol = _call(Tolerances, _typed(read, raw.get("tolerances", {}), path),
                path)

    output_dir = None
    if "output_dir" in raw:
        output_dir = _string(raw["output_dir"], f"{source}.output_dir")

    options = {k: p.default for k, p in exp.options.items()}
    options.update(_typed(exp.options, raw.get("options", {}),
                          f"{source}.options"))

    cfg = RunConfig(raw=raw, experiment=experiment, family=family,
                    built=built, scheme=scheme, tol=tol,
                    output_dir=output_dir, options=options)
    for violated, problem in exp.checks:
        if violated(cfg):
            if callable(problem):
                problem = problem(cfg)
            raise ConfigError(f"{source}.{problem}")
    return cfg


def load_config(path: str) -> RunConfig:
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as e:
        raise ConfigError(f"{path}: cannot read config: {e}") from e
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: not valid JSON: {e}") from e
    return parse_config(raw, source=p.name)


def _is_pair(cfg: RunConfig) -> bool:
    # contraction_pair brings its own f, g, gauge and alpha
    return cfg.family.family == "contraction_pair"


def _given(cfg: RunConfig, option: str) -> bool:
    return option in cfg.raw.get("options", {})


# ---------------------------------------------------------------------------
# experiments


@dataclass(frozen=True)
class Outcome:
    exit_code: int
    results: dict
    trace_rows: tuple | None = None
    results_rows: tuple | None = None    # (header, rows)
    warnings: tuple = ()


def _displacement_dict(est) -> dict:
    return {"value": float(est.value), "finiteness": est.finiteness}


def _eigen_dict(rep) -> dict:
    return {
        "alpha": rep.alpha,
        "lambda_f": rep.lambda_f,
        "lambda_g": rep.lambda_g,
        "min_slack_f": rep.min_slack_f,
        "min_slack_g": rep.min_slack_g,
        "satisfied": rep.satisfied,
        "worst_point": None if rep.worst_point is None
        else [float(v) for v in rep.worst_point],
    }


_GAUGE = Param("string", "built-in gauge for families without their own",
               "linear_plus", BUILTIN_TRIPLE_NAMES)


def _triple(cfg: RunConfig) -> tuple:
    """(growth, r, cross, phi, notes): the pair's own, else the gauge option's."""
    if _is_pair(cfg):
        b = cfg.built
        return b.growth, b.r, b.cross, b.phi, b.notes
    return *builtin_triple(cfg.options["gauge"], cfg.built.domain), ()


def _exp_validate(cfg: RunConfig) -> Outcome:
    """Sampled check of the scale/growth pair and the gauge."""
    growth, r, cross, phi, warnings = _triple(cfg)
    scale_rep = validate_scale_pair(growth, r, cross, cfg.scheme, cfg.tol)
    gauge_rep = validate_gauge(phi, growth, cfg.built.domain, cfg.scheme,
                               cfg.tol)
    passed = scale_rep.passed and gauge_rep.passed
    results = {
        "family": cfg.family.family,
        "scale_pair": scale_rep.as_dict(),
        "gauge": gauge_rep.as_dict(),
        "passed": passed,
    }
    return Outcome(exit_code=0 if passed else 2, results=results,
                   warnings=warnings)


def _exp_eigen_check(cfg: RunConfig) -> Outcome:
    """Eigenvalue gate at alpha, for f (and g when the family has one)."""
    _, r, _, phi, warnings = _triple(cfg)
    alpha = cfg.options["alpha"]
    if _is_pair(cfg):
        f, g = cfg.built.f, cfg.built.g
        alpha = cfg.built.alpha if alpha is None else alpha
    else:
        f, g = cfg.built, None
    rep = check_p_alpha(f, g, phi, r, alpha, cfg.scheme, cfg.tol)
    results = {"family": cfg.family.family, "eigen": _eigen_dict(rep)}
    return Outcome(exit_code=0 if rep.satisfied else 2, results=results,
                   warnings=warnings)


def _exp_picard(cfg: RunConfig) -> Outcome:
    """Gated Picard iteration for the conjugacy of g to f."""
    bundle, opts = cfg.built, cfg.options
    alpha = bundle.alpha if opts["alpha"] is None else opts["alpha"]
    h0 = bundle.g if opts["h0"] == "g" else identity(bundle.domain)
    est = EstimateContext(domain=bundle.domain, scheme=cfg.scheme,
                          phi=bundle.phi, r=bundle.r, cross=bundle.cross,
                          tol=cfg.tol)
    pctx = PicardContext(est=est, alpha=alpha, n_max=opts["n_max"],
                         n_bnd=opts["n_bnd"])
    res = picard_solve(bundle.f, bundle.g, h0, pctx)
    tr = res.trace
    trace_rows = tuple({c: getattr(s, c) for c in TRACE_COLUMNS}
                       for s in tr.steps)
    results = {
        "family": cfg.family.family,
        "eta": bundle.eta,
        "alpha": alpha,
        "h0": opts["h0"],
        "verdict": tr.verdict,
        "n_steps": tr.n_steps,
        "delta": tr.constants.delta,
        "gate_constant_A": tr.constants.A,
        "gate_threshold": tr.constants.threshold,
        "failed_gate": tr.failed_gate,
        "anchor": tr.anchor,
        "eps_monitor": tr.eps_monitor,
        "incrementally_bounded": tr.incrementally_bounded,
        "final_residual": res.residual,
        "membership": None if res.membership is None
        else res.membership.verdict,
        "eigen": _eigen_dict(tr.eigen),
        "family_notes": list(bundle.notes),
    }
    return Outcome(exit_code=0 if res.converged else 2, results=results,
                   trace_rows=trace_rows, warnings=bundle.notes + tr.notes)


def _exp_lozi_membership(cfg: RunConfig) -> Outcome:
    """Group membership, r-Lipschitz constant and round trip of a Lozi map."""
    mp = cfg.built
    _, r, cross, phi = builtin_triple(_GAUGE.default, mp.domain)
    verdict = group_membership(mp, phi, r, cfg.scheme, cfg.tol)
    lam = r_lipschitz(mp, r, cfg.scheme, cfg.tol)
    coeff = None
    if verdict.forward.finiteness == "finite":
        coeff = koopman_lambda(verdict.forward.value, phi, cross)
    pts = doubling_sample_sets(mp.domain, cfg.scheme)[0][1]
    results = {
        "family": cfg.family.family,
        "params": dict(cfg.family.params),
        "verdict": verdict.verdict,
        "displacement_forward": _displacement_dict(verdict.forward),
        "displacement_inverse": _displacement_dict(verdict.inverse),
        "r_lipschitz": {"value": lam.value, "finiteness": lam.finiteness},
        "koopman_coefficient": coeff,
        "roundtrip_error": roundtrip_error(mp, pts),
    }
    code = 0 if verdict.verdict == "member" else 2
    return Outcome(exit_code=code, results=results)


def _exp_koenigs(cfg: RunConfig) -> Outcome:
    """Koenigs linearization at the attracting fixed point 0."""
    opts = cfg.options
    if _is_pair(cfg):
        mp, multiplier = getattr(cfg.built, opts["use"]), cfg.built.eta
    else:
        mp, multiplier = cfg.built, cfg.family.params["scale"]
    if opts["multiplier"] is not None:
        multiplier = opts["multiplier"]
    try:
        _, rep = koenigs_eigenfunction(
            mp, np.zeros(mp.domain.dim), multiplier, cfg.scheme,
            n_max=opts["n_max"], tol=cfg.tol)
    except ConvergenceError as e:
        return Outcome(exit_code=2, results={
            "family": cfg.family.family, "converged": False,
            "reason": str(e)})
    results = {
        "family": cfg.family.family,
        "multiplier": multiplier,
        "converged": rep.converged,
        "n_steps": rep.n_steps,
        "final_increment": rep.final_increment,
        "residual": rep.residual,
        "growth_exponent": rep.growth_exponent,
    }
    return Outcome(exit_code=0, results=results)


def _exp_abel(cfg: RunConfig) -> Outcome:
    """Abel equation for log|x| / log(scale) on the box minus a ball."""
    scale = cfg.family.params["scale"]
    domain = Domain(dim=1, region="box_minus_ball",
                    inner_radius=cfg.options["inner_radius"])
    mp = build_pure_linear(scale, domain)
    log_scale = np.log(scale)

    def varphi(pts):
        return np.log(domain.norm_of(pts)) / log_scale

    rep = abel_check(mp, varphi, cfg.scheme)
    results = {
        "family": cfg.family.family,
        "scale": scale,
        "residual": rep.residual,
        "worst_point": [float(v) for v in rep.worst_point],
    }
    if 0.0 < scale < 1.0:
        low = schroeder_functional_check(mp, cfg.scheme)
        results["log_margin"] = low.margin
        results["contraction_factor"] = low.contraction_factor
    code = 0 if rep.residual <= cfg.options["residual_tol"] else 2
    return Outcome(exit_code=code, results=results)


def _exp_wandering(cfg: RunConfig) -> Outcome:
    """Sampled wandering check of an iterated point cloud."""
    opts = cfg.options
    rep = wandering_check(cfg.built, opts["cloud"],
                          covering_radius=opts["covering_radius"],
                          nu=opts["nu"], n_max=opts["n_max"])
    results = {
        "family": cfg.family.family,
        "verdict": rep.verdict,
        "collision_pair": None if rep.collision_pair is None
        else list(rep.collision_pair),
        "min_separation": rep.min_separation,
        "radii_trace": list(rep.radii_trace),
    }
    return Outcome(exit_code=0 if rep.verdict == "wandering" else 2,
                   results=results)


def _exp_fk_sweep(cfg: RunConfig) -> Outcome:
    """Increment-envelope grid over (epsilon, C) at the taming threshold."""
    opts = cfg.options
    header = ("epsilon", "C", "threshold_n", "a_m", "tail", "bound",
              "max_envelope", "ok")
    rows = []
    grid = []
    all_ok = True
    for eps in opts["epsilons"]:
        for c in opts["Cs"]:
            n_star = envelope_threshold(eps, c)
            env = cauchy_envelope(m=n_star + 1, epsilon=eps, C=c,
                                  k_max=opts["k_max"])
            max_env = max(env.values)
            ok = bool(max_env <= 2.0 * eps + cfg.tol.tau_env)
            all_ok = all_ok and ok
            entry = {"epsilon": eps, "C": c, "threshold_n": n_star,
                     "a_m": env.a_m, "tail": env.tail, "bound": env.bound,
                     "max_envelope": max_env, "ok": ok}
            grid.append(entry)
            rows.append([entry[h] for h in header])
    results = {"grid": grid, "all_ok": all_ok}
    return Outcome(exit_code=0 if all_ok else 2, results=results,
                   results_rows=(header, rows))


# ---------------------------------------------------------------------------
# registry: the experiments a config can name


@dataclass(frozen=True)
class Experiment:
    """Runner, allowed families, typed options and read tolerances.

    ``tolerances`` names the ``Tolerances`` fields the runner reads; a
    config may set only those.  ``checks`` cover what the option types
    cannot express.  They run at parse time, so the runner gets typed
    values and re-checks nothing.  A problem is text, or a function of the
    config that writes it.
    """

    run: Callable[[RunConfig], Outcome]
    families: tuple
    options: dict                   # name -> Param
    tolerances: tuple
    checks: tuple = ()              # (violated(cfg) -> bool, problem)


def _default_of(fn: Callable, name: str):
    return inspect.signature(fn).parameters[name].default


_OWN_GAUGE = (lambda c: _is_pair(c) and _given(c, "gauge"),
              "options.gauge: contraction_pair carries its own gauge")


def _in_range(option: str, ok: Callable, expected: str) -> tuple:
    """Check that a set option (every entry, for a list) satisfies ``ok``.

    These repeat the library's own range checks at parse time, so a config
    that validates never fails them at run time.
    """
    def violated(cfg: RunConfig) -> bool:
        val = cfg.options[option]
        vals = val if isinstance(val, (list, tuple)) else [val]
        return val is not None and not all(ok(v) for v in vals)
    return violated, f"options.{option}: {expected}"


def _untamed(cfg: RunConfig) -> str | None:
    """Why the first (epsilon, C) of the grid that no seed step tames
    fails, or None.  The runner calls ``envelope_threshold`` on every pair;
    an epsilon so large that epsilon / (1 - a_m) overflows fails it."""
    for eps in cfg.options["epsilons"]:
        for c in cfg.options["Cs"]:
            try:
                envelope_threshold(eps, c)
            except ValueError as e:
                return f"options.epsilons: {e}"
    return None


_ALPHA = _in_range("alpha", lambda a: a > 1.0, "must exceed 1")
_N_MAX = _in_range("n_max", lambda n: n >= 1, "must be >= 1")
# read by every estimate that classifies a window trace
_GROWTH_TOL = ("tau_abs", "rel", "kappa_div")

_EXPERIMENTS = {
    "validate": Experiment(_exp_validate, tuple(FAMILIES),
                           {"gauge": _GAUGE}, ("tau_abs",), (_OWN_GAUGE,)),
    "eigen_check": Experiment(_exp_eigen_check, tuple(FAMILIES), {
        "alpha": Param("number", "gate exponent > 1; contraction_pair has "
                       "its own, other families need one", None),
        "gauge": _GAUGE,
    }, _GROWTH_TOL, (_OWN_GAUGE, _ALPHA,
        (lambda c: not _is_pair(c) and c.options["alpha"] is None,
         "options.alpha: required for eigen_check outside contraction_pair"))),
    "picard": Experiment(_exp_picard, ("contraction_pair",), {
        "alpha": Param("number", "gate exponent > 1; default: the family's",
                       None),
        "h0": Param("string", "initial map", "g", ("g", "identity")),
        "n_max": Param("integer", "step budget",
                       _default_of(PicardContext, "n_max")),
        "n_bnd": Param("integer", "boundedness probe over |n| <= n_bnd",
                       _default_of(PicardContext, "n_bnd")),
    }, _GROWTH_TOL + ("tol_conj", "tau_env"), (_ALPHA, _N_MAX,
        _in_range("n_bnd", lambda n: n >= 0, "must be >= 0"))),
    "lozi_membership": Experiment(_exp_lozi_membership, ("lozi",), {},
                                  _GROWTH_TOL),
    "koenigs": Experiment(_exp_koenigs, ("contraction_pair", "pure_linear"), {
        "use": Param("string", "which contraction_pair map to linearize",
                     "g", ("f", "g")),
        "multiplier": Param("number", "in (0, 1); default: eta or scale",
                            None),
        "n_max": Param("integer", "step budget",
                       _default_of(koenigs_eigenfunction, "n_max")),
    }, ("tol_koenigs",), (_N_MAX,
        _in_range("multiplier", lambda m: 0.0 < m < 1.0, "must lie in (0, 1)"),
        (lambda c: not _is_pair(c) and _given(c, "use"),
         "options.use: only contraction_pair has two maps to choose from"),
        (lambda c: not (_is_pair(c) or 0.0 < c.family.params["scale"] < 1.0),
         "family.params.scale: the linearization needs scale in (0, 1)"))),
    "abel": Experiment(_exp_abel, ("pure_linear",), {
        "inner_radius": Param("number", "radius of the ball cut out at 0",
                              0.125),
        "residual_tol": Param("number", "largest residual that passes", 1e-9),
    }, (), (_in_range("inner_radius", lambda r: r > 0.0, "must be positive"),
        (lambda c: not (c.family.params["scale"] > 0
                        and c.family.params["scale"] != 1.0),
         "family.params.scale: need scale > 0 and scale != 1"))),
    "wandering": Experiment(_exp_wandering, ("translation", "pure_linear"), {
        "cloud": Param("points", "sample points of the compact"),
        "covering_radius": Param("number", "covering radius of the cloud"),
        "nu": Param("integer", "smallest iterate gap checked, >= 1", 1),
        "n_max": Param("integer", "largest iterate checked, >= nu", 8),
    }, (), (_in_range("nu", lambda n: n >= 1, "must be >= 1"),
        _in_range("covering_radius", lambda r: r > 0.0, "must be positive"),
        (lambda c: c.options["cloud"].shape[1] != c.built.domain.dim,
         "options.cloud: points must have the family's dimension"),
        (lambda c: c.options["n_max"] < c.options["nu"],
         "options.n_max: must be >= nu, or no pair of iterates is compared"))),
    "fk_sweep": Experiment(_exp_fk_sweep, (), {
        "epsilons": Param("numbers", "envelope seeds, > 0",
                          (1e-3, 1e-2, 1e-1)),
        "Cs": Param("numbers", "contraction factors in (0, 1)",
                    (0.3, 0.5, 0.9)),
        "k_max": Param("integer", "envelope steps", 64),
    }, ("tau_env",), (
        _in_range("epsilons", lambda e: 0.0 < e and 1.0 / e < np.inf,
                  "must be positive, with a finite reciprocal"),
        _in_range("Cs", lambda c: 0.0 < c < 1.0, "must lie in (0, 1)"),
        _in_range("k_max", lambda k: k >= 0, "must be >= 0"),
        (lambda c: _untamed(c) is not None, _untamed))),
}

EXPERIMENTS = tuple(_EXPERIMENTS)


# ---------------------------------------------------------------------------
# record writing


def _to_jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_to_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_to_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    return obj


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (np.floating, float)):
        return repr(float(v))
    if isinstance(v, (np.integer, int)):
        return str(int(v))
    if isinstance(v, str):
        return v
    return json.dumps(_to_jsonable(v), sort_keys=True)


def _flatten(obj, prefix: str, out: list):
    if isinstance(obj, dict):
        for k in sorted(obj):
            _flatten(obj[k], f"{prefix}.{k}" if prefix else str(k), out)
    else:
        out.append((prefix, _csv_cell(obj)))


@functools.cache
def _git_rev() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=5,
            cwd=Path(__file__).resolve().parent)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown"


def _write_record_json(outdir: Path, cfg: RunConfig, wall_time: float,
                       results: dict | None = None, **meta) -> None:
    """record.json: the run's meta (``meta`` joins the standard keys), its
    config and, when the run produced them, its ``results``."""
    record = {
        "meta": {
            "tool": "homconj",
            "version": __version__,
            "git_rev": _git_rev(),
            "timestamp": datetime.now(timezone.utc).isoformat(),
            "wall_time_s": wall_time,
            **meta,
        },
        "config": cfg.raw,
    }
    if results is not None:
        record["results"] = _to_jsonable(results)
    (outdir / "record.json").write_text(
        json.dumps(record, sort_keys=True, indent=2) + "\n")


def _write_record(outdir: Path, cfg: RunConfig, outcome: Outcome,
                  wall_time: float) -> None:
    _write_record_json(outdir, cfg, wall_time, outcome.results,
                       notes=list(outcome.warnings))

    with (outdir / "results.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        if outcome.results_rows is not None:
            header, rows = outcome.results_rows
            writer.writerow(header)
            for row in rows:
                writer.writerow([_csv_cell(v) for v in row])
        else:
            writer.writerow(("key", "value"))
            flat = []
            _flatten(_to_jsonable(outcome.results), "", flat)
            for key, val in flat:
                writer.writerow((key, val))

    if outcome.trace_rows is not None:
        with (outdir / "trace.csv").open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(TRACE_COLUMNS)
            for row in outcome.trace_rows:
                writer.writerow([_csv_cell(row[c]) for c in TRACE_COLUMNS])


def _make_run_dir(root: Path, cfg: RunConfig) -> Path:
    """A new directory root/<experiment>-<UTC second>-<config hash>, with
    -2, -3, ... appended when a run of the same config in the same second
    took the name, so no run writes over another's records."""
    digest = hashlib.sha256(
        json.dumps(_to_jsonable(cfg.raw), sort_keys=True).encode()).hexdigest()
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%SZ")
    name = f"{cfg.experiment}-{stamp}-{digest[:8]}"
    root.mkdir(parents=True, exist_ok=True)
    for n in itertools.count(1):
        path = root / (name if n == 1 else f"{name}-{n}")
        try:
            path.mkdir()
        except FileExistsError:
            continue
        return path


# ---------------------------------------------------------------------------
# subcommands


def cmd_run(args) -> int:
    cfg = load_config(args.config)
    root = args.out or cfg.output_dir or os.environ.get(ENV_RUNS) or "runs"
    outdir = _make_run_dir(Path(root), cfg)

    start = time.perf_counter()
    phase = "run"
    try:
        outcome = _EXPERIMENTS[cfg.experiment].run(cfg)
        wall = time.perf_counter() - start
        phase = "write"
        _write_record(outdir, cfg, outcome, wall)
    except Exception as exc:
        # the run directory already exists: leave a record that says why
        # it holds no results, or only part of them
        _write_record_json(outdir, cfg, time.perf_counter() - start, error={
            "type": type(exc).__name__, "message": str(exc), "phase": phase})
        raise
    for note in outcome.warnings:
        print(f"note: {note}", file=sys.stderr)
    print(f"run directory: {outdir}")
    headline = outcome.results.get("verdict") \
        or ("pass" if outcome.exit_code == 0 else "fail")
    print(f"experiment {cfg.experiment}: {headline} "
          f"(exit {outcome.exit_code}, {wall:.2f}s)")
    return outcome.exit_code


def cmd_report(args) -> int:
    run_dir = Path(args.run_dir)
    record_path = run_dir / "record.json"
    if not record_path.is_file():
        print(f"error: {record_path} not found", file=sys.stderr)
        return 1
    record = json.loads(record_path.read_text())
    meta = record.get("meta", {})
    config = record.get("config", {})
    print(f"run: {run_dir.name}")
    print(f"tool: {meta.get('tool', '?')} {meta.get('version', '?')} "
          f"(rev {meta.get('git_rev', '?')})")
    print(f"timestamp: {meta.get('timestamp', '?')}  "
          f"wall: {meta.get('wall_time_s', float('nan')):.3f}s")
    print(f"experiment: {config.get('experiment', '?')}")
    fam = config.get("family")
    if fam:
        print(f"family: {fam.get('name')} {json.dumps(fam.get('params', {}), sort_keys=True)}")
    for note in meta.get("notes", ()):
        print(f"note: {note}")
    error = meta.get("error")
    if error:
        print(f"error: {error.get('type', '?')} in phase "
              f"{error.get('phase', '?')}: {error.get('message', '')}")
    print("results:")
    flat = []
    _flatten(record.get("results", {}), "", flat)
    for key, val in flat:
        print(f"  {key}: {val}")
    trace_path = run_dir / "trace.csv"
    if trace_path.is_file():
        with trace_path.open() as fh:
            rows = list(csv.reader(fh))
        print(f"trace: {len(rows) - 1} steps")
        if len(rows) > 1:
            print(f"  first: {dict(zip(rows[0], rows[1]))}")
            print(f"  last:  {dict(zip(rows[0], rows[-1]))}")
    return 0


def _param_line(name: str, param: Param) -> str:
    if param.default is REQUIRED:
        note = "required"
    elif param.default is None:
        note = "optional"
    else:
        note = f"default {param.default!r}"
    if param.choices:
        note += f"; one of {', '.join(map(repr, param.choices))}"
    return f"    {name} ({param.kind}, {note}): {param.doc}"


def cmd_list_families(args) -> int:
    print("families:")
    for name in sorted(FAMILIES):
        fam = FAMILIES[name]
        print(f"  {name}: {fam.description}")
        for pname, param in fam.params.items():
            print(_param_line(pname, param))
    print("experiments:")
    for name, exp in _EXPERIMENTS.items():
        families = ", ".join(exp.families) or "none"
        print(f"  {name} [families: {families}]: {exp.run.__doc__}")
        for oname, param in exp.options.items():
            print(_param_line(oname, param))
        print(f"    tolerances read: {', '.join(exp.tolerances) or 'none'}")
    print("gauges:", ", ".join(BUILTIN_TRIPLE_NAMES))
    return 0


def cmd_validate(args) -> int:
    try:
        cfg = load_config(args.config)
    except ConfigError as e:
        print(f"invalid: {e}", file=sys.stderr)
        return 2
    fam = "-" if cfg.family is None else cfg.family.family
    print(f"config valid: experiment={cfg.experiment} family={fam}")
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="homconj",
        description="Premetric estimates and gated Picard conjugacy runs "
                    "for homeomorphism families.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a configured experiment")
    p_run.add_argument("config", help="path to a JSON config (schema 1)")
    p_run.add_argument("--out", default=None,
                       help=f"output root (default: $"
                            f"{ENV_RUNS} or ./runs)")
    p_run.set_defaults(func=cmd_run)

    p_rep = sub.add_parser("report", help="summarize a recorded run")
    p_rep.add_argument("run_dir", help="run directory written by 'run'")
    p_rep.set_defaults(func=cmd_report)

    p_fam = sub.add_parser("list-families",
                           help="show families, experiments, and gauges")
    p_fam.set_defaults(func=cmd_list_families)

    p_val = sub.add_parser("validate",
                           help="schema-check a config without running")
    p_val.add_argument("config", help="path to a JSON config")
    p_val.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
