"""The benchmark's workloads: seeded inputs, one operation per call, checks.

Each workload class builds its inputs from the seed in ``__init__`` (part of
set-up), lists its operations in ``ops``, runs one with ``run(i)`` and
checks that result with ``check(i, out)``, which returns a list of
problems (empty when the output is correct).  ``tiny=True`` shrinks every
workload for the smoke test.  Why each workload exists is in README.md.
"""

import itertools
import json
import math
from pathlib import Path

import numpy as np

from homconj import cli, conjugacy, families, funcspace, homspace, koopman


def _rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), salt]))


def _finite_nonneg(x) -> bool:
    return x is not None and math.isfinite(x) and x >= 0.0


class PicardEta:
    """Acceptance pipeline per eta: validate, eigen gate, Picard from h0 = g."""

    ETAS = (0.1, 0.25, 0.5)

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        if tiny:
            self.etas = (0.25,)
            self.scheme = funcspace.SampleScheme(
                window_radius=8.0, grid_points_per_axis=9,
                quasirandom_count=8, seed=seed)
        else:
            self.etas = self.ETAS
            self.scheme = funcspace.SampleScheme(window_radius=8.0, seed=seed)
        self.ops = [f"eta={eta:g}" for eta in self.etas]

    def run(self, i: int) -> dict:
        b = families.build_contraction_pair(self.etas[i])
        pair_rep = funcspace.validate_scale_pair(b.growth, b.r, b.cross,
                                                 self.scheme)
        gauge_rep = funcspace.validate_gauge(b.phi, b.growth, b.domain,
                                             self.scheme)
        eigen = koopman.check_p_alpha(b.f, b.g, b.phi, b.r, b.alpha,
                                      self.scheme)
        est = homspace.EstimateContext(domain=b.domain, scheme=self.scheme,
                                       phi=b.phi, r=b.r, cross=b.cross)
        ctx = conjugacy.PicardContext(est=est, alpha=b.alpha,
                                      eigen_report=eigen)
        res = conjugacy.picard_solve(b.f, b.g, b.g, ctx)
        return {"pair": pair_rep, "gauge": gauge_rep, "eigen": eigen,
                "result": res}

    def check(self, i: int, out: dict) -> list:
        res, eigen = out["result"], out["eigen"]
        problems = []
        if res.trace.verdict != "converged":
            problems.append(f"verdict {res.trace.verdict}")
        if not (math.isfinite(res.residual) and res.residual < 1e-6):
            problems.append(f"residual {res.residual!r}")
        if not (eigen.satisfied and eigen.min_slack_f >= 0.0
                and eigen.min_slack_g is not None
                and eigen.min_slack_g >= 0.0):
            problems.append("eigen gate not satisfied with both slacks >= 0")
        if not (out["pair"].passed and out["gauge"].passed):
            problems.append("validation failed")
        if res.trace.incrementally_bounded is not True:
            problems.append("not incrementally bounded")
        # h0 = g = eta*x outside a compact, and every iterate keeps that
        # tail, so the displacement of h grows like sqrt|x| against the
        # sqrt gauge: the determinate, correct verdict is non_member
        if res.membership is None or res.membership.verdict != "non_member":
            verdict = None if res.membership is None else res.membership.verdict
            problems.append(f"membership {verdict!r}, expected 'non_member'")
        return problems


class PremetricPool:
    """premetric on ordered pairs of a seeded pool of 1-d box members."""

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        rng = _rng(seed, 7411)
        size, n_triples, n_diag = (8, 4, 2) if tiny else (40, 130, 10)
        self.domain = funcspace.Domain(dim=1, region="box")
        _, self.r, cross, self.phi = funcspace.builtin_triple("sqrt_plus",
                                                              self.domain)
        self.scheme = funcspace.SampleScheme(
            window_radius=4.0, grid_points_per_axis=9, quasirandom_count=8,
            exhaustion_levels=2, seed=seed)
        est = homspace.EstimateContext(domain=self.domain, scheme=self.scheme,
                                       phi=self.phi, r=self.r, cross=cross)
        self.product_coeff = est.product_coeff
        self.affine_coeff = est.affine_coeff

        # even indices: bump-perturbed identities, odd: translations; one
        # bump slope for all, so every bump inverse costs about the same
        self.members = []
        for k in range(size):
            if k % 2:
                self.members.append(families.build_translation(
                    [rng.uniform(-2.0, 2.0)], self.domain))
            else:
                halfwidth = rng.uniform(0.3, 1.5)
                # Lip(bump) = 1.875 * height / halfwidth = 0.4 < 1, so the
                # damped inverse contracts and the map is increasing
                bump = families.BumpSpec(
                    center=rng.uniform(0.8, 5.0), halfwidth=halfwidth,
                    height=0.4 * halfwidth / families.BUMP_SLOPE_FACTOR)
                self.members.append(
                    families.build_perturbed_linear([[1.0]], bump))

        # triples (f, g, h) whose three ordered pairs (f,g), (f,h), (h,g)
        # are all distinct, so every premetric call is a new pair.  The
        # member kinds of (f, g, h) cycle through all eight combinations,
        # so the mix of pair kinds, and with it the work, is the same for
        # every seed.
        self.pairs = []
        seen = set()
        kinds = [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]
        while len(self.pairs) < 3 * n_triples:
            kind = kinds[(len(self.pairs) // 3) % len(kinds)]
            f, g, h = (2 * int(rng.integers(size // 2)) + k for k in kind)
            trio = ((f, g), (f, h), (h, g))
            if len({f, g, h}) == 3 and seen.isdisjoint(trio):
                seen.update(trio)
                self.pairs.extend(trio)
        self.n_triangle_ops = len(self.pairs)
        step = max(1, size // n_diag)
        self.pairs.extend((k, k) for k in range(0, size, step)[:n_diag])
        self.ops = [f"rho({i},{j})" for i, j in self.pairs]
        self.rho = {}

    def run(self, i: int):
        f, g = self.pairs[i]
        return homspace.premetric(self.members[f], self.members[g], self.phi,
                                  self.r, self.scheme)

    def check(self, i: int, out) -> list:
        f, g = self.pairs[i]
        problems = []
        if out.finiteness != "finite" or not _finite_nonneg(out.rho):
            problems.append(f"rho {out.rho!r} labelled {out.finiteness}")
        if f == g and out.rho != 0.0:
            problems.append(f"rho(f, f) = {out.rho!r}, not exactly 0")
        self.rho[i] = out.rho
        if i < self.n_triangle_ops and i % 3 == 2:
            vals = [self.rho.get(k) for k in (i - 2, i - 1, i)]
            if any(v is None or not math.isfinite(v) for v in vals):
                problems.append("triangle check lacks a finite rho")
            else:
                fg, fh, hg = vals
                rhs = self.product_coeff * fh * hg + self.affine_coeff * fh + hg
                if rhs - fg < -1e-9:
                    problems.append(f"relaxed triangle slack {rhs - fg:.3e}")
        return problems


class ConfigSuite:
    """Generated non-Picard configs run in-process through cli.main."""

    # experiment -> number of configs per pass; eigen_check and
    # lozi_membership carry r_lipschitz and hold the median and the p90
    MIX = (("eigen_check", 14), ("lozi_membership", 8), ("validate", 4),
           ("koenigs", 4), ("abel", 3), ("wandering", 3), ("fk_sweep", 3))

    EXPECT = {
        "validate": ("passed", True),
        "eigen_check": ("eigen.satisfied", True),
        "lozi_membership": ("verdict", "member"),
        "koenigs": ("converged", True),
        "abel": ("residual", None),
        "wandering": ("verdict", "wandering"),
        "fk_sweep": ("all_ok", True),
    }

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        rng = _rng(seed, 5209)
        cfg_dir = workdir / "configs"
        cfg_dir.mkdir(parents=True)
        self.runs_dir = workdir / "runs"
        counts = dict(self.MIX)
        if tiny:
            counts = {k: 1 for k in counts}
        queues = [[getattr(self, f"_{exp}")(rng, k, count)
                   for k in range(count)] for exp, count in counts.items()]
        # round-robin over experiments so light and heavy runs interleave
        ordered = [cfg for group in itertools.zip_longest(*queues)
                   for cfg in group if cfg is not None]
        self.experiments = []
        self.paths = []
        for n, cfg in enumerate(ordered):
            path = cfg_dir / f"{n:03d}-{cfg['experiment']}.json"
            path.write_text(json.dumps(cfg, indent=1))
            self.paths.append(path)
            self.experiments.append(cfg["experiment"])
        self.ops = [p.stem for p in self.paths]
        self.bytes_written = 0

    # -- generators: parameters vary with the seed, the work per run does not

    @staticmethod
    def _sampling(rng, **kw) -> dict:
        return {**kw, "seed": int(rng.integers(0, 2**31))}

    @staticmethod
    def _bumped_pair(rng, eta) -> dict:
        # bump_center/bump_halfwidth are accepted by validate; whether
        # eigen_check and koenigs honour them is up to the program
        halfwidth = float(rng.uniform(0.5, 1.2))
        return {"eta": float(eta),
                "bump_center": float(halfwidth + rng.uniform(0.5, 3.0)),
                "bump_halfwidth": halfwidth}

    def _eigen_check(self, rng, k, count):
        eta = 0.1 + 0.75 * (k + rng.uniform(0.1, 0.9)) / count
        return {"schema": 1, "experiment": "eigen_check",
                "family": {"name": "contraction_pair",
                           "params": self._bumped_pair(rng, eta)},
                "sampling": self._sampling(rng, window_radius=8.0)}

    def _lozi_membership(self, rng, k, count):
        a = 1.0 + 0.6 * ((k // 2) + rng.uniform(0.1, 0.9)) / max(1, count // 2)
        b = (0.15 if k % 2 == 0 else 0.35) + rng.uniform(-0.05, 0.05)
        return {"schema": 1, "experiment": "lozi_membership",
                "family": {"name": "lozi",
                           "params": {"a": float(a), "b": float(b),
                                      "norm": ("euclidean", "sup")[k % 2]}},
                "sampling": self._sampling(rng, window_radius=4.0,
                                           grid_points_per_axis=21)}

    def _validate(self, rng, k, count):
        if k % 2 == 0:
            family = {"name": "contraction_pair",
                      "params": self._bumped_pair(rng, rng.uniform(0.1, 0.9))}
            options = {}
        else:
            family = {"name": "perturbed_linear",
                      "params": {"scale": float(rng.uniform(1.2, 3.0))}}
            options = {"gauge": ("linear_plus", "sqrt_plus")[(k // 2) % 2]}
        return {"schema": 1, "experiment": "validate", "family": family,
                "sampling": self._sampling(rng, window_radius=8.0),
                "options": options}

    def _koenigs(self, rng, k, count):
        if k % 2 == 0:
            family = {"name": "contraction_pair",
                      "params": self._bumped_pair(rng, rng.uniform(0.15, 0.6))}
            options = {"use": ("g", "f")[(k // 2) % 2]}
        else:
            family = {"name": "pure_linear",
                      "params": {"scale": float(rng.uniform(0.2, 0.8))}}
            options = {}
        return {"schema": 1, "experiment": "koenigs", "family": family,
                "sampling": self._sampling(rng, window_radius=4.0),
                "options": options}

    def _abel(self, rng, k, count):
        scale = float(rng.uniform(0.3, 0.8) if k % 2 == 0
                      else rng.uniform(1.5, 3.0))
        return {"schema": 1, "experiment": "abel",
                "family": {"name": "pure_linear", "params": {"scale": scale}},
                "sampling": self._sampling(rng, window_radius=8.0),
                "options": {"inner_radius": float(rng.uniform(0.1, 0.2))}}

    def _wandering(self, rng, k, count):
        start = float(rng.uniform(0.5, 1.5))
        cloud = [start + 0.05 * j for j in range(16)]
        # the cloud spans 0.75; offsets above 0.8 keep the iterates apart
        return {"schema": 1, "experiment": "wandering",
                "family": {"name": "translation",
                           "params": {"offset": float(rng.uniform(0.9, 1.5))}},
                "options": {"cloud": cloud, "covering_radius": 0.025,
                            "nu": 1, "n_max": 6}}

    def _fk_sweep(self, rng, k, count):
        eps = [float(e * rng.uniform(0.5, 2.0)) for e in (1e-3, 1e-2, 1e-1)]
        cs = [float(c + rng.uniform(-0.05, 0.05)) for c in (0.3, 0.5, 0.85)]
        return {"schema": 1, "experiment": "fk_sweep",
                "options": {"epsilons": eps, "Cs": cs, "k_max": 64}}

    # -- operation -----------------------------------------------------

    def run(self, i: int) -> int:
        out = self.runs_dir / f"{i:03d}"
        return cli.main(["run", str(self.paths[i]), "--out", str(out)])

    def check(self, i: int, code: int) -> list:
        problems = []
        if code != 0:
            problems.append(f"exit code {code}")
        run_dirs = list((self.runs_dir / f"{i:03d}").glob("*"))
        if len(run_dirs) != 1:
            return problems + [f"{len(run_dirs)} run directories"]
        run_dir = run_dirs[0]
        record_path = run_dir / "record.json"
        if not record_path.is_file() or not (run_dir / "results.csv").is_file():
            return problems + ["record.json or results.csv missing"]
        record = json.loads(record_path.read_text())
        self.bytes_written += _run_dir_bytes(run_dir, record)
        key, want = self.EXPECT[self.experiments[i]]
        val = record.get("results", {})
        for part in key.split("."):
            val = val.get(part) if isinstance(val, dict) else None
        if val is None:
            problems.append(f"results.{key} missing")
        elif want is not None and val != want:
            problems.append(f"results.{key} = {val!r}")
        elif want is None and not _finite_nonneg(val):
            problems.append(f"results.{key} = {val!r}")
        return problems


def _run_dir_bytes(run_dir: Path, record: dict) -> int:
    """Bytes in a run directory, less the wall-clock text of record.json.

    ``meta.timestamp`` and ``meta.wall_time_s`` change length from run to
    run; leaving their text out makes the count repeat exactly.
    """
    total = sum(p.stat().st_size for p in run_dir.iterdir() if p.is_file())
    meta = record.get("meta", {})
    for key in ("timestamp", "wall_time_s"):
        if key in meta:
            total -= len(json.dumps(meta[key]))
    return total


WORKLOADS = {
    "picard_eta": PicardEta,
    "premetric_pool": PremetricPool,
    "config_suite": ConfigSuite,
}
