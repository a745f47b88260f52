"""Outside-in tracing of homconj: spans around public functions, counters on atoms.

Nothing in ``src/`` is edited.  ``Tracer.install`` replaces every public
function of the six modules, as bound in each module that imports it (for
example ``homspace.doubling_sample_sets`` and ``cli.check_p_alpha``), with
a wrapper that records a span.  Inner calls are therefore caught as child
spans.  Every atom created through ``primitive`` gets its forward and
inverse closures wrapped too, which counts calls and rows evaluated.  A
public function called from inside an atom closure (``bump_eval`` inside
the bisection inverse, ``damped_inverse``) opens no span of its own: its
time is the atom's, and hundreds of thousands of tiny spans would
otherwise swamp what they measure.

Spans stay in memory as parallel lists and are written once, by ``dump``,
when the pass ends.  ``summary`` turns them into per-name call counts, self
times and inclusive times plus the counters below.
"""

import functools
import inspect
import json
import time

import homconj
from homconj import cli, conjugacy, families, funcspace, homspace, koopman

LAYERS = {
    "funcspace": funcspace,
    "homspace": homspace,
    "koopman": koopman,
    "conjugacy": conjugacy,
    "families": families,
    "cli": cli,
}

SAMPLE_TABLES = frozenset({
    "funcspace.doubling_sample_sets",
    "funcspace.exhaustion_sets",
    "funcspace.sample_points",
})

OP_SPAN = "bench.op"


class Tracer:
    """Span recorder for one single-threaded pass."""

    def __init__(self):
        self.names = []
        self.start = []
        self.end = []
        self.parent = []
        self.op = []
        self._stack = []
        self.op_id = -1
        self.in_atom = 0
        # outside-in counters
        self.atom = {"families.forward": [0, 0], "families.inverse": [0, 0]}
        self.sample_calls = 0
        self.sample_keys = set()
        self.r_pairs = 0
        self.picard_steps = 0
        self.damped_iterations = 0

    # -- spans ---------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def current(self) -> str | None:
        return self.names[self._stack[-1]] if self._stack else None

    def _wrap(self, name, fn, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            if tracer.in_atom:
                out = fn(*args, **kwargs)
            else:
                idx = tracer.open(name)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    tracer.close(idx)
            if after is not None:
                after(out)
            return out

        return traced

    # -- counters ------------------------------------------------------

    def _atom_closure(self, name, fn):
        tracer = self
        counts = self.atom[name]

        def traced(pts):
            counts[0] += 1
            counts[1] += int(pts.shape[0])
            idx = tracer.open(name)
            tracer.in_atom += 1
            try:
                return fn(pts)
            finally:
                tracer.in_atom -= 1
                tracer.close(idx)

        return traced

    def _instrument_atoms(self, out):
        # primitive() returns a chain holding one fresh atom
        for atom, _ in out.chain:
            atom.fwd = self._atom_closure("families.forward", atom.fwd)
            atom.inv = self._atom_closure("families.inverse", atom.inv)
        return out

    def _sample_key_hook(self, name, fn):
        sig = inspect.signature(fn)

        def before(args, kwargs):
            if self.current() in SAMPLE_TABLES:
                return
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            self.sample_calls += 1
            self.sample_keys.add((name,) + tuple(bound.arguments.values()))

        return before

    def _add_pairs(self, out):
        self.r_pairs += int(out.pair_count)

    def _add_steps(self, out):
        self.picard_steps += int(out.trace.n_steps)

    def _add_iterations(self, out):
        self.damped_iterations += int(out[1])

    # -- install -------------------------------------------------------

    def install(self) -> None:
        """Wrap every public function of the six modules where it is bound."""
        after_hooks = {
            "homspace.primitive": self._instrument_atoms,
            "koopman.r_lipschitz": self._add_pairs,
            "conjugacy.picard_solve": self._add_steps,
            "families.damped_inverse": self._add_iterations,
        }
        wrappers = {}
        for layer, mod in LAYERS.items():
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if not callable(fn) or isinstance(fn, type) \
                        or fn.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                before = (self._sample_key_hook(name, fn)
                          if name in SAMPLE_TABLES else None)
                wrappers[id(fn)] = (fn, self._wrap(name, fn, before,
                                                   after_hooks.get(name)))
        for mod in list(LAYERS.values()) + [homconj]:
            for attr, val in list(vars(mod).items()):
                if id(val) in wrappers and wrappers[id(val)][0] is val:
                    setattr(mod, attr, wrappers[id(val)][1])

    # -- results -------------------------------------------------------

    def summary(self) -> dict:
        """Per-name calls, self and inclusive nanoseconds, and the counters.

        Spans opened during set-up (operation id -1) are left out, so the
        self times add up to the time spent inside operations.
        """
        n = len(self.names)
        child_ns = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child_ns[p] += self.end[i] - self.start[i]
        spans = {}
        for i in range(n):
            if self.op[i] < 0:
                continue
            dur = self.end[i] - self.start[i]
            rec = spans.setdefault(self.names[i], [0, 0, 0])
            rec[0] += 1
            rec[1] += dur - child_ns[i]
            # inclusive time counts only outermost spans of a name, so a
            # recursive or nested call is not counted twice
            p = self.parent[i]
            outermost = True
            while p >= 0:
                if self.names[p] == self.names[i]:
                    outermost = False
                    break
                p = self.parent[p]
            if outermost:
                rec[2] += dur
        return {
            "spans": {k: {"calls": v[0], "self_ns": v[1], "total_ns": v[2]}
                      for k, v in sorted(spans.items())},
            "counters": {
                "families.forward.calls": self.atom["families.forward"][0],
                "families.forward.rows": self.atom["families.forward"][1],
                "families.inverse.calls": self.atom["families.inverse"][0],
                "families.inverse.rows": self.atom["families.inverse"][1],
                "families.damped_inverse.iterations": self.damped_iterations,
                "funcspace.sample_tables.calls": self.sample_calls,
                "funcspace.sample_tables.distinct_keys": len(self.sample_keys),
                "koopman.r_lipschitz.pairs": self.r_pairs,
                "conjugacy.picard.steps": self.picard_steps,
            },
        }

    def dump(self, path) -> None:
        """Write every span of the pass as parallel arrays."""
        table = sorted(set(self.names))
        index = {name: i for i, name in enumerate(table)}
        with open(path, "w") as fh:
            json.dump({
                "names": table,
                "name": [index[s] for s in self.names],
                "start_ns": self.start,
                "end_ns": self.end,
                "parent": self.parent,
                "op": self.op,
            }, fh)
