"""Span tracer for the traced pass: wraps the public functions of each ``lle`` layer.

Nothing under ``src/`` knows about it. ``Tracer.install`` swaps each target
function for a timing wrapper in every ``lle`` module that bound it (so
``from .numerics import save_array`` in ``cli`` is caught too), plus the
``canonical.CORRECTORS`` entries and the ``RngStream`` / optimizer methods;
``Tracer.uninstall`` puts the originals back. The untraced pass never calls
``install``.

Each span is kept in memory as (name, start, end, parent index) and written
out by ``save``. Self time is a span's duration minus its child spans.
"""

from __future__ import annotations

import functools
import gzip
import hashlib
import importlib
import statistics
import sys
from collections import defaultdict
from time import perf_counter

# module -> public functions wrapped as "<module>.<function>"
FUNCTIONS = {
    "numerics": ("save_array", "load_array"),
    "diffusion": ("gmm_eps", "gmm_eps_jvp", "ddim_step"),
    "operators": ("apply", "apply_adjoint", "pinv_apply", "project", "observe",
                  "nl_apply", "nl_vjp"),
    "canonical": ("sample_phi", "apply_noiser", "run_with_combiner"),
    "extrapolation": ("generate_references", "train_timestep", "combine"),
    "harness": ("load_config", "make_test_batch", "run_experiment", "train_lle",
                "sweep", "_sweep_cell", "evaluate", "oracle_posterior"),
    "cli": ("main",),
}

# (module, class) -> methods wrapped as "<module>.<Class>.<method>"
METHODS = {
    ("numerics", "RngStream"): ("standard_normal", "uniform", "integers", "permutation"),
    ("optim", "ScheduleFreeAdamW"): ("step",),
    ("optim", "Adam"): ("step",),
}


def _rows(x) -> int:
    shape = getattr(x, "shape", ())
    return 1 if len(shape) < 2 else shape[0]


# per-span extras, run after the span has closed; `parent` is the enclosing span's name
def _hook_eps(tracer, parent, args, out):
    tracer.counters["diffusion.eps_rows"] += _rows(out)
    if parent == "diffusion.ddim_step":
        tracer.counters["diffusion.eps_under_ddim"] += 1


def _hook_save(tracer, parent, args, out):
    tracer.counters["numerics.io_bytes"] += 8 * args[3].size  # save_array(path, rows, cols, data)


def _hook_load(tracer, parent, args, out):
    tracer.counters["numerics.io_bytes"] += out[2].nbytes


def _hook_driver(tracer, parent, args, out):
    tracer.counters["canonical.driver_rows"] += _rows(out)


def _hook_refs(tracer, parent, args, out):
    tracer.ref_hashes.add(hashlib.sha256(out.tobytes()).hexdigest())


def _hook_cell(tracer, parent, args, out):
    tracer.counters["harness.cells"] += len(out)
    tracer.counters["harness.cells_failed"] += sum(row[3] == "error" for row in out)


HOOKS = {
    "diffusion.gmm_eps": _hook_eps,
    "numerics.save_array": _hook_save,
    "numerics.load_array": _hook_load,
    "canonical.run_with_combiner": _hook_driver,
    "extrapolation.generate_references": _hook_refs,
    "harness._sweep_cell": _hook_cell,
}


class Tracer:
    def __init__(self):
        # one entry per span, in entry order: the name while the span is open,
        # then (name, start, end, parent index or -1)
        self.spans: list = []
        self._stack: list = []  # indices of the open spans
        self._undo: list = []  # (setter, original) pairs to restore
        # wrapper cost per span, inside its own interval and charged to its parent
        self.bias_inner = self.bias_outer = 0.0
        self.begin_pass()

    def calibrate(self, n: int = 20000, repeats: int = 5) -> None:
        """Measure the wrapper's own cost per span, which end_pass then
        subtracts from self times (as the standard library's profiler does)."""

        def leaf(a, b, c):  # most wrapped calls pass a few positional arguments
            return None

        inner, outer = [], []
        for _ in range(repeats):
            probe = Tracer()
            wrapped_leaf = probe.wrap("leaf", leaf)

            def loop():
                for i in range(n):
                    wrapped_leaf(i, 1, 2)

            t0 = perf_counter()
            for i in range(n):
                leaf(i, 1, 2)
            base = perf_counter() - t0
            probe.begin_pass()
            probe.wrap("loop", loop)()
            snap = probe.end_pass()
            inner.append(snap["self_s"]["leaf"] / n)
            outer.append((snap["self_s"]["loop"] - base) / n)
        self.bias_inner = max(0.0, statistics.median(inner))
        self.bias_outer = max(0.0, statistics.median(outer))

    # -- per-pass aggregates ---------------------------------------------

    def begin_pass(self) -> None:
        self.counters = defaultdict(int)
        self.ref_hashes: set = set()
        self._first = len(self.spans)

    def end_pass(self) -> dict:
        """Calls, self seconds (less the wrapper's own cost) and total seconds
        per span name since begin_pass."""
        calls, self_s, total_s = defaultdict(int), defaultdict(float), defaultdict(float)
        first, spans = self._first, self.spans
        child_s = [0.0] * (len(spans) - first)
        # a child's index is above its parent's, so walking down sees children first
        for i in range(len(spans) - 1, first - 1, -1):
            name, start, end, parent = spans[i]
            dur = end - start
            calls[name] += 1
            total_s[name] += dur
            self_s[name] += dur - child_s[i - first] - self.bias_inner
            if parent >= first:
                child_s[parent - first] += dur + self.bias_outer
        return {"calls": dict(calls), "self_s": dict(self_s), "total_s": dict(total_s),
                "counters": dict(self.counters), "unique_refs": len(self.ref_hashes),
                "spans": len(spans) - first}

    # -- wrapping ---------------------------------------------------------

    def wrap(self, name: str, fn):
        hook = HOOKS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(name)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if hook is not None:
                hook(self, spans[parent] if parent >= 0 else None, args, out)
            return out

        return traced

    def install(self) -> None:
        homes = {name: importlib.import_module(f"lle.{name}")
                 for name in set(FUNCTIONS) | {m for m, _ in METHODS}}
        modules = [m for n, m in list(sys.modules.items())
                   if n == "lle" or n.startswith("lle.")]
        for mod_name, names in FUNCTIONS.items():
            home = homes[mod_name]
            for fname in names:
                orig = getattr(home, fname)
                wrapped = self.wrap(f"{mod_name}.{fname}", orig)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            self._set(mod, attr, wrapped, orig)
        for (mod_name, cls_name), names in METHODS.items():
            cls = getattr(homes[mod_name], cls_name)
            for meth in names:
                orig = vars(cls)[meth]
                self._set(cls, meth, self.wrap(f"{mod_name}.{cls_name}.{meth}", orig), orig)
        correctors = homes["canonical"].CORRECTORS
        for algo, orig in list(correctors.items()):
            correctors[algo] = self.wrap(f"canonical.corrector.{algo}", orig)
            self._undo.append((functools.partial(correctors.__setitem__, algo), orig))

    def _set(self, owner, attr, new, orig) -> None:
        setattr(owner, attr, new)
        self._undo.append((functools.partial(setattr, owner, attr), orig))

    def uninstall(self) -> None:
        while self._undo:
            setter, orig = self._undo.pop()
            setter(orig)

    # -- output -------------------------------------------------------------

    def save(self, path: str) -> None:
        """Write every span as one gzipped tab-separated line: index, parent,
        name, start, end (perf_counter seconds)."""
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("index\tparent\tname\tstart_s\tend_s\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                f.write(f"{i}\t{parent}\t{name}\t{start:.9f}\t{end:.9f}\n")
