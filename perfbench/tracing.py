"""Span tracing installed from outside the program.

The traced run replaces selected names in the ``greedy_eig`` modules that
look them up (for example ``greedy.eig_residual`` or ``secular.cholesky_spd``)
by timing wrappers, and restores the originals afterwards.  Nothing inside
the package is edited: a span starts when a call crosses one of these
lookups and ends when it returns or raises.  Spans nest through a stack, so
the self time of a span is its duration minus the time its direct children
cover.  Spans stay in memory until the run ends.

Only lookups that cross a module boundary are wrapped; a call a module makes
to its own functions (``dense_kernels.gen_sym_eig_smallest`` calling
``cholesky_spd``) stays inside the caller's span.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import json
import os
import time
from dataclasses import dataclass
from typing import Callable

PACKAGE = "greedy_eig"

# Layers are the package modules; a span name is "<layer>.<function>".
LAYERS = ("greedy", "adm", "tensor_core", "secular", "dense_kernels",
          "problems", "reference_oracle", "cli")
DENSE_FNS = ("gen_sym_eig_smallest", "sym_eig_full", "cholesky_spd",
             "spd_solve", "sym_indefinite_solve")
REASONS = ("converged_residual", "converged_lambda", "max_iter", "step_failure")
JOB_SPAN = "bench.job"


class Span:
    __slots__ = ("name", "parent", "start", "end", "job", "failed", "attrs",
                 "child_time")

    def __init__(self, name, parent, start, job):
        self.name = name
        self.parent = parent
        self.start = start
        self.end = start
        self.job = job
        self.failed = False
        self.attrs = None
        self.child_time = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


class Tracer:
    """Records nested spans; ``job`` tags the spans of one timed job."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.job = None

    def _open(self, name) -> Span:
        span = Span(name, self._stack[-1] if self._stack else None,
                    self.clock(), self.job)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = self.clock()
        self._stack.pop()
        if span.parent is not None:
            span.parent.child_time += span.duration
        self.spans.append(span)

    @contextlib.contextmanager
    def span(self, name):
        span = self._open(name)
        try:
            yield span
        except BaseException:
            span.failed = True
            raise
        finally:
            self._close(span)

    def wrap(self, name: str, fn, note=None):
        """Return ``fn`` timed as span ``name``.

        ``note(args, kwargs, result)`` returns attributes taken from the
        call and its result; it is not called when ``fn`` raises.
        """

        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                self._close(span)
            if note is not None:
                span.attrs = note(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def dump(self, path) -> None:
        """Write the spans as JSON lines: name, parent index, times in ms."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps([
                    s.name, index.get(id(s.parent)), s.job,
                    round(s.start * 1e3, 4), round(s.duration * 1e3, 4),
                    s.failed, s.attrs,
                ]) + "\n")


# ---------------------------------------------------------------------------
# notes: facts taken from a call's arguments and result

def _note_run(args, kwargs, result):
    return {"iterations": result.iterations, "reason": result.reason}


def _note_adm(fn):
    sig = inspect.signature(fn)

    def note(args, kwargs, result):
        bound = sig.bind_partial(*args, **kwargs).arguments
        return {"sweeps": result.sweeps_used, "converged": result.converged,
                "started": bound.get("start") is not None}

    return note


def _note_order(args, kwargs, result):
    return {"order": len(args[0])}


def _note_file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(str(args[2]))}


def _residual_flops(op, u) -> int:
    """Flops of eig_residual from shapes: A u and M u images, then the
    factored norm over (K + 1) n terms."""
    n = u.num_terms
    r = (op.num_terms + 1) * n
    images = (op.num_terms + 1) * sum(2 * nj * nj * n for nj in op.sizes)
    norm = sum(2 * nj * r * r + r * r for nj in op.sizes) + 2 * r * r
    return images + norm


def _reduce_flops(op, n_ctx, j) -> int:
    """Flops of DirectionWorkspace.reduce from shapes (see tensor_core)."""
    others = [nl for l, nl in enumerate(op.sizes) if l != j]
    nj = op.sizes[j]
    quad = sum(2 * nl * nl + 2 * nl for nl in others)
    flops = op.num_terms * (quad + 2 * nj * nj) + quad + nj * nj + 4 * nj * nj
    if n_ctx:
        flops += (op.num_terms + 1) * (sum(2 * nl * n_ctx for nl in others)
                                       + 2 * nj * n_ctx)
    return flops


def _note_residual(args, kwargs, result):
    return {"flops": _residual_flops(args[0], args[2])}


# ---------------------------------------------------------------------------
# hooks: (module that looks the name up, name, span name, note factory)

@dataclass(frozen=True)
class Hook:
    module: str
    attr: str
    span: str
    note: Callable | None = None   # called with the original function


def _plain(note):
    return lambda fn: note


HOOKS = (
    Hook("greedy", "run", "greedy.run", _plain(_note_run)),
    Hook("cli", "run", "greedy.run", _plain(_note_run)),
    Hook("greedy", "initialize", "greedy.initialize"),
    Hook("greedy", "step", "greedy.step"),
    Hook("greedy", "orthogonal_update", "greedy.orthogonal_update"),
    *(Hook("greedy", fn, f"adm.{fn}", _note_adm)
      for fn in ("adm_initial_guess", "adm_rayleigh_step",
                 "adm_residual_step", "adm_explicit_step")),
    Hook("adm", "seed_rank_one", "adm.seed_rank_one"),
    Hook("greedy", "eig_residual", "tensor_core.eig_residual",
         _plain(_note_residual)),
    *(Hook("secular", fn, f"secular.{fn}")
      for fn in ("reduce", "solve_secular", "recover_minimizer")),
    *(Hook(mod, fn, f"dense_kernels.{fn}", _plain(_note_order))
      for mod, fn in (("adm", "gen_sym_eig_smallest"), ("adm", "spd_solve"),
                      ("adm", "sym_indefinite_solve"),
                      ("greedy", "gen_sym_eig_smallest"),
                      ("secular", "cholesky_spd"), ("secular", "sym_eig_full"))),
    Hook("problems", "gen_random_kronecker", "problems.gen"),
    Hook("problems", "load_operator", "problems.load"),
    Hook("cli", "save_operator", "problems.save", _plain(_note_file_bytes)),
    Hook("cli", "dense_reference", "reference_oracle.dense_reference"),
    Hook("cli", "error_metrics", "reference_oracle.error_metrics"),
    Hook("cli", "cmd_gen", "cli.gen"),
    Hook("cli", "cmd_solve", "cli.solve"),
    Hook("cli", "cmd_compare", "cli.compare"),
    # the class itself: construction is timed and each instance's reduce
    # is wrapped, see _workspace_factory
    Hook("adm", "DirectionWorkspace", "tensor_core.workspace"),
)


def _workspace_factory(tracer: Tracer, cls, name: str):
    """Stand-in for ``adm.DirectionWorkspace`` that times construction as
    ``name`` and wraps the new instance's ``reduce``."""

    def make(op, m, context):
        with tracer.span(name):
            ws = cls(op, m, context)
        n_ctx = context.num_terms

        def note(args, kwargs, result):
            return {"flops": _reduce_flops(op, n_ctx, args[1])}

        ws.reduce = tracer.wrap("tensor_core.reduce", ws.reduce, note)
        return ws

    return make


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Patch every hook while the block runs; always restore the originals.

    Yields the list of hooks whose name no longer exists in the package, so
    a renamed function shows up as a missing hook instead of a crash.
    """
    patched = []
    missing = []
    try:
        for hook in HOOKS:
            module = importlib.import_module(f"{PACKAGE}.{hook.module}")
            if not hasattr(module, hook.attr):
                missing.append(f"{hook.module}.{hook.attr}")
                continue
            original = getattr(module, hook.attr)
            if hook.attr == "DirectionWorkspace":
                replacement = _workspace_factory(tracer, original, hook.span)
            else:
                note = hook.note(original) if hook.note else None
                replacement = tracer.wrap(hook.span, original, note)
            patched.append((module, hook.attr, original))
            setattr(module, hook.attr, replacement)
        yield missing
    finally:
        for module, attr, original in reversed(patched):
            setattr(module, attr, original)


# ---------------------------------------------------------------------------
# per-layer metrics

def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def layer_metrics(spans, n_jobs: int, traced_wall: float,
                  untraced_wall: float, missing) -> dict:
    """Per-layer metrics of a traced pass, normalised per timed job.

    ``spans`` with ``job`` set belong to the traced jobs; the others were
    recorded while the workload was set up and give the ``ms/setup``
    metrics.  Times are self times unless the name says ``busy``.  The
    ``<layer>.self_ms`` values plus ``other.self_ms`` add up to
    ``trace.wall_ms``; ``other`` is the benchmark's own time between calls.
    """
    jobs = max(n_jobs, 1)
    run_spans = [s for s in spans if s.job is not None]
    setup_spans = [s for s in spans if s.job is None]
    by_name: dict[str, list] = {}
    for s in run_spans:
        by_name.setdefault(s.name, []).append(s)

    def named(*names):
        return [s for n in names for s in by_name.get(n, ())]

    def self_ms(ss):
        return sum(s.self_time for s in ss) * 1e3 / jobs

    def count(ss):
        return len(ss) / jobs

    def mean(values):
        values = list(values)
        return sum(values) / len(values) if values else 0.0

    def setup_ms(name):
        return sum(s.self_time for s in setup_spans if s.name == name) * 1e3

    out = {}

    def put(name, value, unit):
        out[name] = (float(value), unit)

    layer_self = {layer: 0.0 for layer in LAYERS}
    for s in run_spans:
        layer = _layer(s.name)
        if layer in layer_self:
            layer_self[layer] += s.self_time
    for layer in LAYERS:
        put(f"{layer}.self_ms", layer_self[layer] * 1e3 / jobs, "ms/job")
    wall_ms = traced_wall * 1e3 / jobs
    put("other.self_ms", wall_ms - sum(layer_self.values()) * 1e3 / jobs,
        "ms/job")

    runs = [s for s in named("greedy.run") if s.attrs]
    put("greedy.iterations", mean(s.attrs["iterations"] for s in runs),
        "iter/run")
    put("greedy.step_self_ms",
        self_ms(named("greedy.step", "greedy.orthogonal_update")), "ms/job")
    for reason in REASONS:
        share = mean(s.attrs["reason"].startswith(reason) for s in runs)
        put(f"greedy.reason_share.{reason}", share, "ratio")

    adm_calls = [s for s in run_spans
                 if s.name.startswith("adm.adm_")]
    seeds: dict[int, int] = {}
    for s in by_name.get("adm.seed_rank_one", ()):
        if s.parent is not None:
            seeds[id(s.parent)] = seeds.get(id(s.parent), 0) + 1
    reseeds = sum(
        max(0, seeds.get(id(s), 0)
            - (0 if s.attrs and s.attrs["started"] else 1))
        for s in adm_calls)
    reported = [s for s in adm_calls if s.attrs]
    put("adm.calls", count(adm_calls), "calls/job")
    put("adm.busy_ms", sum(s.duration for s in adm_calls) * 1e3 / jobs,
        "ms/job")
    put("adm.sweeps_per_call", mean(s.attrs["sweeps"] for s in reported),
        "sweeps/call")
    put("adm.converged_ratio", mean(s.attrs["converged"] for s in reported),
        "ratio")
    put("adm.reseeds", reseeds / jobs, "count/job")
    put("adm.failures", sum(s.failed for s in adm_calls) / jobs, "count/job")

    reduces = named("tensor_core.reduce")
    residuals = named("tensor_core.eig_residual")
    put("tensor_core.reduce_calls", count(reduces), "calls/job")
    put("tensor_core.reduce_ms", self_ms(reduces), "ms/job")
    put("tensor_core.workspace_ms", self_ms(named("tensor_core.workspace")),
        "ms/job")
    put("tensor_core.residual_calls", count(residuals), "calls/job")
    put("tensor_core.residual_ms", self_ms(residuals), "ms/job")
    put("tensor_core.reduce_flops_computed",
        sum(s.attrs["flops"] for s in reduces if s.attrs) / jobs, "flop/job")
    put("tensor_core.residual_flops_computed",
        sum(s.attrs["flops"] for s in residuals if s.attrs) / jobs, "flop/job")

    secular = [s for s in run_spans if _layer(s.name) == "secular"]
    put("secular.calls", count(named("secular.reduce")), "calls/job")
    put("secular.reduce_ms", self_ms(named("secular.reduce")), "ms/job")
    put("secular.solve_ms", self_ms(named("secular.solve_secular")), "ms/job")
    put("secular.recover_ms", self_ms(named("secular.recover_minimizer")),
        "ms/job")
    put("secular.failures", sum(s.failed for s in secular) / jobs, "count/job")

    dense = [s for s in run_spans if _layer(s.name) == "dense_kernels"]
    for fn in DENSE_FNS:
        ss = named(f"dense_kernels.{fn}")
        put(f"dense_kernels.{fn}.calls", count(ss), "calls/job")
        put(f"dense_kernels.{fn}.ms", self_ms(ss), "ms/job")
    put("dense_kernels.mean_order",
        mean(s.attrs["order"] for s in dense if s.attrs), "n")
    put("dense_kernels.failures", sum(s.failed for s in dense) / jobs,
        "count/job")

    put("problems.gen_ms", setup_ms("problems.gen"), "ms/setup")
    put("problems.save_ms", setup_ms("problems.save"), "ms/setup")
    put("problems.load_ms", self_ms(named("problems.load")), "ms/job")
    put("problems.file_bytes",
        max((s.attrs["bytes"] for s in setup_spans
             if s.name == "problems.save" and s.attrs), default=0), "B")

    put("reference_oracle.dense_reference_ms",
        self_ms(named("reference_oracle.dense_reference")), "ms/job")
    put("reference_oracle.error_metrics_calls",
        count(named("reference_oracle.error_metrics")), "calls/job")
    put("reference_oracle.error_metrics_ms",
        self_ms(named("reference_oracle.error_metrics")), "ms/job")

    put("cli.gen_ms", setup_ms("cli.gen"), "ms/setup")
    put("cli.solve_ms", self_ms(named("cli.solve")), "ms/job")
    put("cli.compare_ms", self_ms(named("cli.compare")), "ms/job")

    put("trace.wall_ms", wall_ms, "ms/job")
    put("trace.jobs", n_jobs, "count")
    put("trace.overhead_ratio", traced_wall / untraced_wall, "ratio")
    put("trace.hooks_missing", len(missing), "count")
    return out
