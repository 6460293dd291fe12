"""Spans and counts around the calls into each ``sts`` module.

A :class:`Tracer` replaces the names that callers look up (module
attributes and class methods) with wrappers that record one span per
call, and restores every name when :meth:`Tracer.installed` exits, so
untraced operations in the same process run the unmodified code.  Spans
are kept in memory; :func:`layer_metrics` turns the spans of one
operation into the per-layer metrics named in ``PER_LAYER``.

Spans are kept per thread, so the sweep's worker thread nests its spans
under the operation's root span.  Self times assume that the children of
one span run one after another, which holds with ``STS_THREADS=1``.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import threading
import time
from dataclasses import dataclass, field

# every per-layer metric, with its unit; BENCHMARK.json lists the same
PER_LAYER = [
    ("config.parse_s", "s"),
    ("operators.assemble_s", "s"),
    ("operators.assemble_refined_s", "s"),
    ("operators.block_dim", "count"),
    ("operators.nnz", "count"),
    ("exterior.build_s", "s"),
    ("spectral.eig_s.k0", "s"),
    ("spectral.eig_s.k1", "s"),
    ("spectral.eig_s.k2", "s"),
    ("spectral.eig_s.k3", "s"),
    ("spectral.guard_s", "s"),
    ("spectral.shift_invert_calls", "count"),
    ("spectral.shift_invert_failed", "count"),
    ("spectral.shift_invert_s", "s"),
    ("spectral.certified_per_shift_invert", "ratio"),
    ("spectral.certified.k0", "count"),
    ("spectral.certified.k1", "count"),
    ("spectral.certified.k2", "count"),
    ("spectral.certified.k3", "count"),
    ("spectral.near_defective", "count"),
    ("spectral.eig_condition_max", "ratio"),
    ("spectral.post_s", "s"),
    ("sde.integrate_s", "s"),
    ("sde.path_steps", "count"),
    ("sde.path_steps_per_s", "1/s"),
    ("sde.histogram_s", "s"),
    ("sde.evolve_s", "s"),
    ("sde.oracle_s", "s"),
    ("trig.evaluate_s", "s"),
    ("trig.evaluate_calls", "count"),
    ("report.write_s", "s"),
    ("report.bytes", "bytes"),
    ("cli.self_s", "s"),
    ("trace.overhead_s", "s"),
]

# exterior constructors, patched where operators and spectral look them up
_EXTERIOR_IN = {
    "operators": ("codifferential_matrix", "conv_matrix", "d_matrix",
                  "diff_matrix", "interior_matrix", "one_form_wedge_matrix"),
    "spectral": ("d_matrix", "hodge_star_matrix", "hodge_star_inverse_matrix",
                 "interior_matrix", "multiply_matrix"),
}
_POST = ("zero_modes", "pairing_check", "witten_index", "partition_function",
         "partition_slope", "classify", "ground_state")


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self):
        return self.end - self.start


class _SplaProxy:
    """``scipy.sparse.linalg`` as ``sts.spectral`` sees it, with ``eigs``
    timed and its failures counted."""

    def __init__(self, module, tracer):
        self._module = module
        self._tracer = tracer
        self._failures = (module.ArpackNoConvergence, RuntimeError)

    def __getattr__(self, name):
        return getattr(self._module, name)

    def eigs(self, *args, **kwargs):
        with self._tracer.span("spectral.shift_invert") as attrs:
            try:
                return self._module.eigs(*args, **kwargs)
            except self._failures:
                attrs["failed"] = True
                raise


class Tracer:
    """Records spans of one process's traced operations."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root = None

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _current(self):
        stack = self._stack()
        return stack[-1] if stack else self._root

    @contextlib.contextmanager
    def span(self, name):
        """Time the block as one span; yields its mutable attribute dict."""
        parent = self._current()
        sid = next(self._ids)
        attrs = {}
        stack = self._stack()
        stack.append((sid, name))
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                Span(sid, name, start, end, parent and parent[0], attrs))

    @contextlib.contextmanager
    def operation(self, op_id):
        """Root span of one operation; spans of other threads nest here."""
        with self.span("op") as attrs:
            attrs["op"] = op_id
            self._root = self._stack()[-1]
            try:
                yield attrs
            finally:
                self._root = None

    def timed(self, name, fn, after=None):
        """``fn`` wrapped in a span; ``after(attrs, args, result)`` runs
        once the span has closed, so its bookkeeping is not timed."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as attrs:
                result = fn(*args, **kwargs)
            if after is not None:
                after(attrs, args, result)
            return result
        return wrapper

    def _assembler(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            current = self._current()
            if current and current[1] == "operators.assemble_refined":
                return fn(*args, **kwargs)
            with self.span("operators.assemble") as attrs:
                blocks = fn(*args, **kwargs)
            attrs["dims"] = [b.matrix.shape[0] for b in blocks]
            attrs["nnz"] = sum(int(b.matrix.nnz) for b in blocks)
            return blocks
        return wrapper

    def _guard(self, fn):
        @functools.wraps(fn)
        def wrapper(systems, assemble, *args, **kwargs):
            refined = self.timed("operators.assemble_refined", assemble)
            with self.span("spectral.guard") as attrs:
                masks = fn(systems, refined, *args, **kwargs)
            attrs["certified"] = [int(m.sum()) for m in masks]
            return masks
        return wrapper

    def _patches(self):
        """(owner, attribute, wrapper factory) for every traced name."""
        from sts import cli, operators, report, sde, spectral, trig

        def eig_attrs(attrs, args, system):
            attrs["degree"] = args[0].k_in
            attrs["near_defective"] = bool(system.near_defective)
            attrs["condition"] = float(system.condition)

        def path_steps(attrs, args, result):
            attrs["steps"] = int(args[1]) * int(args[3])

        def kernel(attrs, args, result):
            attrs["kernel"] = True

        def spanned(name, after=None):
            return lambda fn: self.timed(name, fn, after)

        out = [
            (cli, "parse_config", spanned("config.parse")),
            (cli, "kd_operator", self._assembler),
            (cli, "seo_alpha", self._assembler),
            (cli, "write_eigenvalue_csv", spanned("report.write")),
            (cli, "write_table_csv", spanned("report.write")),
            (report.ReportDocument, "write", spanned("report.write")),
            (spectral, "analyze", spanned("spectral.analyze")),
            (spectral, "eigensolve", spanned("spectral.eig", eig_attrs)),
            (spectral, "convergence_masks", self._guard),
            (spectral, "spla", lambda mod: _SplaProxy(mod, self)),
            (sde, "ensemble_states", spanned("sde.integrate", path_steps)),
            (sde, "ensemble_density", spanned("sde.histogram")),
            (sde, "density_bin_averages", spanned("sde.histogram")),
            (sde, "operator_evolve_density", spanned("sde.evolve")),
            (sde, "induction_timestep_oracle", spanned("sde.oracle")),
            (trig.TrigField, "evaluate", spanned("trig.evaluate", kernel)),
            (trig.FlowField, "evaluate", spanned("trig.evaluate")),
        ]
        out += [(spectral, name, spanned("spectral.post")) for name in _POST]
        modules = {"operators": operators, "spectral": spectral}
        out += [
            (modules[owner], name, spanned("exterior.build"))
            for owner, names in _EXTERIOR_IN.items() for name in names
        ]
        return out

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced name for the duration of the block."""
        saved = []
        try:
            for owner, attr, wrap in self._patches():
                original = owner.__dict__[attr]
                setattr(owner, attr, wrap(original))
                saved.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def layer_metrics(spans, root):
    """Per-layer metrics of one operation from its spans.

    ``root`` is the operation's root span.  Times are in seconds; report
    size and tracing overhead are measured by the caller.
    """
    by_id = {s.id: s for s in spans}
    children = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)

    def named(name):
        return [s for s in spans if s.name == name]

    def total(name):
        return sum(s.seconds for s in named(name))

    def outermost(name):
        # time covered by spans of this name, counting nested ones once
        return sum(
            s.seconds for s in named(name)
            if s.parent not in by_id or by_id[s.parent].name != name
        )

    def self_time(s):
        return s.seconds - sum(c.seconds for c in children.get(s.id, ()))

    eig = named("spectral.eig")
    guard = named("spectral.guard")
    assemble = named("operators.assemble")
    shift = named("spectral.shift_invert")
    steps = sum(s.attrs["steps"] for s in named("sde.integrate"))
    integrate_s = total("sde.integrate")
    certified = [0, 0, 0, 0]
    for s in guard:
        for k, n in enumerate(s.attrs["certified"]):
            certified[k] += n
    refined_in_guard = sum(
        c.seconds for g in guard for c in children.get(g.id, ())
        if c.name == "operators.assemble_refined"
    )
    conditions = [s.attrs["condition"] for s in eig
                  if math.isfinite(s.attrs["condition"])]
    out = {
        "config.parse_s": total("config.parse"),
        "operators.assemble_s": total("operators.assemble"),
        "operators.assemble_refined_s": total("operators.assemble_refined"),
        "operators.block_dim": max(
            (d for s in assemble for d in s.attrs["dims"]), default=0),
        "operators.nnz": sum(s.attrs["nnz"] for s in assemble),
        "exterior.build_s": sum(self_time(s) for s in named("exterior.build")),
        "spectral.guard_s": sum(s.seconds for s in guard) - refined_in_guard,
        "spectral.shift_invert_calls": len(shift),
        "spectral.shift_invert_failed": sum(
            bool(s.attrs.get("failed")) for s in shift),
        "spectral.shift_invert_s": total("spectral.shift_invert"),
        "spectral.certified_per_shift_invert":
            sum(certified) / len(shift) if shift else 0.0,
        "spectral.near_defective": sum(
            s.attrs["near_defective"] for s in eig),
        "spectral.eig_condition_max": max(conditions, default=0.0),
        "spectral.post_s": outermost("spectral.post"),
        "sde.integrate_s": integrate_s,
        "sde.path_steps": steps,
        "sde.path_steps_per_s": steps / integrate_s if integrate_s else 0.0,
        "sde.histogram_s": total("sde.histogram"),
        "sde.evolve_s": total("sde.evolve"),
        "sde.oracle_s": total("sde.oracle"),
        "trig.evaluate_s": outermost("trig.evaluate"),
        "trig.evaluate_calls": sum(
            bool(s.attrs.get("kernel")) for s in named("trig.evaluate")),
        "report.write_s": total("report.write"),
        "cli.self_s": self_time(root),
    }
    for k in range(4):
        out[f"spectral.eig_s.k{k}"] = sum(
            s.seconds for s in eig if s.attrs["degree"] == k)
        out[f"spectral.certified.k{k}"] = certified[k]
    return out
