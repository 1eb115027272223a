"""Per-layer tracing of gleason_lab from outside the program.

The tracer replaces public functions and methods of the program's modules
with timing wrappers while it is installed, and puts the originals back when
it is removed.  A function imported by name into other modules is replaced at
every binding that holds the same object, so ``from .linalg import inner`` in
``spectral`` is traced too.  Nothing inside ``src/`` changes.

Spans nest through one stack: a span's self time is its duration minus the
durations of the traced spans it called.  Counted-only members (constructors
called hundreds of thousands of times) take no timestamps, so their cost stays
in their caller's self time.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

PACKAGE = "gleason_lab"

# (layer metric prefix, module, attribute path) of every traced span.
SPANS = (
    ("kernels.eigh", "kernels", "eigh"),
    ("kernels.quat_matmul", "kernels", "quat_matmul"),
    ("rng.gaussian_block", "rng", "SplitMix64.gaussian_block"),
    ("linalg.Matrix.matmul", "linalg", "Matrix.__matmul__"),
    ("linalg.inner", "linalg", "inner"),
    ("linalg.outer", "linalg", "outer"),
    ("linalg.Vector.scale_right", "linalg", "Vector.scale_right"),
    ("linalg.gram_schmidt", "linalg", "gram_schmidt"),
    ("linalg.projector_onto", "linalg", "projector_onto"),
    ("linalg.Projector.new", "linalg", "Projector.__init__"),
    ("linalg.random_unit_vector", "linalg", "random_unit_vector"),
    ("linalg.random_unitary", "linalg", "random_unitary"),
    ("spectral.eig_hermitian", "spectral", "eig_hermitian"),
    ("spectral.adapted_basis", "spectral", "adapted_basis"),
    ("spectral.op_norm", "spectral", "op_norm"),
    ("spectral.singular_values", "spectral", "singular_values"),
    ("trace.trace_n", "trace", "trace_n"),
    ("trace.real_trace", "trace", "real_trace"),
    ("trace.trace_norm", "trace", "trace_norm"),
    ("trace.quaternionic_trace_formula_check", "trace", "quaternionic_trace_formula_check"),
    ("trace.check_norm_inequalities", "trace", "check_norm_inequalities"),
    ("gleason.reconstruct_state", "gleason", "reconstruct_state"),
    ("gleason.FrameFunction.call", "gleason", "FrameFunction.__call__"),
    ("gleason.LatticeMeasure.call", "gleason", "LatticeMeasure.__call__"),
    ("gleason.DensityOperator.new", "gleason", "DensityOperator.__init__"),
    ("gleason.random_density", "gleason", "random_density"),
    ("quantum.pvm_of", "quantum", "pvm_of"),
    ("quantum.continuity_scan", "quantum", "continuity_scan"),
    ("suite.run_suite", "suite", "run_suite"),
    ("suite.emit_report", "suite", "emit_report"),
    ("cli.main", "cli", "main"),
)

# Members whose calls are counted without timing.
COUNTS = (
    ("scalars.Quaternion.new", "scalars", "Quaternion.__init__"),
    ("linalg.Matrix.new", "linalg", "Matrix.__init__"),
    ("linalg.Vector.new", "linalg", "Vector.__init__"),
)

# Spans reported by their self time alone.
SELF_ONLY = ("suite.run_suite", "suite.emit_report", "cli.main")

# Per-call quantities summed over a span's calls: name -> f(args).
AMOUNTS = {
    "kernels.eigh": lambda args: args[0].shape[0],  # matrix order
    "kernels.quat_matmul": lambda args: (  # GFLOP: 32 n k m for (n,k,4) @ (k,m,4)
        32.0 * args[0].shape[0] * args[0].shape[1] * args[1].shape[1] / 1e9),
    "rng.gaussian_block": lambda args: args[1],  # variates drawn
}

# child span -> ancestors; counts the child's calls made while any of them is open.
NESTED = {
    "kernels.eigh": ("trace.quaternionic_trace_formula_check",),
    "spectral.eig_hermitian": ("spectral.op_norm", "spectral.singular_values"),
    "gleason.FrameFunction.call": ("gleason.reconstruct_state",),
}

# (metric, unit, better) of every per-layer metric, in report order; the suite
# layer's per-property metrics are appended by per_layer_metrics().
_DERIVED = (
    ("kernels.eigh.mean_order", "order", "higher"),
    ("kernels.quat_matmul.gflop", "GFLOP", "lower"),
    ("kernels.quat_matmul.gflops", "GFLOP/s", "higher"),
    ("rng.gaussian_block.variates", "count", "lower"),
    ("spectral.eig_hermitian.basis_use_ratio", "ratio", "higher"),
    ("trace.quaternionic_trace_formula_check.eigh_per_call", "1/call", "lower"),
    ("gleason.probes_per_reconstruction", "1/call", "lower"),
)


def per_layer_metrics(property_names: list[str]) -> list[tuple[str, str, str]]:
    """Every per-layer metric the traced run reports, as (name, unit, better)."""
    out = []
    for name, _, _ in SPANS:
        if name not in SELF_ONLY:
            out.append((f"{name}.calls", "count", "lower"))
        out.append((f"{name}.self_s", "s", "lower"))
    out += [(f"{name}.calls", "count", "lower") for name, _, _ in COUNTS]
    out += list(_DERIVED)
    out += [(f"suite.{p}.wall_s", "s", "lower") for p in property_names]
    out.append(("bench.tracing_overhead_s", "s", "lower"))
    return out


def _resolve(module: str, path: str):
    """(owner object, attribute name) for 'func' or 'Class.method' in gleason_lab.<module>."""
    owner = sys.modules[f"{PACKAGE}.{module}"]
    *classes, attr = path.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    return owner, attr


class Tracer:
    """Span and count statistics, kept in memory across installed periods."""

    def __init__(self):
        self.calls = Counter()
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.amount = defaultdict(float)
        self.nested = Counter()
        self._stack: list[float] = []  # child time of each open span
        self._open = Counter()
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers -----------------------------------------------------------

    def span(self, name: str, fn):
        amount = AMOUNTS.get(name)
        watch = NESTED.get(name, ())
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if amount is not None:
                self.amount[name] += amount(args)
            if any(self._open[a] for a in watch):
                self.nested[name] += 1
            self._open[name] += 1
            self._stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = self._stack.pop()
                self._open[name] -= 1
                self.calls[name] += 1
                self.total[name] += dt
                self.self_time[name] += dt - child
                if self._stack:
                    self._stack[-1] += dt

        return wrapper

    def counter(self, name: str, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation -------------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _patch_everywhere(self, owner, attr: str, new) -> None:
        """Replace owner.attr, and for module functions every binding of the same object."""
        original = owner.__dict__[attr]
        if isinstance(owner, type):
            self._patch(owner, attr, new)
            return
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
                continue
            for name, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, name, new)

    def install(self) -> None:
        for name, module, path in SPANS:
            owner, attr = _resolve(module, path)
            self._patch_everywhere(owner, attr, self.span(name, owner.__dict__[attr]))
        for name, module, path in COUNTS:
            owner, attr = _resolve(module, path)
            self._patch(owner, attr, self.counter(name, owner.__dict__[attr]))
        suite = sys.modules.get(f"{PACKAGE}.suite")
        if suite is not None:
            self._patch(suite, "REGISTRY", tuple(
                dataclasses.replace(p, runner=self.span(f"suite.{p.name}", p.runner))
                for p in suite.REGISTRY
            ))

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.remove()

    # -- report -------------------------------------------------------------

    def metrics(self, rounds: int, property_names: list[str], overhead_s: float) -> dict:
        """Per-layer metrics averaged over `rounds` traced rounds of one workload."""
        def ratio(num, den):
            return num / den if den else 0.0

        values = {}
        for name, _, _ in SPANS:
            if name not in SELF_ONLY:
                values[f"{name}.calls"] = self.calls[name] / rounds
            values[f"{name}.self_s"] = self.self_time[name] / rounds
        for name, _, _ in COUNTS:
            values[f"{name}.calls"] = self.calls[name] / rounds
        eig = "spectral.eig_hermitian"
        values["kernels.eigh.mean_order"] = ratio(
            self.amount["kernels.eigh"], self.calls["kernels.eigh"])
        values["kernels.quat_matmul.gflop"] = self.amount["kernels.quat_matmul"] / rounds
        values["kernels.quat_matmul.gflops"] = ratio(
            self.amount["kernels.quat_matmul"], self.self_time["kernels.quat_matmul"])
        values["rng.gaussian_block.variates"] = self.amount["rng.gaussian_block"] / rounds
        values[f"{eig}.basis_use_ratio"] = ratio(
            self.calls[eig] - self.nested[eig], self.calls[eig])
        values["trace.quaternionic_trace_formula_check.eigh_per_call"] = ratio(
            self.nested["kernels.eigh"], self.calls["trace.quaternionic_trace_formula_check"])
        values["gleason.probes_per_reconstruction"] = ratio(
            self.nested["gleason.FrameFunction.call"], self.calls["gleason.reconstruct_state"])
        for p in property_names:
            values[f"suite.{p}.wall_s"] = self.total[f"suite.{p}"] / rounds
        values["bench.tracing_overhead_s"] = overhead_s
        return values
