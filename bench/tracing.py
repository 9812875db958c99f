"""Span tracing of baroflow's layers from outside the package.

Every public function of the layer modules, the `ExperimentConfig`
methods, and numpy's FFT entry points are replaced by wrappers that
record a span: name, start, end, parent span, and operation index.
A wrapper is installed under every name that refers to the function,
in every layer module, because `cli` and `sweep` import `run`,
`read_series`, `write_series` and the weak residuals by value.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from pathlib import Path

import numpy as np

LAYERS = ("cli", "config", "fields", "solver", "diagnostics", "snapshots", "sweep")
FFT_FUNCTIONS = (
    "fft", "ifft", "rfft", "irfft", "fft2", "ifft2", "rfft2", "irfft2",
    "fftn", "ifftn", "rfftn", "irfftn", "hfft", "ihfft",
)
DIAGNOSTICS = (
    "time_integrated_spectrum", "ckhw_detail", "fractional_sobolev_norm",
    "high_integrability", "space_modulus", "time_modulus", "weak_residual_mass",
    "weak_residual_momentum", "energy_admissibility", "reynolds_quotient",
)
SWEEP = ("run_sweep", "series_distance", "viscous_smallness", "limit_candidate_check")

# name, start, end, parent index, operation index, amount
NAME, START, END, PARENT, OP, AMOUNT = range(6)


class Tracer:
    """Keeps every span in memory; `op` tags the spans of one operation."""

    def __init__(self):
        self.spans = []
        self.op = 0
        self.enabled = True
        self._stack = []

    def wrap(self, name, fn, amount=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if amount is not None:
                rec[AMOUNT] = amount(args, result)
            return result

        return traced


def _run_steps(args, result):
    return result.steps_per_snapshot * (len(result.series) - 1)


def _fft_points(args, result):
    return int(np.size(args[0]))


def _written(args, result):
    return [str(p) for p in result]


def _read_from(args, result):
    return (str(args[0]), str(args[1]))


_AMOUNTS = {
    "solver.run": _run_steps,
    "snapshots.write_series": _written,
    "snapshots.read_series": _read_from,
}


def install(tracer: Tracer) -> dict:
    """Wrap every layer; returns the layer modules by name."""
    modules = {layer: importlib.import_module(f"baroflow.{layer}") for layer in LAYERS}
    wrapped = {}
    for layer, mod in modules.items():
        for fname, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not fname.startswith("_")):
                name = f"{layer}.{fname}"
                wrapped[id(obj)] = tracer.wrap(name, obj, _AMOUNTS.get(name))
    for mod in modules.values():
        for attr, obj in list(vars(mod).items()):
            if id(obj) in wrapped:
                setattr(mod, attr, wrapped[id(obj)])

    cls = modules["config"].ExperimentConfig
    for fname, obj in list(vars(cls).items()):
        if fname.startswith("_"):
            continue
        if isinstance(obj, classmethod):
            setattr(cls, fname, classmethod(tracer.wrap(f"config.{fname}", obj.__func__)))
        elif inspect.isfunction(obj):
            setattr(cls, fname, tracer.wrap(f"config.{fname}", obj))

    for fname in FFT_FUNCTIONS:
        setattr(np.fft, fname, tracer.wrap(f"fft.{fname}", getattr(np.fft, fname), _fft_points))
    return modules


def op_spans(tracer: Tracer) -> list:
    """Copies of the current operation's spans, with parent indices
    relative to the returned list."""
    first = next(i for i, s in enumerate(tracer.spans) if s[OP] == tracer.op)
    spans = [list(s) for s in tracer.spans[first:]]
    for s in spans:
        if s[PARENT] >= 0:
            s[PARENT] -= first
    return spans


def self_times(spans: list) -> list:
    """Each span's duration minus the time its child spans cover."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def check_spans(spans: list) -> dict:
    """Structure of one operation's span tree: problems with nesting (a
    child outside its parent's interval, overlapping siblings), the
    number of root spans, and the self times' sum against the roots'
    total duration."""
    problems = []
    last_child_end = {}
    for i, s in enumerate(spans):
        p = s[PARENT]
        if p < 0:
            continue
        parent = spans[p]
        if not (parent[START] <= s[START] <= s[END] <= parent[END]):
            problems.append(f"span {i} ({s[NAME]}) lies outside its parent {parent[NAME]}")
        if s[START] < last_child_end.get(p, float("-inf")):
            problems.append(f"span {i} ({s[NAME]}) overlaps a sibling")
        last_child_end[p] = s[END]
    roots = [s for s in spans if s[PARENT] < 0]
    return {
        "spans": len(spans),
        "roots": len(roots),
        "nesting_problems": problems[:20],
        "self_sum_s": sum(self_times(spans)),
        "total_s": sum(s[END] - s[START] for s in roots),
    }


def layer_metrics(spans: list, snapshots: int, out: Path) -> dict:
    """Per-layer metrics of one operation from its spans.

    `spans` holds the operation's spans with parent indices relative to
    the list; `snapshots` is the number of snapshots the operation
    reduced, and `out` its output directory.
    """
    dur = [s[END] - s[START] for s in spans]
    own = self_times(spans)
    in_run = [False] * len(spans)
    for i, s in enumerate(spans):
        p = s[PARENT]
        if p >= 0:
            in_run[i] = in_run[p] or spans[p][NAME] == "solver.run"

    def total(pred, values=own):
        return sum(v for s, v in zip(spans, values) if pred(s[NAME]))

    def calls(name):
        return sum(1 for s in spans if s[NAME] == name)

    steps = sum(s[AMOUNT] for s in spans if s[NAME] == "solver.run")
    fft = [(s, r) for s, r in zip(spans, in_run) if s[NAME].startswith("fft.")]
    fft_run = [s for s, r in fft if r]
    fft_other = [s for s, r in fft if not r]

    write_bytes = sum(
        Path(p).stat().st_size
        for s in spans if s[NAME] == "snapshots.write_series" for p in s[AMOUNT]
    )
    read_bytes = 0
    for s in spans:
        if s[NAME] == "snapshots.read_series":
            directory, prefix = s[AMOUNT]
            read_bytes += sum(
                p.stat().st_size for p in Path(directory).iterdir()
                if p.name.startswith(prefix + "_")
            )
    output_bytes = sum(
        p.stat().st_size for p in out.rglob("*") if p.suffix in (".json", ".csv")
    ) if out.is_dir() else 0

    m = {
        "fft.calls_per_step": len(fft_run) / steps if steps else 0.0,
        "fft.points_per_step": sum(s[AMOUNT] for s in fft_run) / steps if steps else 0.0,
        "fft.self_s": total(lambda n: n.startswith("fft.")),
        "fft.calls_per_snapshot": len(fft_other) / snapshots,
        "fields.dft_forward.calls": calls("fields.dft_forward"),
        "fields.weighted_fields.calls": calls("fields.weighted_fields"),
        "fields.dft_forward.self_s": total(lambda n: n == "fields.dft_forward"),
        "solver.run.self_s": total(lambda n: n == "solver.run"),
        "solver.steps": steps,
    }
    for fn in DIAGNOSTICS:
        m[f"diagnostics.{fn}.calls"] = calls(f"diagnostics.{fn}")
        m[f"diagnostics.{fn}.self_s"] = total(lambda n: n == f"diagnostics.{fn}")
    m["snapshots.write.self_s"] = total(lambda n: n.startswith("snapshots.write"))
    m["snapshots.write.bytes"] = write_bytes
    m["snapshots.read.self_s"] = total(lambda n: n.startswith("snapshots.read"))
    m["snapshots.read.bytes"] = read_bytes
    for fn in SWEEP:
        m[f"sweep.{fn}.self_s"] = total(lambda n: n == f"sweep.{fn}")
    m["cli.self_s"] = total(lambda n: n.startswith("cli."))
    m["cli.output_bytes"] = output_bytes
    m["config.parse_s"] = total(lambda n: n == "config.parse", dur)
    return m
