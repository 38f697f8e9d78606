"""Layer spans for fejerwell, recorded from outside the package.

``install`` wraps the public functions of each layer module (plus the
private oracle paths and the tracking-curve kernel) and rebinds every
name under which the package or another layer imported them, so a call
from one layer into another shows up as a nested span. Spans are kept in
memory as (name, start, end, parent) and written out once, at the end.

Work counts marked "computed" are derived from argument and result array
sizes, not measured inside the package.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import inspect
import json
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("core", "quantum", "classical", "optimizer", "limits", "cli")
# private functions worth their own span name (or counter) in the layer
PRIVATE = {
    "quantum": {"_grid_expectation": "oracle_grid", "_spectral_expectation": "oracle_spectral"},
    "optimizer": {"_tracking_curve": None},  # counted, no span of its own
}
FEJER = ("fejer_position", "fejer_position_sq", "fejer_momentum", "fejer_momentum_sq")


class Recorder:
    """Spans and counters of one traced run."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()
        self.child_terms: defaultdict = defaultdict(int)

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield idx
        finally:
            self.close(idx)

    def self_times(self) -> Counter:
        """Per span name: total duration minus the time its children cover."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: Counter = Counter()
        for (name, start, end, _), covered in zip(self.spans, child):
            totals[name] += end - start - covered
        return totals

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, fh)


def _t_size(args, kwargs, pos: int) -> int:
    t = args[pos] if len(args) > pos else kwargs["t"]
    return int(np.size(t))


def _hook(rec: Recorder, label: str, idx: int, args, kwargs, result) -> None:
    """Counters kept at the boundary of the wrapped call."""
    if label == "quantum.pair_terms":
        terms = len(result[0])
        rec.counts["quantum.pair_terms.calls"] += 1
        rec.counts["quantum.terms"] += terms
        parent = rec.spans[idx][3] if idx >= 0 else -1
        rec.child_terms[parent] += terms
    elif label in ("quantum.exp_x", "quantum.exp_x2", "quantum.exp_p"):
        # computed: terms of the pair sets built inside this call x instants;
        # the phase and trig arrays are float64 blocks of at most _CHUNK elements
        terms = rec.child_terms.pop(idx, 0)
        instants = _t_size(args, kwargs, 2)
        rec.counts["quantum.term_evals"] += terms * instants
        chunk = getattr(importlib.import_module("fejerwell.quantum"), "_CHUNK", terms * instants)
        rows = min(instants, max(1, chunk // terms)) if terms else 0
        rec.maxima["quantum.phase_bytes"] = max(rec.maxima["quantum.phase_bytes"], 16 * rows * terms)
    elif label == "quantum.oracle_expectation":
        rec.counts["quantum.oracle.calls"] += 1
    elif label in ("classical.fejer_position", "classical.fejer_momentum", "classical.fejer_position_sq"):
        harmonics = args[1] * (2 if label.endswith("_sq") else 1)
        rec.counts["classical.harmonic_evals"] += harmonics * _t_size(args, kwargs, 2)
    elif label in ("classical.fourier_partial_position", "classical.fourier_partial_momentum"):
        rec.counts["classical.harmonic_evals"] += (args[1] + 1) * _t_size(args, kwargs, 2)
    elif label == "optimizer._tracking_curve":
        _, _, n_max, t_points = args
        rec.counts["optimizer.candidates"] += n_max
        rec.counts["optimizer.curve_points"] += n_max * t_points
    elif label == "limits.limit_sequence":
        rec.counts["limits.rows"] += len(result)
    elif label == "cli.emit":
        rec.counts["cli.emit.bytes"] += result


def _wrap(rec: Recorder, label: str, fn, with_span: bool):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = rec.open(label) if with_span else -1
        try:
            result = fn(*args, **kwargs)
        finally:
            if with_span:
                rec.close(idx)
        _hook(rec, label, idx, args, kwargs, result)
        return result

    return wrapper


def install(rec: Recorder) -> int:
    """Wrap every layer function and rebind all its imported names; returns the count."""
    package = importlib.import_module("fejerwell")
    modules = {layer: importlib.import_module(f"fejerwell.{layer}") for layer in LAYERS}
    wrapped = {}
    for layer, mod in modules.items():
        names = {n: n for n in mod.__all__ if inspect.isfunction(getattr(mod, n))}
        names.update(PRIVATE.get(layer, {}))
        for name, span_name in names.items():
            fn = getattr(mod, name)
            label = f"{layer}.{span_name or name}"
            wrapped[id(fn)] = (fn, _wrap(rec, label, fn, span_name is not None))
    for mod in (package, *modules.values()):
        for attr, value in list(vars(mod).items()):
            entry = wrapped.get(id(value))
            if entry is not None and entry[0] is value:
                setattr(mod, attr, entry[1])
    return len(wrapped)


def layer_metrics(rec: Recorder, passes: int, traced_wall: float) -> dict[str, float]:
    """Per-layer metrics per traced pass, from the recorded spans and counters."""
    self_t = rec.self_times()
    per = 1.0 / max(passes, 1)
    layer_self = Counter()
    for name, value in self_t.items():
        layer_self[name.split(".")[0]] += value
    m = {f"{layer}.self_s": layer_self[layer] * per for layer in (*LAYERS, "bench")}
    for name in ("quantum.exp_x", "quantum.exp_x2", "quantum.exp_p", "quantum.pair_terms",
                 "quantum.oracle_grid", "quantum.oracle_spectral", "core.packet_wavefunction",
                 "classical.gibbs_overshoot", "optimizer.optimal_N", "limits.limit_sequence", "cli.emit"):
        m[f"{name}.self_s"] = self_t[name] * per
    m["classical.fejer.self_s"] = sum(self_t[f"classical.{f}"] for f in FEJER) * per
    exp_self = m["quantum.exp_x.self_s"] + m["quantum.exp_x2.self_s"] + m["quantum.exp_p.self_s"]
    m["quantum.self_share"] = m["quantum.self_s"] / traced_wall
    m["quantum.exp.share"] = exp_self / traced_wall
    for key in ("quantum.term_evals", "quantum.pair_terms.calls", "quantum.terms", "quantum.oracle.calls",
                "classical.harmonic_evals", "optimizer.candidates", "optimizer.curve_points",
                "limits.rows", "cli.emit.bytes"):
        m[key] = rec.counts[key] * per
    m["quantum.phase_bytes"] = float(rec.maxima["quantum.phase_bytes"])
    return m
