"""In-memory span tracing of trilam's public functions, for the traced run.

Spans are recorded from the benchmark's side only: each traced function
is replaced, for the duration of the traced passes, by a wrapper that
records (name, start, end, parent).  trilam's modules import each other
by name (`from .orbits import preperiod1_points`), so a function is
patched at every module attribute where a caller looks it up, not only
where it is defined; methods are patched on their class.

Self time of a span is its duration minus the time its direct child
spans cover.  Traced calls never run on two threads, so children are
disjoint sub-intervals of their parent and "covered" is their sum.
"""

from __future__ import annotations

import functools
import importlib
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Optional


def _legal(tracer: "Tracer", verdict) -> None:
    tracer.count("legality.legal", int(verdict.is_legal))


def _components(tracer: "Tracer", groups) -> None:
    tracer.count("builder.components", len(groups))
    largest = max((len(g) for g in groups), default=0)
    tracer.counters["builder.largest_component"] = max(
        tracer.counters.get("builder.largest_component", 0), largest)


def _svg(tracer: "Tracer", text: str) -> None:
    tracer.count("render.bytes_out", len(text))
    tracer.count("render.paths", text.count("<path "))


def _counting(key: str) -> Callable:
    """Hook adding the length of the return value to counter `key`."""
    def hook(tracer: "Tracer", result) -> None:
        tracer.count(key, len(result))
    return hook


# (span name, defining module, attribute, modules whose attribute of the
# same name is patched too because callers look the function up there,
# optional hook that turns the return value into counters)
TARGETS: tuple[tuple[str, str, str, tuple[str, ...], Optional[Callable]], ...] = (
    ("orbits.preperiod1_points", "trilam.orbits", "preperiod1_points",
     ("trilam.builder",), _counting("orbits.points")),
    ("builder.build", "trilam.builder", "build", ("trilam.cli",), None),
    ("builder.run_step", "trilam.builder", "run_step", (), None),
    ("builder.group_by_component", "trilam.builder", "group_by_component", (), _components),
    ("builder.pair_consecutively", "trilam.builder", "pair_consecutively", (), None),
    ("builder.nesting_audit", "trilam.builder", "nesting_audit", (), None),
    ("legality.is_legal_pair", "trilam.legality", "is_legal_pair",
     ("trilam.builder", "trilam.pullback", "trilam.cli"), _legal),
    ("chords.crosses", "trilam.chords", "crosses", ("trilam.legality",), None),
    ("angles.orbit_info", "trilam.angles", "orbit_info",
     ("trilam.orbits", "trilam.legality", "trilam.pullback", "trilam.cli"), None),
    ("pullback.build_prelamination", "trilam.pullback", "build_prelamination",
     ("trilam.cli",), _counting("pullback.chords_built")),
    ("pullback.hyperbolic_prune", "trilam.pullback", "hyperbolic_prune",
     ("trilam.cli",), _counting("pullback.chords_kept")),
    ("pullback.Prelamination.noncrossing", "trilam.pullback", "Prelamination.noncrossing", (), None),
    ("pullback.Prelamination.forward_orbit_hits", "trilam.pullback",
     "Prelamination.forward_orbit_hits", (), None),
    ("pullback.Prelamination.contains", "trilam.pullback", "Prelamination.contains", (), None),
    ("pullback.Prelamination.chords", "trilam.pullback", "Prelamination.chords", (), None),
    ("formats.records_to_json", "trilam.formats", "records_to_json",
     ("trilam.cli",), _counting("formats.bytes_out")),
    ("formats.records_to_csv", "trilam.formats", "records_to_csv",
     ("trilam.cli",), _counting("formats.bytes_out")),
    ("formats.prelamination_to_json", "trilam.formats", "prelamination_to_json",
     ("trilam.cli",), _counting("formats.bytes_out")),
    ("formats.chords_from_json", "trilam.formats", "chords_from_json", ("trilam.cli",), None),
    ("render.render_svg", "trilam.render", "render_svg", ("trilam.cli",), _svg),
    ("cli.main", "trilam.cli", "main", (), None),
)


@dataclass
class Tracer:
    """Spans and counters of the traced passes, kept in memory."""

    spans: list = field(default_factory=list)  # (name, start, end, parent index)
    counters: dict = field(default_factory=dict)
    _open: list = field(default_factory=list)

    def count(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def wrap(self, name: str, fn: Callable, hook: Optional[Callable]) -> Callable:
        spans, open_ = self.spans, self._open

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = open_[-1] if open_ else -1
            open_.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                open_.pop()
                spans[idx] = (name, start, end, parent)
            if hook is not None:
                hook(self, result)
            return result

        return functools.wraps(fn)(traced)

    def install(self) -> tuple[Callable[[], None], list[str]]:
        """Patch every target binding; return (undo, bindings that do not exist)."""
        undo: list[tuple[object, str, object]] = []
        missing: list[str] = []
        for name, home, attr, also, hook in TARGETS:
            for modname in (home,) + also:
                owner = importlib.import_module(modname)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part, None)
                original = getattr(owner, leaf, None) if owner is not None else None
                if not callable(original):
                    missing.append(f"{modname}.{attr}")
                    continue
                undo.append((owner, leaf, original))
                setattr(owner, leaf, self.wrap(name, original, hook))

        def restore() -> None:
            for owner, leaf, original in reversed(undo):
                setattr(owner, leaf, original)

        return restore, missing

    def drain(self) -> tuple[dict[str, dict[str, float]], dict[str, int]]:
        """Per-name {calls, s, self_s} and the counters since the last drain; then reset."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        agg: dict[str, dict[str, float]] = {}
        for (name, start, end, _), covered in zip(self.spans, child):
            row = agg.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += end - start - covered
        counters = dict(self.counters)
        self.spans.clear()
        self.counters.clear()
        return agg, counters


def _t(agg, name, key="s"):
    return agg.get(name, {}).get(key, 0.0)


def _calls(agg, name):
    return int(agg.get(name, {}).get("calls", 0))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# Per-layer metrics of one traced pass: (name, unit, value from (span aggregate, counters)).
LAYER_METRICS: tuple[tuple[str, str, Callable], ...] = (
    ("orbits.preperiod1_points.s", "s", lambda a, c: _t(a, "orbits.preperiod1_points")),
    ("orbits.preperiod1_points.calls", "count", lambda a, c: _calls(a, "orbits.preperiod1_points")),
    ("orbits.points", "count", lambda a, c: c.get("orbits.points", 0)),
    ("builder.build.s", "s", lambda a, c: _t(a, "builder.build")),
    ("builder.run_step.self_s", "s", lambda a, c: _t(a, "builder.run_step", "self_s")),
    ("builder.group_by_component.s", "s", lambda a, c: _t(a, "builder.group_by_component")),
    ("builder.components", "count", lambda a, c: c.get("builder.components", 0)),
    ("builder.largest_component", "count", lambda a, c: c.get("builder.largest_component", 0)),
    ("builder.pair_consecutively.s", "s", lambda a, c: _t(a, "builder.pair_consecutively")),
    ("builder.nesting_audit.s", "s", lambda a, c: _t(a, "builder.nesting_audit")),
    ("legality.is_legal_pair.s", "s", lambda a, c: _t(a, "legality.is_legal_pair")),
    ("legality.is_legal_pair.self_s", "s",
     lambda a, c: _t(a, "legality.is_legal_pair", "self_s")),
    ("legality.is_legal_pair.calls", "count", lambda a, c: _calls(a, "legality.is_legal_pair")),
    ("legality.legal", "count", lambda a, c: c.get("legality.legal", 0)),
    ("chords.crosses.calls", "count", lambda a, c: _calls(a, "chords.crosses")),
    ("chords.crosses.s", "s", lambda a, c: _t(a, "chords.crosses")),
    ("legality.crosses_per_verdict", "ratio",
     lambda a, c: _ratio(_calls(a, "chords.crosses"), _calls(a, "legality.is_legal_pair"))),
    ("angles.orbit_info.calls", "count", lambda a, c: _calls(a, "angles.orbit_info")),
    ("angles.orbit_info.s", "s", lambda a, c: _t(a, "angles.orbit_info")),
    ("pullback.hyperbolic_prune.self_s", "s",
     lambda a, c: _t(a, "pullback.hyperbolic_prune", "self_s")),
    ("pullback.build_prelamination.self_s", "s",
     lambda a, c: _t(a, "pullback.build_prelamination", "self_s")),
    ("pullback.Prelamination.noncrossing.s", "s",
     lambda a, c: _t(a, "pullback.Prelamination.noncrossing")),
    ("pullback.Prelamination.forward_orbit_hits.s", "s",
     lambda a, c: _t(a, "pullback.Prelamination.forward_orbit_hits")),
    ("pullback.Prelamination.contains.s", "s",
     lambda a, c: _t(a, "pullback.Prelamination.contains")),
    ("pullback.chords_built", "count", lambda a, c: c.get("pullback.chords_built", 0)),
    ("pullback.chords_kept", "count", lambda a, c: c.get("pullback.chords_kept", 0)),
    ("pullback.kept_ratio", "ratio",
     lambda a, c: _ratio(c.get("pullback.chords_kept", 0), c.get("pullback.chords_built", 0))),
    ("pullback.Prelamination.chords.s", "s", lambda a, c: _t(a, "pullback.Prelamination.chords")),
    ("formats.records_to_json.s", "s", lambda a, c: _t(a, "formats.records_to_json")),
    ("formats.records_to_csv.s", "s", lambda a, c: _t(a, "formats.records_to_csv")),
    ("formats.prelamination_to_json.s", "s", lambda a, c: _t(a, "formats.prelamination_to_json")),
    ("formats.chords_from_json.s", "s", lambda a, c: _t(a, "formats.chords_from_json")),
    ("render.render_svg.s", "s", lambda a, c: _t(a, "render.render_svg")),
    ("formats.bytes_out", "bytes", lambda a, c: c.get("formats.bytes_out", 0)),
    ("render.bytes_out", "bytes", lambda a, c: c.get("render.bytes_out", 0)),
    ("render.paths", "count", lambda a, c: c.get("render.paths", 0)),
    ("cli.main.s", "s", lambda a, c: _t(a, "cli.main")),
    ("cli.main.self_s", "s", lambda a, c: _t(a, "cli.main", "self_s")),
)
