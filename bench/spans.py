"""In-memory spans around the library's public functions, timed from outside.

``instrument`` swaps each traced function, in every ``qbag`` module that
refers to it, for a wrapper that records a span, and puts the originals
back on exit.  Calls the library makes between its own modules (for
example ``evaluate_chain`` calling ``evaluate`` calling
``topological_order``) are therefore recorded as nested spans, and a
layer's self time excludes the layers it calls.  The program's own files
are not changed.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

# The public functions each layer's metrics are made of, by module.
TRACED = {
    "graph": ("build_qbag", "is_acyclic", "topological_order"),
    "semantics": ("evaluate",),
    "chain": (
        "evaluate_chain",
        "sweep_chain",
        "is_expansion_chain",
        "is_normal_expansion_chain",
        "is_weak_expansion_chain",
    ),
    "serialize": (
        "parse_qbag",
        "parse_chain",
        "serialize_chain",
        "export_strengths_csv",
        "export_curve_csv",
        "report_to_dict",
    ),
}
# The analysis calls the CLI makes, grouped under one span name per check.
# Only the CLI's references are wrapped, so a group's time includes the
# analysis functions it calls in turn.
ANALYSIS = {
    "is_strongly_safe": "analysis.safety",
    "is_weakly_safe": "analysis.safety",
    "fluctuation_count": "analysis.liveness",
    "is_live": "analysis.liveness",
    "is_ideally_fair": "analysis.binary_fairness",
    "is_lively_fair": "analysis.binary_fairness",
    "is_cautiously_fair": "analysis.binary_fairness",
    "fairness_report": "analysis.fairness_report",
}
LAYER_SPANS = [f"{m}.{f}" for m, names in TRACED.items() for f in names] + list(
    dict.fromkeys(ANALYSIS.values())
)


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    _open: list[int] = field(default_factory=list)

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            parent = self._open[-1] if self._open else None
            self.spans.append(Span(name, time.perf_counter(), parent=parent))
            index = len(self.spans) - 1
            self._open.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                self._open.pop()
                self.spans[index].end = time.perf_counter()

        return traced

    def write(self, path: Path) -> None:
        rows = [[s.name, s.start, s.end, s.parent] for s in self.spans]
        path.write_text(json.dumps(rows) + "\n", encoding="utf-8")


def load(path: Path) -> list[Span]:
    return [Span(*row) for row in json.loads(path.read_text(encoding="utf-8"))]


def self_times(spans: list[Span]) -> dict[str, float]:
    """Self time per span name: duration minus the nested spans' durations."""
    nested = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            nested[s.parent] += s.end - s.start
    out: dict[str, float] = {}
    for s, inner in zip(spans, nested):
        out[s.name] = out.get(s.name, 0.0) + (s.end - s.start - inner)
    return out


def top_level_time(spans: list[Span]) -> float:
    """Time spent inside any traced call: the sum of the outermost spans."""
    return sum(s.end - s.start for s in spans if s.parent is None)


@contextmanager
def instrument(tracer: Tracer, qbag):
    """Route every traced function through a span while the block runs."""
    modules = [qbag.graph, qbag.semantics, qbag.chain, qbag.analysis, qbag.serialize, qbag.cli]
    targets = [
        (getattr(getattr(qbag, layer), name), f"{layer}.{name}", modules)
        for layer, names in TRACED.items()
        for name in names
    ]
    targets += [(getattr(qbag.analysis, name), group, [qbag.cli]) for name, group in ANALYSIS.items()]
    saved = []
    try:
        for original, span_name, where in targets:
            wrapper = tracer.wrap(span_name, original)
            for module in where:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        saved.append((module, attr, original))
                        setattr(module, attr, wrapper)
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def span_cost(count: int = 20000) -> float:
    """Seconds one span around an empty call costs, on a scratch tracer."""
    call = Tracer().wrap("x", lambda: None)
    start = time.perf_counter()
    for _ in range(count):
        call()
    return (time.perf_counter() - start) / count
