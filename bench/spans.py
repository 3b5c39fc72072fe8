"""In-memory spans around the benchmark's calls into choosekit.

A span is (name, start, end, attrs), timed with speed.clock().  The untraced
sections of a run use NullTracer, whose `call` adds one Python call and
records nothing, so end-to-end figures are measured with tracing off.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from functools import cached_property

import speed


@dataclass
class Span:
    name: str
    start: float
    end: float
    attrs: dict = field(default_factory=dict)

    @cached_property
    def seconds(self) -> float:
        """Duration in reference seconds; read once sampling has stopped."""
        return speed.reference_seconds(self.start, self.end - self.start)


class NullTracer:
    """Calls straight through; used for the timed end-to-end sections."""

    enabled = False

    def call(self, name, fn, *args, annotate=None, **kwargs):
        return fn(*args, **kwargs)


OFF = NullTracer()


class Tracer(NullTracer):
    """Records a span per call."""

    enabled = True

    def __init__(self):
        self.spans: list[Span] = []
        self._replaced: list[tuple] = []

    def call(self, name, fn, *args, annotate=None, **kwargs):
        span = Span(name, 0.0, 0.0)
        self.spans.append(span)
        span.start = speed.clock()
        try:
            out = fn(*args, **kwargs)
        finally:
            span.end = speed.clock()
        if annotate is not None:
            span.attrs = annotate(out, *args, **kwargs)
        return out

    def wrap(self, name, fn, annotate=None):
        """fn with a span around every call."""

        def traced(*args, **kwargs):
            return self.call(name, fn, *args, annotate=annotate, **kwargs)

        return traced

    def replace(self, owner, attr, value):
        """Set owner.attr until restore(), so that calls the program makes
        itself (cli into checker, run_criteria into its criteria) are traced."""
        self._replaced.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self):
        while self._replaced:
            owner, attr, original = self._replaced.pop()
            setattr(owner, attr, original)

    def dump(self) -> list:
        return [[s.name, s.start, s.end, s.attrs] for s in self.spans]


# --- per-layer metrics --------------------------------------------------------

#: Function spans and the extra figures each reports beyond calls, busy_s and
#: p50_ms.  Every traced run reports every metric; a layer the workload does
#: not call reads 0.
LAYERS = {
    "checker.decide_choosable": (
        ("nodes", "count", "lower"),
        ("nodes_per_s", "1/s", "higher"),
        ("exhausted", "count", "lower"),
        ("choosable_busy_s", "s", "lower"),
        ("unchoosable_busy_s", "s", "lower"),
        ("exhausted_busy_s", "s", "lower"),
    ),
    "checker.has_proper_coloring.transversal": (
        ("colorable_busy_s", "s", "lower"),
        ("uncolorable_busy_s", "s", "lower"),
    ),
    "checker.has_proper_coloring.backtracking": (
        ("colorable_busy_s", "s", "lower"),
        ("uncolorable_busy_s", "s", "lower"),
    ),
    "checker.simulate_reserve_coloring": (("trials_per_s", "1/s", "higher"),),
    "model.to_color_system": (),
    "model.instance_roundtrip": (),
    "constructions.construct_blocks": (),
    "amplify.blowup": (),
    "amplify.expand": (),
    "indepset.p_blocked_exact": (("p90_ms", "ms", "lower"),),
    "indepset.p_blocked_monte_carlo": (("trials_per_s", "1/s", "higher"),),
    "indepset.fancy_bound": (),
    "indepset.random_transversal_search": (("hit_frac", "ratio", "higher"),),
}
CRITERIA = tuple(f"acceptance.criterion_{i}" for i in range(1, 11))
BASE = (("calls", "count", "lower"), ("busy_s", "s", "lower"), ("p50_ms", "ms", "lower"))


def per_layer_spec() -> list:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for layer, extras in LAYERS.items():
        out += [(f"{layer}.{m}", unit, better) for m, unit, better in BASE + extras]
    out += [(f"{c}.busy_s", "s", "lower") for c in CRITERIA]
    out += [("cli.main.overhead_s", "s", "lower"), ("trace.overhead_frac", "ratio", "lower")]
    return out


def nearest_rank(values, q):
    """Nearest-rank quantile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def layer_metrics(spans: list, passes: int, overhead_frac: float) -> dict:
    """Per-layer figures from the spans of `passes` traced passes.

    Counts and busy times are per pass, so they compare across commits that
    fit different numbers of passes into the same run length.
    """
    by_name: dict[str, list] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def busy(name, keep=lambda s: True):
        return sum(s.seconds for s in by_name.get(name, []) if keep(s))

    out = {}
    for layer in LAYERS:
        got = [s.seconds for s in by_name.get(layer, [])]
        out[f"{layer}.calls"] = len(got) / passes
        out[f"{layer}.busy_s"] = sum(got) / passes
        out[f"{layer}.p50_ms"] = statistics.median(got) * 1e3 if got else 0.0
    for criterion in CRITERIA:
        out[f"{criterion}.busy_s"] = busy(criterion) / passes

    decide = "checker.decide_choosable"
    dec = by_name.get(decide, [])
    nodes = sum(s.attrs["nodes"] for s in dec)
    out[f"{decide}.nodes"] = nodes / passes
    out[f"{decide}.nodes_per_s"] = nodes / busy(decide) if dec else 0.0
    out[f"{decide}.exhausted"] = sum(s.attrs["tag"] == "exhausted" for s in dec) / passes
    for tag in ("choosable", "unchoosable", "exhausted"):
        out[f"{decide}.{tag}_busy_s"] = busy(decide, lambda s: s.attrs["tag"] == tag) / passes

    for engine in ("transversal", "backtracking"):
        name = f"checker.has_proper_coloring.{engine}"
        for label, found in (("colorable", True), ("uncolorable", False)):
            out[f"{name}.{label}_busy_s"] = busy(name, lambda s: s.attrs["found"] is found) / passes

    for name in ("checker.simulate_reserve_coloring", "indepset.p_blocked_monte_carlo"):
        trials = sum(s.attrs["trials"] for s in by_name.get(name, []))
        out[f"{name}.trials_per_s"] = trials / busy(name) if trials else 0.0

    exact = [s.seconds for s in by_name.get("indepset.p_blocked_exact", [])]
    out["indepset.p_blocked_exact.p90_ms"] = nearest_rank(exact, 0.9) * 1e3

    rts = by_name.get("indepset.random_transversal_search", [])
    out["indepset.random_transversal_search.hit_frac"] = (
        sum(s.attrs["hit"] for s in rts) / len(rts) if rts else 0.0)

    # self time of cli.main: its span less the decide_choosable spans inside,
    # in clock seconds, then turned into reference seconds over the whole span
    overhead = 0.0
    for c in by_name.get("cli.main", []):
        inner = sum(d.end - d.start for d in dec if c.start <= d.start and d.end <= c.end)
        overhead += (c.end - c.start - inner) * speed.REF_S / speed.kernel_seconds(c.start, c.end)
    out["cli.main.overhead_s"] = overhead / passes
    out["trace.overhead_frac"] = overhead_frac
    return out
