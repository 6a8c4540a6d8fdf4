"""Layer spans recorded from outside the program, and the per-layer report.

The traced run installs wrappers on public callables of each layer
before it builds its deployment, and removes them after. Each wrapped
call records a span ``[name, tag, start, end, parent, step]``: the
parent is the span that was open when the call began, and ``step`` is
the measured step it ran in (-1 during set-up). Spans stay in memory
until the run ends. A span's self time is its duration minus that of
its child spans.

Private helpers (shipping, top-k certification) have no span of their
own; their time stays inside the engine phase that calls them.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager

from repro.api import ChurnIntervention, Deployment, EpochDriver
from repro.core.engine import KSpotEngine
from repro.network.simulator import Network
from repro.network.stats import NetworkStats
from repro.sensing.board import SensorBoard
from repro.sensing.generators import FieldGenerator
from repro.server.session import QuerySession

NAME, TAG, START, END, PARENT, STEP = range(6)

#: Message kinds the simulator ships (``WireMessage.kind`` values).
MESSAGE_KINDS = (
    "candidate_set", "control", "filter_report", "filter_update", "generic",
    "join_reply", "lb_reply", "probe_reply", "probe_request", "query",
    "raw_readings", "score_list", "view_update",
)

#: Every per-layer metric the traced run reports, with its unit.
LAYER_METRICS = (
    ("api.driver.step_ms_per_epoch", "ms/epoch"),
    ("api.driver.interventions_ms_per_epoch", "ms/epoch"),
    ("api.deployment.submit_ms", "ms"),
    ("api.deployment.submits_per_epoch", "1/epoch"),
    ("server.session.self_ms_per_epoch", "ms/epoch"),
    ("server.session.retained_results", "count"),
    ("process.rss_growth_kb_per_epoch", "KB/epoch"),
    ("core.engine.run_epoch_ms_per_epoch", "ms/epoch"),
    ("core.engine.recovery_ms_per_epoch", "ms/epoch"),
    ("core.mint.update_ms_per_epoch", "ms/epoch"),
    ("core.mint.probe_ms_per_epoch", "ms/epoch"),
    ("core.mint.probes_per_epoch", "1/epoch"),
    ("core.mint.creation_ms", "ms"),
    ("core.mint.self_ms_per_epoch", "ms/epoch"),
    ("core.fila.monitor_ms_per_epoch", "ms/epoch"),
    ("core.fila.filter_update_ms_per_epoch", "ms/epoch"),
    ("core.fila.self_ms_per_epoch", "ms/epoch"),
    ("core.tja.execute_ms", "ms"),
    ("core.tja.lb_ms", "ms"),
    ("core.tja.hj_ms", "ms"),
    ("core.tja.cl_ms", "ms"),
    ("network.read_many_ms_per_epoch", "ms/epoch"),
    ("network.read_many_calls_per_epoch", "1/epoch"),
    ("network.read_many_draw_ratio", "ratio"),
    ("network.advance_epoch_ms_per_epoch", "ms/epoch"),
    ("network.advance_epoch_calls_per_epoch", "1/epoch"),
    ("network.kill_node_ms", "ms"),
    ("network.join_node_ms", "ms"),
    ("network.recovery_ms_per_epoch", "ms/epoch"),
    ("network.topology_events_per_epoch", "1/epoch"),
    *((f"network.msgs.{kind}_per_epoch", "1/epoch")
      for kind in MESSAGE_KINDS),
    ("network.retransmissions_per_epoch", "1/epoch"),
    ("network.drops_per_epoch", "1/epoch"),
    ("sensing.batch_values_ms_per_epoch", "ms/epoch"),
    ("sensing.batch_values_calls_per_epoch", "1/epoch"),
    ("sensing.channel_lookups_per_epoch", "1/epoch"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_pct", "%"),
)


def _engine_algorithm(args) -> str:
    return args[0].plan.algorithm.value


def _read_width(args) -> int:
    return len(args[1])


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        #: The measured step now running (-1: set-up and warm-up).
        self.step = -1
        self.channel_lookups = 0
        self._installed: list[tuple[type, str, object]] = []

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------

    def _span(self, owner: type, attr: str, name: str, tag_of=None) -> None:
        original = owner.__dict__[attr]
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = [name, tag_of(args) if tag_of else None, clock(), 0.0,
                    stack[-1] if stack else -1, tracer.step]
            stack.append(len(spans))
            spans.append(span)
            try:
                return original(*args, **kwargs)
            finally:
                stack.pop()
                span[END] = clock()

        self._installed.append((owner, attr, original))
        setattr(owner, attr, traced)

    def _phase_spans(self) -> None:
        original = NetworkStats.__dict__["phase"]
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tracer = self

        @contextmanager
        def phase(stats, name):
            span = [f"phase.{name}", None, clock(), 0.0,
                    stack[-1] if stack else -1, tracer.step]
            stack.append(len(spans))
            spans.append(span)
            try:
                with original(stats, name):
                    yield
            finally:
                stack.pop()
                span[END] = clock()

        phase.__doc__ = original.__doc__
        self._installed.append((NetworkStats, "phase", original))
        NetworkStats.phase = phase

    def _count_channel_lookups(self) -> None:
        original = SensorBoard.__dict__["channel"]
        tracer = self

        @functools.wraps(original)
        def channel(*args, **kwargs):
            tracer.channel_lookups += 1
            return original(*args, **kwargs)

        self._installed.append((SensorBoard, "channel", original))
        SensorBoard.channel = channel

    def install(self) -> None:
        """Wrap every traced layer boundary (call before building the
        deployment, so no bound method escapes the wrappers)."""
        self._span(EpochDriver, "step", "api.driver.step")
        self._span(ChurnIntervention, "before_epoch",
                   "api.driver.intervention")
        self._span(Deployment, "submit", "api.deployment.submit")
        self._span(QuerySession, "step", "server.session.step")
        self._span(KSpotEngine, "run_epoch", "core.engine.run_epoch",
                   _engine_algorithm)
        self._span(KSpotEngine, "execute_historic",
                   "core.engine.execute_historic")
        self._span(KSpotEngine, "handle_topology_event",
                   "core.engine.handle_topology_event")
        self._span(Network, "read_many", "network.read_many", _read_width)
        self._span(Network, "advance_epoch", "network.advance_epoch")
        self._span(Network, "kill_node", "network.kill_node")
        self._span(Network, "join_node", "network.join_node")
        for cls in _field_classes():
            self._span(cls, "batch_values", "sensing.batch_values")
        self._phase_spans()
        self._count_channel_lookups()

    def uninstall(self) -> None:
        """Put every wrapped callable back."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Report
    # ------------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus its children's."""
        spans = self.spans
        own = [span[END] - span[START] for span in spans]
        for span in spans:
            parent = span[PARENT]
            if parent >= 0:
                own[parent] -= span[END] - span[START]
        return own

    def algorithm_of(self, index: int) -> str | None:
        """The algorithm of the engine call a span ran under."""
        spans = self.spans
        while index >= 0:
            span = spans[index]
            if span[NAME] == "core.engine.run_epoch":
                return span[TAG]
            index = span[PARENT]
        return None


def _field_classes() -> list[type]:
    """Every field generator class that defines its own batch path."""
    found, pending = [], [FieldGenerator]
    while pending:
        cls = pending.pop()
        if "batch_values" in cls.__dict__:
            found.append(cls)
        pending.extend(cls.__subclasses__())
    return found


def layer_metrics(tracer: Tracer, steps: int, counters: dict) -> dict:
    """Per-layer figures over the traced run's measured steps.

    ``*_ms_per_epoch`` is self time per measured step, except the
    driver step, the interventions and the engine call, which are
    inclusive. A ``*_ms`` figure is the inclusive mean per call, over
    set-up too. ``counters`` holds what is read from the program's own
    counters (stats deltas, samples, retained results, RSS growth,
    overhead).
    """
    spans = tracer.spans
    own = tracer.self_times()
    per_step: dict[str, float] = {}
    inclusive: dict[str, float] = {}
    calls: dict[str, int] = {}
    all_inclusive: dict[str, float] = {}
    all_calls: dict[str, int] = {}
    requested = 0
    for index, span in enumerate(spans):
        name = span[NAME]
        if name in ("phase.probe", "core.engine.run_epoch"):
            name = f"{name}.{tracer.algorithm_of(index)}"
        duration = span[END] - span[START]
        all_inclusive[name] = all_inclusive.get(name, 0.0) + duration
        all_calls[name] = all_calls.get(name, 0) + 1
        if span[STEP] < 0:
            continue
        per_step[name] = per_step.get(name, 0.0) + own[index]
        inclusive[name] = inclusive.get(name, 0.0) + duration
        calls[name] = calls.get(name, 0) + 1
        if span[NAME] == "network.read_many":
            requested += span[TAG]

    def ms_per_epoch(name: str, table=per_step) -> float:
        return table.get(name, 0.0) * 1e3 / steps

    def per_epoch(name: str) -> float:
        return calls.get(name, 0) / steps

    def mean_ms(name: str, table=all_inclusive, count=all_calls) -> float:
        n = count.get(name, 0)
        return table.get(name, 0.0) * 1e3 / n if n else 0.0

    step_total = inclusive.get("api.driver.step", 0.0)
    run_epoch_total = sum(v for k, v in inclusive.items()
                          if k.startswith("core.engine.run_epoch."))
    executes = calls.get("core.engine.execute_historic", 0)
    kind_counts = counters["by_kind"]
    unknown = sorted(set(kind_counts) - set(MESSAGE_KINDS))
    if unknown:
        raise ValueError(f"message kinds without a network.msgs metric: "
                         f"{unknown}; add them to MESSAGE_KINDS and "
                         f"BENCHMARK.json")
    metrics = {
        "api.driver.step_ms_per_epoch": step_total * 1e3 / steps,
        "api.driver.interventions_ms_per_epoch": ms_per_epoch(
            "api.driver.intervention", inclusive),
        "api.deployment.submit_ms": mean_ms("api.deployment.submit"),
        "api.deployment.submits_per_epoch": per_epoch(
            "api.deployment.submit"),
        "server.session.self_ms_per_epoch": ms_per_epoch(
            "server.session.step"),
        "server.session.retained_results": counters["retained_results"],
        "process.rss_growth_kb_per_epoch": counters["rss_growth_kb"],
        "core.engine.run_epoch_ms_per_epoch": run_epoch_total * 1e3 / steps,
        "core.engine.recovery_ms_per_epoch": ms_per_epoch(
            "core.engine.handle_topology_event", inclusive),
        "core.mint.update_ms_per_epoch": ms_per_epoch("phase.update"),
        "core.mint.probe_ms_per_epoch": ms_per_epoch("phase.probe.mint"),
        "core.mint.probes_per_epoch": per_epoch("phase.probe.mint"),
        "core.mint.creation_ms": mean_ms("phase.creation"),
        "core.mint.self_ms_per_epoch": ms_per_epoch(
            "core.engine.run_epoch.mint"),
        "core.fila.monitor_ms_per_epoch": ms_per_epoch("phase.monitor"),
        "core.fila.filter_update_ms_per_epoch": ms_per_epoch(
            "phase.filter_update"),
        "core.fila.self_ms_per_epoch": ms_per_epoch(
            "core.engine.run_epoch.fila"),
        "core.tja.execute_ms": mean_ms(
            "core.engine.execute_historic", inclusive, calls),
        "core.tja.lb_ms": (per_step.get("phase.LB", 0.0) * 1e3 / executes
                           if executes else 0.0),
        "core.tja.hj_ms": (per_step.get("phase.HJ", 0.0) * 1e3 / executes
                           if executes else 0.0),
        "core.tja.cl_ms": (per_step.get("phase.CL", 0.0) * 1e3 / executes
                           if executes else 0.0),
        "network.read_many_ms_per_epoch": ms_per_epoch("network.read_many"),
        "network.read_many_calls_per_epoch": per_epoch("network.read_many"),
        "network.read_many_draw_ratio": (counters["samples"] / requested
                                         if requested else 0.0),
        "network.advance_epoch_ms_per_epoch": ms_per_epoch(
            "network.advance_epoch"),
        "network.advance_epoch_calls_per_epoch": per_epoch(
            "network.advance_epoch"),
        "network.kill_node_ms": mean_ms("network.kill_node"),
        "network.join_node_ms": mean_ms("network.join_node"),
        "network.recovery_ms_per_epoch": ms_per_epoch("phase.recovery"),
        "network.topology_events_per_epoch": (
            per_epoch("network.kill_node") + per_epoch("network.join_node")),
        **{f"network.msgs.{kind}_per_epoch": kind_counts.get(kind, 0) / steps
           for kind in MESSAGE_KINDS},
        "network.retransmissions_per_epoch": (
            counters["retransmissions"] / steps),
        "network.drops_per_epoch": counters["drops"] / steps,
        "sensing.batch_values_ms_per_epoch": ms_per_epoch(
            "sensing.batch_values"),
        "sensing.batch_values_calls_per_epoch": per_epoch(
            "sensing.batch_values"),
        "sensing.channel_lookups_per_epoch": counters["channel_lookups"]
        / steps,
        "trace.coverage": (1.0 - per_step.get("api.driver.step", 0.0)
                           / step_total if step_total else 0.0),
        "trace.overhead_pct": counters["overhead_pct"],
    }
    return metrics
