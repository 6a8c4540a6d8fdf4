"""The benchmark's workloads: inputs built from a seed, driven as closed loops.

Every workload runs on the 20 x 20 grid with 16 rooms (N = 400) through
the public facade only: ``Deployment.from_scenario``,
``Deployment.submit`` and ``EpochDriver.step``. Each client is a closed
loop: a continuous (MINT / FILA) client's standing query answers once
per shared epoch, and the historic (TJA) client submits its next query
only after the previous one has been answered.

A :class:`Run` records every answer together with what the oracle needs
to check it later (the epoch, the live population, the query spec), so
the checks run outside the timed region.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Hashable

from repro.api import Deployment, EpochDriver
from repro.query.plan import Algorithm
from repro.scenarios import grid_rooms_scenario

#: Grid side of the measured deployment (N = side * side sensors).
SIDE = 20
#: Rooms per grid axis (16 rooms).
ROOMS_PER_AXIS = 4
#: Warm-up steps run as part of set-up: the first runs MINT's creation
#: phase and FILA's filter set-up.
WARMUP_STEPS = 2
#: Length of the churn script; churn stops if a run outlives it.
CHURN_HORIZON = 4000


@dataclass(frozen=True)
class QuerySpec:
    """One client's query and what the oracle needs to check its answers.

    The texts of the e11 mix are those of ``repro.perf.WORKLOAD_QUERIES``
    (the ROADMAP's reference traffic), kept here so the benchmark's
    inputs do not move when that module does.
    """

    text: str
    agg: str
    k: int
    #: History window in epochs (historic queries only).
    window: int | None = None
    algorithm: Algorithm | None = None


MIX_CONTINUOUS = (
    QuerySpec("SELECT TOP 2 roomid, AVG(sound) FROM sensors "
              "GROUP BY roomid EPOCH DURATION 1 min", "AVG", 2),
    QuerySpec("SELECT TOP 1 roomid, MAX(sound) FROM sensors "
              "GROUP BY roomid EPOCH DURATION 1 min", "MAX", 1),
    QuerySpec("SELECT TOP 3 roomid, SUM(sound) FROM sensors "
              "GROUP BY roomid EPOCH DURATION 1 min", "SUM", 3),
    QuerySpec("SELECT TOP 1 roomid, MIN(sound) FROM sensors "
              "GROUP BY roomid EPOCH DURATION 1 min", "MIN", 1),
)
MIX_HISTORIC = QuerySpec(
    "SELECT TOP 3 epoch, AVG(sound) FROM sensors "
    "GROUP BY epoch WITH HISTORY 10 s EPOCH DURATION 1 s", "AVG", 3,
    window=10)
FILA_QUERY = QuerySpec(
    "SELECT TOP 25 nodeid, MAX(sound) FROM sensors EPOCH DURATION 1 s",
    "MAX", 25, algorithm=Algorithm.FILA)


@dataclass(frozen=True)
class Workload:
    """A named traffic mix over one seeded deployment (why each exists:
    ``BENCHMARK.json`` and ``NOTES.md``)."""

    name: str
    continuous: tuple[QuerySpec, ...]
    historic: QuerySpec | None = None
    #: Zipf skew of the sound field (0: the room random-walk field).
    skew: float = 0.0
    churn: bool = False
    #: Measured steps per deployment. The count is fixed, so every run
    #: measures the same epochs over the same accumulated state, and
    #: the simulated cost and peak RSS are exact for a seed. Steps times
    #: deployments last about ``run_seconds`` on the idle reference host
    #: (see each workload for why some differ), and are at least 200,
    #: so p95 keeps at least ten samples beyond it.
    steps: int = 700
    #: Independent deployments per run, each on its own seed.
    deployments: int = 1

    def seeds(self, seed: int) -> list[int]:
        """The deployment seeds of a run: distinct for distinct run
        seeds, and the run seed itself for a single deployment."""
        return [seed * self.deployments + i for i in range(self.deployments)]


WORKLOADS = {
    w.name: w for w in (
        # The ROADMAP's reference traffic.
        Workload("e11-mix", MIX_CONTINUOUS, MIX_HISTORIC),
        # Acquisition and FILA's filter passes alone. Memory grows about
        # 70 KB per epoch, which keeps the run shorter than the others.
        Workload("fila-quiet", (FILA_QUERY,), skew=2.0, steps=4000),
        # Topology writes beside the reads. Each seed's churn script
        # sets tree shapes that persist for the whole run, so a run
        # averages over four independent deployments.
        Workload("e11-churn", MIX_CONTINUOUS, MIX_HISTORIC, churn=True,
                 steps=300, deployments=4),
    )
}


@dataclass
class Answer:
    """One session answer plus the ground-truth context to check it."""

    spec: QuerySpec
    #: The shared epoch the step ran at.
    epoch: int
    outcome: object
    #: Live sensor ids at answer time.
    alive: frozenset
    #: Historic answers: sensors live when the query was submitted.
    submitted_alive: frozenset | None = None

    def fingerprint(self) -> str:
        """A stable text form of the answer (for the determinism guard)."""
        items = getattr(self.outcome, "items", ())
        body = ";".join(f"{item.key!r}:{item.score!r}:{item.lb!r}:"
                        f"{item.ub!r}" for item in items)
        return f"{self.epoch}|{self.spec.text}|{body}"


class Run:
    """One deployment of a workload, its clients and its answer log."""

    def __init__(self, workload: Workload, seed: int, side: int = SIDE):
        self.workload = workload
        self.scenario = grid_rooms_scenario(
            side=side, rooms_per_axis=ROOMS_PER_AXIS, seed=seed,
            skew=workload.skew)
        #: Ground-truth cluster of every sensor that may ever exist.
        self.groups: dict[int, Hashable] = dict(self.scenario.group_of)
        self.churn = None
        if workload.churn:
            # Churn starts after the warm-up steps, so set-up is the
            # same kind of work on every seed.
            self.churn = self.scenario.churn_intervention(
                CHURN_HORIZON, preset="lively", seed=seed,
                first_epoch=WARMUP_STEPS)
            for event in self.churn.schedule.births:
                self.groups[event.node_id] = event.group
        self.deployment = Deployment.from_scenario(self.scenario)
        self.network = self.deployment.network
        self.driver = EpochDriver(
            self.deployment,
            interventions=[self.churn] if self.churn is not None else [])
        self.answers: list[Answer] = []
        self._applied = 0
        self._alive = self._live_sensors()
        self._spec_of: dict[int, QuerySpec] = {}
        for spec in workload.continuous:
            self._submit(spec)
        self._historic_id: int | None = None
        self._historic_alive: frozenset | None = None
        if workload.historic is not None:
            self._submit_historic()

    def _live_sensors(self) -> frozenset:
        sink = self.network.sink_id
        return frozenset(n for n, node in self.network.nodes.items()
                         if node.alive and n != sink)

    def _submit(self, spec: QuerySpec) -> int:
        handle = self.deployment.submit(spec.text, algorithm=spec.algorithm)
        self._spec_of[handle.id] = spec
        return handle.id

    def _submit_historic(self) -> None:
        self._historic_id = self._submit(self.workload.historic)
        self._historic_alive = self._alive

    def record(self, epoch: int, outcomes: dict) -> None:
        """Log a step's answers and run the closed-loop clients: the
        historic client resubmits once its answer is in."""
        if self.churn is not None and len(self.churn.applied) != self._applied:
            self._applied = len(self.churn.applied)
            self._alive = self._live_sensors()
        resubmit = False
        for session_id, outcome in outcomes.items():
            if outcome is None:
                continue
            spec = self._spec_of[session_id]
            answer = Answer(spec, epoch, outcome, self._alive)
            if session_id == self._historic_id:
                answer.submitted_alive = self._historic_alive
                resubmit = True
            self.answers.append(answer)
        if resubmit:
            self._submit_historic()

    def warm_up(self) -> None:
        """The set-up steps (MINT creation, FILA filter set-up)."""
        for _ in range(WARMUP_STEPS):
            epoch = self.network.epoch
            self.record(epoch, self.driver.step())

    def retained_results(self) -> int:
        """Epoch results the sessions hold (they keep every one)."""
        return sum(len(handle.results)
                   for handle in self.deployment.sessions())

    def inputs_digest(self) -> str:
        """A hash of the generated inputs: field readings over the first
        epochs and the churn script. Different seeds give different
        inputs; the same seed gives the same."""
        field = self.scenario.field
        digest = hashlib.sha256()
        for node_id in sorted(self.groups):
            for epoch in range(3):
                digest.update(repr(field.value(node_id, epoch)).encode())
        if self.churn is not None:
            for event in self.churn.schedule.events:
                digest.update(repr((event.epoch, event.kind.value,
                                    event.node_id)).encode())
        return digest.hexdigest()[:16]

    def cost_snapshot(self) -> dict:
        """Simulated cost since the deployment was built: exact for a
        seed, so it moves only when the protocol does."""
        stats = self.network.stats
        epochs = self.network.epoch
        samples = sum(node.samples_taken
                      for node in self.network.nodes.values())
        return {
            "epochs": epochs,
            "messages": stats.messages,
            "payload_bytes": stats.payload_bytes,
            "radio_joules": repr(stats.tx_joules + stats.rx_joules),
            "samples": samples,
            "retransmissions": stats.retransmissions,
            "drops": stats.drops,
            "by_kind": dict(sorted(stats.by_kind.items())),
            "bytes_by_kind": dict(sorted(stats.bytes_by_kind.items())),
            "answers": hashlib.sha256("\n".join(
                a.fingerprint() for a in self.answers).encode()
            ).hexdigest(),
            "answer_count": len(self.answers),
        }
