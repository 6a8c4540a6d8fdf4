"""TJA: the Threshold Join Algorithm for historic top-k queries (§III-B).

TJA answers queries over *vertically fragmented* historic data — "Find
the K time instances with the highest average temperature during the
last 3 months" — where an object's (time instant's) score needs a
contribution from every sensor, so no node can prune alone. The three
phases, as the paper sketches them:

1. **Lower Bound (LB)**: the sink collects the hierarchical *union* of
   every node's local top-k object ids (``L_sink``, o ≥ K ids).
2. **Hierarchical Joining (HJ)**: ``L_sink`` floods down; each node
   ships its exact partial score for every candidate, merged (joined)
   in-network, together with its local k-th value — the threshold that
   upper-bounds every object it did *not* nominate.
3. **Clean-Up (CL)**: candidates now have exact scores; any non-
   candidate is bounded by the combined thresholds. If that bound
   clears the k-th candidate the answer is certified; otherwise one
   expansion round nominates every local value above the k-th
   candidate score — after which nothing outside the expanded
   candidate set can beat it — and the join repeats.

Object scores combine across nodes with the same partial-aggregate
algebra MINT uses, so TJA here supports AVG / SUM / MIN / MAX / COUNT
ranking.

LB and HJ run on a hot path while ``hotpath.enabled()`` (see
:mod:`repro.network.hotpath`). Every node's column is ranked once per
execution — values laid out in ``str(object_id)`` order, then a stable
index sort, which reproduces :func:`~repro.core.results.rank_key`'s
order ties included — and that one ranking feeds both LB's top-k
nominations and HJ's k-th-value threshold. HJ then carries one dense
value row per subtree, aligned with the sorted candidate tuple, plus a
single count (every non-empty column covers the same universe), folds
rows with the aggregate's :attr:`~repro.core.aggregates.Aggregate.combine`
in tree order, and builds partials only at the sink. Both phases ship
by size (:meth:`~repro.network.messages.LBReplyMessage.wire_bytes`,
:meth:`~repro.network.messages.JoinReplyMessage.wire_bytes`). The
per-object reference phases remain the oracle that
``hotpath.reference_path()`` restores, and
``tests/test_hotpath_equivalence.py`` (``TestTjaHotEqualsReference``
and the session-level suites) holds the two paths to identical
answers, traffic, stats, energy and loss-stream draws.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from ..errors import ProtocolError, ValidationError
from ..network import hotpath
from ..network.messages import (
    CandidateSetMessage,
    ControlMessage,
    JoinReplyMessage,
    LBReplyMessage,
    ObjectScore,
    QueryMessage,
)
from ..network.simulator import Network
from .aggregates import Aggregate, Partial
from .results import RankedItem, rank_key


@dataclass(frozen=True)
class TjaResult:
    """Outcome of one TJA execution.

    Attributes:
        items: The exact top-k (object id = epoch), best first.
        candidates: Size of the final candidate set |L|.
        cleanup_rounds: Expansion rounds the CL phase needed (0 or 1).
        per_phase_bytes: Payload bytes attributed to each phase.
    """

    items: tuple[RankedItem, ...]
    candidates: int
    cleanup_rounds: int
    per_phase_bytes: Mapping[str, int] = field(default_factory=dict)


class Tja:
    """One-shot execution over each node's buffered history window."""

    name = "tja"

    def __init__(self, network: Network, aggregate: Aggregate, k: int,
                 series: Mapping[int, Mapping[int, float]]):
        """Args:
            network: Deployed simulator (routing tree + cost models).
            aggregate: Score combiner across nodes (AVG in the paper's
                example).
            k: Ranking depth.
            series: node id → {object id (epoch) → local value}. Every
                participating node must cover the same object ids (the
                dense sliding window of §III-B).
        """
        if k < 1:
            raise ValidationError("k must be >= 1")
        self.network = network
        self.aggregate = aggregate
        self.k = k
        self.series = {node: dict(column) for node, column in series.items()}
        participants = [n for n in self.series if self.series[n]]
        if not participants:
            raise ValidationError("TJA needs at least one non-empty series")
        universe = set(self.series[participants[0]])
        for node in participants[1:]:
            if self.series[node].keys() != universe:
                raise ValidationError(
                    "TJA requires aligned history windows "
                    "(same object ids on every node)"
                )
        self.universe = universe
        #: Hot-path ranking of every non-empty column (see
        #: :meth:`_rank_columns`), computed once per execution.
        self._ranked: (dict[int, tuple[list[int], list[float], float]]
                       | None) = None
        #: object id → index in ``str(object_id)`` order.
        self._position: dict[int, int] = {}

    # ------------------------------------------------------------------
    # Local computations
    # ------------------------------------------------------------------

    def _local_top_k(self, node_id: int) -> list[int]:
        column = self.series.get(node_id, {})
        ranked = sorted(column.items(),
                        key=lambda item: rank_key(item[0], item[1]))
        return [object_id for object_id, _ in ranked[:self.k]]

    def _local_threshold(self, node_id: int) -> float | None:
        """The node's k-th highest local value (bounds non-nominees)."""
        column = self.series.get(node_id, {})
        if not column:
            return None
        ranked = sorted(column.values(), reverse=True)
        return ranked[min(self.k, len(ranked)) - 1]

    # repro: hot
    def _rank_columns(self) -> dict[int, tuple[list[int], list[float], float]]:
        """Hot path: rank every non-empty column once per execution.

        Returns node id → (top-k object ids best first, the column's
        lifted values in ``str(object_id)`` order, the lifted k-th
        value). Sorting indices by value, descending, over that layout
        is stable, so ties keep ascending ``str(object_id)`` order —
        exactly :meth:`_local_top_k`'s :func:`rank_key` order — and the
        k-th value is :meth:`_local_threshold`'s.
        """
        ranked = self._ranked
        if ranked is not None:
            return ranked
        ids = sorted(self.universe, key=str)
        self._position = {object_id: i for i, object_id in enumerate(ids)}
        width = len(ids)
        kth = min(self.k, width) - 1
        k = self.k
        lift_row = self.aggregate.lift_row
        by_index = ids.__getitem__
        ranked = {}
        for node_id, column in self.series.items():
            if not column:
                continue
            values = list(map(column.__getitem__, ids))
            order = sorted(range(width), key=values.__getitem__,
                           reverse=True)
            lifted = lift_row(values)
            ranked[node_id] = (list(map(by_index, order[:k])), lifted,
                               lifted[order[kth]])
        self._ranked = ranked
        return ranked

    # ------------------------------------------------------------------
    # Phases
    # ------------------------------------------------------------------

    def _lower_bound_phase(self) -> set[int]:
        """Hierarchical union of local top-k ids."""
        if hotpath.enabled():
            return self._lower_bound_hot()
        unions: dict[int, set[int]] = {}
        l_sink: set[int] = set()
        with self.network.stats.phase("LB"):
            self.network.flood_down(lambda _: QueryMessage(query_id=2))
            for node_id in self.network.converge_cast_order():
                nominated = set(self._local_top_k(node_id))
                for child in self.network.tree.children(node_id):
                    nominated |= unions.get(child, set())
                message = LBReplyMessage(object_ids=tuple(sorted(nominated)))
                parent = self.network.send_up(node_id, message)
                if parent == self.network.sink_id:
                    l_sink |= nominated
                else:
                    unions[node_id] = nominated
        return l_sink

    # repro: hot
    def _lower_bound_hot(self) -> set[int]:
        """:meth:`_lower_bound_phase` on the hot path: nominations come
        from the shared ranking and each reply ships by its size. The
        sink takes the union of its children's unions last, as the
        reference does as their replies arrive."""
        network = self.network
        children_of = network.tree.children
        parents = network.tree._parents
        ship_unicast = network._ship_unicast
        wire_bytes = LBReplyMessage.wire_bytes
        kind = LBReplyMessage.kind
        sink_id = network.sink_id
        unions: dict[int, set[int]] = {}
        with network.stats.phase("LB"):
            ranked = self._rank_columns()
            message = QueryMessage(query_id=2)
            network.flood_down(lambda _: message)
            for node_id in (*network.converge_cast_order(), sink_id):
                own = None if node_id == sink_id else ranked.get(node_id)
                nominated = set(own[0]) if own is not None else set()
                for child in children_of(node_id):
                    child_union = unions.get(child)
                    if child_union:
                        nominated |= child_union
                if node_id == sink_id:
                    break
                # Every node in the converge-cast order is alive and
                # non-root, so the send_up guards are vacuous here.
                ship_unicast(node_id, parents[node_id], kind,
                             wire_bytes(len(nominated)))
                unions[node_id] = nominated
        return nominated

    def _join_phase(self, candidates: set[int], phase_name: str = "HJ",
                    include_threshold: bool = True,
                    ) -> tuple[dict[int, Partial], Partial | None]:
        """Flood the candidate set, join exact partials hierarchically.

        Returns the joined partial per candidate and the combined
        threshold partial (each node's k-th local value folded with the
        aggregate algebra — the upper bound for unseen objects).
        """
        if hotpath.enabled():
            return self._join_hot(candidates, phase_name, include_threshold)
        ordered = tuple(sorted(candidates))
        joined: dict[int, Partial] = {}
        threshold: Partial | None = None
        partials: dict[int, dict[int, Partial]] = {}
        thresholds: dict[int, Partial] = {}
        with self.network.stats.phase(phase_name):
            self.network.flood_down(
                lambda _: CandidateSetMessage(object_ids=ordered))
            for node_id in self.network.converge_cast_order():
                local: dict[int, Partial] = {}
                column = self.series.get(node_id, {})
                for object_id in ordered:
                    if object_id in column:
                        local[object_id] = self.aggregate.from_value(
                            column[object_id])
                local_threshold = self._local_threshold(node_id)
                combined_threshold = (
                    self.aggregate.from_value(local_threshold)
                    if local_threshold is not None else None)
                for child in self.network.tree.children(node_id):
                    for object_id, partial in partials.get(child, {}).items():
                        existing = local.get(object_id)
                        local[object_id] = (
                            partial if existing is None
                            else self.aggregate.merge(existing, partial))
                    child_threshold = thresholds.get(child)
                    if child_threshold is not None:
                        combined_threshold = (
                            child_threshold if combined_threshold is None
                            else self.aggregate.merge(combined_threshold,
                                                      child_threshold))
                items = tuple(
                    ObjectScore(object_id, partial.value, partial.count)
                    for object_id, partial in sorted(local.items())
                )
                message = JoinReplyMessage(
                    items=items,
                    threshold_value=(combined_threshold.value
                                     if combined_threshold else 0.0),
                    threshold_count=(combined_threshold.count
                                     if combined_threshold else 0),
                )
                parent = self.network.send_up(node_id, message)
                if parent == self.network.sink_id:
                    for object_id, partial in local.items():
                        existing = joined.get(object_id)
                        joined[object_id] = (
                            partial if existing is None
                            else self.aggregate.merge(existing, partial))
                    if combined_threshold is not None:
                        threshold = (
                            combined_threshold if threshold is None
                            else self.aggregate.merge(threshold,
                                                      combined_threshold))
                else:
                    partials[node_id] = local
                    if combined_threshold is not None:
                        thresholds[node_id] = combined_threshold
        if not include_threshold:
            threshold = None
        return joined, threshold

    # repro: hot
    def _join_hot(self, candidates: set[int], phase_name: str,
                  include_threshold: bool,
                  ) -> tuple[dict[int, Partial], Partial | None]:
        """:meth:`_join_phase` on the hot path.

        Every non-empty column covers the whole universe, so a subtree's
        joined partials are one value row aligned with the sorted
        candidate tuple plus one count (its participants). Rows fold
        child by child in tree order with the aggregate's ``combine``
        — the same operands in the same order as the reference merges,
        so floats match bit for bit. The sink folds its children's
        rows last, in the order their replies arrive, and only there do
        rows become partials.
        """
        network = self.network
        combine = self.aggregate.combine
        children_of = network.tree.children
        parents = network.tree._parents
        ship_unicast = network._ship_unicast
        wire_bytes = JoinReplyMessage.wire_bytes
        kind = JoinReplyMessage.kind
        sink_id = network.sink_id
        ordered = tuple(sorted(candidates))
        rows: dict[int, list[float] | None] = {}
        counts: dict[int, int] = {}
        thresholds: dict[int, tuple[float, int]] = {}
        with network.stats.phase(phase_name):
            ranked = self._rank_columns()
            position = self._position
            picks = [position[object_id] for object_id in ordered]
            message = CandidateSetMessage(object_ids=ordered)
            network.flood_down(lambda _: message)
            for node_id in (*network.converge_cast_order(), sink_id):
                own = None if node_id == sink_id else ranked.get(node_id)
                if own is None:
                    row = None
                    count = 0
                    combined = None
                else:
                    row = list(map(own[1].__getitem__, picks))
                    count = 1
                    combined = (own[2], 1) if include_threshold else None
                for child in children_of(node_id):
                    child_row = rows.get(child)
                    if child_row is not None:
                        row = (child_row if row is None
                               else list(map(combine, row, child_row)))
                        count += counts[child]
                    child_threshold = thresholds.get(child)
                    if child_threshold is not None:
                        combined = (
                            child_threshold if combined is None
                            else (combine(combined[0], child_threshold[0]),
                                  combined[1] + child_threshold[1]))
                if node_id == sink_id:
                    break
                # Every node in the converge-cast order is alive and
                # non-root, so the send_up guards are vacuous here.
                ship_unicast(node_id, parents[node_id], kind,
                             wire_bytes(len(row) if row is not None else 0))
                rows[node_id] = row
                counts[node_id] = count
                if combined is not None:
                    thresholds[node_id] = combined
        joined: dict[int, Partial] = {}
        if row is not None:
            for object_id, value in zip(ordered, row):
                joined[object_id] = Partial(value, count)
        return joined, Partial(*combined) if combined is not None else None

    def _expansion_tau(self, tau: float) -> float:
        """Per-node nomination threshold that certifies the expansion.

        For AVG/MIN/MAX, an object with every local value ≤ τ scores
        ≤ τ. For SUM the per-node threshold must be τ/n (the TPUT
        argument): n values each ≤ τ/n sum to ≤ τ.
        """
        if self.aggregate.func == "SUM":
            participants = max(1, sum(1 for s in self.series.values() if s))
            return tau / participants
        return tau

    def _expansion_phase(self, tau: float, known: set[int]) -> set[int]:
        """CL expansion: nominate every local value above the threshold."""
        tau = self._expansion_tau(tau)
        unions: dict[int, set[int]] = {}
        extra: set[int] = set()
        with self.network.stats.phase("CL"):
            self.network.flood_down(
                lambda _: ControlMessage(label="cl_threshold", size=8))
            for node_id in self.network.converge_cast_order():
                nominated = {
                    object_id
                    for object_id, value in self.series.get(node_id, {}).items()
                    if value > tau and object_id not in known
                }
                for child in self.network.tree.children(node_id):
                    nominated |= unions.get(child, set())
                message = LBReplyMessage(object_ids=tuple(sorted(nominated)))
                parent = self.network.send_up(node_id, message)
                if parent == self.network.sink_id:
                    extra |= nominated
                else:
                    unions[node_id] = nominated
        return extra

    # ------------------------------------------------------------------
    # Driver
    # ------------------------------------------------------------------

    def execute(self) -> TjaResult:
        """Run LB → HJ → CL and return the certified exact top-k."""
        before = dict(self.network.stats.by_phase)
        candidates = self._lower_bound_phase()
        if not candidates:
            raise ProtocolError("LB phase produced no candidates")

        joined, threshold = self._join_phase(candidates)
        exact = {
            object_id: self.aggregate.finalize(partial)
            for object_id, partial in joined.items()
        }
        ranked = sorted(exact.items(),
                        key=lambda item: rank_key(item[0], item[1]))
        effective_k = min(self.k, len(self.universe))
        tau = ranked[min(effective_k, len(ranked)) - 1][1]

        unseen_bound = (self.aggregate.finalize(threshold)
                        if threshold is not None else float("-inf"))
        cleanup_rounds = 0
        if len(exact) < len(self.universe) and unseen_bound > tau:
            cleanup_rounds = 1
            extra = self._expansion_phase(tau, set(exact))
            if extra:
                joined_extra, _ = self._join_phase(
                    extra, phase_name="CL", include_threshold=False)
                for object_id, partial in joined_extra.items():
                    exact[object_id] = self.aggregate.finalize(partial)
                ranked = sorted(exact.items(),
                                key=lambda item: rank_key(item[0], item[1]))

        items = tuple(
            RankedItem(key=object_id, score=score, lb=score, ub=score)
            for object_id, score in ranked[:effective_k]
        )
        after = self.network.stats.by_phase
        per_phase = {
            phase: after[phase].payload_bytes - (
                before[phase].payload_bytes if phase in before else 0)
            for phase in ("LB", "HJ", "CL") if phase in after
        }
        return TjaResult(
            items=items,
            candidates=len(exact),
            cleanup_rounds=cleanup_rounds,
            per_phase_bytes=per_phase,
        )
