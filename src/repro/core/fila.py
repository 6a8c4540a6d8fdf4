"""FILA-style filter-based top-k monitoring (Wu et al., ICDE 2006).

The cited snapshot-class alternative to MINT (reference [17]): instead
of shipping pruned views every epoch, the sink installs a *filter
interval* on every node. A node stays silent while its reading remains
inside its filter; it reports only on a violation. The sink re-derives
the top-k from exact reports plus filter intervals, probing nodes whose
intervals straddle the ranking boundary, then reassigns filters around
the new boundary.

This implementation monitors the top-k *nodes* by their current reading
(FILA's core setting). Correctness is certification-based, reusing
:func:`repro.core.certify.certify_top_k`: silent nodes contribute their
filter interval as bounds — sound, because silence proves the reading
stayed inside. Answers are therefore exact every epoch, like MINT's.

Switch-and-prove: the fused monitor+bounds pass, the persistent
``TopKView`` and the columnar batch-sensing loop run only while
``hotpath.enabled()`` (and ``columnar.enabled()`` for the batch path);
``hotpath.reference_path()`` restores the first-principles branches
and the cold ``certify_top_k`` oracle, ``columnar.scalar_path()``
isolates the data-layout win. ``tests/test_hotpath_equivalence.py``
and ``tests/test_delta_equivalence.py`` prove every path
byte-identical.
"""

from __future__ import annotations

from typing import Mapping

from ..errors import ValidationError
from ..network import columnar, hotpath
from ..network.messages import (
    FilterReportMessage,
    FilterUpdateMessage,
    ProbeRequestMessage,
    QueryMessage,
    ViewEntry,
)
from ..network.simulator import Network
from .aggregates import Aggregate, Bounds
from .certify import certify_top_k
from .delta import TopKView
from .results import EpochResult


class _FilaColumns:
    """One session's structure-of-arrays mirror of its filter state.

    Parallel columns aligned to the deployment's alive-id tuple: the
    installed filter interval per row (NaN = none), the last exactly-
    known value per row (NaN = none), and the ``synced`` mask — True
    iff the certification view's bound for that row *is* its filter
    interval, which is exactly the condition under which the scalar
    monitor / answer passes would re-``ensure`` a value the view
    already holds (a proven no-op). The mask helpers in
    :mod:`repro.network.columnar` turn those no-op visits into
    whole-column skips. Rebuilt (all-unsynced — always safe, the next
    pass just visits every row once) whenever the id tuple's identity,
    the backend, or out-of-band filter state changes.
    """

    __slots__ = ("ids", "index", "backend", "flt_lo", "flt_hi",
                 "synced", "known")

    def __init__(self, ids: tuple[int, ...],
                 filters: Mapping[int, tuple[float, float]],
                 known: Mapping[int, float]):
        self.ids = ids
        self.index = {node_id: row for row, node_id in enumerate(ids)}
        self.backend = columnar.backend()
        nan = columnar.nan()
        intervals = [filters.get(node_id) for node_id in ids]
        self.flt_lo = columnar.float_column(
            [f[0] if f is not None else nan for f in intervals])
        self.flt_hi = columnar.float_column(
            [f[1] if f is not None else nan for f in intervals])
        self.synced = columnar.bool_column(len(ids), False)
        self.known = columnar.float_column(
            [known.get(node_id, nan) for node_id in ids])


class Fila:
    """Filter-based continuous top-k node monitoring."""

    name = "fila"

    def __init__(self, network: Network, aggregate: Aggregate, k: int,
                 attribute: str = "sound"):
        """Filters partition the value space strictly at the ranking
        boundary: the top-k nodes' filters sit above it, everyone
        else's below. Overlapping (hysteresis) filters would leave the
        boundary permanently ambiguous and force a probe per epoch —
        the partition is what lets silence certify the set.
        """
        if k < 1:
            raise ValidationError("k must be >= 1")
        self.network = network
        self.aggregate = aggregate
        self.k = k
        self.attribute = attribute
        #: Installed filter per node (lo, hi); None until setup.
        self.filters: dict[int, tuple[float, float]] = {}
        #: The sink's last exactly-known value per node.
        self.known: dict[int, float] = {}
        #: The global ranking boundary the filters partition at.
        self.boundary = aggregate.lo
        self._setup_done = False
        #: Hot-path memo of the repartition's iteration order (the
        #: sorted filter ids); valid only while ``filters`` keeps its
        #: key set, which post-setup only churn can change.
        self._install_order: tuple[int, ...] | None = None
        #: Hot path: the sink's maintained certification view. FILA is
        #: the certifier's heaviest client (monitor + probe rounds +
        #: the answer pass certify every epoch over all N nodes); the
        #: view re-ranks only the nodes whose bound actually moved —
        #: violations, probes and filter reinstalls, typically a
        #: handful per epoch.
        self._view = TopKView(k, require_exact_scores=False)
        #: Columnar kernel state; None whenever the last epoch ran a
        #: scalar pass (columns are rebuilt unsynced on reactivation).
        self._cols: _FilaColumns | None = None

    # ------------------------------------------------------------------
    # Filter management
    # ------------------------------------------------------------------

    def _choose_boundary(self, chosen_floor: float, others_ceiling: float
                         ) -> float:
        """Pick the partition point between the top-k and the rest.

        Any value in ``[others_ceiling, chosen_floor]`` partitions
        correctly; keeping the previous boundary when it still fits
        avoids reinstalling every filter on small drifts."""
        if others_ceiling <= self.boundary <= chosen_floor:
            return self.boundary
        if others_ceiling > chosen_floor:
            # Exact tie straddling the cut: both sides sit at the value.
            return chosen_floor
        return (chosen_floor + others_ceiling) / 2.0

    def _install_filters(self, chosen: set[int], boundary: float,
                         exact_values: Mapping[int, float] | None = None,
                         ) -> int:
        """Repartition with minimal reinstalls.

        Certification needs every chosen filter to sit at or above the
        cut and every other filter at or below it. A node keeps its
        current filter whenever it already satisfies that (and still
        contains the node's value, where the sink knows it) — so a
        drift event only reinstalls the nodes actually involved.
        Assignment is by *rank*, not by value: a node tied exactly at
        the boundary stays silent on whichever side it was assigned."""
        exact_values = exact_values or {}
        installed = 0
        if hotpath.enabled() and self.filters:
            # Post-setup the filter key set only shrinks (churn pops,
            # which invalidates the memo); the per-epoch sort of every
            # node id is paid once per topology change instead.
            order = self._install_order
            if order is None:
                order = self._install_order = tuple(sorted(self.filters))
        else:
            order = sorted(self.filters or self.known)
        for node_id in order:
            node = self.network.nodes.get(node_id)
            if node is None or not node.alive:
                continue
            current = self.filters.get(node_id)
            if node_id in chosen:
                acceptable = (current is not None
                              and current[0] >= boundary
                              and current[1] == self.aggregate.hi)
                new_filter = (boundary, self.aggregate.hi)
            else:
                acceptable = (current is not None
                              and current[1] <= boundary
                              and current[0] == self.aggregate.lo)
                new_filter = (self.aggregate.lo, boundary)
            if acceptable and node_id in exact_values:
                lo, hi = current
                acceptable = lo <= exact_values[node_id] <= hi
            if acceptable:
                continue
            if current == new_filter:
                continue
            self.network.unicast_from_sink(
                node_id, FilterUpdateMessage(
                    intervals=((node_id, *new_filter),)))
            self.filters[node_id] = new_filter
            installed += 1
        return installed

    def _install_filters_columnar(self, chosen: set[int], boundary: float,
                                  exact_values: Mapping[int, float],
                                  cols: _FilaColumns) -> int:
        """The column-mask form of :meth:`_install_filters`.

        Whole-column acceptability (:func:`columnar.acceptable_filters`)
        plus a sparse exact-value containment fix-up replace the
        all-node scalar scan; only the rows
        :func:`columnar.pending_install_rows` singles out are visited,
        in ascending id order — the same nodes the scalar pass would
        reinstall, shipping the same messages in the same order (only
        alive nodes have rows, and the scalar pass skips dead ones).
        """
        ids = cols.ids
        index = cols.index
        agg_lo, agg_hi = self.aggregate.lo, self.aggregate.hi
        chosen_mask = columnar.bool_column(len(ids), False)
        for node_id in chosen:
            row = index.get(node_id)
            if row is not None:
                chosen_mask[row] = True
        acceptable = columnar.acceptable_filters(
            cols.flt_lo, cols.flt_hi, chosen_mask, boundary, agg_lo, agg_hi)
        filters = self.filters
        for node_id, value in exact_values.items():
            row = index.get(node_id)
            if row is None or not acceptable[row]:
                continue
            lo, hi = filters[node_id]
            if not (lo <= value <= hi):
                acceptable[row] = False
        installed = 0
        unicast_from_sink = self.network.unicast_from_sink
        flt_lo, flt_hi, synced = cols.flt_lo, cols.flt_hi, cols.synced
        for row in columnar.pending_install_rows(
                flt_lo, flt_hi, chosen_mask, acceptable,
                boundary, agg_lo, agg_hi):
            node_id = ids[row]
            new_filter = ((boundary, agg_hi) if chosen_mask[row]
                          else (agg_lo, boundary))
            unicast_from_sink(
                node_id, FilterUpdateMessage(
                    intervals=((node_id, *new_filter),)))
            filters[node_id] = new_filter
            flt_lo[row], flt_hi[row] = new_filter
            synced[row] = False
            installed += 1
        return installed

    # ------------------------------------------------------------------
    # Epoch driver
    # ------------------------------------------------------------------

    def _columns(self, ids: tuple[int, ...]) -> _FilaColumns:
        """This session's columns, rebuilt when stale (id tuple or
        backend changed, or a scalar pass ran in between)."""
        cols = self._cols
        if (cols is None or cols.ids is not ids
                or cols.backend != columnar.backend()):
            cols = self._cols = _FilaColumns(ids, self.filters, self.known)
        return cols

    def _setup(self, readings: Mapping[int, float]) -> None:
        with self.network.stats.phase("setup"):
            self.network.flood_down(lambda _: QueryMessage(query_id=4))
            for node_id, value in readings.items():
                self.network.unicast_to_sink(
                    node_id, FilterReportMessage(
                        epoch=self.network.epoch,
                        entries=(ViewEntry(node_id, value, 1),)))
                self.known[node_id] = value
            ranked = sorted(self.known.items(), key=lambda kv: (-kv[1], kv[0]))
            chosen = {node_id for node_id, _ in ranked[:self.k]}
            if len(ranked) > self.k:
                self.boundary = (ranked[self.k - 1][1]
                                 + ranked[self.k][1]) / 2.0
            self._install_filters(chosen, self.boundary)
        self._setup_done = True
        self._install_order = None

    def _run_monitor_phase(self, readings: Mapping[int, float]
                           ) -> Mapping[int, Bounds]:
        """The monitoring + interval-derivation pass, fused (hot path).

        Semantically identical to the reference branch in
        :meth:`run_epoch` — same reports in the same order, same bound
        per node — with the filter lookup shared between the violation
        check and the bound, the transport and ledgers resolved once,
        and the per-node bounds converged into the persistent
        :class:`~repro.core.delta.TopKView` (an unchanged bound costs
        two float compares, no allocation, no re-rank).
        """
        network = self.network
        epoch = network.epoch
        filters_get = self.filters.get
        known = self.known
        unicast_to_sink = network.unicast_to_sink
        view = self._view
        ensure = view.ensure
        with network.stats.phase("monitor"):
            for node_id, value in readings.items():
                current = filters_get(node_id)
                if (current is not None
                        and current[0] <= value <= current[1]):
                    ensure(node_id, current[0], current[1])
                    continue
                unicast_to_sink(
                    node_id, FilterReportMessage(
                        epoch=epoch,
                        entries=(ViewEntry(node_id, value, 1),)))
                known[node_id] = value
                # The violating node's filter is void until reset;
                # its value is exactly known this epoch.
                ensure(node_id, value, value)
        self._drop_stale_view_nodes(readings)
        return view.bounds

    def _run_monitor_columnar(self, readings: Mapping[int, float],
                              values, cols: _FilaColumns
                              ) -> Mapping[int, Bounds]:
        """The monitoring pass over columns (columnar kernel).

        :func:`columnar.pending_monitor_rows` picks out, in one
        whole-column operation, exactly the rows whose scalar visit
        would do real work — a violation report or a view bound that
        is not already the filter interval; every skipped row's visit
        is a proven no-op (see the helper's contract). Visited rows
        run the scalar body verbatim, so reports ship in the same
        ascending-id order with the same bytes.
        """
        network = self.network
        epoch = network.epoch
        ids = cols.ids
        filters_get = self.filters.get
        known = self.known
        known_col = cols.known
        synced = cols.synced
        unicast_to_sink = network.unicast_to_sink
        view = self._view
        ensure = view.ensure
        with network.stats.phase("monitor"):
            for row in columnar.pending_monitor_rows(
                    values, cols.flt_lo, cols.flt_hi, synced):
                node_id = ids[row]
                value = readings[node_id]
                current = filters_get(node_id)
                if (current is not None
                        and current[0] <= value <= current[1]):
                    ensure(node_id, current[0], current[1])
                    synced[row] = True
                    continue
                unicast_to_sink(
                    node_id, FilterReportMessage(
                        epoch=epoch,
                        entries=(ViewEntry(node_id, value, 1),)))
                known[node_id] = value
                known_col[row] = value
                ensure(node_id, value, value)
                synced[row] = False
        self._drop_stale_view_nodes(readings)
        return view.bounds

    def _drop_stale_view_nodes(self, readings: Mapping[int, float]) -> None:
        """Retract view entries for nodes no longer read (deaths the
        session's topology handler did not see, e.g. engine-direct
        runs)."""
        view = self._view
        if len(view) != len(readings):
            for node_id in [n for n in view.bounds if n not in readings]:
                view.delete(node_id)

    def _certify(self, bounds: Mapping[int, Bounds], hot: bool):
        """Hot: the maintained view's O(k + |ambiguous| + log N)
        outcome. Reference: the cold O(N log N) oracle. Equal by the
        delta-equivalence suite."""
        if hot:
            return self._view.outcome()
        return certify_top_k(bounds, self.k, require_exact_scores=False)

    def run_epoch(self) -> EpochResult:
        """One monitoring round: violations, certification, probes."""
        network = self.network
        ids = network.alive_sensor_ids()
        readings = network.read_many(ids, self.attribute)
        probed = 0
        hot = hotpath.enabled()
        cols = values = None
        if hot and columnar._enabled and self._setup_done:
            cols = self._columns(ids)
            values = network.reading_column(ids, self.attribute)
            if values is None:
                values = columnar.float_column(
                    [readings[node_id] for node_id in ids])
        else:
            self._cols = None
        if not self._setup_done:
            self._setup(readings)
        else:
            if cols is not None:
                bounds = self._run_monitor_columnar(readings, values, cols)
            elif hot:
                bounds = self._run_monitor_phase(readings)
            else:
                with self.network.stats.phase("monitor"):
                    for node_id, value in readings.items():
                        # A node with no installed filter (it joined
                        # after setup) always reports: silence only
                        # certifies where a filter exists to stay
                        # inside.
                        current = self.filters.get(node_id)
                        if (current is not None
                                and current[0] <= value <= current[1]):
                            continue
                        self.network.unicast_to_sink(
                            node_id, FilterReportMessage(
                                epoch=self.network.epoch,
                                entries=(ViewEntry(node_id, value, 1),)))
                        self.known[node_id] = value
                        # The violating node's filter is void until
                        # reset; treat its value as exactly known this
                        # epoch.

                bounds = {}
                for node_id, value in readings.items():
                    current = self.filters.get(node_id)
                    if (current is not None
                            and current[0] <= value <= current[1]):
                        bounds[node_id] = Bounds(current[0], current[1])
                    else:
                        bounds[node_id] = Bounds(value, value)
            # FILA certifies set membership: silent nodes keep their
            # filter interval as the score estimate.
            outcome = self._certify(bounds, hot)
            while outcome.needs_probe:
                with self.network.stats.phase("probe"):
                    for node_id in outcome.ambiguous:
                        if bounds[node_id].exact:
                            continue
                        self.network.unicast_from_sink(
                            node_id, ProbeRequestMessage(
                                epoch=self.network.epoch, groups=(node_id,)))
                        self.network.unicast_to_sink(
                            node_id, FilterReportMessage(
                                epoch=self.network.epoch,
                                entries=(ViewEntry(
                                    node_id, readings[node_id], 1),)))
                        value = readings[node_id]
                        self.known[node_id] = value
                        if cols is not None:
                            row = cols.index.get(node_id)
                            if row is not None:
                                cols.known[row] = value
                                cols.synced[row] = False
                        if hot:
                            # Never item-assign into view.bounds — the
                            # collapse must go through the delta surface
                            # to keep the maintained orders in sync.
                            self._view.ensure(node_id, value, value)
                        else:
                            bounds[node_id] = Bounds(value, value)
                probed += 1
                outcome = self._certify(bounds, hot)

            # Re-partition the filters around the certified cut.
            chosen = {item.key for item in outcome.items}
            chosen_floor = min(bounds[n].lb for n in chosen)
            if cols is not None:
                # Post-monitor every row's upper bound is its filter
                # ceiling (synced) or its exact reading, so the
                # non-chosen maximum reduces over one column.
                others_ceiling = columnar.masked_ceiling(
                    values, cols.flt_hi, cols.synced,
                    [cols.index[n] for n in chosen if n in cols.index])
                boundary = (self._choose_boundary(chosen_floor,
                                                  others_ceiling)
                            if others_ceiling is not None
                            else self.boundary)
            else:
                others = [n for n in bounds if n not in chosen]
                if others:
                    others_ceiling = max(bounds[n].ub for n in others)
                    boundary = self._choose_boundary(chosen_floor,
                                                     others_ceiling)
                else:
                    boundary = self.boundary
            self.boundary = boundary
            if cols is not None and self.filters:
                known = self.known
                fresh = {}
                for row in columnar.exact_rows(cols.flt_lo, cols.flt_hi,
                                               cols.synced):
                    node_id = ids[row]
                    value = known.get(node_id)
                    if value is not None:
                        fresh[node_id] = value
                with self.network.stats.phase("filter_update"):
                    self._install_filters_columnar(chosen, boundary,
                                                   fresh, cols)
            else:
                if cols is not None:
                    # Filter table emptied out-of-band (churn swept
                    # every install): the scalar repartition rebuilds
                    # it from ``known``; columns are stale after.
                    cols = self._cols = None
                fresh = {n: self.known[n] for n in bounds
                         if bounds[n].exact and n in self.known}
                with self.network.stats.phase("filter_update"):
                    self._install_filters(chosen, boundary,
                                          exact_values=fresh)

        # Build the answer from current knowledge.
        known_get = self.known.get
        filters_get = self.filters.get
        if hot:
            # Converge the persistent view to answer-time knowledge:
            # only nodes whose filter was just reinstalled (or probed /
            # violated above) actually move.
            view = self._view
            ensure = view.ensure
            lo, hi = self.aggregate.lo, self.aggregate.hi
            if cols is not None:
                # Whole-column skip of the rows whose scalar visit
                # would re-ensure the filter interval the view already
                # holds (non-exact, synced, filter installed).
                ids_tuple = cols.ids
                synced = cols.synced
                for row in columnar.pending_answer_rows(
                        values, cols.known, cols.flt_lo, synced):
                    node_id = ids_tuple[row]
                    value = readings[node_id]
                    if known_get(node_id) == value:
                        ensure(node_id, value, value)
                        synced[row] = False
                    else:
                        current = filters_get(node_id)
                        if current is None:
                            ensure(node_id, lo, hi)
                            synced[row] = False
                        else:
                            ensure(node_id, current[0], current[1])
                            synced[row] = True
            else:
                for node_id, value in readings.items():
                    if known_get(node_id) == value:
                        ensure(node_id, value, value)
                    else:
                        current = filters_get(node_id)
                        if current is None:
                            ensure(node_id, lo, hi)
                        else:
                            ensure(node_id, current[0], current[1])
            self._drop_stale_view_nodes(readings)
            bounds = view.bounds
            outcome = view.outcome()
        else:
            unknown = Bounds(self.aggregate.lo, self.aggregate.hi)
            bounds = {}
            for node_id, value in readings.items():
                if known_get(node_id) == value:
                    bounds[node_id] = Bounds(value, value)
                else:
                    current = filters_get(node_id)
                    bounds[node_id] = (unknown if current is None
                                       else Bounds(current[0], current[1]))
            outcome = certify_top_k(bounds, self.k,
                                    require_exact_scores=False)
        result = EpochResult(
            epoch=self.network.epoch,
            items=outcome.items,
            exact=outcome.certified,
            algorithm=self.name,
            probed=probed,
            all_bounds=(self._view.bounds_snapshot() if hot else
                        {g: (b.lb, b.ub) for g, b in bounds.items()}),
            certification=outcome,
        )
        self.network.advance_epoch()
        return result

    def handle_topology_event(self, event) -> int:
        """Drop the dead node's filter, known value and view entry;
        newborns get a filter lazily (their first epoch reports, the
        repartition step then installs one). Returns the number of
        filters invalidated.
        """
        invalidated = 0
        if event.failed:
            if self.filters.pop(event.node_id, None) is not None:
                invalidated += 1
                self._install_order = None
            self.known.pop(event.node_id, None)
            self._view.delete(event.node_id)
            # Filter / known state changed out-of-band of the column
            # maintenance sites; rebuild on the next columnar epoch.
            self._cols = None
        return invalidated

    def run(self, epochs: int) -> list[EpochResult]:
        """``epochs`` consecutive monitoring rounds."""
        return [self.run_epoch() for _ in range(epochs)]
