"""The optimized hot path is observationally identical to the
reference path.

The epoch loop's performance work (memoized fragment costs, cached
payload sizes, per-epoch traffic batching, topology caches, the fused
MINT update pass — see ``repro.network.hotpath``) must be *invisible*:
same answers, same :class:`~repro.network.stats.NetworkStats` counters
bit-for-bit, same per-phase snapshots, same energy ledgers, same RNG
consumption. These property tests drive random scenarios, ranks,
engines and churn schedules through both paths and compare everything.
"""

from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ChurnIntervention, Deployment, EpochDriver
from repro.core import Tja
from repro.core.aggregates import make_aggregate
from repro.errors import RoutingError
from repro.network import hotpath
from repro.network.churn import ChurnEvent, ChurnKind, ChurnSchedule
from repro.network.link import RadioModel
from repro.network.messages import ControlMessage
from repro.network.packets import (
    HEADER_BYTES,
    PAYLOAD_MTU,
    fragment,
    fragment_cached,
)
from repro.network.simulator import Network
from repro.network.topology import grid_topology
from repro.query.plan import Algorithm
from repro.scenarios import grid_rooms_scenario
from repro.sensing.columns import force_python_backend


def stats_signature(stats):
    """Every observable of a NetworkStats ledger, as comparable data."""
    return (
        stats.summary(),
        dict(stats.by_kind),
        dict(stats.bytes_by_kind),
        dict(stats.by_phase),
    )


def ledger_signature(network):
    return {
        node_id: (ledger.tx, ledger.rx, ledger.sensing, ledger.idle,
                  ledger.storage)
        for node_id, ledger in sorted(
            (i, network.ledger(i))
            for i in (network.sink_id, *network.tree.sensor_ids))
    }


def certification_signature(outcome):
    """Every observable of a CertificationOutcome, as comparable data
    (None for engines that never certify)."""
    if outcome is None:
        return None
    return (
        outcome.certified,
        outcome.threshold,
        outcome.ambiguous,
        tuple((i.key, i.score, i.lb, i.ub) for i in outcome.items),
    )


def answers_of(handle):
    if handle.is_historic:
        result = handle.historic_result
        if result is None:
            return None
        return tuple((i.key, i.score, i.lb, i.ub) for i in result.items)
    return tuple(
        (r.epoch, r.exact, r.probed,
         tuple((i.key, i.score, i.lb, i.ub) for i in r.items),
         certification_signature(r.certification))
        for r in handle.results
    )


QUERY_BY_ENGINE = {
    "mint": ("SELECT TOP {k} roomid, {agg}(sound) FROM sensors "
             "GROUP BY roomid EPOCH DURATION 1 min", None),
    "tag": ("SELECT TOP {k} roomid, {agg}(sound) FROM sensors "
            "GROUP BY roomid EPOCH DURATION 1 min", Algorithm.TAG),
    "centralized": ("SELECT TOP {k} roomid, {agg}(sound) FROM sensors "
                    "GROUP BY roomid EPOCH DURATION 1 min",
                    Algorithm.CENTRALIZED),
    "fila": ("SELECT TOP {k} nodeid, {agg}(sound) FROM sensors "
             "GROUP BY nodeid EPOCH DURATION 1 min", Algorithm.FILA),
    "tja": ("SELECT TOP {k} epoch, {agg}(sound) FROM sensors "
            "GROUP BY epoch WITH HISTORY 5 s EPOCH DURATION 1 s", None),
}


def run_workload(*, seed, k, agg, engines, epochs, churn_seed, loss=0.0):
    """One deterministic run; returns every observable as plain data.

    ``loss`` > 0 puts the deployment on a lossy radio: retransmissions
    then draw from the loss stream, so the observables also include
    the stream's next draw after the run and the link-layer drop that
    ended the run early, if one did. On a lossless radio a
    ``RoutingError`` is a bug and propagates.
    """
    scenario = grid_rooms_scenario(side=4, rooms_per_axis=2, seed=seed)
    network = scenario.network
    if loss:
        network.radio = dataclasses.replace(network.radio,
                                            loss_probability=loss)
    deployment = Deployment.from_scenario(scenario)
    interventions = []
    if churn_seed is not None:
        tree = scenario.network.tree
        victims = [n for n in tree.sensor_ids if tree.is_leaf(n)]
        victim = victims[churn_seed % len(victims)]
        schedule = ChurnSchedule([
            ChurnEvent(2, ChurnKind.DEATH, victim),
            ChurnEvent(3, ChurnKind.BIRTH, 99, position=(5.0, 5.0),
                       group=scenario.group_of.get(victim)),
        ])
        interventions.append(
            ChurnIntervention(schedule, board_for=scenario.board_for))
    driver = EpochDriver(deployment, interventions=interventions)
    handles = []
    for engine in engines:
        template, algorithm = QUERY_BY_ENGINE[engine]
        query = template.format(k=k, agg=agg)
        handles.append(deployment.submit(query, algorithm=algorithm))
    dropped = None
    try:
        driver.run(epochs)
    except RoutingError as exc:
        if not loss:
            raise
        dropped = str(exc)
    return (
        [answers_of(h) for h in handles],
        stats_signature(network.stats),
        [stats_signature(h.stats) for h in handles],
        ledger_signature(network),
        network.epoch,
        [h.state.value for h in handles],
        dropped,
        network._rng.random(),
    )


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    k=st.integers(1, 3),
    agg=st.sampled_from(["AVG", "MAX", "SUM", "MIN"]),
    engines=st.lists(
        st.sampled_from(sorted(QUERY_BY_ENGINE)),
        min_size=1, max_size=3, unique=True),
    epochs=st.integers(3, 7),
    churn_seed=st.one_of(st.none(), st.integers(0, 7)),
)
def test_hot_path_equals_reference_path(seed, k, agg, engines, epochs,
                                        churn_seed):
    """Answers, stats, per-session taps, per-phase snapshots and energy
    ledgers are identical — bit-for-bit — on both paths, across random
    scenarios, ranks, aggregates, engine mixes and churn schedules."""
    kwargs = dict(seed=seed, k=k, agg=agg, engines=engines,
                  epochs=epochs, churn_seed=churn_seed)
    with hotpath.reference_path():
        reference = run_workload(**kwargs)
    assert hotpath.enabled(), "reference_path() must restore the flag"
    hot = run_workload(**kwargs)
    assert hot == reference


@pytest.mark.parametrize("engine", ["mint", "tag", "fila", "tja"])
@pytest.mark.parametrize("churn_seed", [None, 1])
def test_each_engine_hot_equals_reference(engine, churn_seed):
    """Deterministic per-engine coverage: every engine with a fused
    hot-path pass (MINT's prune+update, TAG's aggregation, FILA's
    monitor+bounds, TJA's ranked LB and dense-row HJ) is held to the
    reference path individually — the property test above samples
    engine mixes, this pins each one."""
    kwargs = dict(seed=1234, k=2, agg="AVG", engines=[engine],
                  epochs=6, churn_seed=churn_seed)
    with hotpath.reference_path():
        reference = run_workload(**kwargs)
    assert run_workload(**kwargs) == reference


def test_all_engines_concurrently_hot_equals_reference():
    """The full five-engine mix sharing one deployment and one clock:
    cross-engine interleaving must not leak between the paths."""
    kwargs = dict(seed=77, k=2, agg="MAX",
                  engines=sorted(QUERY_BY_ENGINE), epochs=5,
                  churn_seed=3)
    with hotpath.reference_path():
        reference = run_workload(**kwargs)
    assert run_workload(**kwargs) == reference


@pytest.mark.parametrize("engines", [["mint"], ["tag"],
                                     sorted(QUERY_BY_ENGINE)],
                         ids=["mint", "tag", "mix"])
@pytest.mark.parametrize("churn_seed", [None, 1])
def test_lossy_sessions_hot_equal_reference(engines, churn_seed):
    """Session-level runs on a lossy radio: the fused passes ship by
    size through the retransmission branch of the unicast primitive,
    and must draw the same retransmissions from the same loss stream
    as the reference path's real messages."""
    kwargs = dict(seed=2024, k=2, agg="AVG", engines=engines, epochs=6,
                  churn_seed=churn_seed, loss=0.1)
    with hotpath.reference_path():
        reference = run_workload(**kwargs)
    assert run_workload(**kwargs) == reference


@pytest.mark.parametrize("engines", [["mint"], ["tag"],
                                     sorted(QUERY_BY_ENGINE)],
                         ids=["mint", "tag", "mix"])
def test_dropping_sessions_hot_equal_reference(engines):
    """A radio lossy enough to exhaust the retry budget: both paths
    raise the same RoutingError at the same point of the same epoch,
    with identical traffic and energy charged up to the drop."""
    kwargs = dict(seed=7, k=2, agg="MAX", engines=engines, epochs=6,
                  churn_seed=None, loss=0.7)
    with hotpath.reference_path():
        reference = run_workload(**kwargs)
    assert reference[6] is not None, "the run should end in a drop"
    assert run_workload(**kwargs) == reference


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    loss=st.floats(0.05, 0.4),
    payloads=st.lists(st.integers(0, 120), min_size=1, max_size=30),
)
def test_lossy_transport_equivalence(seed, loss, payloads):
    """With a lossy radio both paths draw the same retransmissions from
    the same RNG stream and record identical counters and drops."""

    def ship_all():
        network = Network(grid_topology(3),
                          radio=RadioModel(range_m=20.0,
                                           loss_probability=loss),
                          seed=seed)
        drops = 0
        for index, payload in enumerate(payloads):
            child = network.tree.sensor_ids[
                index % len(network.tree.sensor_ids)]
            try:
                network.send_up(child, ControlMessage(label="x",
                                                      size=payload))
            except Exception:
                drops += 1
        network.advance_epoch()
        return (stats_signature(network.stats), ledger_signature(network),
                drops, network._rng.random())

    with hotpath.reference_path():
        reference = ship_all()
    assert ship_all() == reference


def run_tja(*, seed, func, k, width, pool, loss, shape="random"):
    """One direct :class:`Tja` execution; returns every observable.

    Columns draw from a small ``pool`` of inexact decimals, so ties
    are common inside and across columns and float sums depend on
    their association order. Object ids start at 95, so
    ``str(object_id)`` order differs from numeric order. Some sensors
    have no series at all, some an empty one, and at least one
    interior node never participates. ``shape="cleanup"`` instead
    gives every participant a private peak and a shared runner-up
    epoch, which forces a CL expansion for AVG, SUM and MIN.
    """
    scenario = grid_rooms_scenario(side=4, rooms_per_axis=2, seed=seed)
    network = scenario.network
    if loss:
        network.radio = dataclasses.replace(network.radio,
                                            loss_probability=loss)
    tree = network.tree
    rng = random.Random(seed)
    interior = [n for n in tree.sensor_ids if not tree.is_leaf(n)]
    silent = interior[seed % len(interior)]
    epochs = range(95, 95 + width)
    series = {}
    for index, node in enumerate(tree.sensor_ids):
        roll = rng.random()
        if node == silent or roll < 0.1:
            continue
        if roll < 0.2:
            series[node] = {}
        elif shape == "cleanup":
            series[node] = {t: 0.0 for t in epochs}
            series[node][epochs[-1]] = 8.0
            series[node][epochs[index % (width - 1)]] = 10.0
        else:
            series[node] = {t: rng.choice(pool) for t in epochs}
    if not any(series.values()):
        series[tree.sensor_ids[0]] = {t: pool[0] for t in epochs}
    aggregate = make_aggregate(func, 0, 100)
    dropped = None
    result = None
    try:
        result = Tja(network, aggregate, k, series).execute()
    except RoutingError as exc:
        if not loss:
            raise
        dropped = str(exc)
    network.advance_epoch()
    outcome = None
    if result is not None:
        outcome = (
            tuple((i.key, i.score, i.lb, i.ub) for i in result.items),
            result.candidates,
            result.cleanup_rounds,
            dict(result.per_phase_bytes),
        )
    return (outcome, dropped, stats_signature(network.stats),
            ledger_signature(network), network._rng.random())


class TestTjaHotEqualsReference:
    """TJA's hot LB and HJ passes (one ranking per column, dense value
    rows, shipping by size) against the per-object reference phases:
    identical answers, candidate counts, clean-up rounds, per-phase
    bytes, stats, energy ledgers and loss-stream draws."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        func=st.sampled_from(["AVG", "SUM", "MIN", "MAX", "COUNT"]),
        k=st.integers(1, 6),
        width=st.integers(1, 14),
        pool=st.lists(st.floats(0.0, 10.0).map(lambda v: round(v, 1)),
                      min_size=1, max_size=6),
        loss=st.sampled_from([0.0, 0.0, 0.15]),
    )
    def test_hot_equals_reference(self, seed, func, k, width, pool, loss):
        kwargs = dict(seed=seed, func=func, k=k, width=width, pool=pool,
                      loss=loss)
        with hotpath.reference_path():
            reference = run_tja(**kwargs)
        assert run_tja(**kwargs) == reference

    @pytest.mark.parametrize("func", ["AVG", "SUM", "MIN"])
    @pytest.mark.parametrize("loss", [0.0, 0.15])
    def test_forced_cleanup_hot_equals_reference(self, func, loss):
        kwargs = dict(seed=3, func=func, k=1, width=12, pool=[0.0],
                      loss=loss, shape="cleanup")
        with hotpath.reference_path():
            reference = run_tja(**kwargs)
        outcome = reference[0]
        assert outcome is not None and outcome[2] == 1, \
            "the case should need one clean-up round"
        assert run_tja(**kwargs) == reference

    def test_dropping_radio_hot_equals_reference(self):
        """A radio lossy enough to exhaust the retry budget ends both
        paths with the same drop after the same traffic."""
        kwargs = dict(seed=11, func="AVG", k=3, width=10,
                      pool=[0.1, 0.2, 0.3], loss=0.7)
        with hotpath.reference_path():
            reference = run_tja(**kwargs)
        assert reference[1] is not None, "the run should end in a drop"
        assert run_tja(**kwargs) == reference


class TestFragmentMemo:
    """Boundary behaviour of the memoized fragment table."""

    def test_zero_byte_message_still_costs_one_frame(self):
        assert fragment_cached(0) == fragment(0)
        assert fragment_cached(0).packets == 1
        assert fragment_cached(0).air_bytes == HEADER_BYTES

    @pytest.mark.parametrize("multiple", [1, 2, 3, 7])
    def test_exact_mtu_multiples(self, multiple):
        payload = PAYLOAD_MTU * multiple
        cost = fragment_cached(payload)
        assert cost == fragment(payload)
        assert cost.packets == multiple
        assert cost.air_bytes == payload + multiple * HEADER_BYTES

    @pytest.mark.parametrize("payload", [1, PAYLOAD_MTU - 1, PAYLOAD_MTU,
                                         PAYLOAD_MTU + 1, 1000])
    def test_memo_matches_reference(self, payload):
        assert fragment_cached(payload) == fragment(payload)

    def test_memo_returns_shared_instances(self):
        assert fragment_cached(42) is fragment_cached(42)

    def test_custom_mtu_keys_separately(self):
        assert fragment_cached(30).packets == 2
        assert fragment_cached(30, 30).packets == 1

    @given(payload=st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_memo_equals_reference_everywhere(self, payload):
        assert fragment_cached(payload) == fragment(payload)


class TestReferencePathToggle:
    def test_toggle_restores_on_error(self):
        try:
            with hotpath.reference_path():
                assert not hotpath.enabled()
                raise ValueError("boom")
        except ValueError:
            pass
        assert hotpath.enabled()

    def test_nested_toggle(self):
        with hotpath.reference_path():
            with hotpath.reference_path():
                assert not hotpath.enabled()
            assert not hotpath.enabled()
        assert hotpath.enabled()


class TestPerPurposeRngStreams:
    """Churn recovery must not perturb the loss process (the old
    single-stream design made runs with a topologically-irrelevant
    join diverge from runs without it)."""

    def _monitor_traffic(self, with_join: bool):
        network = Network(grid_topology(3),
                          radio=RadioModel(range_m=20.0,
                                           loss_probability=0.2),
                          seed=7)
        sent = []
        sensor_ids = network.tree.sensor_ids
        for step in range(40):
            if with_join and step == 20:
                # A mote joins in radio range but never transmits any
                # session traffic: the loss outcomes of everything else
                # must be unaffected.
                network.join_node(99, (5.0, 5.0))
            child = sensor_ids[step % len(sensor_ids)]
            before = network.stats.retransmissions
            try:
                network.send_up(child, ControlMessage(label="m"))
                sent.append(network.stats.retransmissions - before)
            except Exception:
                sent.append(-1)
        return sent

    def test_join_does_not_shift_loss_stream(self):
        assert self._monitor_traffic(False) == self._monitor_traffic(True)

    def test_recovery_stream_is_deterministic_and_distinct(self):
        drawn = []
        for _ in range(2):
            network = Network(grid_topology(3), seed=3)
            drawn.append(network._recovery_rng.random())
        assert drawn[0] == drawn[1]
        # The recovery stream is derived from — not equal to — the
        # loss seed; sharing the sequence would re-couple the streams.
        assert random.Random(3).random() != drawn[0]


class TestColumnarEquivalence:
    """The columnar epoch kernel (``repro.network.columnar``) is part
    of the hot path and held to the same oracle: batched sensing, the
    value-keyed sampling-plan and row caches, the vectorized Zipf
    jitter and FILA's column-masked passes must be invisible — same
    answers, counters, ledgers and RNG draws as ``reference_path()``,
    under either column backend."""

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        engines=st.lists(st.sampled_from(sorted(QUERY_BY_ENGINE)),
                         min_size=1, max_size=3, unique=True),
        churn_seed=st.one_of(st.none(), st.integers(0, 7)),
    )
    def test_hot_equals_reference_either_backend(self, seed, engines,
                                                 churn_seed):
        kwargs = dict(seed=seed, k=2, agg="AVG", engines=engines,
                      epochs=5, churn_seed=churn_seed)
        with hotpath.reference_path():
            reference = run_workload(**kwargs)
        assert run_workload(**kwargs) == reference
        with force_python_backend():
            assert run_workload(**kwargs) == reference

    def test_columnar_equals_reference_path(self):
        """The hot path (columnar kernel included) and the unoptimized
        reference path produce identical observables on the full
        five-engine mix with churn."""
        kwargs = dict(seed=4321, k=2, agg="MAX",
                      engines=sorted(QUERY_BY_ENGINE), epochs=5,
                      churn_seed=2)
        with hotpath.reference_path():
            reference = run_workload(**kwargs)
        assert run_workload(**kwargs) == reference

    def test_python_backend_matches_numpy(self):
        """The pure-python fallback draws the same values as the numpy
        kernel (trivially true when numpy is absent — then both runs
        already use the fallback)."""
        kwargs = dict(seed=99, k=2, agg="SUM",
                      engines=["mint", "fila", "tag"], epochs=5,
                      churn_seed=1)
        default = run_workload(**kwargs)
        with force_python_backend():
            assert run_workload(**kwargs) == default


def zipf_fila_deployment(side: int, seed: int):
    """A ``side``×``side`` grid in 16 rooms over one shared
    ZipfEventField, monitored by a single FILA MAX top-25 session —
    the workload the columnar kernel was built for: one
    ``batch_values`` call covers the whole fleet and FILA's filters
    mostly hold, so the column-masked passes skip almost every row.
    ``margin=8.0 >= jitter`` keeps readings off the ``[lo, hi]`` rails,
    where clamped ties would drown the masks in ``known == value``
    coincidences. Returns ``(session, network)``."""
    from repro.core.aggregates import make_aggregate
    from repro.core.fila import Fila
    from repro.sensing.board import SensorBoard
    from repro.sensing.generators import ZipfEventField

    topology = grid_topology(side, spacing=10.0, radio_range=15.0)
    block = max(1, side // 4)
    room_of = {}
    for node_id in range(1, side * side + 1):
        row, col = divmod(node_id - 1, side)
        room_of[node_id] = f"R{min(row // block, 3)}{min(col // block, 3)}"
    zipf = ZipfEventField(room_of, lo=0.0, hi=100.0, skew=2.0,
                          jitter=6.0, seed=seed, margin=8.0)
    boards = {i: SensorBoard({"sound": zipf}) for i in room_of}
    network = Network(topology, boards=boards, group_of=room_of)
    session = Fila(network, make_aggregate("MAX", 0.0, 100.0), 25,
                   attribute="sound")
    return session, network


class TestZipfColumnarKernel:
    """The columnar kernel's anchor workload (shared ZipfEventField,
    hashed jitter, FILA MAX) on the hot path, on the pure-python
    backend and on the reference path: three runs, one stream."""

    @staticmethod
    def _stream():
        session, network = zipf_fila_deployment(8, seed=5)
        results = [
            (r.epoch, tuple(r.items), r.exact, dict(r.all_bounds))
            for r in session.run(8)
        ]
        joules = sum(n.ledger.total for n in network.nodes.values())
        samples = sum(n.samples_taken for n in network.nodes.values())
        return results, joules, samples, stats_signature(network.stats)

    def test_all_modes_identical(self):
        default = self._stream()
        with hotpath.reference_path():
            reference = self._stream()
        with force_python_backend():
            fallback = self._stream()
        assert default == reference
        assert default == fallback
