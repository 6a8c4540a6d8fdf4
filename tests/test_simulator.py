"""The epoch simulator: transport primitives and cost charging."""

import pytest

from repro.api import Deployment, EpochDriver
from repro.errors import ConfigurationError, RoutingError
from repro.network.link import RadioModel
from repro.network.messages import ControlMessage, QueryMessage
from repro.network.simulator import Network
from repro.network.topology import grid_topology, linear_topology
from repro.perf import WORKLOAD_QUERIES
from repro.scenarios import figure1_scenario, grid_rooms_scenario
from repro.sensing.board import SensorBoard


@pytest.fixture
def net():
    return Network(grid_topology(3))


class TestSendUp:
    def test_returns_parent(self, net):
        child = net.tree.sensor_ids[0]
        parent = net.send_up(child, ControlMessage(label="x"))
        assert parent == net.tree.parent(child)

    def test_charges_tx_to_sender_rx_to_parent(self, net):
        # Pick a sensor whose parent is another sensor (depth >= 2).
        child = next(n for n in net.tree.sensor_ids
                     if net.tree.parent(n) != net.sink_id)
        parent = net.tree.parent(child)
        net.send_up(child, ControlMessage(label="x"))
        assert net.ledger(child).tx > 0
        assert net.ledger(child).rx == 0
        assert net.ledger(parent).rx > 0
        assert net.ledger(parent).tx == 0

    def test_dead_node_cannot_send(self, net):
        child = next(n for n in net.tree.sensor_ids if net.tree.is_leaf(n))
        net.node(child).kill()
        with pytest.raises(RoutingError):
            net.send_up(child, ControlMessage(label="x"))

    def test_stats_recorded(self, net):
        net.send_up(net.tree.sensor_ids[0], ControlMessage(label="x", size=8))
        assert net.stats.messages == 1
        assert net.stats.payload_bytes == 8


class TestBroadcastDown:
    def test_single_tx_many_rx(self, net):
        children = net.tree.children(net.sink_id)
        net.broadcast_down(net.sink_id, QueryMessage(query_id=1))
        assert net.stats.messages == 1
        for child in children:
            assert net.ledger(child).rx > 0

    def test_skips_dead_children(self, net):
        children = net.tree.children(net.sink_id)
        net.node(children[0]).kill()
        live = net.broadcast_down(net.sink_id, QueryMessage(query_id=1))
        assert children[0] not in live

    def test_leaf_broadcast_is_free(self, net):
        leaf = next(n for n in net.tree.sensor_ids if net.tree.is_leaf(n))
        assert net.broadcast_down(leaf, QueryMessage(query_id=1)) == ()
        assert net.stats.messages == 0


class TestFloodDown:
    def test_every_nonleaf_broadcasts_once(self, net):
        nonleaves = [n for n in net.tree.node_ids
                     if net.tree.children(n)]
        sends = net.flood_down(lambda _: QueryMessage(query_id=1))
        assert sends == len(nonleaves)

    def test_none_suppresses_subtree_hop(self, net):
        sends = net.flood_down(
            lambda n: QueryMessage(query_id=1) if n == net.sink_id else None)
        assert sends == 1


class TestUnicastPaths:
    def test_to_sink_charges_per_hop(self):
        net = Network(linear_topology(4))
        hops = net.unicast_to_sink(4, ControlMessage(label="x"))
        assert hops == 4
        assert net.stats.messages == 4

    def test_from_sink_reverses_path(self):
        net = Network(linear_topology(3))
        hops = net.unicast_from_sink(3, ControlMessage(label="x"))
        assert hops == 3
        # Intermediate node 1 both received and transmitted.
        assert net.ledger(1).tx > 0
        assert net.ledger(1).rx > 0

    def test_sink_to_itself_is_free(self, net):
        assert net.unicast_from_sink(net.sink_id,
                                     ControlMessage(label="x")) == 0


class TestEpochMachinery:
    def test_converge_cast_order_children_first(self, net):
        order = net.converge_cast_order()
        position = {n: i for i, n in enumerate(order)}
        for node in order:
            parent = net.tree.parent(node)
            if parent != net.sink_id:
                assert position[node] < position[parent]

    def test_advance_epoch_charges_idle(self, net):
        node = net.tree.sensor_ids[0]
        net.advance_epoch()
        assert net.ledger(node).idle > 0
        assert net.epoch == 1

    def test_sample_all_uses_boards(self):
        scenario = figure1_scenario()
        readings = scenario.network.sample_all("sound")
        assert readings[7] == 78.0

    def test_groups_counts_live_members(self):
        scenario = figure1_scenario()
        assert scenario.network.groups() == {"A": 2, "B": 2, "C": 2, "D": 3}


class TestFailureInjection:
    def test_kill_repairs_tree(self):
        net = Network(grid_topology(3))
        victim = next(n for n in net.tree.sensor_ids
                      if net.tree.children(n))
        net.kill_node(victim)
        assert victim not in net.tree.node_ids
        assert not net.node(victim).alive

    def test_sink_cannot_be_killed(self, net):
        with pytest.raises(ConfigurationError):
            net.kill_node(net.sink_id)

    def test_bottleneck_energy(self, net):
        child = net.tree.children(net.sink_id)[0]
        net.send_up(child, ControlMessage(label="x", size=20))
        node_id, joules = net.bottleneck_energy()
        assert node_id == child
        assert joules > 0


class TestLossAccounting:
    def test_retransmissions_cost_energy(self):
        lossless = Network(grid_topology(2))
        lossy = Network(grid_topology(2),
                        radio=RadioModel(loss_probability=0.4,
                                         max_retries=100),
                        seed=5)
        for _ in range(30):
            child = lossless.tree.sensor_ids[0]
            lossless.send_up(child, ControlMessage(label="x"))
            lossy.send_up(child, ControlMessage(label="x"))
        assert lossy.stats.retransmissions > 0
        assert lossy.stats.tx_joules > lossless.stats.tx_joules


class TestSharedAcquisition:
    """Concurrent readers share one sampling plan per topology version
    and one readings row per epoch, whatever the type or identity of
    the id sequence they pass."""

    @pytest.fixture
    def mix(self, monkeypatch):
        """Four MINT sessions and a TJA query on a 16-sensor grid, with
        board-channel lookups and batch draws counted."""
        scenario = grid_rooms_scenario(side=4, rooms_per_axis=2, seed=3)
        network = scenario.network
        deployment = Deployment.from_scenario(scenario)
        for query in WORKLOAD_QUERIES:
            deployment.submit(query)
        counts = {"channel": 0, "batch": 0}
        channel = SensorBoard.channel

        def counted_channel(board, attribute):
            counts["channel"] += 1
            return channel(board, attribute)

        field = network.node(network.tree.sensor_ids[0]).board.channel(
            "sound")[0]
        batch_values = field.batch_values

        def counted_batch(ids, epoch):
            counts["batch"] += 1
            return batch_values(ids, epoch)

        monkeypatch.setattr(SensorBoard, "channel", counted_channel)
        monkeypatch.setattr(field, "batch_values", counted_batch)
        return network, EpochDriver(deployment), counts

    def test_one_plan_and_one_batch_per_epoch(self, mix):
        network, driver, counts = mix
        driver.run(3)
        assert counts["channel"] == len(network.alive_sensor_ids())
        assert counts["batch"] == 3
        assert all(network.node(i).samples_taken == 3
                   for i in network.alive_sensor_ids())

    def test_equal_ids_share_the_row(self, mix):
        network, driver, counts = mix
        driver.run(1)
        ids = network.alive_sensor_ids()
        row = network.read_many(list(ids), "sound")
        drawn = counts["batch"]
        assert network.read_many(tuple(ids), "sound") is row
        assert network.reading_column(list(ids), "sound") is not None
        assert counts["batch"] == drawn

    def test_kill_and_join_rebuild_the_plan(self, mix):
        network, driver, counts = mix
        driver.run(1)
        victim = next(n for n in network.tree.sensor_ids
                      if network.tree.is_leaf(n))
        network.kill_node(victim)
        driver.run(1)
        alive = len(network.alive_sensor_ids())
        assert counts["channel"] == (alive + 1) + alive
        network.join_node(victim, network.topology.positions[victim],
                          board=SensorBoard({"sound": network.node(
                              network.tree.sensor_ids[0]).board.channel(
                                  "sound")[0]}))
        before = counts["channel"]
        network.read_many(network.alive_sensor_ids(), "sound")
        assert counts["channel"] - before == alive + 1

    def test_dead_id_raises_like_a_scalar_read(self, mix):
        network, driver, _ = mix
        driver.run(1)
        ids = network.alive_sensor_ids()
        network.read_many(ids, "sound")  # row and plan cached for ids
        victim = ids[len(ids) // 2]
        network.node(victim).kill()
        with pytest.raises(ConfigurationError) as scalar:
            network.node(victim).read("sound", network.epoch)
        with pytest.raises(ConfigurationError) as batch:
            network.read_many(list(ids), "sound")
        assert str(batch.value) == str(scalar.value)
        # At the next epoch, before anything is sampled, the ids ahead
        # of the dead one are booked exactly as a scalar walk books
        # them, and the ones after it not at all.
        network.advance_epoch()
        before = [network.node(i).samples_taken for i in ids]
        with pytest.raises(ConfigurationError):
            network.read_many(ids, "sound")
        booked = [network.node(i).samples_taken - taken
                  for i, taken in zip(ids, before)]
        position = ids.index(victim)
        assert booked == [1] * position + [0] * (len(ids) - position)
