"""Synthetic field generators: determinism, bounds, composition."""

import pytest

from repro.errors import ConfigurationError
from repro.network import columnar
from repro.network.columnar import hash01_column
from repro.sensing.generators import (
    ConstantField,
    DiurnalField,
    GaussianNoiseField,
    RandomWalkField,
    RoomField,
    TableField,
    UniformRandomField,
    ZipfEventField,
    _cell_hash01,
)
from repro.sensing.modalities import get_modality


class TestConstantField:
    def test_returns_pinned_values(self):
        field = ConstantField({1: 40.0, 2: 74.0})
        assert field.value(1, 0) == 40.0
        assert field.value(2, 99) == 74.0

    def test_default_for_unknown_node(self):
        assert ConstantField({}, default=7.0).value(5, 0) == 7.0


class TestUniformRandomField:
    def test_deterministic_per_cell(self):
        a = UniformRandomField(0, 100, seed=4)
        b = UniformRandomField(0, 100, seed=4)
        assert a.value(3, 17) == b.value(3, 17)

    def test_order_independent(self):
        field = UniformRandomField(0, 100, seed=4)
        later = field.value(9, 5)
        earlier = field.value(1, 1)
        fresh = UniformRandomField(0, 100, seed=4)
        assert fresh.value(1, 1) == earlier
        assert fresh.value(9, 5) == later

    def test_within_bounds(self):
        field = UniformRandomField(10, 20, seed=0)
        values = [field.value(n, t) for n in range(5) for t in range(20)]
        assert all(10 <= v <= 20 for v in values)

    def test_different_seeds_differ(self):
        a = UniformRandomField(0, 100, seed=1).value(0, 0)
        b = UniformRandomField(0, 100, seed=2).value(0, 0)
        assert a != b

    def test_inverted_bounds_rejected(self):
        with pytest.raises(ConfigurationError):
            UniformRandomField(5, 1)


class TestRandomWalkField:
    def test_stays_in_bounds(self):
        walk = RandomWalkField(start=50, step=20, lo=0, hi=100, seed=1)
        values = [walk.value(1, t) for t in range(200)]
        assert all(0 <= v <= 100 for v in values)

    def test_temporal_correlation_bounded_by_step(self):
        walk = RandomWalkField(start=50, step=3, lo=0, hi=100, seed=2)
        values = [walk.value(1, t) for t in range(50)]
        deltas = [abs(b - a) for a, b in zip(values, values[1:])]
        assert max(deltas) <= 3.0 + 1e-12

    def test_random_access_matches_sequential(self):
        sequential = RandomWalkField(start=50, step=5, lo=0, hi=100, seed=3)
        seq = [sequential.value(2, t) for t in range(10)]
        random_access = RandomWalkField(start=50, step=5, lo=0, hi=100, seed=3)
        assert random_access.value(2, 9) == seq[9]
        assert random_access.value(2, 4) == seq[4]

    def test_nodes_walk_independently(self):
        walk = RandomWalkField(start=50, step=5, lo=0, hi=100, seed=4)
        a = [walk.value(1, t) for t in range(20)]
        b = [walk.value(2, t) for t in range(20)]
        assert a != b


class TestDiurnalField:
    def test_periodicity(self):
        field = DiurnalField(mean=20, amplitude=10, period_epochs=24, seed=0)
        assert field.value(1, 0) == pytest.approx(field.value(1, 24))

    def test_amplitude_bounds(self):
        field = DiurnalField(mean=20, amplitude=10, period_epochs=24, seed=0)
        values = [field.value(1, t) for t in range(48)]
        assert all(10 - 1e-9 <= v <= 30 + 1e-9 for v in values)

    def test_phase_differs_between_nodes(self):
        field = DiurnalField(mean=20, amplitude=10, period_epochs=24, seed=0)
        assert field.value(1, 0) != field.value(2, 0)

    def test_bad_period_rejected(self):
        with pytest.raises(ConfigurationError):
            DiurnalField(20, 10, 0)


class TestZipfEventField:
    GROUPS = {i: i % 4 for i in range(1, 13)}

    def test_zero_skew_levels_are_equal(self):
        field = ZipfEventField(self.GROUPS, 0, 100, skew=0.0, seed=1)
        levels = {field.group_level(g) for g in range(4)}
        assert len(levels) == 1

    def test_high_skew_spreads_levels(self):
        field = ZipfEventField(self.GROUPS, 0, 100, skew=1.5, seed=1)
        levels = sorted(field.group_level(g) for g in range(4))
        assert levels[0] < levels[-1] / 2

    def test_values_track_group_level(self):
        field = ZipfEventField(self.GROUPS, 0, 100, skew=1.0,
                               jitter=2.0, seed=1)
        for node, group in self.GROUPS.items():
            value = field.value(node, 0)
            assert abs(value - field.group_level(group)) <= 2.0 + 1e-9

    def test_unknown_node_reads_floor(self):
        field = ZipfEventField(self.GROUPS, 5, 100, skew=1.0, seed=1)
        assert field.value(999, 0) == 5

    def test_negative_skew_rejected(self):
        with pytest.raises(ConfigurationError):
            ZipfEventField(self.GROUPS, 0, 100, skew=-1)


class TestRoomField:
    ROOMS = {1: "A", 2: "A", 3: "B", 4: "B"}

    def test_same_room_sensors_read_close(self):
        field = RoomField(self.ROOMS, sensor_sigma=1.0, seed=5)
        for t in range(10):
            assert abs(field.value(1, t) - field.value(2, t)) < 8.0

    def test_room_level_is_shared_truth(self):
        field = RoomField(self.ROOMS, sensor_sigma=0.0, seed=5)
        assert field.value(1, 3) == pytest.approx(field.room_level("A", 3))

    def test_unknown_node_reads_floor(self):
        field = RoomField(self.ROOMS, lo=2.0, seed=5)
        assert field.value(99, 0) == 2.0

    def test_deterministic(self):
        a = RoomField(self.ROOMS, seed=5).value(3, 7)
        b = RoomField(self.ROOMS, seed=5).value(3, 7)
        assert a == b


class TestTableField:
    def test_replays_exact_cells(self):
        table = TableField([{1: 5.0}, {1: 6.0}])
        assert table.value(1, 0) == 5.0
        assert table.value(1, 1) == 6.0

    def test_length(self):
        assert len(TableField([{1: 0.0}] * 3)) == 3

    def test_out_of_range_raises_without_cycle(self):
        with pytest.raises(ConfigurationError):
            TableField([{1: 5.0}]).value(1, 1)

    def test_cycle_wraps(self):
        table = TableField([{1: 5.0}, {1: 6.0}], cycle=True)
        assert table.value(1, 2) == 5.0

    def test_empty_table_rejected(self):
        with pytest.raises(ConfigurationError):
            TableField([])


class TestComposition:
    def test_gaussian_noise_wraps_base(self):
        base = ConstantField({1: 50.0})
        noisy = GaussianNoiseField(base, sigma=0.0, seed=0)
        assert noisy.value(1, 0) == 50.0

    def test_bounded_quantizes_to_modality(self):
        sound = get_modality("sound")
        field = ConstantField({1: 42.42})
        value = field.bounded(sound, 1, 0)
        assert value == sound.quantize(42.42)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ConfigurationError):
            GaussianNoiseField(ConstantField({}), sigma=-1.0)


class TestCellHashRNG:
    """The counter-based jitter RNG (``_cell_hash01``) and its
    vectorized twin (``repro.network.columnar.hash01_column``) draw
    the same bits for the same (seed, node, epoch) cell — the scalar
    splitmix64 finalizer masks to 64 bits exactly where numpy's uint64
    arithmetic wraps, so the columns are pinned bit-for-bit."""

    CELLS = [
        (11, tuple(range(1, 41)), 0),
        (11, (1, 9, 400, 10**6), 12345),
        (-3, (0, 7), 2**40),
        (0, (1,), 0),
    ]

    def test_column_matches_scalar(self):
        for seed, ids, epoch in self.CELLS:
            column = hash01_column(seed, ids, epoch)
            assert list(column) == [_cell_hash01(seed, n, epoch)
                                    for n in ids]

    def test_column_matches_scalar_python_backend(self):
        with columnar.force_python_backend():
            for seed, ids, epoch in self.CELLS:
                column = hash01_column(seed, ids, epoch)
                assert list(column) == [_cell_hash01(seed, n, epoch)
                                        for n in ids]

    def test_unit_interval_and_spread(self):
        draws = [_cell_hash01(1, n, e)
                 for n in range(50) for e in range(4)]
        assert all(0.0 <= d < 1.0 for d in draws)
        assert len(set(draws)) == len(draws)


class TestBatchValues:
    """``batch_values`` is a drop-in for the scalar ``value`` loop on
    both cluster fields, under either numeric backend, including
    unenrolled ids (which read the floor)."""

    GROUPS = {i: i % 4 for i in range(1, 21)}
    ROOMS = {i: ("A" if i % 2 else "B") for i in range(1, 21)}

    def test_zipf_batch_matches_scalar_loop(self):
        field = ZipfEventField(self.GROUPS, 0, 100, skew=1.2,
                               jitter=3.0, seed=7, margin=4.0)
        ids = tuple(range(1, 21)) + (999,)
        for epoch in (0, 5, 1_000_000):
            assert field.batch_values(ids, epoch) == [
                field.value(n, epoch) for n in ids]

    def test_zipf_batch_matches_under_python_backend(self):
        field = ZipfEventField(self.GROUPS, 0, 100, skew=1.2,
                               jitter=3.0, seed=7, margin=4.0)
        ids = tuple(range(1, 21)) + (999,)
        with columnar.force_python_backend():
            fallback = field.batch_values(ids, 5)
        assert fallback == field.batch_values(ids, 5)

    def test_room_batch_matches_scalar_loop(self):
        field = RoomField(self.ROOMS, seed=7)
        ids = tuple(range(1, 21)) + (999,)
        for epoch in (0, 5, 42):
            assert field.batch_values(ids, epoch) == [
                field.value(n, epoch) for n in ids]

    def test_zipf_batch_cache_invalidated_by_enrollment(self):
        """The memoized level column is keyed on the id tuple's
        identity *and* the membership version: enrolling a newborn
        into a cluster must flow into the very next batch over the
        same tuple."""
        field = ZipfEventField(self.GROUPS, 0, 100, skew=1.0,
                               jitter=2.0, seed=3)
        ids = (1, 2, 3, 99)
        first = field.batch_values(ids, 0)
        assert first[3] == 0.0  # unenrolled: reads the floor
        field.enroll(99, 2)
        assert field.batch_values(ids, 0) == [
            field.value(n, 0) for n in ids]


class TestZipfMargin:
    GROUPS = {i: i % 4 for i in range(1, 13)}

    def test_levels_inset_by_margin(self):
        field = ZipfEventField(self.GROUPS, 0, 100, skew=2.0, seed=1,
                               margin=8.0)
        levels = [field.group_level(g) for g in range(4)]
        assert max(levels) == 100.0 - 8.0
        assert all(8.0 <= level <= 92.0 for level in levels)

    def test_margin_at_least_jitter_never_saturates(self):
        field = ZipfEventField(self.GROUPS, 0, 100, skew=2.0,
                               jitter=6.0, seed=1, margin=8.0)
        values = [field.value(n, e)
                  for n in self.GROUPS for e in range(30)]
        assert all(0.0 < v < 100.0 for v in values)

    def test_default_margin_preserves_saturating_levels(self):
        field = ZipfEventField(self.GROUPS, 0, 100, skew=2.0, seed=1)
        assert max(field.group_level(g) for g in range(4)) == 100.0

    @pytest.mark.parametrize("margin", [-1.0, 60.0])
    def test_invalid_margin_rejected(self, margin):
        with pytest.raises(ConfigurationError):
            ZipfEventField(self.GROUPS, 0, 100, skew=1.0,
                           margin=margin)


class TestClusterEnrollment:
    """Both cluster fields share one enrollment code path
    (``ClusterField.enroll``): a churn newborn's very first sample is
    indistinguishable from a mote deployed in that cluster from the
    start, under either field."""

    def test_newborn_first_sample_matches_cluster_zipf(self):
        groups = {i: i % 3 for i in range(1, 10)}
        field = ZipfEventField(groups, 0, 100, skew=1.0, jitter=2.0,
                               seed=5)
        field.enroll(99, 1)
        value = field.value(99, 0)
        assert abs(value - field.group_level(1)) <= 2.0 + 1e-9
        born_with = ZipfEventField({**groups, 99: 1}, 0, 100,
                                   skew=1.0, jitter=2.0, seed=5)
        assert value == born_with.value(99, 0)

    def test_newborn_first_sample_matches_cluster_room(self):
        rooms = {1: "A", 2: "B"}
        field = RoomField(rooms, sensor_sigma=1.0, seed=5)
        field.enroll(99, "A")
        born_with = RoomField({**rooms, 99: "A"}, sensor_sigma=1.0,
                              seed=5)
        assert field.value(99, 3) == born_with.value(99, 3)

    def test_unknown_cluster_rejected_by_both(self):
        with pytest.raises(ConfigurationError):
            ZipfEventField({1: 0}, 0, 100, skew=1.0, seed=1).enroll(9, 7)
        with pytest.raises(ConfigurationError):
            RoomField({1: "A"}, seed=1).enroll(9, "Z")
