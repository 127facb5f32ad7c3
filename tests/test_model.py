import pytest
from hypothesis import given, strategies as st

import ledger_views
from ledger_views import RecordingWorld
from uswsim.model import (
    HostBand,
    MessageKind,
    NamedCondition,
    PreservationStatus,
    SimConfig,
    classify_condition,
    host_band,
    status_of,
)


class TestStatusOf:
    def test_zero_copies_is_red(self):
        assert status_of(0, 3, 5) is PreservationStatus.NONE_MADE

    def test_reaching_r_min_is_green(self):
        assert status_of(3, 3, 5) is PreservationStatus.AT_MIN

    def test_reaching_r_max_is_blue(self):
        assert status_of(5, 3, 5) is PreservationStatus.AT_MAX

    def test_partial_band(self):
        assert status_of(1, 3, 5) is PreservationStatus.PARTIAL
        assert status_of(2, 3, 5) is PreservationStatus.PARTIAL

    def test_degenerate_single_copy_family(self):
        assert status_of(1, 1, 1) is PreservationStatus.AT_MAX

    def test_numeric_values_are_1_to_4(self):
        assert [s.value for s in PreservationStatus] == [1, 2, 3, 4]

    def test_rejects_count_past_r_max(self):
        with pytest.raises(ValueError):
            status_of(6, 3, 5)
        with pytest.raises(ValueError):
            status_of(-1, 3, 5)

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            status_of(0, 5, 3)
        with pytest.raises(ValueError):
            status_of(0, 0, 3)

    def test_monotone_in_copy_count(self):
        # Increasing c never moves the status to a lower band.
        for r_min in range(1, 13):
            for r_max in range(r_min, 13):
                values = [status_of(c, r_min, r_max).value for c in range(r_max + 1)]
                assert values == sorted(values)


class TestHostBand:
    def test_undiscovered_is_grey(self):
        assert host_band(0, 5, False) is HostBand.GREY

    def test_discovered_empty_is_white(self):
        assert host_band(0, 5, True) is HostBand.WHITE

    def test_full_is_blue(self):
        assert host_band(5, 5, True) is HostBand.BLUE

    def test_one_fifth_is_red(self):
        assert host_band(1, 5, True) is HostBand.RED

    def test_thresholds_left_closed(self):
        # At exactly 25/50/75% the band steps up.
        assert host_band(1, 4, True) is HostBand.YELLOW
        assert host_band(2, 4, True) is HostBand.GREEN
        assert host_band(3, 4, True) is HostBand.BLUE

    def test_rejects_overflow(self):
        with pytest.raises(ValueError):
            host_band(6, 5, True)

    def test_band_monotone_in_used(self):
        order = [HostBand.WHITE, HostBand.RED, HostBand.YELLOW,
                 HostBand.GREEN, HostBand.BLUE]
        for cap in range(1, 11):
            bands = [host_band(used, cap, True) for used in range(cap + 1)]
            ranks = [order.index(b) for b in bands]
            assert ranks == sorted(ranks)


class TestClassifyCondition:
    def test_paper_setup_is_boundary_high(self):
        cfg = SimConfig(n_max=500, r_min=3, r_max=5, h_max=1000, host_capacity=5)
        assert classify_condition(cfg) is NamedCondition.BOUNDARY_HIGH

    def test_doubled_capacity_is_feast(self):
        cfg = SimConfig(n_max=500, r_min=3, r_max=5, h_max=1000, host_capacity=1000)
        assert classify_condition(cfg) is NamedCondition.FEAST

    def test_starved_setup_is_famine(self):
        cfg = SimConfig(n_max=10, r_min=3, r_max=5, h_max=4, host_capacity=5)
        assert classify_condition(cfg) is NamedCondition.FAMINE

    def test_exact_minimum_is_boundary_low(self):
        cfg = SimConfig(n_max=10, r_min=2, r_max=4, h_max=4, host_capacity=5)
        assert classify_condition(cfg) is NamedCondition.BOUNDARY_LOW

    def test_between_bounds_is_straddle(self):
        cfg = SimConfig(n_max=10, r_min=2, r_max=4, h_max=5, host_capacity=5)
        assert classify_condition(cfg) is NamedCondition.STRADDLE

    @given(n=st.integers(1, 200), r_min=st.integers(1, 8), r_span=st.integers(0, 8),
           h=st.integers(1, 400), cap=st.integers(0, 12))
    def test_total_partition(self, n, r_min, r_span, h, cap):
        cfg = SimConfig(n_max=n, r_min=r_min, r_max=r_min + r_span, h_max=h,
                        host_capacity=cap)
        cond = classify_condition(cfg)
        d_min, d_max = n * r_min, n * (r_min + r_span)
        supply = h * cap
        expected = (
            NamedCondition.FAMINE if supply < d_min
            else NamedCondition.BOUNDARY_LOW if supply == d_min
            else NamedCondition.STRADDLE if supply < d_max
            else NamedCondition.BOUNDARY_HIGH if supply <= 2 * d_max
            else NamedCondition.FEAST
        )
        assert cond is expected


class TestSimConfig:
    def test_defaults_match_reference_run(self):
        cfg = SimConfig()
        assert (cfg.n_max, cfg.h_max, cfg.r_min, cfg.r_max, cfg.host_capacity) == \
            (500, 1000, 3, 5, 5)

    @pytest.mark.parametrize("kwargs", [
        {"r_min": 6, "r_max": 5},
        {"r_min": 0},
        {"n_max": 0},
        {"h_max": 0},
        {"bin_size": 0},
        {"intro_interval": 0},
        {"link_probability": 0.0},
        {"link_probability": 1.5},
        {"extra_link_fraction": -0.1},
        {"max_events": 0},
        {"seed": -1},
    ])
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            SimConfig(**kwargs)


class TestMessage:
    def test_self_message_rejected(self):
        world = RecordingWorld(SimConfig(n_max=2, h_max=2))
        with pytest.raises(ValueError):
            world.send(MessageKind.CONTACT, 1, 1)
        assert world.ledger.total == 0
        assert world.rows == []

    def test_do_and_host_endpoints_differ(self):
        # DO 1 and host 1 are different endpoints: the kind says which is which.
        world = RecordingWorld(SimConfig(n_max=2, h_max=2))
        world.send(MessageKind.COPY_REQUEST, 1, 1)
        assert ledger_views.do_sent(world) == {1: 1}
        assert ledger_views.host_received(world) == {1: 1}
