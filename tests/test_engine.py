import hashlib
import json

import pytest

from uswsim.engine import (
    Phase,
    World,
    detect_steady_state,
    phase_of,
    run,
)
from uswsim.model import MessageKind, PolicyKind, SimConfig
from uswsim.preservation import Family


class TestRunBasics:
    def test_single_do_single_host_settles_immediately(self):
        # The only host is its own home, so no copy is ever possible.
        result = run(SimConfig(n_max=1, h_max=1, policy=PolicyKind.MOST))
        assert result.terminated_by == "steady_state"
        assert result.families[1].copy_count == 0
        assert result.ledger.total == 0
        assert result.final_effectiveness == 0.0

    def test_all_dos_introduced_in_order_and_on_schedule(self):
        cfg = SimConfig(n_max=30, h_max=60, seed=4)
        result = run(cfg)
        intro_ts = [result.families[do].intro_t for do in range(1, 31)]
        assert intro_ts == sorted(intro_ts)
        assert intro_ts[-1] <= cfg.intro_interval * cfg.n_max
        assert intro_ts[0] == 1

    def test_determinism_same_seed_same_world(self):
        cfg = SimConfig(n_max=60, h_max=120, seed=11, policy=PolicyKind.MODERATE)
        a, b = run(cfg), run(cfg)
        assert a.steady_state_t == b.steady_state_t
        assert a.ledger.total == b.ledger.total
        assert a.graph.edges() == b.graph.edges()
        assert {d: f.copy_count for d, f in a.families.items()} == \
               {d: f.copy_count for d, f in b.families.items()}
        assert a.copy_events == b.copy_events

    def test_different_seeds_differ(self):
        base = SimConfig(n_max=60, h_max=120, seed=1)
        other = SimConfig(n_max=60, h_max=120, seed=2)
        assert run(base).ledger.total != run(other).ledger.total

    def test_max_events_backstop(self):
        result = run(SimConfig(n_max=50, h_max=100, max_events=200))
        assert result.terminated_by == "max_events"
        assert result.final_t == 200

    def test_series_lengths_cover_run(self):
        result = run(SimConfig(n_max=40, h_max=80, seed=3))
        bins = -(-result.final_t // result.config.bin_size)  # ceil
        assert len(result.bin_ts) == bins
        assert len(result.status_series) == bins
        assert len(result.host_series) == bins
        assert len(result.effectiveness_series) == bins


class TestConservation:
    @pytest.mark.parametrize("policy", list(PolicyKind))
    def test_slots_equal_copies_and_messages_balance(self, policy):
        checks = []

        def hook(world, event):
            checks.append(world.copies_total == world.slots_used_total)

        result = run(SimConfig(n_max=50, h_max=100, seed=6, policy=policy), hook)
        assert all(checks)
        ledger = result.ledger
        assert ledger.total_sent == ledger.total_received == ledger.total
        copies = sum(f.copy_count for f in result.families.values())
        slots = sum(h.used for h in result.hosts.values())
        assert copies == slots

    def test_family_invariants_at_end(self):
        result = run(SimConfig(n_max=80, h_max=160, seed=9, policy=PolicyKind.MOST))
        for fam in result.families.values():
            assert fam.copy_count <= fam.r_max
            assert fam.home_host not in fam.copies
            hosts = list(fam.copies)
            assert len(hosts) == len(set(hosts))
        for host in result.hosts.values():
            assert host.used <= host.capacity
            for do in host.foreign:
                assert host.host_id in result.families[do].copies

    def test_bin_sums_match_totals(self):
        result = run(SimConfig(n_max=50, h_max=100, seed=2))
        ledger = result.ledger
        assert sum(ledger.sys_sent_bins.values()) == ledger.total
        for do, bins in ledger.do_sent_bins.items():
            assert sum(bins.values()) == ledger.do_sent[do]
        assert ledger.phase_messages[Phase.GROWTH] + \
            ledger.phase_messages[Phase.MAINTENANCE] == ledger.total


class TestSteadyState:
    def test_absorbing_under_feast(self):
        # Everyone reaches r_max, nothing is left to do.
        cfg = SimConfig(n_max=30, h_max=60, host_capacity=60, seed=5,
                        policy=PolicyKind.MOST)
        result = run(cfg)
        assert result.terminated_by == "steady_state"
        assert result.sacrifices == 0  # feast never needs them

    def test_feast_all_at_r_max_is_steady(self):
        cfg = SimConfig(n_max=30, h_max=60, host_capacity=60, seed=5,
                        r_min=1, r_max=2, policy=PolicyKind.MOST)
        world = World(cfg)
        while world.introduced < cfg.n_max or world.queue:
            if world.introduced < cfg.n_max and world.t % cfg.intro_interval == 0:
                world.t += 1
                world.introduce_do()
            elif world.queue:
                world.t += 1
                item = world.queue.popleft()
                if item[0] == 0:
                    world._process_wander(item[1])
                elif item[0] == 1:
                    world._process_place(item[1], item[2])
                elif item[0] == 2:
                    world._process_announce(item[1], item[2])
                else:
                    world._process_chase(item[1])
            else:
                world.t += 1
        assert all(f.copy_count == f.r_max for f in world.families.values())
        assert detect_steady_state(world)

    def test_pending_action_is_not_steady(self):
        cfg = SimConfig(n_max=1, h_max=1)
        world = World(cfg)
        world.t += 1
        world.introduce_do()
        # The first-connection attempt is still queued.
        assert world.queue
        assert not detect_steady_state(world)

    def test_available_donor_blocks_steady_state(self):
        # Three isolated families; the needy one knows a full host whose
        # resident sits above its r_min, so a sacrifice is still possible.
        from uswsim.preservation import _store_replica
        cfg = SimConfig(n_max=3, h_max=10, host_capacity=1, r_min=2, r_max=3)
        world = World(cfg)
        world.introduced = 3
        for do, home in ((1, 1), (2, 2), (3, 3)):
            world.discover_host(home)
            fam = Family(do, home, cfg.r_min, cfg.r_max, 0)
            fam.connected = True
            world.families[do] = fam
            world.graph.add_node(do)
            world.status_counts[0] += 1
            world.connected_order.append(do)
        donor = world.families[1]
        for h in (4, 5, 6):
            _store_replica(donor, world.discover_host(h), world)
        needy = world.families[2]
        needy.known_hosts.add(4)
        assert not world.queue
        assert not detect_steady_state(world)
        # Forget the full host again: families 2 and 3 know nothing
        # beyond their own homes, family 1 is already at r_max.
        needy.known_hosts.discard(4)
        assert detect_steady_state(world)


class TestPhases:
    def test_growth_before_first_introduction(self):
        world = World(SimConfig(n_max=5, h_max=10))
        assert phase_of(world) is Phase.GROWTH

    def test_maintenance_after_all_connected(self):
        result = run(SimConfig(n_max=40, h_max=80, seed=7))
        assert result.phase_boundary_t is not None
        assert result.phase_boundary_t <= result.final_t

    def test_one_wanderer_keeps_growth(self):
        cfg = SimConfig(n_max=2, h_max=10, link_probability=0.5, seed=1)
        world = World(cfg)
        world.t += 1
        world.introduce_do()
        world.t += 1
        world.introduce_do()
        assert world.wanderers
        assert phase_of(world) is Phase.GROWTH


class TestMessageLedger:
    def test_bin_index_by_floor_division(self):
        world = World(SimConfig(n_max=2, h_max=2, bin_size=100))
        world.t = 250
        world.send(MessageKind.CONTACT, 1, 2)
        assert world.ledger.do_sent_bins == {1: {2: 1}}
        assert world.ledger.do_received_bins == {2: {2: 1}}
        assert world.ledger.sys_sent_bins == world.ledger.sys_received_bins == {2: 1}

    def test_each_message_counts_once_sent_once_received(self):
        world = World(SimConfig(n_max=2, h_max=2, bin_size=100))
        for t in range(7):
            world.t = t
            world.send(MessageKind.CONTACT, 1, 2)
        ledger = world.ledger
        assert ledger.total == 7
        assert ledger.total_sent == 7
        assert ledger.total_received == 7
        assert ledger.do_sent == {1: 7}
        assert ledger.do_received == {2: 7}
        assert ledger.kind_counts == {MessageKind.CONTACT: 7}

    def test_host_endpoints_tracked_separately(self):
        world = World(SimConfig(n_max=2, h_max=10))
        world.t = 10
        world.send(MessageKind.COPY_REQUEST, 1, 9)
        world.send(MessageKind.COPY_ACK, 9, 1)
        ledger = world.ledger
        assert ledger.do_sent == {1: 1}
        assert ledger.host_received == {9: 1}
        assert ledger.host_sent == {9: 1}
        assert ledger.do_received == {1: 1}
        assert 9 not in ledger.do_received


# Every view of the ledger for SimConfig(n_max=60, h_max=120, seed=8) under
# each policy, as the earlier dict-per-view ledger reported them: kind counts,
# phase counts, and the sha256 hex digest of
# json.dumps({name: getattr(ledger, name) for name in LEDGER_VIEWS},
# sort_keys=True).encode().
LEDGER_VIEWS = ("do_sent", "do_received", "host_sent", "host_received", "do_sent_bins",
                "do_received_bins", "sys_sent_bins", "sys_received_bins")
PINNED_LEDGERS = {
    PolicyKind.LEAST: (
        {"contact": 108, "contact_reply": 108, "copy_ack": 266, "copy_deny": 109,
         "copy_request": 375, "host_announce": 590, "link_ack": 231, "link_request": 231,
         "sacrifice_directive": 73},
        {"growth": 2047, "maintenance": 44},
        "91488c0014acfe299d8f486d349ebcb3df2a5ecfa5a9674a0e03f0dd98d7e890"),
    PolicyKind.MODERATE: (
        {"contact": 106, "contact_reply": 106, "copy_ack": 354, "copy_deny": 105,
         "copy_request": 459, "host_announce": 1114, "link_ack": 237, "link_request": 237,
         "sacrifice_directive": 117},
        {"growth": 2752, "maintenance": 83},
        "55d15b122b00a4205ef507c7211bddad3f1b6ab753154d6cc792193465cee73c"),
    PolicyKind.MOST: (
        {"contact": 106, "contact_reply": 106, "copy_ack": 361, "copy_deny": 163,
         "copy_request": 524, "host_announce": 1197, "link_ack": 237, "link_request": 237,
         "sacrifice_directive": 120},
        {"growth": 2940, "maintenance": 111},
        "997699a0ad1bc3bf4d0a8695ddd74d8ed044fa54669f8db217968ffb5e9acd03"),
}


@pytest.mark.parametrize("policy", list(PolicyKind))
def test_ledger_views_pinned(policy):
    kinds, phases, views_sha256 = PINNED_LEDGERS[policy]
    ledger = run(SimConfig(n_max=60, h_max=120, seed=8, policy=policy)).ledger
    assert {k.value: n for k, n in ledger.kind_counts.items()} == kinds
    assert {p.value: n for p, n in ledger.phase_messages.items()} == phases
    views = {name: getattr(ledger, name) for name in LEDGER_VIEWS}
    dump = json.dumps(views, sort_keys=True).encode()
    assert hashlib.sha256(dump).hexdigest() == views_sha256


class TestEffectivenessSeries:
    def test_maintenance_dips_bounded_by_copy_removals(self):
        # Once everyone is introduced, effectiveness only retreats when a
        # sacrifice removes a copy, and then by at most one status step of
        # one family per removal.
        result = run(SimConfig(n_max=60, h_max=120, seed=8, policy=PolicyKind.MOST))
        boundary = result.phase_boundary_t
        assert boundary is not None
        n = result.config.n_max
        series = result.effectiveness_series
        ts = result.bin_ts
        for i in range(1, len(series)):
            if ts[i - 1] < boundary:
                continue
            removed = sum(1 for t, _, _, delta in result.copy_events
                          if delta < 0 and ts[i - 1] < t <= ts[i])
            floor = series[i - 1] - removed * (1 / 3) / n - 1e-9
            assert series[i] >= floor
