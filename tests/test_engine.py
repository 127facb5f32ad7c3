import hashlib
import json
from dataclasses import replace

import pytest

import ledger_views
from audit import add_family, audit, graph_violations, make_world, trail_violations
from ledger_views import RecordingWorld, recorded_run
from uswsim.analysis import emit_timeseries_csv, summary_dict
from uswsim.engine import World, run
from uswsim.model import MessageKind, PolicyKind, SimConfig
from uswsim.preservation import PlaceOutcome, announce_new_host, place_copy


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

    def test_run_that_drains_at_the_cap_is_steady(self):
        free = run(SimConfig(n_max=30, h_max=60, seed=5))
        assert free.terminated_by == "steady_state"
        capped = run(replace(free.config, max_events=free.final_t))
        assert capped.terminated_by == "steady_state"
        assert capped.steady_state_t == free.steady_state_t == free.final_t
        want, got = summary_dict(free), summary_dict(capped)
        assert got["config"].pop("max_events") == free.final_t
        want["config"].pop("max_events")
        assert got == want
        cut = run(replace(free.config, max_events=free.final_t - 1))
        assert cut.terminated_by == "max_events"
        assert cut.steady_state_t is None

    @pytest.mark.parametrize("max_events, end", [(100_000, "steady_state"),
                                                 (437, "max_events")])
    def test_hook_sees_every_event_that_events_yields(self, max_events, end):
        # 30 DOs arrive every 15 events from t=1, the last at t=436; the run
        # drains a few events later, so a cut at 437 comes after every arrival.
        cfg = SimConfig(n_max=30, h_max=60, seed=5, max_events=max_events)
        seen = []
        result = run(cfg, invariant_hook=lambda w, event: seen.append((w, w.t, event)))
        world = World(cfg)
        stepped = [(world.t, event) for event in world.events()]
        assert all(w is result for w, _, _ in seen)
        assert [(t, event) for _, t, event in seen] == stepped
        assert [t for t, _ in stepped] == list(range(1, result.final_t + 1))
        assert [event for _, event in stepped].count("introduce") == cfg.n_max
        assert result.terminated_by == world.terminated_by == end
        assert result.bin_ts == world.bin_ts and result.bin_ts[-1] == result.final_t

    def test_series_lengths_cover_run(self):
        result = run(SimConfig(n_max=40, h_max=80, seed=3))
        bins = -(-result.final_t // result.config.bin_size)  # ceil
        assert len(result.bin_ts) == bins
        assert len(result.status_series) == bins
        assert len(result.host_series) == bins
        assert len(result.effectiveness_series) == bins


class TestConservation:
    @pytest.mark.parametrize("cfg", [
        *(SimConfig(n_max=50, h_max=100, seed=6, policy=p) for p in PolicyKind),
        SimConfig(n_max=80, h_max=160, seed=9, policy=PolicyKind.MOST),
        SimConfig(n_max=300, h_max=300, host_capacity=600, seed=4, policy=PolicyKind.MOST),
    ], ids=["least", "moderate", "most", "most-n80", "feast-n300"])
    def test_end_of_run_audit_is_clean(self, cfg):
        world = run(cfg)
        assert audit(world) + trail_violations(world) + graph_violations(world.graph) == []

    def test_bin_sums_match_totals(self):
        result = recorded_run(SimConfig(n_max=50, h_max=100, seed=2))
        ledger = result.ledger
        bin_size = result.config.bin_size
        assert sum(ledger_views.sys_sent_bins(result, bin_size).values()) == ledger.total
        do_sent = ledger_views.do_sent(result)
        for do, bins in ledger_views.do_sent_bins(result, bin_size).items():
            assert sum(bins.values()) == do_sent[do]
        assert 0 < ledger.growth_messages <= ledger.total


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
        world = run(cfg)
        assert all(f.copy_count == f.r_max for f in world.families.values())
        assert not any(world.family_has_opening(f) for f in world.families.values())

    def test_available_donor_blocks_steady_state(self):
        # Three isolated families; the needy one knows a full host whose
        # resident sits above its r_min, so a sacrifice is still possible.
        world = make_world(n_max=3, h_max=10, host_capacity=1, r_min=2, r_max=3)
        add_family(world, 1, home=1, copies=(4, 5, 6))
        add_family(world, 2, home=2)
        add_family(world, 3, home=3)
        needy = world.families[2]
        needy.believed_free[4] = 0
        assert world.family_has_opening(needy)
        # Forget the full host again: families 2 and 3 know nothing
        # beyond their own homes, family 1 is already at r_max.
        del needy.believed_free[4]
        assert not any(world.family_has_opening(f) for f in world.families.values())


class TestPhases:
    def test_growth_before_first_introduction(self):
        world = World(SimConfig(n_max=5, h_max=10))
        assert world.phase_boundary_t is None
        assert world.ledger.growth_messages == 0

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
        assert world.phase_boundary_t is None
        assert world.ledger.growth_total is None

    def test_single_do_grows_for_one_event(self):
        # The only DO joins an empty graph at once, inside its introduction.
        result = run(SimConfig(n_max=1, h_max=10))
        assert result.phase_boundary_t == 1
        assert result.ledger.growth_total == 0

    @pytest.mark.parametrize("policy", list(PolicyKind))
    def test_boundary_is_first_event_with_everyone_joined(self, policy):
        cfg = SimConfig(n_max=60, h_max=120, seed=8, policy=policy)
        world = World(cfg)
        first = []
        for _ in world.events():
            if not first and len(world.families) == cfg.n_max and not world.wanderers:
                first.append((world.t, world.ledger.total))
        assert first == [(world.phase_boundary_t, world.ledger.growth_messages)]
        assert world.ledger.growth_total == world.ledger.growth_messages

    def test_growth_only_run(self, tmp_path):
        # Cut at max_events while DOs are still joining: maintenance never began.
        result = run(SimConfig(n_max=50, h_max=100, max_events=200))
        assert result.terminated_by == "max_events"
        assert result.phase_boundary_t is None
        messages = summary_dict(result)["messages"]
        assert messages["growth"] == messages["total"] == result.ledger.total > 0
        assert messages["maintenance"] == 0
        path = tmp_path / "ts.csv"
        emit_timeseries_csv(result, path)
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        assert len(rows) > 1
        assert {row[1] for row in rows} == {"growth"}


class TestMessageLedger:
    def test_bin_index_by_floor_division(self):
        world = RecordingWorld(SimConfig(n_max=2, h_max=2, bin_size=100))
        world.t = 250
        world.send(MessageKind.CONTACT, 1, 2)
        assert world.rows == [(MessageKind.CONTACT, 250, 1, 2)]
        views = ledger_views.views(world, world.config.bin_size)
        assert views["do_sent_bins"] == {1: {2: 1}}
        assert views["do_received_bins"] == {2: {2: 1}}
        assert views["sys_sent_bins"] == views["sys_received_bins"] == {2: 1}

    def test_each_message_counts_once_sent_once_received(self):
        world = RecordingWorld(SimConfig(n_max=2, h_max=2, bin_size=100))
        for t in range(7):
            world.t = t
            world.send(MessageKind.CONTACT, 1, 2)
        ledger = world.ledger
        assert ledger.total == len(world.rows) == 7
        assert ledger_views.do_sent(world) == {1: 7}
        assert ledger_views.do_received(world) == {2: 7}
        assert ledger.kind_counts == ledger_views.kind_counts(world) == {MessageKind.CONTACT: 7}

    def test_host_endpoints_tracked_separately(self):
        world = RecordingWorld(SimConfig(n_max=2, h_max=10))
        world.t = 10
        world.send(MessageKind.COPY_REQUEST, 1, 9)
        world.send(MessageKind.COPY_ACK, 9, 1)
        views = ledger_views.views(world, world.config.bin_size)
        assert views["do_sent"] == {1: 1}
        assert views["host_received"] == {9: 1}
        assert views["host_sent"] == {9: 1}
        assert views["do_received"] == {1: 1}
        assert 9 not in views["do_received"]


class TestBulkSends:
    @pytest.mark.parametrize("kind,one", [
        (MessageKind.HOST_ANNOUNCE, 4),   # DO to DOs
        (MessageKind.COPY_ACK, 9),        # host to DOs
        (MessageKind.COPY_REQUEST, 2),    # DO to hosts
    ])
    @pytest.mark.parametrize("fan_in", [False, True])
    def test_matches_single_sends(self, kind, one, fan_in):
        many = [7, 3, 11, 5]
        bulk = RecordingWorld(SimConfig(n_max=2, h_max=2, bin_size=100))
        single = RecordingWorld(SimConfig(n_max=2, h_max=2, bin_size=100))
        bulk.t = single.t = 130
        bulk.send(MessageKind.CONTACT, 1, 2)
        single.send(MessageKind.CONTACT, 1, 2)
        bulk.t = single.t = 250
        if fan_in:
            bulk.send(kind, many, one)
        else:
            bulk.send(kind, one, many)
        for other in many:
            single.send(kind, *((other, one) if fan_in else (one, other)))
        assert bulk.ledger.kind_counts == single.ledger.kind_counts
        assert bulk.rows == single.rows
        assert ledger_views.views(bulk, 100) == ledger_views.views(single, 100)
        assert bulk.ledger.total == single.ledger.total == 1 + len(many)

    @pytest.mark.parametrize("fan_in", [False, True])
    def test_no_receivers_appends_nothing(self, fan_in):
        world = RecordingWorld(SimConfig(n_max=2, h_max=2))
        world.t = 5
        if fan_in:
            world.send(MessageKind.LINK_ACK, [], 1)
        else:
            world.send(MessageKind.HOST_ANNOUNCE, 1, [])
        assert world.ledger.kind_counts == {}
        assert world.ledger.total == len(world.rows) == 0

    def test_announce_without_friends_records_nothing(self):
        # DO 1 joins an empty graph, so it has no friend to tell.
        world = RecordingWorld(SimConfig(n_max=1, h_max=5))
        world.t += 1
        world.introduce_do()
        fam = world.families[1]
        host = next(h for h in range(1, 6) if h != fam.home_host)
        world.discover_host(host)
        assert place_copy(fam, host, world) is PlaceOutcome.PLACED
        world.t += 1
        announce_new_host(fam, host, world)
        assert world.ledger.kind_counts == {MessageKind.COPY_REQUEST: 1, MessageKind.COPY_ACK: 1}
        assert world.ledger.total == len(world.rows) == 2

    @pytest.mark.parametrize("fan_in", [False, True])
    def test_self_message_in_fan_raises_and_records_nothing(self, fan_in):
        world = RecordingWorld(SimConfig(n_max=2, h_max=2))
        args = ([2, 1, 3], 1) if fan_in else (1, [2, 1, 3])
        with pytest.raises(ValueError):
            world.send(MessageKind.HOST_ANNOUNCE, *args)
        assert world.ledger.kind_counts == {}
        assert world.ledger.total == len(world.rows) == 0
        # Host ids may repeat DO ids: a DO asking the host that shares its id.
        world.send(MessageKind.COPY_REQUEST, 1, [2, 1, 3])
        assert world.ledger.total == len(world.rows) == 3


# Every message view for SimConfig(n_max=60, h_max=120, seed=8) under each
# policy, as the earlier dict-per-view ledger reported them: kind counts,
# phase counts, and the sha256 hex digest of
# json.dumps(ledger_views.views(world, 100), sort_keys=True).encode().
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
    result = recorded_run(SimConfig(n_max=60, h_max=120, seed=8, policy=policy))
    ledger = result.ledger
    assert {k.value: n for k, n in ledger.kind_counts.items()} == kinds
    assert ledger_views.kind_counts(result) == ledger.kind_counts
    growth = ledger.growth_messages
    assert {"growth": growth, "maintenance": ledger.total - growth} == phases
    dump = json.dumps(ledger_views.views(result, result.config.bin_size),
                      sort_keys=True).encode()
    assert hashlib.sha256(dump).hexdigest() == views_sha256


def test_recorder_changes_no_output(tmp_path):
    # The reference configuration, whose runs reach sacrifices and denials.
    cfg = SimConfig(policy=PolicyKind.MOST, seed=5)
    plain = run(cfg)
    observed = recorded_run(cfg)
    assert len(observed.rows) == observed.ledger.total > 0
    assert summary_dict(observed) == summary_dict(plain)
    emit_timeseries_csv(plain, tmp_path / "plain.csv")
    emit_timeseries_csv(observed, tmp_path / "observed.csv")
    assert (tmp_path / "observed.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()


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


class HeardHostsWorld(World):
    """A ``World`` that also keeps a separate record of the hosts each family
    has heard of, as the reference for the belief keys that stand in for it.

    ``heard[do]`` starts as the family's home; it gains each host a friend
    announces and each host a place event lands a copy on.  Around each
    place event the family's pool over ``heard`` must equal its pool over
    the belief keys, and before each contact of a place event "never heard
    of" must read the same from both records.
    """

    def __init__(self, config):
        super().__init__(config)
        self.heard: dict[int, set[int]] = {}
        self.placing: int | None = None
        self.contacts = 0
        self.mismatches: list[tuple] = []

    def register_family(self, fam):
        super().register_family(fam)
        self.heard[fam.do_id] = {fam.home_host}

    def _pool(self, fam, hosts):
        pool = set(hosts)
        pool.update(self.families[f].home_host for f in self.graph.neighbors(fam.do_id))
        pool.discard(fam.home_host)
        return pool - fam.copies

    def _check_pool(self, fam):
        if self._pool(fam, self.heard[fam.do_id]) != self._pool(fam, fam.believed_free):
            self.mismatches.append(("pool", self.t, fam.do_id))

    def _process_place(self, do, first):
        fam = self.families[do]
        self._check_pool(fam)
        self.placing = do
        super()._process_place(do, first)
        self.placing = None
        self._check_pool(fam)

    def _contact(self, fam, host_id):
        if self.placing is None:
            return super()._contact(fam, host_id)
        self.contacts += 1
        heard = self.heard[fam.do_id]
        if (host_id in heard) != (host_id in fam.believed_free):
            self.mismatches.append(("heard", self.t, fam.do_id, host_id))
        landed = super()._contact(fam, host_id)
        if landed:
            heard.add(host_id)
        return landed

    def _process_announce(self, do, host_ids):
        super()._process_announce(do, host_ids)
        for friend in self.graph.neighbors(do):
            self.heard[friend].update(host_ids)


def test_belief_keys_are_the_heard_hosts():
    small = SimConfig(n_max=200, h_max=400, policy=PolicyKind.MOST)
    configs = [
        *(SimConfig(policy=p) for p in PolicyKind),
        replace(small, host_capacity=0),
        replace(small, host_capacity=1),
        replace(small, r_min=4, r_max=4, policy=PolicyKind.MODERATE),
        replace(small, intro_interval=1, policy=PolicyKind.LEAST),
        replace(small, host_capacity=400),
        replace(small, h_max=100, host_capacity=2),
    ]
    contacts = 0
    mismatches = []
    for config in configs:
        world = HeardHostsWorld(config)
        for _ in world.events():
            pass
        contacts += world.contacts
        mismatches.extend((config, *m) for m in world.mismatches)
    assert mismatches == []
    assert contacts >= 10_000
