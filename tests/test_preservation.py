import pytest
from hypothesis import given, strategies as st

import ledger_views
from audit import add_family, make_world
from uswsim.engine import World
from uswsim.model import MessageKind, PolicyKind, SimConfig
from uswsim.preservation import (
    PlaceOutcome,
    announce_new_host,
    candidate_hosts,
    copies_to_attempt,
    eligible_donor,
    place_copy,
    try_sacrifice,
)


class TestCopiesToAttempt:
    @pytest.mark.parametrize("policy,c,first,expected", [
        (PolicyKind.LEAST, 0, True, 1),
        (PolicyKind.MODERATE, 0, True, 3),
        (PolicyKind.MOST, 0, True, 5),
        (PolicyKind.MOST, 5, False, 0),
        (PolicyKind.MODERATE, 3, False, 1),
        (PolicyKind.MODERATE, 4, True, 0),
        (PolicyKind.MOST, 2, True, 3),
        (PolicyKind.LEAST, 4, False, 1),
    ])
    def test_examples(self, policy, c, first, expected):
        assert copies_to_attempt(policy, c, 3, 5, first) == expected

    def test_never_exceeds_r_max(self):
        # Exhaustive sweep of the argument lattice up to 10.
        for r_min in range(1, 11):
            for r_max in range(r_min, 11):
                for c in range(r_max + 1):
                    for policy in PolicyKind:
                        for first in (True, False):
                            n = copies_to_attempt(policy, c, r_min, r_max, first)
                            assert n >= 0
                            assert c + n <= r_max

    def test_policies_identical_after_first_connection(self):
        for c in range(5):
            results = {copies_to_attempt(p, c, 3, 5, False) for p in PolicyKind}
            assert len(results) == 1

    def test_rejects_count_out_of_range(self):
        with pytest.raises(ValueError):
            copies_to_attempt(PolicyKind.LEAST, 6, 3, 5, False)


class TestCandidateHosts:
    def test_friend_local_is_sole_candidate(self):
        world = make_world()
        fam = add_family(world, 1, home=10)
        add_family(world, 2, home=20)
        world.graph.add_edge(1, 2)
        assert candidate_hosts(fam, world) == [20]

    def test_own_hosts_excluded(self):
        world = make_world()
        fam = add_family(world, 1, home=10, copies=(30,))
        add_family(world, 2, home=30)
        world.graph.add_edge(1, 2)
        fam.believed_free.update({10: 4, 30: 4})
        assert candidate_hosts(fam, world) == []

    def test_ordered_by_believed_free_slots(self):
        world = make_world()
        fam = add_family(world, 1, home=10)
        fam.believed_free[21] = 1
        fam.believed_free[22] = 3
        world.discover_host(21)
        world.discover_host(22)
        assert candidate_hosts(fam, world) == [22, 21]

    def test_believed_full_kept_at_tail(self):
        world = make_world()
        fam = add_family(world, 1, home=10)
        fam.believed_free[21] = 0
        fam.believed_free[22] = 2
        world.discover_host(21)
        world.discover_host(22)
        assert candidate_hosts(fam, world) == [22, 21]


def ranked_by_sorting(family, world):
    """The ranking as a plain sort: one (-believed, id) key per candidate,
    over friends' homes and the hosts the family holds a belief about, with
    hosts never heard about believed to have ``host_capacity`` slots."""
    pool = {world.families[f].home_host for f in world.graph.neighbors(family.do_id)}
    pool |= family.believed_free.keys()
    pool.discard(family.home_host)
    pool -= family.copies
    cap = world.config.host_capacity
    return [h for _, h in sorted((-family.believed_free.get(h, cap), h) for h in pool)]


def ranking_mismatches(world):
    """(do, limit) for each family and contact budget whose ranking differs
    from the plain sort's first ``limit`` hosts."""
    bad = []
    for do, fam in world.families.items():
        expected = ranked_by_sorting(fam, world)
        for limit in (None, *range(1, world.config.r_max + 1)):
            if candidate_hosts(fam, world, limit) != expected[:limit]:
                bad.append((do, limit))
    return bad


class TestRankingMatchesPlainSort:
    """candidate_hosts puts never-heard hosts first without looking at a
    believed count; that equals the plain sort because every count a family
    hears is below the host capacity (all 0 at capacity 0)."""

    @pytest.mark.parametrize("config", [
        *(SimConfig(policy=p) for p in PolicyKind),
        SimConfig(policy=PolicyKind.MOST, host_capacity=0),
    ], ids=["least", "moderate", "most", "most-capacity-0"])
    def test_run_states(self, config):
        checked = []
        mismatches = []
        world = World(config)
        for _ in world.events():
            if world.t % 200 == 0:
                checked.append(world.t)
                mismatches.extend((world.t, *m) for m in ranking_mismatches(world))
        mismatches.extend((world.t, *m) for m in ranking_mismatches(world))
        assert len(checked) >= 35
        assert mismatches == []

    @given(data=st.data(), capacity=st.integers(0, 6), home=st.integers(1, 30),
           friend_homes=st.lists(st.integers(1, 30), max_size=8),
           limit=st.one_of(st.none(), st.integers(1, 8)))
    def test_hand_built_families(self, data, capacity, home, friend_homes, limit):
        world = make_world(host_capacity=capacity)
        fam = add_family(world, 1, home=home)
        for do, friend_home in enumerate(friend_homes, 2):
            add_family(world, do, home=friend_home)
            world.graph.add_edge(1, do)
        hosts = range(1, 31)
        fam.copies = data.draw(st.sets(st.sampled_from(hosts), max_size=5))
        fam.believed_free = data.draw(st.dictionaries(
            st.sampled_from(hosts), st.integers(0, max(capacity - 1, 0))))
        assert candidate_hosts(fam, world, limit) == ranked_by_sorting(fam, world)[:limit]


class TestPlaceCopy:
    def test_placed_with_request_and_ack(self):
        world = make_world()
        fam = add_family(world, 1, home=10)
        world.discover_host(20)
        outcome = place_copy(fam, 20, world)
        assert outcome is PlaceOutcome.PLACED
        assert fam.copies == {20}
        assert world.hosts[20].foreign == {1}
        assert world.ledger.kind_counts[MessageKind.COPY_REQUEST] == 1
        assert world.ledger.kind_counts[MessageKind.COPY_ACK] == 1
        assert fam.believed_free[20] == 4

    def test_denied_when_full(self):
        world = make_world(host_capacity=1)
        fam = add_family(world, 1, home=10)
        add_family(world, 2, home=11, copies=(20,))
        outcome = place_copy(fam, 20, world)
        assert outcome is PlaceOutcome.DENIED
        assert world.ledger.kind_counts[MessageKind.COPY_DENY] == 1
        assert fam.believed_free[20] == 0

    def test_same_family_twice_is_a_programming_error(self):
        world = make_world()
        fam = add_family(world, 1, home=10, copies=(20,))
        with pytest.raises(ValueError):
            place_copy(fam, 20, world)

    def test_own_host_is_a_programming_error(self):
        world = make_world()
        fam = add_family(world, 1, home=10)
        with pytest.raises(ValueError):
            place_copy(fam, 10, world)

    def test_no_two_replicas_share_a_host(self):
        world = make_world()
        fam = add_family(world, 1, home=10, copies=(20, 30, 40))
        hosts = [fam.home_host] + sorted(fam.copies)
        assert hosts == [10, 20, 30, 40]
        assert len(hosts) == len(set(hosts))

    def test_at_r_max_is_a_programming_error(self):
        world = make_world(r_min=1, r_max=2)
        fam = add_family(world, 1, home=10, copies=(20, 21), r_min=1, r_max=2)
        world.discover_host(22)
        with pytest.raises(ValueError):
            place_copy(fam, 22, world)


class TestSacrifice:
    def test_largest_surplus_donates(self):
        world = make_world(host_capacity=2)
        # Host 50: donor candidates with c=4 and c=3 (r_min=3).
        add_family(world, 1, home=10, copies=(50, 61, 62, 63))
        add_family(world, 2, home=11, copies=(50, 71))
        beneficiary = add_family(world, 3, home=12, copies=(80,))
        host = world.hosts[50]
        assert try_sacrifice(beneficiary, 50, world) == 1
        assert 50 in beneficiary.copies
        assert 3 in host.foreign
        assert 50 not in world.families[1].copies
        assert 1 not in host.foreign
        assert world.families[1].copy_count == 3
        assert beneficiary.copy_count == 2
        assert world.hosts[50].used == 2  # one out, one in

    def test_ties_break_to_lowest_id(self):
        world = make_world(host_capacity=2)
        add_family(world, 5, home=10, copies=(50, 61, 62, 63))
        add_family(world, 2, home=11, copies=(50, 71, 72, 73))
        beneficiary = add_family(world, 9, home=12)
        assert try_sacrifice(beneficiary, 50, world) == 2

    def test_nobody_above_r_min_means_none(self):
        # The host denies, and the beneficiary learns it is full.
        world = make_world(host_capacity=2)
        add_family(world, 1, home=10, copies=(50, 61, 62))
        add_family(world, 2, home=11, copies=(50, 71, 72))
        beneficiary = add_family(world, 3, home=12)
        beneficiary.believed_free[50] = 2  # stale news of room
        assert try_sacrifice(beneficiary, 50, world) is None
        assert ledger_views.messages(world) == [
            (MessageKind.COPY_REQUEST, 3, 50),
            (MessageKind.COPY_DENY, 50, 3),
        ]
        assert beneficiary.believed_free[50] == 0

    def test_never_takes_a_last_copy(self):
        # A sole-copy resident is never chosen even when a tiny r_min
        # would technically put it above threshold.
        world = make_world(host_capacity=1)
        add_family(world, 1, home=10, copies=(50,), r_min=1, r_max=5)
        world.families[1].r_min = 0
        beneficiary = add_family(world, 2, home=11)
        assert eligible_donor(world.hosts[50], world) is None
        assert try_sacrifice(beneficiary, 50, world) is None

    def test_directive_charged_to_donor(self):
        # The beneficiary asks, the host directs the donor and acknowledges.
        world = make_world(host_capacity=1)
        add_family(world, 1, home=10, copies=(50, 61, 62, 63))
        beneficiary = add_family(world, 2, home=11)
        try_sacrifice(beneficiary, 50, world)
        assert ledger_views.messages(world) == [
            (MessageKind.COPY_REQUEST, 2, 50),
            (MessageKind.SACRIFICE_DIRECTIVE, 50, 1),
            (MessageKind.COPY_ACK, 50, 2),
        ]
        assert beneficiary.believed_free[50] == 0
        assert world.families[1].believed_free[50] == 0

    def test_capacity_zero_host_denies_a_family_below_r_min(self):
        # The family's only candidate is a host with no slot and no resident.
        world = make_world(host_capacity=0)
        fam = add_family(world, 1, home=10)
        world.discover_host(20)
        fam.believed_free[20] = 0
        world._process_place(1, first=True)
        assert ledger_views.messages(world) == [
            (MessageKind.COPY_REQUEST, 1, 20),
            (MessageKind.COPY_DENY, 20, 1),
        ]
        assert (world.denials, world.placements, world.sacrifices) == (1, 0, 0)
        assert fam.believed_free[20] == 0
        assert not world.queue

    def test_donor_queued_to_replenish(self):
        world = make_world(host_capacity=1)
        add_family(world, 1, home=10, copies=(50, 61, 62, 63))
        beneficiary = add_family(world, 2, home=11)
        try_sacrifice(beneficiary, 50, world)
        assert world.families[1].pending
        assert len(world.queue) == 1

    def test_rejects_host_with_room(self):
        world = make_world()
        add_family(world, 1, home=10, copies=(50,))
        beneficiary = add_family(world, 2, home=11)
        with pytest.raises(ValueError):
            try_sacrifice(beneficiary, 50, world)

    def test_rejects_satisfied_beneficiary(self):
        world = make_world(host_capacity=1)
        add_family(world, 1, home=10, copies=(50, 61, 62, 63))
        rich = add_family(world, 2, home=11, copies=(70, 71, 72))
        with pytest.raises(ValueError):
            try_sacrifice(rich, 50, world)


class TestAnnounceNewHost:
    def test_one_message_per_friend(self):
        world = make_world()
        fam = add_family(world, 1, home=10, copies=(40,))
        fam.believed_free[40] = 4
        for do, home in ((2, 20), (3, 21), (4, 22), (5, 23)):
            add_family(world, do, home=home)
            world.graph.add_edge(1, do)
        sent = announce_new_host(fam, 40, world)
        assert sent == 4
        assert world.ledger.kind_counts[MessageKind.HOST_ANNOUNCE] == 4
        received = ledger_views.do_received(world)
        total_received = sum(received.get(d, 0) for d in (2, 3, 4, 5))
        assert total_received == 4

    def test_no_friends_no_messages(self):
        world = make_world()
        fam = add_family(world, 1, home=10, copies=(40,))
        assert announce_new_host(fam, 40, world) == 0
        assert world.ledger.total == 0
        assert world.rows == []

    def test_receiver_at_r_max_records_host_but_stays_idle(self):
        world = make_world(r_min=1, r_max=1)
        fam = add_family(world, 1, home=10, copies=(40,), r_min=1, r_max=1)
        fam.believed_free[40] = 4
        rich = add_family(world, 2, home=20, copies=(30,), r_min=1, r_max=1)
        world.graph.add_edge(1, 2)
        announce_new_host(fam, 40, world)
        assert rich.believed_free[40] == 4
        assert rich.chase_target is None
        assert not world.queue

    def test_needy_receiver_chases_reported_room(self):
        world = make_world()
        fam = add_family(world, 1, home=10, copies=(40,))
        fam.believed_free[40] = 4
        needy = add_family(world, 2, home=20)
        world.graph.add_edge(1, 2)
        announce_new_host(fam, 40, world)
        assert needy.chase_target == 40
        assert needy.believed_free[40] == 4
        assert len(world.queue) == 1

    def test_no_chase_when_no_room_reported(self):
        world = make_world()
        fam = add_family(world, 1, home=10, copies=(40,))
        fam.believed_free[40] = 0
        needy = add_family(world, 2, home=20)
        world.graph.add_edge(1, 2)
        announce_new_host(fam, 40, world)
        assert needy.chase_target is None
        assert not world.queue
        assert needy.believed_free[40] == 0

    def test_single_queued_chase_retargeted_by_newer_news(self):
        world = make_world()
        fam = add_family(world, 1, home=10, copies=(40, 41))
        fam.believed_free[40] = 4
        fam.believed_free[41] = 2
        needy = add_family(world, 2, home=20)
        world.graph.add_edge(1, 2)
        announce_new_host(fam, 40, world)
        announce_new_host(fam, 41, world)
        assert len(world.queue) == 1
        assert needy.chase_target == 41
