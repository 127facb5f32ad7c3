"""Replication policies and the rules that move copies between hosts.

Three transcribed flocking rules govern everything here:

* collision avoidance -- a family never holds two replicas on one host and
  never copies to a host it already lives on (enforced structurally);
* velocity matching -- a family holding more than its minimum may give up
  one copy so a family below its minimum can place one, but nobody ever
  gives up their last replica;
* flock centering -- placing a copy on a newly learned host is announced
  to friends so their copies can flow there too.
"""

from __future__ import annotations

import enum

from .model import MessageKind, PolicyKind


class Family:
    """A parent DO plus the preservation copies it has placed elsewhere."""

    __slots__ = ("do_id", "home_host", "r_min", "r_max", "copies",
                 "believed_free", "pending", "chase_target", "intro_t")

    def __init__(self, do_id: int, home_host: int, r_min: int, r_max: int, intro_t: int):
        self.do_id = do_id
        self.home_host = home_host
        self.r_min = r_min
        self.r_max = r_max
        self.copies: set[int] = set()        # hosts holding a preservation copy
        # Open slots last heard of, per host heard of; the unheard are assumed
        # wide open.  Slot counts only shrink, so bad news never goes stale.
        self.believed_free: dict[int, int] = {}
        self.pending = False                 # a survey-style attempt is queued
        self.chase_target: int | None = None # announced host awaiting a visit
        self.intro_t = intro_t

    @property
    def copy_count(self) -> int:
        return len(self.copies)


class Host:
    """A discovered storage node: unbounded local DOs, finite foreign slots."""

    __slots__ = ("host_id", "capacity", "foreign")

    def __init__(self, host_id: int, capacity: int):
        self.host_id = host_id
        self.capacity = capacity
        self.foreign: set[int] = set()       # DOs holding a copy here

    @property
    def used(self) -> int:
        return len(self.foreign)


class PlaceOutcome(enum.Enum):
    PLACED = "placed"
    DENIED = "denied"


# The functions below name enum members through these module constants:
# reading a member off its class goes through EnumType's __getattr__ hook,
# several times the cost of a global lookup, and they do so per message.
PLACED, DENIED = PlaceOutcome.PLACED, PlaceOutcome.DENIED
COPY_REQUEST, COPY_ACK, COPY_DENY = (MessageKind.COPY_REQUEST, MessageKind.COPY_ACK,
                                     MessageKind.COPY_DENY)
SACRIFICE_DIRECTIVE, HOST_ANNOUNCE = MessageKind.SACRIFICE_DIRECTIVE, MessageKind.HOST_ANNOUNCE


def copies_to_attempt(policy: PolicyKind, current_c: int, r_min: int, r_max: int,
                      first_connection: bool) -> int:
    """How many copies a family tries to make at one opportunity.

    Least always works one copy at a time.  The aggressive policies burst
    toward their goal at first connection and drop back to single copies
    afterwards.
    """
    if not (0 <= current_c <= r_max):
        raise ValueError(f"copy count {current_c} outside [0, {r_max}]")
    least = min(1, r_max - current_c)
    if not first_connection:
        return least
    if policy is PolicyKind.MODERATE:
        return max(r_min - current_c, 0)
    if policy is PolicyKind.MOST:
        return r_max - current_c
    return least


def candidate_hosts(family: Family, world, limit: int | None = None) -> list[int]:
    """Hosts this family could petition, best believed prospects first.

    Drawn from the hosts it has heard of (``believed_free``'s keys) and
    its friends' homes, minus where it already has a replica.  Unheard
    hosts are believed wide open and come first, by id; heard hosts
    follow, by the free slots believed, then by id.  Hosts believed full
    stay at the tail: they may still accept via a sacrifice.  ``limit``
    is the contact budget: only that many of the best are returned (all
    of them when None), and when the unheard hosts alone fill it the
    heard ones are never ranked.

    Every believed count is one a host reported (or an announcer saw) after
    a request, so it is below ``host_capacity`` whenever that is at least
    1: sorting the heard hosts alone gives the same order as ranking every
    host by its believed count.  With no slots anywhere, all hosts rank
    alike and the order is by id.
    """
    families = world.families
    pool = set(family.believed_free)
    for friend in world.graph.neighbors(family.do_id):
        pool.add(families[friend].home_host)
    pool.discard(family.home_host)
    pool -= family.copies
    if world.config.host_capacity < 1:
        return sorted(pool)[:limit]
    believed = family.believed_free
    unheard = pool.difference(believed)
    ranked = sorted(unheard)
    if limit is not None and len(ranked) >= limit:
        return ranked[:limit]
    heard = sorted(pool - unheard)
    heard.sort(key=believed.__getitem__, reverse=True)
    ranked += heard
    return ranked[:limit]


def place_copy(family: Family, host_id: int, world) -> PlaceOutcome:
    """Ask one host for a slot: request plus acknowledgment or denial.

    Either answer tells the family how many slots the host really has
    left, replacing whatever it believed before.
    """
    if host_id == family.home_host or host_id in family.copies:
        raise ValueError(f"family {family.do_id} already lives on host {host_id}")
    if len(family.copies) >= family.r_max:
        raise ValueError(f"family {family.do_id} already at r_max")
    host = world.hosts[host_id]
    world.send(COPY_REQUEST, family.do_id, host_id)
    if len(host.foreign) >= host.capacity:
        family.believed_free[host_id] = 0
        world.send(COPY_DENY, host_id, family.do_id)
        return DENIED
    world.note_copy(family, host, 1)
    family.believed_free[host_id] = host.capacity - len(host.foreign)
    world.send(COPY_ACK, host_id, family.do_id)
    return PLACED


def eligible_donor(host: Host, world) -> int | None:
    """Resident with the largest surplus above its minimum, or None.

    A resident qualifies only if strictly above its r_min and holding at
    least two copies, so nobody's last replica is ever taken.
    """
    best = None
    best_key = None
    for do in host.foreign:
        fam = world.families[do]
        c = len(fam.copies)
        if c > fam.r_min and c >= 2:
            key = (c, -do)
            if best_key is None or key > best_key:
                best_key = key
                best = do
    return best


def try_sacrifice(beneficiary: Family, host_id: int, world) -> int | None:
    """Ask a full host for a slot; it swaps out a surplus resident's copy if it can.

    The beneficiary, below its r_min, sends a request.  The host directs
    the donor to replenish later, stores the beneficiary's replica in its
    slot and acknowledges, or denies when no resident may donate.  Returns
    the donor's id, or None on a denial."""
    host = world.hosts[host_id]
    if len(host.foreign) < host.capacity:
        raise ValueError("sacrifice on a host with free slots")
    if len(beneficiary.copies) >= beneficiary.r_min:
        raise ValueError("beneficiary is not below its r_min")
    world.send(COPY_REQUEST, beneficiary.do_id, host_id)
    beneficiary.believed_free[host_id] = 0
    donor_id = eligible_donor(host, world)
    if donor_id is None:
        world.send(COPY_DENY, host_id, beneficiary.do_id)
        return None
    donor = world.families[donor_id]
    world.note_copy(donor, host, -1)
    world.send(SACRIFICE_DIRECTIVE, host_id, donor_id)
    world.note_copy(beneficiary, host, 1)
    donor.believed_free[host_id] = 0
    world.note_sacrifice(donor_id)
    world.send(COPY_ACK, host_id, beneficiary.do_id)
    return donor_id


def announce_new_host(family: Family, host_id: int, world):
    """Tell every friend about a host that just accepted one of our copies.

    Each friend records the announcer's count of the room left as its
    belief, and so hears of the host.  Friends below r_max told of room
    chase it; a family keeps at most one chase queued, retargeted by newer
    news.  Only a DO that has linked has edges, so every friend has joined.
    """
    friends = sorted(world.graph.neighbors(family.do_id))
    world.send(HOST_ANNOUNCE, family.do_id, friends)
    observed = family.believed_free.get(host_id, 0)
    families = world.families
    for friend in friends:
        other = families[friend]
        other.believed_free[host_id] = observed
        if (observed > 0 and len(other.copies) < other.r_max
                and host_id != other.home_host and host_id not in other.copies):
            if other.chase_target is None:
                world.enqueue_chase(friend)
            other.chase_target = host_id
