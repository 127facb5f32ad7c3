"""Deterministic discrete-event loop driving introduction, wandering,
placement, announcement, sacrifice and replenishment.

The clock advances one tick per processed event.  A new DO is introduced
every ``intro_interval`` ticks until ``n_max`` exist; all other work drains
from a FIFO queue (ties broken by DO id at enqueue time).  Families act on
what they believe about hosts, go dormant when they know of no openings,
and are woken only by news; once everyone is introduced and connected and
the queue runs dry, nobody holds an opportunity it knows about and the run
ends.

All randomness comes from one seeded generator, drawn in a fixed order, so
identical configurations replay identically.
"""

from __future__ import annotations

import enum
from array import array
from collections import deque
from dataclasses import dataclass
from random import Random

import numpy as np

from .graph import FriendshipGraph, WanderState, finalize_links, start_wander, wander_step
from .model import (
    MessageKind,
    NamedCondition,
    Reason,
    SimConfig,
    classify_condition,
    host_band,
    status_value,
)
from .preservation import (
    Family,
    Host,
    PlaceOutcome,
    announce_new_host,
    candidate_hosts,
    copies_to_attempt,
    eligible_donor,
    place_copy,
    try_sacrifice,
)


class Phase(enum.Enum):
    GROWTH = "growth"
    MAINTENANCE = "maintenance"


class MessageLedger:
    """Every message ever sent, one entry per send in four append-only columns.

    The columns hold the kind's ``code``, the send time, the sender id and
    the receiver id; the kind says whether each id names a DO or a host.
    The per-DO, per-host, per-bin, per-kind and per-phase views are derived
    from the columns when read.
    """

    __slots__ = ("bin_size", "kinds", "times", "senders", "receivers", "growth_total")

    def __init__(self, bin_size: int):
        self.bin_size = bin_size
        self.kinds = array("B")
        self.times = array("i")
        self.senders = array("i")
        self.receivers = array("i")
        # Messages sent before the run entered maintenance; None while growing.
        self.growth_total: int | None = None

    @property
    def total(self) -> int:
        return len(self.kinds)

    @property
    def total_sent(self) -> int:
        return len(self.senders)

    @property
    def total_received(self) -> int:
        return len(self.receivers)

    @property
    def phase_messages(self) -> dict[Phase, int]:
        total = self.total
        growth = total if self.growth_total is None else self.growth_total
        return {Phase.GROWTH: growth, Phase.MAINTENANCE: total - growth}

    @property
    def kind_counts(self) -> dict[MessageKind, int]:
        counts = np.bincount(np.array(self.kinds), minlength=len(MessageKind)).tolist()
        return {kind: counts[kind.code] for kind in MessageKind if counts[kind.code]}

    def _ends(self, column: array, do_by_code: np.ndarray):
        """The ids of one endpoint column, and whether each is a DO (else a host)."""
        return np.array(column), do_by_code[np.array(self.kinds)]

    def _bins(self) -> np.ndarray:
        return np.array(self.times, dtype=np.int64) // self.bin_size

    @property
    def do_sent(self) -> dict[int, int]:
        ids, is_do = self._ends(self.senders, _FROM_DO)
        return _tally(ids[is_do])

    @property
    def do_received(self) -> dict[int, int]:
        ids, is_do = self._ends(self.receivers, _TO_DO)
        return _tally(ids[is_do])

    @property
    def host_sent(self) -> dict[int, int]:
        ids, is_do = self._ends(self.senders, _FROM_DO)
        return _tally(ids[~is_do])

    @property
    def host_received(self) -> dict[int, int]:
        ids, is_do = self._ends(self.receivers, _TO_DO)
        return _tally(ids[~is_do])

    @property
    def do_sent_bins(self) -> dict[int, dict[int, int]]:
        ids, is_do = self._ends(self.senders, _FROM_DO)
        return _tally_bins(ids[is_do], self._bins()[is_do])

    @property
    def do_received_bins(self) -> dict[int, dict[int, int]]:
        ids, is_do = self._ends(self.receivers, _TO_DO)
        return _tally_bins(ids[is_do], self._bins()[is_do])

    @property
    def sys_sent_bins(self) -> dict[int, int]:
        return _tally(self._bins())

    # Every message is received exactly once, in the bin it was sent in.
    sys_received_bins = sys_sent_bins


# Indexed by MessageKind.code: is the sender / the receiver a DO?
_FROM_DO = np.array([kind.from_do for kind in MessageKind])
_TO_DO = np.array([kind.to_do for kind in MessageKind])


def _tally(values: np.ndarray) -> dict[int, int]:
    """Occurrences of each distinct value, in ascending order."""
    found, counts = np.unique(values, return_counts=True)
    return dict(zip(found.tolist(), counts.tolist()))


def _tally_bins(ids: np.ndarray, bins: np.ndarray) -> dict[int, dict[int, int]]:
    """Occurrences of each (id, bin) pair, nested by id."""
    width = int(bins.max()) + 1 if bins.size else 1
    out: dict[int, dict[int, int]] = {}
    for key, n in _tally(ids.astype(np.int64) * width + bins).items():
        do, b = divmod(key, width)
        out.setdefault(do, {})[b] = n
    return out


@dataclass
class RunResult:
    config: SimConfig
    seed: int
    condition: NamedCondition
    steady_state_t: int | None
    terminated_by: str
    final_t: int
    phase_boundary_t: int | None
    bin_ts: list[int]
    status_series: list[tuple[float, float, float, float]]
    host_series: list[tuple[float, float, float, float, float, float]]
    effectiveness_series: list[float]
    cum_sent_series: list[int]
    ledger: MessageLedger
    graph: FriendshipGraph
    families: dict[int, Family]
    hosts: dict[int, Host]
    copy_events: list[tuple[int, int, int, int]]
    discovery_events: list[tuple[int, int]]
    placements: int
    sacrifices: int
    denials: int

    @property
    def final_effectiveness(self) -> float:
        return self.effectiveness_series[-1] if self.effectiveness_series else 0.0


# Queue action tags.
_WANDER = 0
_PLACE = 1
_ANNOUNCE = 2
_CHASE = 3


class World:
    """Mutable state of one run plus the bookkeeping the exports need."""

    def __init__(self, config: SimConfig):
        self.config = config
        self.rng = Random(config.seed)
        self.graph = FriendshipGraph()
        self.families: dict[int, Family] = {}
        self.hosts: dict[int, Host] = {}
        self.connected_order: list[int] = []
        self.wanderers: dict[int, WanderState] = {}
        self.queue: deque = deque()
        self.t = 0
        self.introduced = 0
        self.ledger = MessageLedger(config.bin_size)
        self.phase = Phase.GROWTH
        self.phase_boundary_t: int | None = None
        self.steady_state_t: int | None = None
        self.terminated_by = "incomplete"

        # Live aggregates for O(1) sampling and conservation checks.
        self.status_counts = [0, 0, 0, 0]
        self.copies_total = 0
        self.slots_used_total = 0
        self.host_band_counts = {"white": 0, "red": 0, "yellow": 0, "green": 0, "blue": 0}

        # Event trails for snapshot reconstruction.
        self.copy_events: list[tuple[int, int, int, int]] = []
        self.discovery_events: list[tuple[int, int]] = []

        self.placements = 0
        self.sacrifices = 0
        self.denials = 0

        # Per-bin series.
        self.bin_ts: list[int] = []
        self.status_series: list[tuple[float, float, float, float]] = []
        self.host_series: list[tuple[float, float, float, float, float, float]] = []
        self.effectiveness_series: list[float] = []
        self.cum_sent_series: list[int] = []

    # ----- ledger / bookkeeping hooks used by preservation ---------------

    def send(self, kind: MessageKind, frm: int, to: int):
        """Record one message; the kind says whether ``frm``/``to`` are DO or host ids."""
        if frm == to and kind.from_do and kind.to_do:
            raise ValueError("message sender and recipient must differ")
        ledger = self.ledger
        ledger.kinds.append(kind.code)
        ledger.times.append(self.t)
        ledger.senders.append(frm)
        ledger.receivers.append(to)

    def _move_band(self, host: Host, used_before: int):
        """Recount ``host`` from its band at ``used_before`` slots to its band now."""
        bands = self.host_band_counts
        bands[host_band(used_before, host.capacity, True).value] -= 1
        bands[host_band(host.used, host.capacity, True).value] += 1

    def note_copy(self, fam: Family, host: Host, delta: int):
        """Book a copy of ``fam`` just stored on (+1) or removed from (-1) ``host``."""
        v_old = status_value(fam.copy_count - delta, fam.r_min, fam.r_max)
        v_new = status_value(fam.copy_count, fam.r_min, fam.r_max)
        self.status_counts[v_old - 1] -= 1
        self.status_counts[v_new - 1] += 1
        self.copies_total += delta
        self.slots_used_total += delta
        self._move_band(host, host.used - delta)
        self.copy_events.append((self.t, fam.do_id, host.host_id, delta))
        if delta > 0:
            self.placements += 1

    def note_sacrifice(self, donor: int):
        self.sacrifices += 1
        donor_fam = self.families[donor]
        if not donor_fam.pending and donor_fam.copy_count < donor_fam.r_max:
            donor_fam.pending = True
            self.queue.append((_PLACE, donor, Reason.REPLENISH))

    def enqueue_chase(self, do_id: int):
        self.queue.append((_CHASE, do_id))

    # ----- host / family creation ----------------------------------------

    def discover_host(self, host_id: int) -> Host:
        host = self.hosts.get(host_id)
        if host is None:
            host = Host(host_id, self.config.host_capacity)
            self.hosts[host_id] = host
            self.host_band_counts["white"] += 1
            self.discovery_events.append((self.t, host_id))
        return host

    def introduce_do(self) -> tuple[int, WanderState]:
        if self.introduced >= self.config.n_max:
            raise RuntimeError("introduction past n_max")
        do = self.introduced + 1
        self.introduced = do
        home = self.rng.randrange(1, self.config.h_max + 1)
        self.discover_host(home)
        fam = Family(do, home, self.config.r_min, self.config.r_max, self.t)
        self.families[do] = fam
        self.status_counts[0] += 1
        state = start_wander(do, self.graph, self.connected_order, self.rng)
        if state.connected:
            self._connect(fam, state)
        else:
            self.wanderers[do] = state
            self.queue.append((_WANDER, do))
        return do, state

    def _connect(self, fam: Family, state: WanderState):
        fam.connected = True
        fam.connect_t = self.t
        self.connected_order.append(fam.do_id)
        self.wanderers.pop(fam.do_id, None)
        fam.pending = True
        self.queue.append((_PLACE, fam.do_id, Reason.FIRST_CONNECTION))

    # ----- event processing ----------------------------------------------

    def _process_wander(self, do: int):
        state = self.wanderers[do]
        visited = state.current
        self.send(MessageKind.CONTACT, do, visited)
        self.send(MessageKind.CONTACT_REPLY, visited, do)
        cap = 10 * max(len(self.graph), 1)
        if wander_step(state, self.graph, self.config.link_probability, self.rng, cap):
            edges = finalize_links(state, self.graph, self.config.extra_link_fraction, self.rng)
            for u, v in edges:
                self.send(MessageKind.LINK_REQUEST, u, v)
                self.send(MessageKind.LINK_ACK, v, u)
            self._connect(self.families[do], state)
        else:
            self.queue.append((_WANDER, do))

    def _contact(self, fam: Family, host_id: int) -> bool:
        """One request to one host; returns True when a copy landed.

        A host with room acknowledges.  A full host swaps in the requester
        via a sacrifice when the requester is below its r_min and a donor
        lives there; otherwise it denies.
        """
        host = self.hosts[host_id]
        if host.free_slots > 0:
            return place_copy(fam, host_id, self) is PlaceOutcome.PLACED
        if fam.copy_count < fam.r_min and host.capacity > 0:
            self.send(MessageKind.COPY_REQUEST, fam.do_id, host_id)
            if try_sacrifice(fam, host_id, self) is not None:
                self.send(MessageKind.COPY_ACK, host_id, fam.do_id)
                return True
            fam.believed_free[host_id] = 0
            self.send(MessageKind.COPY_DENY, host_id, fam.do_id)
            self.denials += 1
            return False
        place_copy(fam, host_id, self)
        self.denials += 1
        return False

    def _process_place(self, do: int, reason: Reason):
        """Survey attempt over the candidate list, best believed host first.

        The policy's desired count is the contact budget for this event: a
        Least family asks one host and lives with the answer, an aggressive
        first connection keeps asking through denials until its goal or its
        budget runs out.  Hosts the family already believes full are not
        worth a message unless it is still short of r_min and hoping for a
        sacrifice, so a settled family with no believed openings stays
        quiet.
        """
        fam = self.families[do]
        fam.pending = False
        c = fam.copy_count
        if c >= fam.r_max:
            return
        first = reason is Reason.FIRST_CONNECTION
        desired = copies_to_attempt(self.config.policy, c, fam.r_min, fam.r_max, first)
        if desired <= 0:
            return
        cap = self.config.host_capacity
        placed = 0
        contacts = 0
        new_hosts: list[int] = []
        for host_id in candidate_hosts(fam, self):
            if placed >= desired or contacts >= desired or fam.copy_count >= fam.r_max:
                break
            if fam.believed_free.get(host_id, cap) <= 0 and fam.copy_count >= fam.r_min:
                break  # only hosts it believes full remain
            contacts += 1
            fresh = host_id not in fam.known_hosts
            if self._contact(fam, host_id):
                placed += 1
                fam.known_hosts.add(host_id)
                if fresh:
                    new_hosts.append(host_id)
        if new_hosts:
            self.queue.append((_ANNOUNCE, fam.do_id, tuple(new_hosts)))

    def _process_chase(self, do: int):
        """Visit the one announced host this family has been pointed at."""
        fam = self.families[do]
        host_id = fam.chase_target
        fam.chase_target = None
        if host_id is None or fam.copy_count >= fam.r_max:
            return
        if host_id == fam.home_host or host_id in fam.copies:
            return
        self._contact(fam, host_id)

    def _process_announce(self, do: int, host_ids: tuple[int, ...]):
        fam = self.families[do]
        for h in host_ids:
            announce_new_host(fam, h, self)

    # ----- steady state ----------------------------------------------------

    def family_has_opening(self, fam: Family) -> bool:
        """Can this family place a copy right now, directly or via sacrifice?"""
        if not fam.connected or fam.copy_count >= fam.r_max:
            return False
        below_min = fam.copy_count < fam.r_min
        for host_id in candidate_hosts(fam, self):
            host = self.hosts[host_id]
            if host.free_slots > 0:
                return True
            if below_min and eligible_donor(host, self) is not None:
                return True
        return False

    def sample_bin(self):
        n = self.introduced
        if n:
            fracs = tuple(c / n for c in self.status_counts)
            rank_sum = sum(rank * c for rank, c in enumerate(self.status_counts, 1))
            eff = (rank_sum - n) / (3 * n)
        else:
            fracs = (0.0, 0.0, 0.0, 0.0)
            eff = 0.0
        h_max = self.config.h_max
        grey = h_max - len(self.hosts)
        bands = self.host_band_counts
        self.bin_ts.append(self.t)
        self.status_series.append(fracs)
        self.host_series.append((
            grey / h_max, bands["white"] / h_max, bands["red"] / h_max,
            bands["yellow"] / h_max, bands["green"] / h_max, bands["blue"] / h_max,
        ))
        self.effectiveness_series.append(eff)
        self.cum_sent_series.append(self.ledger.total)


def phase_of(world: World) -> Phase:
    if world.introduced < world.config.n_max or world.wanderers:
        return Phase.GROWTH
    return Phase.MAINTENANCE


def detect_steady_state(world: World) -> bool:
    """The queue is empty and nobody below r_max can reach any opening."""
    if world.queue:
        return False
    if world.introduced < world.config.n_max or world.wanderers:
        return False
    return not any(world.family_has_opening(f) for f in world.families.values())


def run(config: SimConfig, invariant_hook=None) -> RunResult:
    """Execute one simulation to steady state (or the event cap)."""
    world = World(config)
    cfg = config
    bin_size = cfg.bin_size
    while True:
        if world.t >= cfg.max_events:
            world.terminated_by = "max_events"
            break
        intro_due = world.introduced < cfg.n_max and world.t % cfg.intro_interval == 0
        if intro_due:
            world.t += 1
            world.introduce_do()
            event = "introduce"
        elif world.queue:
            world.t += 1
            item = world.queue.popleft()
            if item[0] == _WANDER:
                world._process_wander(item[1])
            elif item[0] == _PLACE:
                world._process_place(item[1], item[2])
            elif item[0] == _ANNOUNCE:
                world._process_announce(item[1], item[2])
            else:
                world._process_chase(item[1])
            event = ("wander", "place", "announce", "chase")[item[0]]
        elif world.introduced < cfg.n_max:
            world.t += 1
            event = "idle"
        else:
            # All introduced and connected and no pending work: every family
            # that could still act has run out of opportunities it knows
            # about, so the system has stopped evolving.
            world.steady_state_t = world.t
            world.terminated_by = "steady_state"
            break
        if world.phase is Phase.GROWTH and phase_of(world) is Phase.MAINTENANCE:
            world.phase = Phase.MAINTENANCE
            world.phase_boundary_t = world.t
            world.ledger.growth_total = world.ledger.total
        if world.t % bin_size == 0:
            world.sample_bin()
        if invariant_hook is not None:
            invariant_hook(world, event)
    if not world.bin_ts or world.bin_ts[-1] != world.t:
        world.sample_bin()
    return RunResult(
        config=cfg,
        seed=cfg.seed,
        condition=classify_condition(cfg),
        steady_state_t=world.steady_state_t,
        terminated_by=world.terminated_by,
        final_t=world.t,
        phase_boundary_t=world.phase_boundary_t,
        bin_ts=world.bin_ts,
        status_series=world.status_series,
        host_series=world.host_series,
        effectiveness_series=world.effectiveness_series,
        cum_sent_series=world.cum_sent_series,
        ledger=world.ledger,
        graph=world.graph,
        families=world.families,
        hosts=world.hosts,
        copy_events=world.copy_events,
        discovery_events=world.discovery_events,
        placements=world.placements,
        sacrifices=world.sacrifices,
        denials=world.denials,
    )
