"""Deterministic discrete-event loop driving introduction, wandering,
placement, announcement, sacrifice and replenishment.

``World.events()`` processes one event per iteration; ``run`` drives it to
the end.  The clock advances one tick per event.  A new DO is introduced
every ``intro_interval`` ticks until ``n_max`` exist; all other work drains
from a FIFO queue (ties broken by DO id at enqueue time).  Families act on
what they believe about hosts, go dormant when they know of no openings,
and are woken only by news.  Growth ends at the event that connects the
last DO; the run ends at ``max_events`` or when the queue drains after the
last introduction (``"steady_state"``), even with a family still open.

All randomness comes from one seeded generator, drawn in a fixed order, so
identical configurations replay identically.
"""

from __future__ import annotations

from collections import deque
from random import Random

from .graph import FriendshipGraph, WanderState, _below, finalize_links, start_wander, wander_step
from .model import MessageKind, SimConfig, host_band, status_of
from .preservation import (
    PLACED,
    Family,
    Host,
    announce_new_host,
    candidate_hosts,
    copies_to_attempt,
    eligible_donor,
    place_copy,
    try_sacrifice,
)

# The wander exchange's message kinds as module constants, for the reason
# given beside preservation's.
CONTACT, CONTACT_REPLY = MessageKind.CONTACT, MessageKind.CONTACT_REPLY
LINK_REQUEST, LINK_ACK = MessageKind.LINK_REQUEST, MessageKind.LINK_ACK


class MessageLedger:
    """How many messages were sent, one counter per kind.

    ``counts[kind.code]`` is the number of messages of that kind sent so
    far; ``growth_total`` is the total at the event that connected the last
    DO.  Every output about messages is one of these counts or a sum of
    them.  Who sent each message, to whom and when is not kept.
    """

    __slots__ = ("counts", "growth_total")

    def __init__(self):
        self.counts = [0] * len(MessageKind)
        # Messages sent up to the event that connected the last DO; None
        # while DOs are still joining.
        self.growth_total: int | None = None

    @property
    def total(self) -> int:
        return sum(self.counts)

    @property
    def growth_messages(self) -> int:
        """Messages of the growth phase: all of them if maintenance never began."""
        return self.total if self.growth_total is None else self.growth_total

    @property
    def kind_counts(self) -> dict[MessageKind, int]:
        counts = self.counts
        return {kind: counts[kind.code] for kind in MessageKind if counts[kind.code]}


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
        self.ledger = MessageLedger()
        self.phase_boundary_t: int | None = None
        self.terminated_by = "incomplete"

        # Live aggregates for O(1) sampling.  Every family has the config's
        # r_min/r_max and every host its capacity, so the status index by
        # copy count and the band by slots used are tabulated once from
        # model's rules.
        self.status_counts = [0, 0, 0, 0]
        self._status_index = [status_of(c, config.r_min, config.r_max).value - 1
                              for c in range(config.r_max + 1)]
        self._band_name = [host_band(used, config.host_capacity, True).value
                           for used in range(config.host_capacity + 1)]
        self.host_band_counts = {"white": 0, "red": 0, "yellow": 0, "green": 0, "blue": 0}

        # The copy trail, for snapshot reconstruction.
        self.copy_events: list[tuple[int, int, int, int]] = []

        self.placements = 0
        self.sacrifices = 0
        self.denials = 0

        # Per-bin series.
        self.bin_ts: list[int] = []
        self.status_series: list[tuple[float, float, float, float]] = []
        self.host_series: list[tuple[float, float, float, float, float, float]] = []
        self.effectiveness_series: list[float] = []
        self.cum_sent_series: list[int] = []

    # ----- what a finished run reports -----------------------------------

    @property
    def final_t(self) -> int:
        return self.t

    @property
    def steady_state_t(self) -> int | None:
        return self.t if self.terminated_by == "steady_state" else None

    @property
    def final_effectiveness(self) -> float:
        return self.effectiveness_series[-1] if self.effectiveness_series else 0.0

    # ----- ledger / bookkeeping hooks used by preservation ---------------

    def send(self, kind: MessageKind, frm: int | list[int], to: int | list[int]):
        """Count messages; the kind says whether ``frm``/``to`` are DO or host ids.

        One side may be a list of ids, the receivers of a fan-out or the
        senders of a fan-in: one message is counted per id.  A DO message
        from a DO to itself counts nothing and raises.
        """
        if type(to) is list:
            n, to_self = len(to), frm in to
        elif type(frm) is list:
            n, to_self = len(frm), to in frm
        else:
            n, to_self = 1, frm == to
        if to_self and kind.from_do and kind.to_do:
            raise ValueError("message sender and recipient must differ")
        self.ledger.counts[kind.code] += n

    def note_copy(self, fam: Family, host: Host, delta: int):
        """Store (+1) or remove (-1) a copy of ``fam`` on ``host`` and book it.

        The only code that changes who holds a copy."""
        if delta > 0:
            fam.copies.add(host.host_id)
            host.foreign.add(fam.do_id)
            self.placements += 1
        else:
            fam.copies.remove(host.host_id)
            host.foreign.remove(fam.do_id)
        status = self._status_index
        counts = self.status_counts
        c = len(fam.copies)
        counts[status[c - delta]] -= 1
        counts[status[c]] += 1
        band = self._band_name
        bands = self.host_band_counts
        used = len(host.foreign)
        bands[band[used - delta]] -= 1
        bands[band[used]] += 1
        self.copy_events.append((self.t, fam.do_id, host.host_id, delta))

    def note_sacrifice(self, donor: int):
        self.sacrifices += 1
        donor_fam = self.families[donor]
        if not donor_fam.pending:
            donor_fam.pending = True
            self.queue.append(("place", donor, False))

    def enqueue_chase(self, do_id: int):
        self.queue.append(("chase", do_id))

    # ----- host / family creation ----------------------------------------

    def discover_host(self, host_id: int) -> Host:
        host = self.hosts.get(host_id)
        if host is None:
            host = Host(host_id, self.config.host_capacity)
            self.hosts[host_id] = host
            self.host_band_counts["white"] += 1
        return host

    def register_family(self, fam: Family):
        """Add a family that holds no copy yet, tallied under status 0."""
        self.families[fam.do_id] = fam
        self.status_counts[0] += 1

    def introduce_do(self):
        do = len(self.families) + 1
        if do > self.config.n_max:
            raise RuntimeError("introduction past n_max")
        home = 1 + _below(self.rng, self.config.h_max)
        self.discover_host(home)
        fam = Family(do, home, self.config.r_min, self.config.r_max, self.t)
        self.register_family(fam)
        state = start_wander(do, self.graph, self.connected_order, self.rng)
        if state.connected:
            self._connect(fam)
        else:
            self.wanderers[do] = state
            self.queue.append(("wander", do))

    def _connect(self, fam: Family):
        self.connected_order.append(fam.do_id)
        self.wanderers.pop(fam.do_id, None)
        fam.pending = True
        self.queue.append(("place", fam.do_id, True))
        if not self.wanderers and len(self.families) == self.config.n_max:
            # The last DO has joined: growth ends with this event.  _connect
            # is the last step of every event that calls it, so the event's
            # messages are all in the ledger.
            self.phase_boundary_t = self.t
            self.ledger.growth_total = self.ledger.total

    # ----- event processing ----------------------------------------------

    def _process_wander(self, do: int):
        state = self.wanderers[do]
        visited = state.current
        self.send(CONTACT, do, visited)
        self.send(CONTACT_REPLY, visited, do)
        if wander_step(state, self.graph, self.config.link_probability, self.rng):
            friends = finalize_links(state, self.graph, self.config.extra_link_fraction, self.rng)
            self.send(LINK_REQUEST, do, friends)
            self.send(LINK_ACK, friends, do)
            self._connect(self.families[do])
        else:
            self.queue.append(("wander", do))

    def _contact(self, fam: Family, host_id: int) -> bool:
        """One request to one host; returns True when a copy landed.

        A full host may make room for a family below its r_min by a
        sacrifice (``try_sacrifice``); any other request gets a plain yes or
        no (``place_copy``).  Both send the exchange; a no counts a denial."""
        host = self.hosts[host_id]
        if len(host.foreign) >= host.capacity and len(fam.copies) < fam.r_min:
            landed = try_sacrifice(fam, host_id, self) is not None
        else:
            landed = place_copy(fam, host_id, self) is PLACED
        if not landed:
            self.denials += 1
        return landed

    def _process_place(self, do: int, first: bool):
        """Survey attempt over the candidate list, best believed host first.

        Candidates rank as ``candidate_hosts`` ranks them: hosts the family
        has never heard about first, by id, then the ones it has heard
        about by believed free slots, then by id.  The policy's desired
        count is the contact budget for this event, passed as the ranking's
        ``limit``: a Least family asks one host and lives with the answer,
        an aggressive first connection keeps asking through denials until
        its goal or its budget runs out.  Hosts the family already believes
        full are not worth a message unless it is still short of r_min and
        hoping for a sacrifice, so a settled family with no believed
        openings stays quiet.
        """
        fam = self.families[do]
        fam.pending = False
        c = len(fam.copies)
        desired = copies_to_attempt(self.config.policy, c, fam.r_min, fam.r_max, first)
        if desired <= 0:
            return
        cap = self.config.host_capacity
        new_hosts: list[int] = []
        # Each contact lands at most one copy and desired <= r_max - c, so
        # the budget alone keeps the family within r_max.
        for host_id in candidate_hosts(fam, self, desired):
            if fam.believed_free.get(host_id, cap) <= 0 and len(fam.copies) >= fam.r_min:
                break  # only hosts it believes full remain
            fresh = host_id not in fam.known_hosts
            if self._contact(fam, host_id):
                fam.known_hosts.add(host_id)
                if fresh:
                    new_hosts.append(host_id)
        if new_hosts:
            self.queue.append(("announce", fam.do_id, tuple(new_hosts)))

    def _process_chase(self, do: int):
        """Visit the one announced host this family has been pointed at."""
        fam = self.families[do]
        host_id = fam.chase_target
        fam.chase_target = None
        # announce_new_host never points a family at its own home host.
        if len(fam.copies) < fam.r_max and host_id not in fam.copies:
            self._contact(fam, host_id)

    def _process_announce(self, do: int, host_ids: tuple[int, ...]):
        fam = self.families[do]
        for h in host_ids:
            announce_new_host(fam, h, self)

    # ----- openings and bin sampling ----------------------------------------

    def family_has_opening(self, fam: Family) -> bool:
        """Can this family place a copy right now, directly or via sacrifice?"""
        if fam.do_id in self.wanderers or fam.copy_count >= fam.r_max:
            return False
        below_min = fam.copy_count < fam.r_min
        for host_id in candidate_hosts(fam, self):
            host = self.hosts[host_id]
            if host.used < host.capacity:
                return True
            if below_min and eligible_donor(host, self) is not None:
                return True
        return False

    def sample_bin(self):
        # Never empty: every run's first event introduces a DO.
        n = len(self.families)
        fracs = tuple(c / n for c in self.status_counts)
        rank_sum = sum(rank * c for rank, c in enumerate(self.status_counts, 1))
        eff = (rank_sum - n) / (3 * n)
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

    # ----- the event loop ----------------------------------------------------

    def events(self):
        """Process the run one event per iteration and yield each event's kind
        (``"introduce"``, ``"wander"``, ``"place"``, ``"announce"``, ``"chase"``,
        ``"idle"``); at the end, set ``terminated_by`` and take the last bin sample."""
        cfg = self.config
        queue = self.queue
        while True:
            joining = len(self.families) < cfg.n_max
            if not joining and not queue:
                # Every DO is in, none is wandering and none is queued to act.
                # Tested before the cap: a run that drains at its cap is steady.
                self.terminated_by = "steady_state"
                break
            if self.t >= cfg.max_events:
                self.terminated_by = "max_events"
                break
            intro_due = joining and self.t % cfg.intro_interval == 0
            self.t += 1
            if intro_due:
                self.introduce_do()
                event = "introduce"
            elif queue:
                item = queue.popleft()
                event = item[0]
                if event == "wander":
                    self._process_wander(item[1])
                elif event == "place":
                    self._process_place(item[1], item[2])
                elif event == "announce":
                    self._process_announce(item[1], item[2])
                else:
                    self._process_chase(item[1])
            else:
                event = "idle"
            if self.t % cfg.bin_size == 0:
                self.sample_bin()
            yield event
        if not self.bin_ts or self.bin_ts[-1] != self.t:
            self.sample_bin()


def run(config: SimConfig, invariant_hook=None) -> World:
    """Run one simulation to its end and return the finished world.
    ``invariant_hook(world, event)``, called after every event, has one user,
    the benchmark's tracer; other callers iterate ``World.events()``."""
    world = World(config)
    for event in world.events():
        if invariant_hook is not None:
            invariant_hook(world, event)
    return world
