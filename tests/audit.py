"""The bookkeeping audit every test shares, and hand-built worlds to run it on.

``audit(world)`` lists each way a world's bookkeeping disagrees with itself:
copies against hosts, slots against the ledger's acks less its sacrifice
directives, and each message kind against the one it pairs with.
``Instrumentation`` runs it during a run, together with the per-event
sacrifice rules (``sacrifice_violations``), and
``run_instrumented`` also checks, at the end, a ``RecordingWorld``'s rows
against its ledger, the replayed copy trail against who holds each copy
(``trail_violations``) and the friendship graph's rows against each other
(``graph_violations``).
"""

from ledger_views import RecordingWorld, kind_counts
from uswsim.model import MessageKind, SimConfig
from uswsim.preservation import Family


def make_world(**overrides) -> RecordingWorld:
    defaults = dict(n_max=20, h_max=50, r_min=3, r_max=5, host_capacity=5, seed=1)
    defaults.update(overrides)
    return RecordingWorld(SimConfig(**defaults))


def add_family(world, do, home, copies=(), r_min=None, r_max=None):
    """Register a family at ``home`` holding ``copies``, as a joined node of the graph."""
    world.discover_host(home)
    fam = Family(do, home, r_min or world.config.r_min, r_max or world.config.r_max, 0)
    world.register_family(fam)
    world.graph.add_node(do)
    for h in copies:
        world.note_copy(fam, world.discover_host(h), 1)
    return fam


def audit(world) -> list[str]:
    """Every broken invariant of ``world`` between events, as one line each."""
    found = []
    # Every believed free-slot count is one a host reported after a
    # request, so it stays below the capacity (0 when that is 0).
    # candidate_hosts ranks by that premise.
    believed_top = max(world.config.host_capacity, 1)
    copies_sum = 0
    for do, fam in world.families.items():
        if fam.copy_count > fam.r_max:
            found.append(f"family {do} above r_max")
        if fam.believed_free and max(fam.believed_free.values()) >= believed_top:
            found.append(f"family {do} believes a host has {max(fam.believed_free.values())} "
                         f"free slots of {world.config.host_capacity}")
        if fam.home_host in fam.copies:
            found.append(f"family {do} copied onto its own host")
        copies_sum += fam.copy_count
        for host_id in fam.copies:
            if do not in world.hosts[host_id].foreign:
                found.append(f"family {do} and host {host_id} disagree")
    used_sum = 0
    for host in world.hosts.values():
        if host.used > host.capacity:
            found.append(f"host {host.host_id} above capacity")
        used_sum += host.used
        for do in host.foreign:
            if host.host_id not in world.families[do].copies:
                found.append(f"host {host.host_id} and family {do} disagree")
    # Each copy stored is acknowledged and each one removed is a sacrifice,
    # so the copies held are the ledger's acks less its directives.
    counts = world.ledger.counts
    moved = counts[MessageKind.COPY_ACK.code] - counts[MessageKind.SACRIFICE_DIRECTIVE.code]
    if copies_sum != used_sum or copies_sum != moved:
        found.append("copy/slot sums diverged")
    return found + pairing_violations(world)


def pairing_violations(world) -> list[str]:
    """Protocol pairings that hold between events: each contact its reply,
    each link its request and ack, each copy request its ack or deny."""
    counts = world.ledger.kind_counts
    n = {kind: counts.get(kind, 0) for kind in MessageKind}
    K = MessageKind
    edges = world.graph.edge_count
    checks = (
        (n[K.CONTACT] == n[K.CONTACT_REPLY],
         f"contact {n[K.CONTACT]} != contact_reply {n[K.CONTACT_REPLY]}"),
        (n[K.LINK_REQUEST] == n[K.LINK_ACK] == edges,
         f"link_request {n[K.LINK_REQUEST]} / link_ack {n[K.LINK_ACK]} / edges {edges}"),
        (n[K.COPY_REQUEST] == n[K.COPY_ACK] + n[K.COPY_DENY],
         f"copy_request {n[K.COPY_REQUEST]} != copy_ack {n[K.COPY_ACK]} "
         f"+ copy_deny {n[K.COPY_DENY]}"),
    )
    return [f"message pairing broke: {what}" for ok, what in checks if not ok]


def recording_violations(world: RecordingWorld) -> list[str]:
    """Whether the world recorded each counted message once: its rows per
    kind match the ledger's counts."""
    recorded, counts = kind_counts(world), world.ledger.kind_counts
    off = {k.value: (recorded.get(k, 0), counts.get(k, 0))
           for k in MessageKind if recorded.get(k, 0) != counts.get(k, 0)}
    return [f"recorded rows and ledger counts differ by kind {off}"] if off else []


def trail_violations(world) -> list[str]:
    """Whether replaying ``World.copy_events`` from t = 0 gives exactly each
    family's ``copies`` and each host's ``foreign``: every move adds a copy
    not yet held or removes one that is, and the copies left are those held."""
    held = set()
    found = []
    for t, do, host, delta in world.copy_events:
        pair = (do, host)
        if delta == 1 and pair not in held:
            held.add(pair)
        elif delta == -1 and pair in held:
            held.remove(pair)
        else:
            found.append(f"trail moves {delta:+d} copy of family {do} on host {host} at t={t}")
    by_family = {(do, h) for do, fam in world.families.items() for h in fam.copies}
    by_host = {(do, host.host_id) for host in world.hosts.values() for do in host.foreign}
    for side, actual in (("families' copies", by_family), ("hosts' foreign", by_host)):
        if actual != held:
            off = sorted(actual ^ held)
            found.append(f"replayed trail and {side} differ in {len(off)} (do, host) "
                         f"pairs, first {off[:3]}")
    return found


def graph_violations(graph) -> list[str]:
    """Whether ``graph``'s rows form a simple undirected graph: each row is
    a list with no self-loop and no neighbour twice, each entry is mirrored
    in the other node's row, and the row lengths sum to twice the edge
    count."""
    rows = graph.adj
    neighbours = {u: set(row) for u, row in rows.items()}
    found = []
    for u, row in rows.items():
        if type(row) is not list:
            found.append(f"node {u}'s row is a {type(row).__name__}, not a list")
        if u in neighbours[u]:
            found.append(f"node {u} links to itself")
        if len(neighbours[u]) != len(row):
            found.append(f"node {u} lists a neighbour twice")
        found += [f"edge {u}-{v} is not mirrored" for v in row
                  if u not in neighbours.get(v, ())]
    total = sum(map(len, rows.values()))
    if total != 2 * graph.edge_count:
        found.append(f"row lengths sum to {total}, not twice the {graph.edge_count} edges")
    return found


def sacrifice_violations(families, moves):
    """Copy moves of one event (its slice of ``World.copy_events``) that break
    the sacrifice rules, given ``families`` as the event left them.  A copy
    leaves a host only in a sacrifice: the next move stores another family's
    copy on that host, the donor keeps at least its r_min and one copy, and
    the beneficiary was below its r_min."""
    held = {}
    for _, do, _, delta in moves:  # wind each family back to its count before the event
        held[do] = held.get(do, families[do].copy_count) - delta
    found = []
    for i, (t, do, host, delta) in enumerate(moves):
        held[do] += delta
        if delta > 0:
            continue
        taker = moves[i + 1][1] if i + 1 < len(moves) else None
        if taker is None or moves[i + 1][2:] != (host, 1) or taker == do:
            found.append(f"family {do} lost its copy on host {host} at t={t} "
                         f"and no other family's copy took the slot")
            continue
        if held[do] < max(families[do].r_min, 1):
            found.append(f"donor {do} left with {held[do]} copies at t={t}")
        if held[taker] >= families[taker].r_min:
            found.append(f"beneficiary {taker} held {held[taker]} copies, "
                         f"not below its r_min, at t={t}")
    return found


class Instrumentation:
    """Per-event invariant monitor.

    Each event's slice of the copy trail is checked against the sacrifice
    rules; ``audit`` runs every 200 events and at each run end, where the
    run's recorded message rows are also checked against its ledger and its
    copy trail against who holds each copy.
    """

    AUDIT_EVERY = 200

    def __init__(self):
        self.events = 0
        self.violations = []

    def after_event(self, world, moves):
        """Check ``world`` after one event whose copy moves were ``moves``."""
        self.events += 1
        if moves:
            self.violations += sacrifice_violations(world.families, moves)
        if self.events % self.AUDIT_EVERY == 0:
            self.violations += audit(world)


def run_instrumented(config, monitor) -> RecordingWorld:
    """Run ``config`` to its end under ``monitor`` and return the finished world."""
    world = RecordingWorld(config)
    seen = 0
    for _ in world.events():
        trail = world.copy_events
        monitor.after_event(world, trail[seen:])
        seen = len(trail)
    monitor.violations += (audit(world) + recording_violations(world) + trail_violations(world)
                           + graph_violations(world.graph))
    return world
