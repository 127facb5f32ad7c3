"""Per-endpoint and per-bin message counts, tallied from a recording world's rows.

The simulator's ``MessageLedger`` keeps only one counter per kind.  The
tests also check who sent each message, to whom, and in which time bin:
they run the engine on a ``RecordingWorld`` and tally those views from its
rows in plain Python, as an oracle that shares no code with the engine.  Each view is a dict keyed by id (and then by bin index
``t // bin_size``); the kind says whether an id names a DO or a host.
"""

from collections import Counter

from uswsim.engine import World
from uswsim.model import MessageKind


class RecordingWorld(World):
    """A ``World`` that also keeps every message it sends as one
    ``(kind, time, sender, receiver)`` row of ``rows``, in the order sent.

    Each send calls ``World``'s first, so a send that raises leaves no row.
    """

    def __init__(self, config):
        super().__init__(config)
        self.rows: list[tuple[MessageKind, int, int, int]] = []

    def send(self, kind, frm, to):
        World.send(self, kind, frm, to)
        t = self.t
        if type(to) is list:
            self.rows.extend((kind, t, frm, other) for other in to)
        elif type(frm) is list:
            self.rows.extend((kind, t, other, to) for other in frm)
        else:
            self.rows.append((kind, t, frm, to))


def recorded_run(config) -> RecordingWorld:
    """``engine.run`` on a ``RecordingWorld``: the finished world and its rows."""
    world = RecordingWorld(config)
    for _ in world.events():
        pass
    return world


def kind_counts(world) -> dict[MessageKind, int]:
    """Rows per kind; a kind with no row is left out, as in the ledger's."""
    return dict(Counter(kind for kind, _, _, _ in world.rows))


def _nested(pairs: Counter) -> dict[int, dict[int, int]]:
    out: dict[int, dict[int, int]] = {}
    for (key, b), n in pairs.items():
        out.setdefault(key, {})[b] = n
    return out


def messages(world) -> list[tuple[MessageKind, int, int]]:
    """(kind, sender, receiver) for each message, in the order sent."""
    return [(kind, frm, to) for kind, _, frm, to in world.rows]


def do_sent(world) -> dict[int, int]:
    return dict(Counter(frm for kind, _, frm, _ in world.rows if kind.from_do))


def do_received(world) -> dict[int, int]:
    return dict(Counter(to for kind, _, _, to in world.rows if kind.to_do))


def host_sent(world) -> dict[int, int]:
    return dict(Counter(frm for kind, _, frm, _ in world.rows if not kind.from_do))


def host_received(world) -> dict[int, int]:
    return dict(Counter(to for kind, _, _, to in world.rows if not kind.to_do))


def do_sent_bins(world, bin_size: int) -> dict[int, dict[int, int]]:
    return _nested(Counter((frm, t // bin_size)
                           for kind, t, frm, _ in world.rows if kind.from_do))


def do_received_bins(world, bin_size: int) -> dict[int, dict[int, int]]:
    return _nested(Counter((to, t // bin_size)
                           for kind, t, _, to in world.rows if kind.to_do))


def sys_sent_bins(world, bin_size: int) -> dict[int, int]:
    return dict(Counter(t // bin_size for _, t, _, _ in world.rows))


# Every message is received exactly once, in the bin it was sent in.
sys_received_bins = sys_sent_bins


def views(world, bin_size: int) -> dict[str, dict]:
    """Every view above by name."""
    return {
        "do_sent": do_sent(world),
        "do_received": do_received(world),
        "host_sent": host_sent(world),
        "host_received": host_received(world),
        "do_sent_bins": do_sent_bins(world, bin_size),
        "do_received_bins": do_received_bins(world, bin_size),
        "sys_sent_bins": sys_sent_bins(world, bin_size),
        "sys_received_bins": sys_received_bins(world, bin_size),
    }
