"""Per-endpoint and per-bin message counts, tallied from a recorder's rows.

The simulator's ``MessageLedger`` keeps only one counter per kind.  The
tests also check who sent each message, to whom, and in which time bin:
they run the engine inside a ``MessageRecorder`` and tally those views
from its rows in plain Python, as an oracle that shares no code with the
engine.  Each view is a dict keyed by id (and then by bin index
``t // bin_size``); the kind says whether an id names a DO or a host.
"""

from collections import Counter

from uswsim.engine import World
from uswsim.model import MessageKind


class MessageRecorder:
    """Keeps every message sent by any ``World`` while it is entered, as one
    ``(kind, time, sender, receiver)`` row, in the order it was sent.

    Entering it wraps ``World.send`` and ``World.send_each`` on the class;
    each wrapper calls the original first, so a send that raises leaves no
    row.  Leaving it puts the originals back.
    """

    def __init__(self):
        self.rows: list[tuple[MessageKind, int, int, int]] = []

    def __enter__(self):
        rows = self.rows
        send, send_each = self._originals = World.send, World.send_each

        def recorded_send(world, kind, frm, to):
            send(world, kind, frm, to)
            rows.append((kind, world.t, frm, to))

        def recorded_send_each(world, kind, frm, to):
            send_each(world, kind, frm, to)
            t = world.t
            if isinstance(frm, list):
                rows.extend((kind, t, other, to) for other in frm)
            else:
                rows.extend((kind, t, frm, other) for other in to)

        World.send, World.send_each = recorded_send, recorded_send_each
        return self

    def __exit__(self, *exc_info):
        World.send, World.send_each = self._originals

    def kind_counts(self) -> dict[MessageKind, int]:
        """Rows per kind; a kind with no row is left out, as in the ledger's."""
        return dict(Counter(kind for kind, _, _, _ in self.rows))


def _nested(pairs: Counter) -> dict[int, dict[int, int]]:
    out: dict[int, dict[int, int]] = {}
    for (key, b), n in pairs.items():
        out.setdefault(key, {})[b] = n
    return out


def messages(recorder) -> list[tuple[MessageKind, int, int]]:
    """(kind, sender, receiver) for each message, in the order sent."""
    return [(kind, frm, to) for kind, _, frm, to in recorder.rows]


def do_sent(recorder) -> dict[int, int]:
    return dict(Counter(frm for kind, _, frm, _ in recorder.rows if kind.from_do))


def do_received(recorder) -> dict[int, int]:
    return dict(Counter(to for kind, _, _, to in recorder.rows if kind.to_do))


def host_sent(recorder) -> dict[int, int]:
    return dict(Counter(frm for kind, _, frm, _ in recorder.rows if not kind.from_do))


def host_received(recorder) -> dict[int, int]:
    return dict(Counter(to for kind, _, _, to in recorder.rows if not kind.to_do))


def do_sent_bins(recorder, bin_size: int) -> dict[int, dict[int, int]]:
    return _nested(Counter((frm, t // bin_size)
                           for kind, t, frm, _ in recorder.rows if kind.from_do))


def do_received_bins(recorder, bin_size: int) -> dict[int, dict[int, int]]:
    return _nested(Counter((to, t // bin_size)
                           for kind, t, _, to in recorder.rows if kind.to_do))


def sys_sent_bins(recorder, bin_size: int) -> dict[int, int]:
    return dict(Counter(t // bin_size for _, t, _, _ in recorder.rows))


# Every message is received exactly once, in the bin it was sent in.
sys_received_bins = sys_sent_bins


def views(recorder, bin_size: int) -> dict[str, dict]:
    """Every view above by name."""
    return {
        "do_sent": do_sent(recorder),
        "do_received": do_received(recorder),
        "host_sent": host_sent(recorder),
        "host_received": host_received(recorder),
        "do_sent_bins": do_sent_bins(recorder, bin_size),
        "do_received_bins": do_received_bins(recorder, bin_size),
        "sys_sent_bins": sys_sent_bins(recorder, bin_size),
        "sys_received_bins": sys_received_bins(recorder, bin_size),
    }
