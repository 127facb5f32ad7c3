"""Per-endpoint and per-bin message counts, tallied from the ledger's columns.

The simulator derives only per-kind and per-phase counts from its
``MessageLedger``.  The tests also check who sent each message, to whom,
and in which time bin; this module tallies those views in plain Python
over ``zip(kinds, times, senders, receivers)``, as an oracle that shares
no code with the engine.  Each view is a dict keyed by id (and then by bin
index ``t // bin_size``); the kind says whether an id names a DO or a host.
"""

from collections import Counter

from uswsim.model import MessageKind

_KIND = {kind.code: kind for kind in MessageKind}


def _rows(ledger):
    """(kind, time, sender, receiver) for each message, in ledger order."""
    for code, t, frm, to in zip(ledger.kinds, ledger.times, ledger.senders, ledger.receivers):
        yield _KIND[code], t, frm, to


def _nested(pairs: Counter) -> dict[int, dict[int, int]]:
    out: dict[int, dict[int, int]] = {}
    for (key, b), n in pairs.items():
        out.setdefault(key, {})[b] = n
    return out


def messages(ledger) -> list[tuple[MessageKind, int, int]]:
    """(kind, sender, receiver) for each message, in ledger order."""
    return [(kind, frm, to) for kind, _, frm, to in _rows(ledger)]


def do_sent(ledger) -> dict[int, int]:
    return dict(Counter(frm for kind, _, frm, _ in _rows(ledger) if kind.from_do))


def do_received(ledger) -> dict[int, int]:
    return dict(Counter(to for kind, _, _, to in _rows(ledger) if kind.to_do))


def host_sent(ledger) -> dict[int, int]:
    return dict(Counter(frm for kind, _, frm, _ in _rows(ledger) if not kind.from_do))


def host_received(ledger) -> dict[int, int]:
    return dict(Counter(to for kind, _, _, to in _rows(ledger) if not kind.to_do))


def do_sent_bins(ledger, bin_size: int) -> dict[int, dict[int, int]]:
    return _nested(Counter((frm, t // bin_size)
                           for kind, t, frm, _ in _rows(ledger) if kind.from_do))


def do_received_bins(ledger, bin_size: int) -> dict[int, dict[int, int]]:
    return _nested(Counter((to, t // bin_size)
                           for kind, t, _, to in _rows(ledger) if kind.to_do))


def sys_sent_bins(ledger, bin_size: int) -> dict[int, int]:
    return dict(Counter(t // bin_size for t in ledger.times))


# Every message is received exactly once, in the bin it was sent in.
sys_received_bins = sys_sent_bins


def views(ledger, bin_size: int) -> dict[str, dict]:
    """Every view above by name."""
    return {
        "do_sent": do_sent(ledger),
        "do_received": do_received(ledger),
        "host_sent": host_sent(ledger),
        "host_received": host_received(ledger),
        "do_sent_bins": do_sent_bins(ledger, bin_size),
        "do_received_bins": do_received_bins(ledger, bin_size),
        "sys_sent_bins": sys_sent_bins(ledger, bin_size),
        "sys_received_bins": sys_received_bins(ledger, bin_size),
    }
