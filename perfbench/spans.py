"""Spans around calls into uswsim, recorded from outside the program.

A ``Tracer`` replaces public functions in the program's module namespaces
with timing wrappers while a traced pass runs, and puts the originals back
afterwards.  Each wrapper is a span: its duration is added to the child
time of whatever span encloses it, so that a span's self time is its
duration minus the spans nested inside it.

The engine's event loop is split by its per-event ``invariant_hook``: the
interval between two hook calls is one event, attributed to the event kind
the hook reports.  Spans that ran inside the interval (ledger sends,
preservation and graph calls) are subtracted from it.

Everything is kept in memory; nothing is written while the pass runs.
"""

from __future__ import annotations

import os
import sys
import time
from collections import Counter, defaultdict

clock = time.perf_counter

EVENT_KINDS = ("introduce", "wander", "place", "announce", "chase", "idle")


class Tracer:
    """Self times, call counts and event counts of one traced pass."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.last_world = None
        # Child-time accumulators, one per open span; index 0 is the caller.
        self._acc = [0.0]
        self._mark = 0.0
        self._undo: list[tuple[object, str, object]] = []

    # ----- spans -------------------------------------------------------------

    def wrap(self, name, fn, observe=None):
        """Return ``fn`` wrapped in a span; ``observe(result, args)`` runs
        after the span has closed, so its cost is not charged to any layer."""
        acc, selfs, calls = self._acc, self.self_s, self.calls

        def span(*args, **kwargs):
            acc.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = acc.pop()
                acc[-1] += dt
                selfs[name] += dt - child
                calls[name] += 1
            if observe is not None:
                observe(out, args)
            return out

        return span

    def hook(self, world, event):
        """Engine ``invariant_hook``: close the interval of one event."""
        now = clock()
        acc = self._acc
        dt = now - self._mark
        key = "engine." + event
        self.self_s[key] += dt - acc[-1]
        self.calls[key] += 1
        acc[-1] = 0.0
        acc[-2] += dt
        self.last_world = world
        self._mark = clock()

    def _traced_run(self, real_run):
        def run(config):
            self._acc.append(0.0)
            self._mark = clock()
            try:
                return real_run(config, invariant_hook=self.hook)
            finally:
                tail = self._acc.pop()
                self._acc[-1] += tail

        return self.wrap("engine.run", run)

    # ----- installing and removing wrappers ---------------------------------

    def _patch(self, owners, attr, make):
        """Replace ``attr`` on every owner that has it with one wrapper."""
        present = [o for o in owners if attr in vars(o)]
        if not present:
            print(f"perfbench: trace: no {attr} on {owners}", file=sys.stderr)
            return
        original = vars(present[0])[attr]
        wrapper = make(original)
        for owner in present:
            self._undo.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, wrapper)

    def install(self, uswsim):
        """Wrap the public calls between uswsim's layers.

        ``uswsim`` is a namespace holding the imported modules ``engine``,
        ``preservation``, ``graph``, ``analysis`` and ``cli``.
        """
        engine, graph, analysis, cli = (uswsim.engine, uswsim.graph,
                                        uswsim.analysis, uswsim.cli)
        placed = uswsim.preservation.PlaceOutcome.PLACED
        counts = self.counts

        def on_send(_out, args):
            counts["engine.ledger.kind." + args[1].value] += 1

        def on_place(out, _args):
            if out is placed:
                counts["preservation.place_copy.acks"] += 1

        def on_sacrifice(out, _args):
            if out is not None:
                counts["preservation.try_sacrifice.decisions"] += 1

        def on_export(_out, args):
            counts["analysis.bytes_written"] += os.path.getsize(args[-1])

        def span(name, observe=None):
            return lambda fn: self.wrap(name, fn, observe)

        self._patch([engine, cli], "run", self._traced_run)
        self._patch([engine.World], "send", span("engine.ledger", on_send))
        self._patch([engine], "candidate_hosts", span("preservation.candidate_hosts"))
        self._patch([engine], "place_copy", span("preservation.place_copy", on_place))
        self._patch([engine], "try_sacrifice", span("preservation.try_sacrifice", on_sacrifice))
        self._patch([engine], "announce_new_host", span("preservation.announce_new_host"))
        for name in ("start_wander", "wander_step", "finalize_links"):
            self._patch([engine], name, span("graph." + name))
        for name in ("grow_graph", "clustering_coefficient", "uniform_random_graph",
                     "avg_path_length"):
            self._patch([graph], name, span("graph." + name))
        self._patch([graph.FriendshipGraph], "write_edge_list", span("graph.write_edge_list"))
        for name in ("emit_timeseries_csv", "emit_summary_json", "emit_snapshot_svg"):
            self._patch([analysis, cli], name, span("analysis." + name, on_export))
        self._patch([analysis, cli], "fit_growth_exponent", span("analysis.fit_growth_exponent"))
        self._patch([cli], "sweep_sizes", span("cli.sweep_sizes"))

    def remove(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
