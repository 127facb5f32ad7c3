"""The benchmark's three workloads.

Each workload makes its inputs from the base seed and splits a pass into
items.  ``run_item`` is the timed part: it calls the unmodified program and
returns what the program handed back.  ``check_item`` runs untimed, right
after, and checks that output before it is dropped, so no item's output is
alive while the next one is timed.  Every pass runs the same items, so a
run attempts whole rounds of the same operations.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from random import Random

import checks

# Snapshot times rendered by each reference run; both fall inside every
# reference run, which lasts at least n_max * intro_interval = 7500 events.
SNAPSHOTS = (1500, 3500)


@dataclass
class Report:
    """Operations attempted and failed, and every check that did not hold."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)

    def fail(self, what: str, ops: int = 1):
        self.failed += ops
        self.errors.append(what)


@dataclass
class PassStats:
    """Work done: simulated events and messages, and friendship-graph size."""

    events: int = 0
    messages: int = 0
    graph_nodes: int = 0
    graph_edges: int = 0

    def add_run(self, result):
        self.events += result.final_t
        self.messages += result.ledger.total
        self.add_graph(result.graph)

    def add_graph(self, graph):
        self.graph_nodes += len(graph)
        self.graph_edges += graph.edge_count

    def __iadd__(self, other: PassStats) -> PassStats:
        self.events += other.events
        self.messages += other.messages
        self.graph_nodes += other.graph_nodes
        self.graph_edges += other.graph_edges
        return self


def seed_list(rng: Random, k: int) -> list[int]:
    return [rng.randrange(1, 2**31) for _ in range(k)]


def _same_bytes(path_a, path_b) -> bool:
    with open(path_a, "rb") as a, open(path_b, "rb") as b:
        return a.read() == b.read()


def check_determinism(usw, config, work: str, report: Report):
    """Run one item twice in-process; the two summaries must be byte-identical."""
    paths = [os.path.join(work, f"determinism_{i}.json") for i in (0, 1)]
    report.attempted += 2
    for path in paths:
        usw.analysis.emit_summary_json(usw.engine.run(config), path)
    if not _same_bytes(*paths):
        report.problems.append(f"two runs of {config} wrote different summaries")


class Reference:
    """Three policies over a seed set at the reference configuration, each
    run writing what ``uswsim run --snapshots 1500,3500 --edge-list`` writes."""

    name = "reference"
    SEEDS_PER_POLICY = 6
    ops_per_item = 1

    def __init__(self, usw, base_seed: int):
        self.usw = usw
        self.seeds = seed_list(Random(base_seed), self.SEEDS_PER_POLICY)
        self.policies = [p.value for p in usw.model.PolicyKind]
        self.items = [usw.model.SimConfig(policy=p, seed=s)
                      for p in usw.model.PolicyKind for s in self.seeds]

    def inputs(self) -> dict:
        return {"seeds": self.seeds, "policies": self.policies, "snapshots": list(SNAPSHOTS)}

    def label(self, cfg) -> str:
        return self.usw.cli.run_name(cfg)

    def prepare(self, work: str, report: Report):
        check_determinism(self.usw, self.items[0], work, report)

    def run_item(self, cfg, work: str):
        analysis = self.usw.analysis
        base = os.path.join(work, self.label(cfg))
        result = self.usw.engine.run(cfg)
        analysis.emit_timeseries_csv(result, base + ".csv")
        analysis.emit_summary_json(result, base + ".json")
        result.graph.write_edge_list(base + ".edges")
        for t in SNAPSHOTS:
            analysis.emit_snapshot_svg(result, t, base + f"_t{t}.svg")
        return result

    def check_item(self, cfg, result, work: str, report: Report) -> PassStats:
        label = self.label(cfg)
        base = os.path.join(work, label)
        p = checks.check_run(label, result, feast=False)
        p += checks.check_csv(label, base + ".csv", result)
        p += checks.check_summary_json(label, base + ".json",
                                       self.usw.analysis.summary_dict(result))
        p += checks.check_edge_list(label, base + ".edges", result.graph)
        for t in SNAPSHOTS:
            p += checks.check_svg(label, base + f"_t{t}.svg")
        report.problems += p
        stats = PassStats()
        stats.add_run(result)
        return stats


class FeastScale:
    """The feast sweep through ``cli.sweep_sizes``: three policies at every
    size, host capacity twice the size, so no host ever fills.  A pass
    sweeps three seeds, since message volume varies by about 10% between
    seeds at the same size."""

    name = "feast_scale"
    SIZES = (10, 50, 100, 250, 500, 1000)
    SWEEPS = 3

    def __init__(self, usw, base_seed: int):
        self.usw = usw
        self.items = seed_list(Random(base_seed), self.SWEEPS)
        self.ops_per_item = len(self.SIZES) * len(usw.model.PolicyKind)

    def inputs(self) -> dict:
        return {"seeds": self.items, "sizes": list(self.SIZES)}

    def label(self, seed) -> str:
        return f"sweep seed {seed}"

    def members(self, seed):
        """The runs ``sweep_sizes`` makes for one seed, as it builds them."""
        base = self.usw.model.SimConfig(seed=seed)
        return [replace(base, n_max=n, host_capacity=2 * n, policy=p)
                for n in self.SIZES for p in self.usw.model.PolicyKind]

    def prepare(self, work: str, report: Report):
        """Run every member directly, untimed, and check it in full.

        ``sweep_sizes`` returns only the fits, so the timed passes are
        checked against what these runs wrote: identical CSV bytes, and fits
        over the same growth totals.
        """
        usw = self.usw
        ref = os.path.join(work, "expected")
        os.makedirs(ref)
        self.expected: dict[str, bytes] = {}
        self.points: dict[tuple[int, str], list[tuple[int, int]]] = {}
        self.stats: dict[int, PassStats] = {}
        for seed in self.items:
            stats = self.stats[seed] = PassStats()
            for cfg in self.members(seed):
                report.attempted += 1
                name = usw.cli.run_name(cfg)
                try:
                    result = usw.engine.run(cfg)
                except Exception as exc:  # noqa: BLE001 - counted as a failed operation
                    report.fail(f"{name}: {exc!r}")
                    continue
                path = os.path.join(ref, name + ".csv")
                usw.analysis.emit_timeseries_csv(result, path)
                with open(path, "rb") as fh:
                    self.expected[name + ".csv"] = fh.read()
                report.problems += checks.check_run(name, result, feast=True)
                report.problems += checks.check_csv(name, path, result)
                growth = usw.analysis.summary_dict(result)["messages"]["growth"]
                self.points.setdefault((seed, cfg.policy.value), []).append(
                    (cfg.n_max, growth))
                stats.add_run(result)
        check_determinism(usw, self.members(self.items[0])[0], work, report)

    def run_item(self, seed, work: str):
        return self.usw.cli.sweep_sizes(list(self.SIZES), self.usw.model.SimConfig(seed=seed),
                                        out_dir=work)

    def check_item(self, seed, fits, work: str, report: Report) -> PassStats:
        label = self.label(seed)
        for (s, policy), points in self.points.items():
            if s == seed:
                report.problems += checks.check_fit(f"{label} {policy}", fits[policy], points)
        for cfg in self.members(seed):
            name = self.usw.cli.run_name(cfg) + ".csv"
            with open(os.path.join(work, name), "rb") as fh:
                if fh.read() != self.expected.get(name):
                    report.problems.append(f"{name}: sweep CSV differs from a direct run")
        return self.stats[seed]


class GraphStudy:
    """The criterion-6 study: grow a USW graph, compare its clustering with
    a uniform random graph of as many edges, and take its mean path length."""

    name = "graph_study"
    SIZES = (500, 2000)
    SEEDS_PER_SIZE = 4
    # avg_path_length and clustering are recomputed exactly up to this size.
    EXACT_UP_TO = 500
    WARMUP_NODES = 200
    ops_per_item = 1

    def __init__(self, usw, base_seed: int):
        self.usw = usw
        rng = Random(base_seed)
        self.items = [(n, s) for n in self.SIZES for s in seed_list(rng, self.SEEDS_PER_SIZE)]

    def inputs(self) -> dict:
        return {"graphs": [{"nodes": n, "seed": s, "baseline_seed": s + 10_000}
                           for n, s in self.items]}

    def label(self, item) -> str:
        return f"graph n={item[0]} seed={item[1]}"

    def prepare(self, work: str, report: Report):
        """Warm up with one small study, untimed but checked."""
        item = (self.WARMUP_NODES, self.items[0][1])
        report.attempted += self.ops_per_item
        self.check_item(item, self.run_item(item, work), work, report)

    def run_item(self, item, work: str):
        graph = self.usw.graph
        n, seed = item
        g = graph.grow_graph(n, seed=seed)
        c_usw = graph.clustering_coefficient(g)
        base = graph.uniform_random_graph(n, g.edge_count, Random(seed + 10_000))
        c_rand = graph.clustering_coefficient(base)
        path = graph.avg_path_length(g)
        return g, c_usw, base, c_rand, path

    def check_item(self, item, out, work: str, report: Report) -> PassStats:
        n, _ = item
        label = self.label(item)
        g, c_usw, base, c_rand, path = out
        exact = n <= self.EXACT_UP_TO
        p = checks.check_graph(label, g)
        if len(g) != n:
            p.append(f"{label}: grown graph has {len(g)} nodes")
        if len(base) != n or base.edge_count != g.edge_count:
            p.append(f"{label}: baseline has {len(base)} nodes, {base.edge_count} edges")
        p += checks.check_graph(f"{label} baseline", base, connected=False)
        if exact:
            p += checks.check_clustering(label, g, c_usw)
            p += checks.check_clustering(f"{label} baseline", base, c_rand)
        p += checks.check_path_length(label, g, path, exact=exact)
        report.problems += p
        # The growth process introduces each node once and sends a link
        # request and a link acknowledgment per edge.
        stats = PassStats(events=n, messages=2 * g.edge_count)
        stats.add_graph(g)
        return stats


WORKLOADS = {w.name: w for w in (Reference, FeastScale, GraphStudy)}
