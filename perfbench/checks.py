"""Correctness checks computed in the benchmark, apart from the program.

Each function returns a list of problems; an empty list means the outputs
passed.  They read only what a run hands back (the ``RunResult``, the
graph, the files written) and recompute every figure they compare with
their own code: plain BFS, plain triangle counts, plain tallies.
"""

from __future__ import annotations

import json
import math
import xml.etree.ElementTree as ET


def _rank(c: int, r_min: int, r_max: int) -> int:
    """Preservation status rank 1..4: none made, partial, at r_min, at r_max."""
    if c == 0:
        return 1
    if c < r_min:
        return 2
    if c < r_max:
        return 3
    return 4


def check_run(label: str, result, *, feast: bool) -> list[str]:
    """Message pairing, copy conservation, capacity and status bookkeeping."""
    problems = []

    def need(ok, what):
        if not ok:
            problems.append(f"{label}: {what}")

    ledger = result.ledger
    kinds = {k.value: n for k, n in ledger.kind_counts.items()}
    k = kinds.get
    edges = result.graph.edge_count
    need(k("contact", 0) == k("contact_reply", 0), f"contact {k('contact', 0)} != "
         f"contact_reply {k('contact_reply', 0)}")
    need(k("link_request", 0) == k("link_ack", 0) == edges,
         f"link_request {k('link_request', 0)} / link_ack {k('link_ack', 0)} / edges {edges}")
    need(k("copy_request", 0) == k("copy_ack", 0) + k("copy_deny", 0),
         f"copy_request {k('copy_request', 0)} != "
         f"ack {k('copy_ack', 0)} + deny {k('copy_deny', 0)}")
    need(k("copy_ack", 0) == result.placements,
         f"copy_ack {k('copy_ack', 0)} != placements {result.placements}")
    need(k("copy_deny", 0) == result.denials,
         f"copy_deny {k('copy_deny', 0)} != denials {result.denials}")
    need(k("sacrifice_directive", 0) == result.sacrifices,
         f"sacrifice_directive {k('sacrifice_directive', 0)} != sacrifices {result.sacrifices}")
    need(sum(kinds.values()) == ledger.total,
         f"message kinds sum to {sum(kinds.values())}, ledger total {ledger.total}")

    fams = result.families
    held = sum(f.copy_count for f in fams.values())
    used = sum(h.used for h in result.hosts.values())
    need(held == result.placements - result.sacrifices == used,
         f"copies held {held}, placements - sacrifices "
         f"{result.placements - result.sacrifices}, host slots used {used}")
    over = [d for d, f in fams.items() if f.copy_count > f.r_max]
    need(not over, f"{len(over)} families above r_max, first {over[:1]}")
    home = [d for d, f in fams.items() if f.home_host in f.copies]
    need(not home, f"{len(home)} families hold a copy on their home host, first {home[:1]}")
    full = [h for h, host in result.hosts.items() if host.used > host.capacity]
    need(not full, f"{len(full)} hosts above capacity, first {full[:1]}")

    n = len(fams)
    tally = [0, 0, 0, 0]
    for f in fams.values():
        tally[_rank(f.copy_count, f.r_min, f.r_max) - 1] += 1
    eff = (sum((i + 1) * c for i, c in enumerate(tally)) - n) / (3 * n)
    need(math.isclose(result.final_effectiveness, eff, rel_tol=0, abs_tol=1e-12),
         f"final_effectiveness {result.final_effectiveness} re-scored as {eff}")
    last = result.status_series[-1]
    fresh = [c / n for c in tally]
    need(all(math.isclose(a, b, rel_tol=0, abs_tol=1e-12) for a, b in zip(last, fresh)),
         f"last bin status fractions {last} vs fresh tally {fresh}")

    cum = result.cum_sent_series
    need(all(a <= b for a, b in zip(cum, cum[1:])), "cum_sent_series decreases")
    need(cum[-1] == ledger.total, f"last cum_sent {cum[-1]} != ledger total {ledger.total}")
    if feast:
        need(result.denials == 0 and result.sacrifices == 0,
             f"feast run with {result.denials} denials, {result.sacrifices} sacrifices")
    need(len(result.graph) == result.config.n_max,
         f"graph has {len(result.graph)} nodes for n_max {result.config.n_max}")
    problems += check_graph(label, result.graph)
    return problems


def adjacency(graph) -> list[set[int]]:
    """Neighbour sets re-indexed 0..n-1 in ascending node order."""
    nodes = graph.nodes()
    index = {u: i for i, u in enumerate(nodes)}
    return [{index[v] for v in graph.neighbors(u)} for u in nodes]


def bfs_levels(adj: list[set[int]], src: int) -> tuple[int, int, int]:
    """Plain BFS by frontier sets: (sum of distances, nodes reached, eccentricity)."""
    seen = {src}
    frontier = {src}
    total = 0
    depth = 0
    while True:
        nxt = set().union(*(adj[u] for u in frontier)) - seen
        if not nxt:
            return total, len(seen), depth
        depth += 1
        total += depth * len(nxt)
        seen |= nxt
        frontier = nxt


def check_graph(label: str, graph, *, connected: bool = True) -> list[str]:
    """Simple (no self-loops), symmetric, edge count consistent and, unless
    told otherwise, connected."""
    problems = []
    nodes = graph.nodes()
    degree_sum = 0
    for u in nodes:
        nb = graph.neighbors(u)
        degree_sum += len(nb)
        if u in nb:
            problems.append(f"{label}: self-loop on {u}")
        for v in nb:
            if u not in graph.neighbors(v):
                problems.append(f"{label}: edge {u}-{v} is one-way")
                break
    if degree_sum != 2 * graph.edge_count:
        problems.append(f"{label}: degree sum {degree_sum} != 2 * edge_count {graph.edge_count}")
    if connected and nodes:
        _, reached, _ = bfs_levels(adjacency(graph), 0)
        if reached != len(nodes):
            problems.append(f"{label}: connected component of node {nodes[0]} "
                            f"holds {reached} of {len(nodes)} nodes")
    return problems


def clustering_by_triangles(graph) -> float:
    """Mean local clustering from per-node triangle counts."""
    adj = adjacency(graph)
    total = 0.0
    for nb in adj:
        k = len(nb)
        if k < 2:
            continue
        # Each edge among the neighbours is seen from both of its ends.
        twice_links = sum(len(nb & adj[v]) for v in nb)
        total += twice_links / (k * (k - 1))
    return total / len(adj)


def check_clustering(label: str, graph, value: float) -> list[str]:
    mine = clustering_by_triangles(graph)
    if not math.isclose(value, mine, rel_tol=1e-9, abs_tol=1e-12):
        return [f"{label}: clustering_coefficient {value} vs triangle count {mine}"]
    return []


def check_path_length(label: str, graph, value, *, exact: bool) -> list[str]:
    """``avg_path_length`` against an all-pairs BFS, or against bounds.

    The bounds hold for any connected graph: every pair that is not an edge
    is at least 2 apart, and any two nodes are within ecc(v) of some v.
    """
    mean, disconnected = value
    if disconnected:
        return [f"{label}: avg_path_length reports a disconnected graph"]
    adj = adjacency(graph)
    n = len(adj)
    pairs = n * (n - 1) // 2
    if exact:
        total = sum(bfs_levels(adj, s)[0] for s in range(n))
        mine = total / (2 * pairs)
        if not math.isclose(mean, mine, rel_tol=1e-12):
            return [f"{label}: avg_path_length {mean} vs BFS {mine}"]
        return []
    lower = 2 - graph.edge_count / pairs
    ecc = bfs_levels(adj, 0)[2]
    if not lower <= mean <= 2 * ecc:
        return [f"{label}: avg_path_length {mean} outside [{lower}, {2 * ecc}]"]
    return []


def check_csv(label: str, path, result) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        rows = fh.read().splitlines()
    if len(rows) - 1 != len(result.bin_ts):
        return [f"{label}: CSV has {len(rows) - 1} rows for {len(result.bin_ts)} bins"]
    return []


def check_summary_json(label: str, path, summary: dict) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        parsed = json.load(fh)
    if parsed != summary:
        return [f"{label}: summary JSON does not parse to summary_dict"]
    return []


def check_edge_list(label: str, path, graph) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        pairs = [tuple(map(int, line.split())) for line in fh]
    bad = [(u, v) for u, v in pairs if not (u < v and graph.has_edge(u, v))]
    if len(pairs) != graph.edge_count or len(set(pairs)) != len(pairs) or bad:
        return [f"{label}: edge list has {len(pairs)} lines for {graph.edge_count} edges, "
                f"{len(bad)} not ascending graph edges"]
    return []


def check_svg(label: str, path) -> list[str]:
    try:
        root = ET.parse(path).getroot()
    except ET.ParseError as exc:
        return [f"{label}: snapshot SVG does not parse: {exc}"]
    if root.tag != "{http://www.w3.org/2000/svg}svg":
        return [f"{label}: snapshot root element is {root.tag}"]
    return []


def least_squares_slope(xs, ys) -> float:
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def check_fit(label: str, fit, points: list[tuple[int, int]]) -> list[str]:
    """A growth fit against the sweep members' growth totals."""
    sizes = [n for n, _ in points]
    totals = [t for _, t in points]
    if fit.sizes != sizes or fit.totals != totals:
        return [f"{label}: fit over {fit.sizes}/{fit.totals}, runs gave {sizes}/{totals}"]
    slope = least_squares_slope([math.log(n) for n in sizes], [math.log(t) for t in totals])
    if not math.isclose(fit.slope, slope, rel_tol=1e-9):
        return [f"{label}: fitted slope {fit.slope} vs least squares {slope}"]
    return []
