import hashlib
import math
from collections import deque
from random import Random

import numpy as np
import pytest

from uswsim.graph import (
    BFS_BLOCK,
    FriendshipGraph,
    WanderState,
    avg_path_length,
    clustering_coefficient,
    finalize_links,
    grow_graph,
    start_wander,
    uniform_random_graph,
    wander_step,
    _below,
    _csr,
    _largest_component,
    _sample,
)


def graph_of(edges, nodes=()):
    g = FriendshipGraph()
    for u in nodes:
        g.add_node(u)
    for u, v in edges:
        g.add_edge(u, v)
    return g


class TestFriendshipGraph:
    def test_no_self_loops(self):
        g = FriendshipGraph()
        with pytest.raises(ValueError):
            g.add_edge(1, 1)

    def test_no_parallel_edges(self):
        g = graph_of([(1, 2)])
        assert g.add_edge(2, 1) is False
        assert g.edge_count == 1

    def test_edges_sorted_ascending(self):
        g = graph_of([(3, 1), (2, 3), (1, 2)])
        assert g.edges() == [(1, 2), (1, 3), (2, 3)]

    def test_edge_list_export(self, tmp_path):
        g = graph_of([(2, 1), (3, 1)])
        path = tmp_path / "g.edges"
        g.write_edge_list(path)
        assert path.read_text() == "1 2\n1 3\n"

    @pytest.mark.parametrize("make", [
        FriendshipGraph,
        lambda: graph_of([], nodes=[3, 1, 2]),
        lambda: graph_of([(7, 2), (2, 9)], nodes=[5, 11, 1]),
        lambda: relabel(grow_graph(300, seed=3),
                        {u: -1000 * ((u * 37) % 300) + 7 for u in range(1, 301)}),
        lambda: grow_graph(500, seed=5),
    ], ids=["empty", "isolated-nodes", "edges-and-isolated", "relabelled-sparse", "grown"])
    def test_edge_list_matches_edges_oracle(self, tmp_path, make):
        g = make()
        path = tmp_path / "g.edges"
        g.write_edge_list(path)
        assert path.read_bytes() == "".join(f"{u} {v}\n" for u, v in g.edges()).encode()


class TestWandering:
    def test_first_do_joins_without_wandering(self):
        g = FriendshipGraph()
        state = start_wander(1, g, [], Random(1))
        assert state.connected
        assert state.current is None
        assert 1 in g.adj

    def test_second_do_contacts_the_first(self):
        g = FriendshipGraph()
        g.add_node(1)
        state = start_wander(2, g, [1], Random(1))
        assert not state.connected
        assert state.current == 1

    def test_entry_uniform_over_existing_nodes(self):
        # Chi-square against uniform over three connected DOs.
        g = graph_of([(1, 2), (2, 3)])
        rng = Random(123)
        counts = {1: 0, 2: 0, 3: 0}
        trials = 10_000
        for _ in range(trials):
            state = start_wander(4, g, [1, 2, 3], rng)
            counts[state.current] += 1
            del g.adj[4]
        expected = trials / 3
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        assert chi2 < 13.8  # df=2, far beyond the 0.999 quantile

    def test_certain_link_probability_links_first_step(self):
        g = graph_of([(1, 2)])
        state = start_wander(3, g, [1, 2], Random(7))
        outcome = wander_step(state, g, 1.0, Random(7))
        assert outcome is True
        assert state.connected

    def test_expected_steps_geometric(self):
        # Mean steps to link at p=0.5 is 2; fixed-seed mean within 5%.
        rng = Random(2024)
        total = 0
        trials = 10_000
        for _ in range(trials):
            g = graph_of([(1, 2)])
            state = start_wander(3, g, [1, 2], rng)
            steps = 0
            while not state.connected:
                wander_step(state, g, 0.5, rng)
                steps += 1
            total += steps
        mean = total / trials
        assert abs(mean - 2.0) <= 0.1

    def test_glean_accumulates_without_duplicates(self):
        g = graph_of([(1, 2), (1, 3), (2, 3)])
        state = start_wander(4, g, [1, 2, 3], Random(5))
        state.current = 1
        wander_step(state, g, 0.0000001, Random(5))
        assert state.candidates == sorted(set(state.candidates))
        assert 4 not in state.candidates

    def test_glean_appends_only_new_ids_ascending(self):
        state = WanderState(9, 1)
        state.glean({4, 2})
        friends = {1024, 40, 9, 4, 17, 3, 2}
        assert list(friends) != sorted(friends)  # set order is not id order
        state.glean(friends)
        assert state.candidates == [2, 4, 3, 17, 40, 1024]
        state.glean({40, 5, 9})
        assert state.candidates == [2, 4, 3, 17, 40, 1024, 5]

    def test_isolated_current_forces_link(self):
        g = FriendshipGraph()
        g.add_node(1)
        state = start_wander(2, g, [1], Random(3))
        outcome = wander_step(state, g, 0.0000001, Random(3))
        assert outcome is True

    def test_walk_cap_forces_link(self):
        # The cap is ten steps per node, the wanderer included: 30 here.
        g = graph_of([(1, 2)])
        state = start_wander(3, g, [1, 2], Random(11))
        state.steps = 10 * len(g.adj) - 1
        outcome = wander_step(state, g, 1e-12, Random(11))
        assert outcome is True

    def test_walk_below_cap_moves_on(self):
        g = graph_of([(1, 2)])
        state = start_wander(3, g, [1, 2], Random(11))
        state.steps = 10 * len(g.adj) - 2
        outcome = wander_step(state, g, 1e-12, Random(11))
        assert outcome is False
        assert not state.connected

    def test_connected_flag_flips_once(self):
        g = graph_of([(1, 2)])
        state = start_wander(3, g, [1, 2], Random(1))
        while not state.connected:
            wander_step(state, g, 0.5, Random(1))
        with pytest.raises(ValueError):
            wander_step(state, g, 0.5, Random(1))


class TestFinalizeLinks:
    def test_no_candidates_yields_single_edge(self):
        g = FriendshipGraph()
        g.add_node(1)
        state = start_wander(2, g, [1], Random(1))
        wander_step(state, g, 1.0, Random(1))
        assert finalize_links(state, g, 0.5, Random(1)) == [1]

    def test_half_fraction_of_four_candidates_gives_three_edges(self):
        # ceil(0.5 * 4) = 2 extras on top of the first link.
        g = graph_of([(1, 2), (1, 3), (1, 4), (1, 5), (1, 6)])
        state = WanderState(7, 1)
        g.add_node(7)
        state.glean(g.neighbors(1))  # 2,3,4,5,6
        state.connected = True
        state.current = 2
        friends = finalize_links(state, g, 0.5, Random(9))
        assert len(friends) == 3
        assert friends[0] == 2
        assert len(g.neighbors(7)) == 3

    @pytest.mark.parametrize("fraction", [0.0, 0.3, 0.5, 1.0])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_per_edge_oracle(self, fraction, seed):
        # DO 9 starts adjacent to 4 and 6, two of its candidates, so with
        # a fraction of one both are drawn and must be skipped.
        base = [(1, 2), (1, 3), (2, 4), (3, 5), (4, 6), (5, 7), (9, 4), (9, 6)]
        results = []
        for finalize in (finalize_links, finalize_links_oracle):
            g = graph_of(base)
            state = WanderState(9, 2)
            state.glean({1, 3, 4, 5, 6, 7, 2})
            state.connected = True
            friends = finalize(state, g, fraction, Random(seed))
            for v in friends:
                assert v in g.adj[9] and 9 in g.adj[v]
            results.append((friends, g.edge_count, g.adj))
        assert results[0] == results[1]

    def test_unconnected_state_rejected(self):
        g = graph_of([(1, 2)])
        state = start_wander(3, g, [1, 2], Random(1))
        with pytest.raises(ValueError):
            finalize_links(state, g, 0.5, Random(1))

    def test_four_do_growth_stays_connected(self):
        g = grow_graph(4, 0.5, 0.30, seed=42)
        assert len(g) == 4
        _, disconnected = avg_path_length(g)
        assert not disconnected
        assert all(len(g.neighbors(u)) >= 1 for u in g.adj)


def finalize_links_oracle(state, graph, fraction, rng):
    """finalize_links one add_edge at a time: the new friends, first link first."""
    do, first = state.do_id, state.current
    friends = []
    if first is not None and graph.add_edge(do, first):
        friends.append(first)
    remaining = [c for c in state.candidates if c != first]
    if remaining and fraction > 0:
        for target in rng.sample(remaining, math.ceil(fraction * len(remaining))):
            if graph.add_edge(do, target):
                friends.append(target)
    return friends


class TestClusteringCoefficient:
    def test_triangle_is_one(self):
        assert clustering_coefficient(graph_of([(1, 2), (2, 3), (1, 3)])) == 1.0

    def test_path_is_zero(self):
        assert clustering_coefficient(graph_of([(1, 2), (2, 3)])) == 0.0

    def test_square_with_chord(self):
        # 4-cycle plus one diagonal, checked against brute-force triangle
        # counting per node: (2/3 + 1 + 2/3 + 1) / 4.
        g = graph_of([(1, 2), (2, 3), (3, 4), (4, 1), (1, 3)])
        assert clustering_coefficient(g) == pytest.approx(5 / 6)

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            clustering_coefficient(FriendshipGraph())

    def test_matches_triangle_oracle(self):
        # Random graphs on both sides of the 64-bit word boundaries of the
        # neighbour bitsets, a complete graph, isolated and degree-1 nodes,
        # and non-contiguous ids whose graph.adj order is not sorted.
        cases = {
            "n63": uniform_random_graph(63, 252, Random(1)),
            "n64": uniform_random_graph(64, 256, Random(2)),
            "n65": uniform_random_graph(65, 260, Random(3)),
            "n129": uniform_random_graph(129, 516, Random(4)),
            "n130": uniform_random_graph(130, 520, Random(5)),
            "complete-70": graph_of([(u, v) for u in range(70) for v in range(u + 1, 70)]),
            "isolated-and-leaves": graph_of(
                [(1, 2), (2, 3), (1, 3), (3, 4), (4, 5), (5, 6), (4, 6), (6, 7)],
                nodes=range(1, 12)),
            "unsorted-ids": graph_of([(500, 7), (42, 3), (7, 3), (3, 500), (42, 500),
                                      (7, 42), (900, 3), (8, 500)]),
        }
        assert list(cases["unsorted-ids"].adj) == [500, 7, 42, 3, 900, 8]
        for name, graph in cases.items():
            assert clustering_coefficient(graph) == triangle_oracle(graph), name

    @pytest.mark.parametrize("n, seed, expected, baseline", [
        (500, 11, 0.25880155818081624, 0.048508575965168464),
        (2000, 12, 0.1986287248948256, 0.0234125914602872),
    ])
    def test_grown_graph_value_pinned(self, n, seed, expected, baseline):
        g = grow_graph(n, seed=seed)
        assert clustering_coefficient(g) == expected
        base = uniform_random_graph(n, g.edge_count, Random(seed + 10_000))
        assert clustering_coefficient(base) == baseline


def triangle_oracle(g):
    """Per-node integer count of links among neighbours, each term added
    in graph.adj order."""
    total = 0.0
    for u in g.adj:
        neigh = sorted(g.adj[u])
        k = len(neigh)
        if k < 2:
            continue
        links = 0
        for i, v in enumerate(neigh):
            links += sum(1 for w in neigh[i + 1:] if w in g.adj[v])
        total += 2.0 * links / (k * (k - 1))
    return total / len(g)


class TestAvgPathLength:
    def test_triangle(self):
        length, disconnected = avg_path_length(graph_of([(1, 2), (2, 3), (1, 3)]))
        assert length == pytest.approx(1.0)
        assert not disconnected

    def test_three_node_path(self):
        length, _ = avg_path_length(graph_of([(1, 2), (2, 3)]))
        assert length == pytest.approx(4 / 3)

    def test_single_edge(self):
        length, _ = avg_path_length(graph_of([(1, 2)]))
        assert length == pytest.approx(1.0)

    def test_disconnected_reports_largest_component(self):
        g = graph_of([(1, 2), (2, 3), (4, 5)])
        length, disconnected = avg_path_length(g)
        assert disconnected
        assert length == pytest.approx(4 / 3)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            avg_path_length(FriendshipGraph())

    def test_tied_components_keep_the_one_with_the_smallest_node(self):
        # A 1-2-3 path and a 4-5-6 triangle: the path is kept.
        g = graph_of([(1, 2), (2, 3), (4, 5), (5, 6), (4, 6)])
        assert avg_path_length(g) == (4 / 3, True)

    def test_matches_bfs_oracle_on_random_graph(self):
        # Connected graphs on both sides of the 64-bit word boundaries of
        # the source bitsets, then disconnected ones: a 64-node largest
        # component, isolated nodes, and two tied components.  The last six
        # have largest components of more than BFS_BLOCK nodes, so their
        # sweeps carry a full block and then a partial one.  Every graph
        # gathers all rows while most neighbour entries are open, and the
        # trees do so for the most levels.
        grown = grow_graph(600, 0.5, 0.05, seed=4)
        order = list(grown.adj)
        Random(9).shuffle(order)
        tree = grow_graph(540, 1.0, 0.0, seed=6)
        cases = {
            "n30": uniform_random_graph(30, 60, Random(5)),
            "n63": uniform_random_graph(63, 252, Random(1)),
            "n64": uniform_random_graph(64, 256, Random(2)),
            "n65": uniform_random_graph(65, 260, Random(3)),
            "n129": uniform_random_graph(129, 516, Random(4)),
            "n130": uniform_random_graph(130, 520, Random(5)),
            "n65-sparse": uniform_random_graph(65, 150, Random(3)),
            "isolated-nodes": graph_of([(1, 2), (2, 3), (3, 4), (7, 8)], nodes=range(1, 12)),
            "tied-components": graph_of([(1, 2), (2, 3), (4, 5), (5, 6), (4, 6)]),
            "random-600": uniform_random_graph(600, 1800, Random(6)),
            "grown-700": grow_graph(700, seed=7),
            "tree-600": grow_graph(600, 1.0, 0.0, seed=8),
            # Ids 3k + 1 and ids 1000 apart, in shuffled order.
            "sparse-ids": relabel(grown, {u: 3 * u + 1 for u in order}),
            "very-sparse-ids": relabel(grown, {u: 1000 * u for u in order}),
            "tree-and-pieces": graph_of(
                tree.edges() + [(1001, 1002), (1002, 1003), (1004, 1005)],
                nodes=[2000, *tree.adj]),
        }
        for name in list(cases)[-6:]:
            nodes = list(cases[name].adj)
            assert len(_largest_component(nodes, *_csr(cases[name]))) > BFS_BLOCK, name
        for name, graph in cases.items():
            assert avg_path_length(graph) == bfs_oracle(graph), name

    @pytest.mark.parametrize("n, seed, expected", [
        (500, 11, 2.3960320641282564),
        (2000, 12, 2.513368184092046),
    ])
    def test_grown_graph_value_pinned(self, n, seed, expected):
        assert avg_path_length(grow_graph(n, seed=seed)) == (expected, False)


def relabel(g, ids):
    """A copy of g with node u renamed ids[u], nodes added in ids' order."""
    return graph_of([(ids[u], ids[v]) for u, v in g.edges()], nodes=ids.values())


class TestCsr:
    @pytest.mark.parametrize("ids", [
        {u: u for u in range(1, 301)},
        {u: 3 * ((u * 37) % 300) + 2 for u in range(1, 301)},
        {u: -1000 * ((u * 37) % 300) for u in range(1, 301)},
        None,
    ], ids=["contiguous", "dense-shuffled", "sparse-negative", "beyond-int64"])
    def test_matches_dict_lookup(self, ids):
        if ids is None:
            g = graph_of([(-(1 << 70), 0), (0, 1 << 70), (1 << 70, 5), (7, 8)])
        else:
            g = relabel(grow_graph(300, seed=3), ids)
        nodes = list(g.adj)
        degrees, indices = _csr(g)
        row = {u: i for i, u in enumerate(nodes)}
        assert indices.dtype == (np.uint8 if ids is None else np.uint16)
        assert degrees.tolist() == [len(g.adj[u]) for u in nodes]
        assert indices.tolist() == [row[v] for u in nodes for v in g.adj[u]]

    @pytest.mark.parametrize("outside", [5, 0, 99, -3, 1 << 70])
    def test_neighbour_outside_nodes_raises(self, outside):
        # 5 lies between the nodes' ids, 0, 99 and -3 beyond them, and
        # 2**70 beyond int64.  It joins node 8's set without becoming a node.
        g = graph_of([(2, 4), (4, 6), (6, 8)])
        g.adj[8].add(outside)
        with pytest.raises(KeyError):
            _csr(g)

    def test_second_call_returns_the_kept_read_only_arrays(self):
        g = grow_graph(300, seed=3)
        degrees, indices = _csr(g)
        for array in (degrees, indices):
            with pytest.raises(ValueError):
                array[0] = 0
        again = _csr(g)
        assert again[0] is degrees and again[1] is indices

    def test_kept_csr_follows_node_order(self):
        # graph.adj reordered after a build: first with the same degree
        # sequence, two nodes of equal degree swapped, then shuffled.
        g = grow_graph(300, seed=3)
        nodes = list(g.adj)
        _csr(g)
        u, w = next((u, w) for u in nodes for w in nodes
                    if u < w and len(g.adj[u]) == len(g.adj[w]))
        swapped = [{u: w, w: u}.get(x, x) for x in nodes]
        shuffled = nodes.copy()
        Random(1).shuffle(shuffled)
        for order in (swapped, shuffled, nodes):
            g.adj = {x: g.adj[x] for x in order}
            row = {x: i for i, x in enumerate(order)}
            assert _csr(g)[1].tolist() == [row[v] for x in order for v in g.adj[x]]

    @pytest.mark.parametrize("change", ["triangle-edge", "isolated-node", "edge-to-new-node"])
    def test_metrics_follow_changes_after_a_measurement(self, change):
        g = grow_graph(300, seed=3)
        clustering_coefficient(g)
        avg_path_length(g)
        if change == "triangle-edge":
            # Two unlinked neighbours of node 1: the edge closes a triangle
            # and shortens their distance from 2 to 1.
            u, w = next((u, w) for u in g.adj[1] for w in g.adj[1]
                        if u < w and w not in g.adj[u])
            g.add_edge(u, w)
        elif change == "isolated-node":
            g.add_node(301)
        else:
            g.add_edge(301, 5)
        fresh = graph_of(g.edges(), nodes=list(g.adj))
        assert list(fresh.adj) == list(g.adj)
        assert clustering_coefficient(g) == clustering_coefficient(fresh)
        assert avg_path_length(g) == avg_path_length(fresh)


def bfs_oracle(g):
    """Integer all-pairs BFS over the first largest component, visiting
    components from their smallest node up."""
    comps, seen = [], set()
    for root in g.nodes():
        if root not in seen:
            comp = bfs_distances(g, root)
            seen.update(comp)
            comps.append(comp)
    comp = max(comps, key=len)  # max keeps the first of equal sizes
    total = sum(d for src in comp for d in bfs_distances(g, src).values())
    pairs = len(comp) * (len(comp) - 1) // 2
    mean = total / 2 / pairs if pairs else 0.0
    return mean, len(comps) > 1


def bfs_distances(g, src):
    dist = {src: 0}
    dq = deque([src])
    while dq:
        u = dq.popleft()
        for v in g.neighbors(u):
            if v not in dist:
                dist[v] = dist[u] + 1
                dq.append(v)
    return dist


class TestGrowGraph:
    def test_deterministic_edge_set(self):
        a = grow_graph(120, seed=9)
        b = grow_graph(120, seed=9)
        assert a.edges() == b.edges()

    def test_different_seed_differs(self):
        a = grow_graph(120, seed=9)
        b = grow_graph(120, seed=10)
        assert a.edges() != b.edges()

    def test_always_connected(self):
        for seed in (1, 2, 3):
            g = grow_graph(80, seed=seed)
            _, disconnected = avg_path_length(g)
            assert not disconnected

    def test_edge_list_pinned(self):
        # sha256 of "\n".join(f"{u} {v}" for u, v in grow_graph(300, seed=5).edges()),
        # UTF-8 encoded: any shift in the wander's random draws changes it.
        g = grow_graph(300, seed=5)
        text = "\n".join(f"{u} {v}" for u, v in g.edges())
        assert g.edge_count == 2667
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "6a071283c4f3dcec4806a29f0a0b2c67db7684e4cf0e7bd2af8b50e58eb0eae4")


class TestUniformRandomGraph:
    def test_exact_edge_count(self):
        g = uniform_random_graph(50, 120, Random(1))
        assert g.edge_count == 120
        assert len(g) == 50

    def test_too_many_edges_rejected(self):
        with pytest.raises(ValueError):
            uniform_random_graph(4, 7, Random(1))

    @pytest.mark.parametrize("n, m, seed", [
        # Both sides of the bit_length steps at 64 and 128; at n = 2, 64 and
        # 2048 randrange throws away half its words.
        (2, 1, 1), (3, 2, 2), (63, 252, 1), (64, 256, 2), (65, 260, 3),
        (129, 516, 4), (130, 520, 5), (2048, 8192, 6),
        (1, 0, 7), (50, 0, 8),
        # Complete graphs, and complete graphs whose first batch of draws
        # falls short: each needs one top-up, as many words again.
        (3, 3, 9), (64, 2016, 10), (130, 8385, 11),
        (10, 45, 1), (64, 2016, 31), (130, 8385, 8),
        # The 2000-node baseline of test_grown_graph_value_pinned:
        # grow_graph(2000, seed=12) has 47016 edges.
        (2000, 47016, 12 + 10_000),
    ])
    def test_matches_pairwise_oracle(self, n, m, seed):
        rng, oracle_rng = Random(seed), Random(seed)
        g = uniform_random_graph(n, m, rng)
        expected = pairwise_random_graph(n, m, oracle_rng)
        assert g.edge_count == m
        assert g.edges() == expected.edges()
        assert list(g.adj) == list(expected.adj)
        for u in g.adj:
            assert list(g.adj[u]) == list(expected.adj[u]), u
        assert rng.getstate() == oracle_rng.getstate()
        # The kept CSR: each row holds the node's neighbours, a second
        # _csr hands the same arrays back, and both metrics equal those
        # of a fresh CSR built from the sets.
        nodes = list(g.adj)
        kept_nodes, degrees, indices = g._csr_memo
        assert kept_nodes == nodes
        starts = np.cumsum(degrees) - degrees
        for i, u in enumerate(nodes):
            row = indices[starts[i]:starts[i] + degrees[i]].tolist()
            assert {nodes[r] for r in row} == g.adj[u], u
        again = _csr(g)
        assert again[0] is degrees and again[1] is indices
        fresh = graph_of(g.edges(), nodes=nodes)
        assert clustering_coefficient(g) == clustering_coefficient(fresh)
        assert avg_path_length(g) == avg_path_length(fresh)


def stream_contract_cases():
    """(n, k) pairs: every n up to 70, and 2**j and 2**j +- 1 up to 4096,
    each with k of 0, 1, ceil(0.3 n) and n, and of 2, 5 and 6.
    Random.sample shuffles a copy of the population while it is no larger
    than a set of k picks and redraws picked indices past that: 21 slots
    for k <= 5 and 37 for k = 6, so k of 2, 5 and 6 run both ways on each
    side of the switch, where they draw different picks."""
    sizes = set(range(1, 71))
    for j in range(13):
        sizes |= {2**j - 1, 2**j, 2**j + 1}
    sizes.discard(0)
    return [(n, k) for n in sorted(sizes)
            for k in sorted({0, 1, 2, 5, 6, math.ceil(0.3 * n), n}) if k <= n]


class TestStreamContract:
    """_below and _sample are randrange and sample without random.py's
    Python layers: each must give the same values from the same
    getrandbits calls, and leave the generator in the same state."""

    @pytest.mark.parametrize("seed", [1, 2])
    def test_below_matches_randrange(self, seed):
        rng, oracle_rng = Random(seed), Random(seed)
        for n, _ in stream_contract_cases():
            for _ in range(3):
                assert _below(rng, n) == oracle_rng.randrange(n), n
        assert rng.getstate() == oracle_rng.getstate()

    @pytest.mark.parametrize("seed", [1, 2])
    def test_sample_matches_random_sample(self, seed):
        rng, oracle_rng = Random(seed), Random(seed)
        for n, k in stream_contract_cases():
            population = list(range(1000, 1000 + n))
            for _ in range(2):
                assert _sample(rng, population, k) == oracle_rng.sample(population, k), (n, k)
            assert population == list(range(1000, 1000 + n))
            assert rng.getstate() == oracle_rng.getstate(), (n, k)

    @pytest.mark.parametrize("n", [0, -1, -64])
    def test_empty_range_rejected(self, n):
        with pytest.raises(ValueError):
            _below(Random(1), n)

    @pytest.mark.parametrize("k", [-1, 4])
    def test_sample_outside_the_population_rejected(self, k):
        with pytest.raises(ValueError):
            _sample(Random(1), [1, 2, 3], k)


def pairwise_random_graph(n, m, rng):
    """uniform_random_graph one pair of randrange draws at a time: the
    stream contract's definition, sharing no decoding with the graph module."""
    g = FriendshipGraph()
    for u in range(1, n + 1):
        g.add_node(u)
    while g.edge_count < m:
        u = rng.randrange(1, n + 1)
        v = rng.randrange(1, n + 1)
        if u != v:
            g.add_edge(u, v)
    return g


class TestWanderSequence:
    def test_contact_move_contact_link_sequence_exists(self):
        # With link probability one half there is a seed whose first draw
        # declines the link, producing contact, second contact, then link.
        for seed in range(1, 60):
            g = graph_of([(1, 2)])
            rng = Random(seed)
            state = start_wander(3, g, [1, 2], rng)
            outcomes = []
            while not state.connected:
                outcomes.append(wander_step(state, g, 0.5, rng))
            if outcomes == [False, True]:  # moved, then linked
                assert g.has_edge(3, state.current) is False  # link not yet made
                finalize_links(state, g, 0.30, rng)
                assert len(g.neighbors(3)) >= 1
                return
        pytest.fail("no seed produced a contact/contact/link walk")
