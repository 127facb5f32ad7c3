"""Friendship graph grown by the unsupervised small-world (USW) process.

A newly introduced DO is pointed at one existing node and *wanders*: each
step it contacts the node it is visiting, gleans that node's friend list
into a candidate pool, and either links to the visited node (with a fixed
per-contact probability) or moves on to a random member of the pool.  Once
linked, it befriends a fraction of its remaining candidates.  Gleaned-
candidate links are what give the graph its high clustering.
"""

from __future__ import annotations

import math
from itertools import chain
from random import Random
from typing import TYPE_CHECKING

from .fileio import atomic_write

if TYPE_CHECKING:
    import numpy as np

# Sources per bit-parallel BFS sweep in avg_path_length: at most 8 uint64
# words, 64 bytes, per node.  A sweep's words must number 1, 2, 4 or 8, so
# this may not exceed 512.
BFS_BLOCK = 512

# Neighbour entries per gather in avg_path_length (a node with more is
# gathered whole): 8192 reach sets of BFS_BLOCK bits each are 512 KiB.
GATHER_BLOCK = 8192

# Edges per chunk in clustering_coefficient: two gathered bitset rows of
# ceil(nodes / 64) uint64 words each per edge, 256 KiB each at 2000 nodes.
TRIANGLE_BLOCK = 1024

# Most Mersenne Twister words uniform_random_graph draws at once, 32 KiB:
# each batch turns its ~4k pairs into Python ints, so larger batches add
# to peak memory (a 2000-node baseline needs ~100k words) and gain nothing.
DRAW_BATCH = 1 << 13


class FriendshipGraph:
    """Undirected simple graph over DO ids (no self-loops, no parallel edges)."""

    def __init__(self):
        self.adj: dict[int, set[int]] = {}
        self.edge_count = 0

    def add_node(self, u: int):
        if u not in self.adj:
            self.adj[u] = set()

    def add_edge(self, u: int, v: int) -> bool:
        if u == v:
            raise ValueError("self-loops are not allowed")
        self.add_node(u)
        self.add_node(v)
        if v in self.adj[u]:
            return False
        self.adj[u].add(v)
        self.adj[v].add(u)
        self.edge_count += 1
        return True

    def has_edge(self, u: int, v: int) -> bool:
        return u in self.adj and v in self.adj[u]

    def neighbors(self, u: int) -> set[int]:
        return self.adj[u]

    def nodes(self) -> list[int]:
        return sorted(self.adj)

    def edges(self) -> list[tuple[int, int]]:
        adj = self.adj
        return [(u, v) for u in sorted(adj) for v in sorted(adj[u]) if u < v]

    def __len__(self):
        return len(self.adj)

    def write_edge_list(self, path):
        """One ascending "u v" pair per line, suitable for external tools."""
        with atomic_write(path) as fh:
            fh.write("".join(f"{u} {v}\n" for u, v in self.edges()))


class WanderState:
    """Progress of one unconnected DO walking the graph.

    ``candidates`` keeps gleaning order and never contains the wanderer or
    duplicates; ``connected`` flips to True exactly once.
    """

    __slots__ = ("do_id", "current", "candidates", "_candidate_set", "connected", "steps")

    def __init__(self, do_id: int, entry: int | None):
        self.do_id = do_id
        self.current = entry
        self.candidates: list[int] = []
        self._candidate_set: set[int] = set()
        self.connected = entry is None
        self.steps = 0

    def glean(self, friends: set[int]):
        """Add the friends not yet gleaned, other than the wanderer, in ascending order."""
        new = friends - self._candidate_set
        new.discard(self.do_id)
        self._candidate_set |= new
        self.candidates += sorted(new)


def start_wander(do_id: int, graph: FriendshipGraph, connected_nodes: list[int],
                 rng: Random) -> WanderState:
    """Begin a wander at a uniformly chosen existing node.

    With an empty graph the DO joins outright and the state is already
    connected.  ``connected_nodes`` must be sorted for determinism.
    """
    graph.add_node(do_id)
    if not connected_nodes:
        return WanderState(do_id, None)
    entry = connected_nodes[rng.randrange(len(connected_nodes))]
    return WanderState(do_id, entry)


def wander_step(state: WanderState, graph: FriendshipGraph, link_probability: float,
                rng: Random, max_steps: int) -> bool:
    """One contact: glean the visited node's friends, then link or move on.

    Returns True when the wanderer linked to the visited node, False when
    it moved to a gleaned candidate.  Links unconditionally when there is
    nowhere left to go or the safety cap on walk length is reached.
    """
    if state.connected:
        raise ValueError("wanderer is already connected")
    cur = state.current
    friends = graph.neighbors(cur)
    state.glean(friends)
    state.steps += 1

    forced = (not state.candidates and not friends) or state.steps >= max_steps
    if forced or rng.random() < link_probability:
        state.connected = True
        return True

    # A wanderer has no edges, so glean has just put every friend into the candidates.
    state.current = state.candidates[rng.randrange(len(state.candidates))]
    return False


def finalize_links(state: WanderState, graph: FriendshipGraph,
                   extra_link_fraction: float, rng: Random) -> list[tuple[int, int]]:
    """Create the first link plus extra friendships from gleaned candidates.

    Befriends ceil(fraction * remaining) distinct candidates, drawn without
    replacement.  Returns every new edge including the first link.
    """
    if not state.connected:
        raise ValueError("finalize_links requires a just-connected wanderer")
    do = state.do_id
    first = state.current
    new_edges: list[tuple[int, int]] = []
    if first is not None and graph.add_edge(do, first):
        new_edges.append((do, first))
    remaining = [c for c in state.candidates if c != first]
    if remaining and extra_link_fraction > 0:
        k = math.ceil(extra_link_fraction * len(remaining))
        adj = graph.adj
        mine = adj[do]
        targets = [t for t in rng.sample(remaining, k) if t not in mine]
        mine.update(targets)
        for target in targets:
            adj[target].add(do)
        graph.edge_count += len(targets)
        new_edges += [(do, target) for target in targets]
    return new_edges


def grow_graph(n: int, link_probability: float = 0.5, extra_link_fraction: float = 0.33,
               seed: int = 1) -> FriendshipGraph:
    """Grow an n-node USW graph outside the full simulator.

    Used for graph-metric studies; the simulator drives the same three
    operations through its event loop.
    """
    rng = Random(seed)
    graph = FriendshipGraph()
    connected: list[int] = []
    for do in range(1, n + 1):
        state = start_wander(do, graph, connected, rng)
        max_steps = 10 * max(len(graph), 1)
        while not state.connected:
            wander_step(state, graph, link_probability, rng, max_steps)
        finalize_links(state, graph, extra_link_fraction, rng)
        connected.append(do)
    return graph


def clustering_coefficient(graph: FriendshipGraph) -> float:
    """Mean over nodes of realized / possible edges among each node's neighbors.

    Nodes with fewer than two neighbors contribute zero.  Triangles are
    counted exactly, edge by edge: each node keeps its neighbour set as a
    row of uint64 words, and an edge u-v closes popcount(row_u & row_v)
    triangles.
    """
    import numpy as np

    nodes = list(graph.adj)
    n = len(nodes)
    if n == 0:
        raise ValueError("clustering coefficient of an empty graph")
    degrees, indices = _csr(graph, nodes)
    rows = np.repeat(np.arange(n, dtype=np.int32), degrees)
    # Each undirected edge once, as u < v by row.  Only this half is kept,
    # to hold down peak memory.
    upper = rows < indices
    us, vs = rows[upper], indices[upper]
    del rows, indices, upper
    bitsets = np.zeros((n, (n + 63) // 64), dtype=np.uint64)
    for a, b in ((us, vs), (vs, us)):
        np.bitwise_or.at(bitsets, (a, b // 64), np.uint64(1) << (b % 64).astype(np.uint64))

    closed = np.empty(len(us), dtype=np.int64)
    for first in range(0, len(us), TRIANGLE_BLOCK):
        chunk = slice(first, first + TRIANGLE_BLOCK)
        common = bitsets[us[chunk]]
        common &= bitsets[vs[chunk]]
        closed[chunk] = np.bitwise_count(common).sum(axis=1)

    # A link v-w among u's neighbours closes triangle u-v-w, which edges
    # u-v and u-w both count.  The terms are added one at a time in
    # graph.adj order, as a plain float sum.
    twice_links = np.bincount(us, closed, n) + np.bincount(vs, closed, n)
    links_per_node = (twice_links.astype(np.int64) // 2).tolist()
    total = 0.0
    for k, links in zip(degrees.tolist(), links_per_node):
        if k < 2:
            continue
        total += 2.0 * links / (k * (k - 1))
    return total / n


def avg_path_length(graph: FriendshipGraph) -> tuple[float, bool]:
    """Mean shortest-path length over unordered node pairs.

    Exact all-pairs breadth-first search, run bit-parallel: each sweep
    carries BFS_BLOCK sources at once as one bit per source in every
    node's uint64 reach set.  Depth 1 is read straight from the CSR rows
    of the block's sources.  Each deeper level ORs the last level's reach
    sets over the neighbours of the *open* rows only, the rows some source
    of the block has not reached yet: a row every source has reached
    cannot gain a bit.  When the open rows hold more than half the
    neighbour entries, every row is gathered instead, which is cheaper
    than listing the open rows' entries.  A sweep ends when no row is
    open.  On a disconnected graph the mean is taken over the largest
    component (on a tie, the one holding the smallest node id) and the
    returned flag is True.
    """
    import numpy as np

    n = len(graph)
    if n == 0:
        raise ValueError("path length of an empty graph")
    comp = _largest_component(graph)
    m = len(comp)
    disconnected = m < n
    if m == 1:
        return 0.0, disconnected

    degrees, indices = _csr(graph, comp)
    ends = np.cumsum(degrees)
    starts = ends - degrees
    # Source b of a block owns bit b % 64 of word b // 64.
    bits = np.arange(BFS_BLOCK)
    word = bits // 64
    bit = np.uint64(1) << (bits % 64).astype(np.uint64)

    total = 0
    for first in range(0, m, BFS_BLOCK):
        size = min(BFS_BLOCK, m - first)
        # 1, 2, 4 or 8 words, as _open_rows needs.
        words = 1 << ((size - 1) // 64).bit_length()
        own = np.zeros((size, words), dtype=np.uint64)
        own[bits[:size], word[:size]] = bit[:size]
        # A set bit of unseen is a (row, source) pair not reached yet.
        unseen = np.empty((m, words), dtype=np.uint64)
        unseen[:] = np.bitwise_or.reduce(own, axis=0)
        unseen[first:first + size] ^= own

        # Depth 1: each neighbour of a block source gets that source's bit.
        # The graph is simple, so every entry is a distinct pair one hop
        # apart, and the block's degree sum counts them.
        lo, hi = starts[first], ends[first + size - 1]
        src = np.repeat(bits[:size], degrees[first:first + size])
        frontier = np.zeros((m, words), dtype=np.uint64)
        np.bitwise_or.at(frontier, (indices[lo:hi], word[src]), bit[src])
        unseen ^= frontier
        total += int(hi - lo)
        rows = _open_rows(unseen)

        depth = 1
        while len(rows):
            depth += 1
            row_degrees = degrees[rows]
            if 2 * int(row_degrees.sum()) > len(indices):
                step = _gather_or(frontier, indices, starts)
                step &= unseen
                unseen ^= step
                rows = _open_rows(unseen)
                frontier = step
            else:
                offsets = np.cumsum(row_degrees) - row_degrees
                entries = np.repeat(starts[rows] - offsets, row_degrees)
                entries += np.arange(len(entries))
                step = _gather_or(frontier, indices.take(entries), offsets)
                open_unseen = unseen.take(rows, axis=0)
                step &= open_unseen
                open_unseen ^= step
                unseen[rows] = open_unseen
                frontier = np.zeros_like(unseen)
                frontier[rows] = step
                rows = rows[_open_rows(open_unseen)]
            total += depth * int(np.bitwise_count(step).sum())
    # Each unordered pair was counted twice.
    pairs = m * (m - 1) / 2
    return total / 2.0 / pairs, disconnected


def _open_rows(unseen: np.ndarray) -> np.ndarray:
    """Indices of the rows of ``unseen`` that have a set bit.  A row's
    nonzero flags are read as one unsigned integer of as many bytes as
    the row has words, so there must be 1, 2, 4 or 8."""
    import numpy as np

    return np.flatnonzero((unseen != 0).view(f"u{unseen.shape[1]}"))


def _gather_or(frontier: np.ndarray, neighbours: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Row i ORs the ``frontier`` rows listed in ``neighbours[offsets[i]:
    offsets[i + 1]]``; every such run is non-empty, as reduceat needs.
    Whole runs are gathered in chunks of about GATHER_BLOCK entries."""
    import numpy as np

    out = np.empty((len(offsets), frontier.shape[1]), dtype=np.uint64)
    cuts = np.searchsorted(offsets, np.arange(0, len(neighbours), GATHER_BLOCK)).tolist()
    cuts.append(len(offsets))
    for a, b in zip(cuts, cuts[1:]):
        if a == b:
            continue
        lo = offsets[a]
        hi = offsets[b] if b < len(offsets) else len(neighbours)
        out[a:b] = np.bitwise_or.reduceat(frontier.take(neighbours[lo:hi], axis=0),
                                          offsets[a:b] - lo, axis=0)
    return out


def _csr(graph: FriendshipGraph, nodes: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Adjacency of ``nodes`` in compressed sparse rows: node ``nodes[i]``
    is row i, and its neighbours' rows fill ``degrees[i]`` consecutive
    entries of the flat index array, rows in order.  The neighbour ids are
    read and turned into rows in one C-level pass, with no Python frame
    per entry.  Every neighbour must itself be in ``nodes``; one that is
    not raises KeyError."""
    import numpy as np

    n = len(nodes)
    neighbour_sets = list(map(graph.adj.__getitem__, nodes))
    degrees = np.fromiter(map(len, neighbour_sets), dtype=np.int64, count=n)
    row = dict(zip(nodes, range(n)))
    indices = np.fromiter(map(row.__getitem__, chain.from_iterable(neighbour_sets)),
                          dtype=np.intp, count=int(degrees.sum()))
    return degrees, indices


def _largest_component(graph: FriendshipGraph) -> list[int]:
    """Sorted nodes of the largest component, the first one found on a tie
    when components are visited from their smallest node up."""
    adj = graph.adj
    best: list[int] = []
    seen: set[int] = set()
    for root in graph.nodes():
        if root in seen:
            continue
        seen.add(root)
        members = [root]
        for u in members:
            new = adj[u] - seen
            seen |= new
            members += new
        if len(members) > len(best):
            best = members
    return sorted(best)


def uniform_random_graph(n: int, m: int, rng: Random) -> FriendshipGraph:
    """Baseline G(n, m): m distinct edges drawn uniformly over 1..n.

    Stream contract: the result has the same edges, added in the same
    order (so each ``adj[u]`` iterates in the same order), and ``rng`` ends
    in the same state, as drawing pairs ``u = rng.randrange(1, n + 1)``,
    ``v = rng.randrange(1, n + 1)`` and adding each new edge, skipping
    ``u == v`` and repeats, until there are m.  The words are drawn in bulk
    and decoded here.  ``randrange(1, n + 1)`` keeps the top
    ``n.bit_length()`` bits of one 32-bit Mersenne Twister word and draws
    again while they are n or more, and ``getrandbits(32 * w)`` holds the
    next w such words, first word least significant.  That word order is
    CPython's; the per-pair oracle in the tests guards it.
    """
    import numpy as np

    limit = n * (n - 1) // 2
    if m > limit:
        raise ValueError(f"{m} edges exceed the {limit} possible on {n} nodes")
    graph = FriendshipGraph()
    adj = graph.adj
    for u in range(1, n + 1):
        adj[u] = set()
    k = n.bit_length()
    # A pair's first node, drawn in the batch before its second one.
    pending = np.empty(0, dtype=np.uint32)
    count = 0
    while count < m:
        state = rng.getstate()
        # 1.1 times the expected words for the edges still missing: with e
        # edges in, a pair is new with chance 2 * (limit - e) / n**2, a draw
        # is kept with chance n / 2**k, and the log approximates the sum of
        # 1 / (limit - e) over the missing e.
        missing = math.log((limit - count + 0.5) / (limit - m + 0.5))
        words = min(DRAW_BATCH, int(1.1 * n * (1 << k) * missing) + 64)
        bits = rng.getrandbits(32 * words).to_bytes(4 * words, "little")
        draws = np.frombuffer(bits, dtype="<u4") >> (32 - k)
        kept = np.flatnonzero(draws < n)
        nodes = np.concatenate((pending, draws[kept] + 1))
        pairs = len(nodes) // 2
        # Words drawn up to and including each pair's second node.
        ends = kept[1 - len(pending)::2] + 1
        pending = nodes[2 * pairs:]
        us, vs = nodes[0:2 * pairs:2], nodes[1:2 * pairs:2]
        keep = us != vs
        for u, v, end in zip(us[keep].tolist(), vs[keep].tolist(), ends[keep].tolist()):
            row = adj[u]
            if v not in row:
                row.add(v)
                adj[v].add(u)
                count += 1
                if count == m:
                    # Leave rng just past the draw that completed the graph.
                    rng.setstate(state)
                    rng.getrandbits(32 * end)
                    break
    graph.edge_count = m
    return graph
