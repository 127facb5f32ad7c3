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
from itertools import chain, islice
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


def _below(rng: Random, n: int) -> int:
    """``rng.randrange(n)``: the same result from the same ``getrandbits``
    calls, with rng left in the same state.  It draws
    ``getrandbits(n.bit_length())`` again while that is n or more, as
    ``Random._randbelow_with_getrandbits`` does.  n must be positive; every
    draw is n or more otherwise, and ValueError is raised, as randrange
    raises it."""
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        if n <= 0:
            raise ValueError("empty range for _below")
        r = rng.getrandbits(k)
    return r


def _sample(rng: Random, population: list, k: int) -> list:
    """``rng.sample(population, k)``, drawn as ``_below`` draws: the same
    picks in the same order from the same ``getrandbits`` calls, with rng
    left in the same state.  Like ``Random.sample`` it shuffles a copy of
    the population while that is smaller than a set of k picks, and
    otherwise redraws indices already picked."""
    n = len(population)
    if not 0 <= k <= n:
        raise ValueError("sample larger than population or is negative")
    getrandbits = rng.getrandbits
    result = [None] * k
    setsize = 21
    if k > 5:
        setsize += 4 ** math.ceil(math.log(k * 3, 4))
    if n <= setsize:
        pool = list(population)
        for i in range(k):
            m = n - i
            bits = m.bit_length()
            j = getrandbits(bits)
            while j >= m:
                j = getrandbits(bits)
            result[i] = pool[j]
            pool[j] = pool[m - 1]
    else:
        selected: set[int] = set()
        bits = n.bit_length()
        for i in range(k):
            j = getrandbits(bits)
            while j >= n or j in selected:
                j = getrandbits(bits)
            selected.add(j)
            result[i] = population[j]
    return result


class FriendshipGraph:
    """Undirected simple graph over DO ids (no self-loops, no parallel edges)."""

    def __init__(self):
        self.adj: dict[int, set[int]] = {}
        self.edge_count = 0
        # The last CSR _csr built, kept with the node order and degrees it
        # was built for: edges are only ever added, so while the degrees
        # hold the adjacency does too.
        self._csr_memo: tuple[list[int], np.ndarray, np.ndarray] | None = None

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
        """One ascending "u v" pair per line, suitable for external tools:
        the pairs of ``edges()``, with each node's id formatted once."""
        adj = self.adj
        names = {u: str(u) for u in adj}
        lines = []
        for u in sorted(adj):
            prefix = names[u] + " "
            lines += [prefix + names[v] for v in sorted(adj[u]) if v > u]
        lines.append("")
        with atomic_write(path) as fh:
            fh.write("\n".join(lines))


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
    connected.  ``connected_nodes`` may be in any order that is fixed for
    a given configuration, such as the engine's connection order; the
    same order gives the same draw.
    """
    graph.add_node(do_id)
    if not connected_nodes:
        return WanderState(do_id, None)
    entry = connected_nodes[_below(rng, len(connected_nodes))]
    return WanderState(do_id, entry)


def wander_step(state: WanderState, graph: FriendshipGraph, link_probability: float,
                rng: Random) -> bool:
    """One contact: glean the visited node's friends, then link or move on.

    Returns True when the wanderer linked to the visited node, False when
    it moved to a gleaned candidate.  Links unconditionally when there is
    nowhere left to go, or when this step reaches the walk's safety cap,
    ``10 * max(len(graph.adj), 1)``: ten steps per node of the graph as it
    is at this step, the wanderer included.
    """
    if state.connected:
        raise ValueError("wanderer is already connected")
    cur = state.current
    friends = graph.neighbors(cur)
    state.glean(friends)
    state.steps += 1

    forced = ((not state.candidates and not friends)
              or state.steps >= 10 * max(len(graph.adj), 1))
    if forced or rng.random() < link_probability:
        state.connected = True
        return True

    # A wanderer has no edges, so glean has just put every friend into the candidates.
    state.current = state.candidates[_below(rng, len(state.candidates))]
    return False


def finalize_links(state: WanderState, graph: FriendshipGraph,
                   extra_link_fraction: float, rng: Random) -> list[int]:
    """Create the first link plus extra friendships from gleaned candidates.

    Befriends ceil(fraction * remaining) distinct candidates, drawn without
    replacement.  Returns every new friend, the first link first.  The
    first link leaves ``state.candidates``: the state is spent once the
    wanderer has linked.
    """
    if not state.connected:
        raise ValueError("finalize_links requires a just-connected wanderer")
    do = state.do_id
    first = state.current
    friends: list[int] = []
    if first is not None and graph.add_edge(do, first):
        friends.append(first)
    remaining = state.candidates
    if first in state._candidate_set:
        remaining.remove(first)
    if remaining and extra_link_fraction > 0:
        k = math.ceil(extra_link_fraction * len(remaining))
        adj = graph.adj
        mine = adj[do]
        targets = [t for t in _sample(rng, remaining, k) if t not in mine]
        mine.update(targets)
        for target in targets:
            adj[target].add(do)
        graph.edge_count += len(targets)
        friends += targets
    return friends


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
        while not state.connected:
            wander_step(state, graph, link_probability, rng)
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

    n = len(graph.adj)
    if n == 0:
        raise ValueError("clustering coefficient of an empty graph")
    degrees, indices = _csr(graph)
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
    # u-v and u-w both count.  The terms are added left to right in
    # graph.adj order by np.add.accumulate, as a plain float sum adds them.
    twice_links = np.bincount(us, closed, n) + np.bincount(vs, closed, n)
    links = twice_links.astype(np.int64) // 2
    pairs = degrees * (degrees - 1)
    terms = np.zeros(n)
    np.divide(2.0 * links, pairs, out=terms, where=degrees >= 2)
    return float(np.add.accumulate(terms)[-1]) / n


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
    returned flag is True.  The component is found on the CSR over
    ``graph.adj``'s order, the rows the clustering reads, and only a
    disconnected graph's rows are renumbered to the component's.
    """
    import numpy as np

    nodes = list(graph.adj)
    n = len(nodes)
    if n == 0:
        raise ValueError("path length of an empty graph")
    degrees, indices = _csr(graph)
    comp = _largest_component(nodes, degrees, indices)
    m = len(comp)
    disconnected = m < n
    if m == 1:
        return 0.0, disconnected
    if disconnected:
        starts = np.cumsum(degrees) - degrees
        renumber = np.zeros(n, dtype=indices.dtype)
        renumber[comp] = np.arange(m, dtype=indices.dtype)
        indices = renumber[indices.take(_row_entries(comp, starts, degrees))]
        degrees = degrees[comp]
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
                entries = _row_entries(rows, starts, degrees)
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


def _csr(graph: FriendshipGraph) -> tuple[np.ndarray, np.ndarray]:
    """Adjacency in compressed sparse rows, in ``graph.adj`` order: the
    i-th node is row i, and its neighbours' rows fill ``degrees[i]``
    consecutive entries of the flat index array, rows in order.  Rows are
    held in the narrowest unsigned type that also holds the node count.
    The neighbour ids are read in one C-level pass and turned into rows
    through one dict from id to row, which serves every id layout, with
    no Python frame per entry.  A neighbour that is not itself a node
    raises KeyError.

    The graph keeps the last CSR built, read-only, and hands it back while
    the node order and degrees are unchanged.  A CSR kept by
    ``uniform_random_graph`` lists each row in drawing order, which may
    differ from the iteration order of ``graph.adj[u]``; neither metric
    depends on the order within a row."""
    import numpy as np

    nodes = list(graph.adj)
    n = len(nodes)
    neighbour_sets = list(graph.adj.values())
    degrees = np.fromiter(map(len, neighbour_sets), dtype=np.int64, count=n)
    memo = graph._csr_memo
    if memo is not None and memo[0] == nodes and np.array_equal(memo[1], degrees):
        return memo[1], memo[2]
    row = dict(zip(nodes, range(n)))
    indices = np.fromiter(map(row.__getitem__, chain.from_iterable(neighbour_sets)),
                          dtype=np.min_scalar_type(n), count=int(degrees.sum()))
    degrees.flags.writeable = indices.flags.writeable = False
    graph._csr_memo = (nodes, degrees, indices)
    return degrees, indices


def _largest_component(nodes: list[int], degrees: np.ndarray,
                       indices: np.ndarray) -> np.ndarray:
    """Ascending rows of the largest component of the CSR over ``nodes``;
    on a tie, the component holding the smallest node id.

    Each component is found by a level-by-level breadth-first search over
    a mask of the rows reached, from the first row no earlier search
    reached.  A component of more than half the rows is the largest, so
    the search stops there, after one pass on a connected graph."""
    import numpy as np

    def lowest(rows):
        return min(map(nodes.__getitem__, rows.tolist()))

    n = len(nodes)
    starts = np.cumsum(degrees) - degrees
    reached = np.zeros(n, dtype=bool)
    best = None
    root = 0
    while True:
        comp = np.zeros(n, dtype=bool)
        comp[root] = True
        rows = np.array([root])
        while len(rows):
            step = np.zeros(n, dtype=bool)
            step[indices.take(_row_entries(rows, starts, degrees))] = True
            step &= ~comp
            comp |= step
            rows = np.flatnonzero(step)
        reached |= comp
        members = np.flatnonzero(comp)
        if (best is None or len(members) > len(best)
                or len(members) == len(best) and lowest(members) < lowest(best)):
            best = members
        if len(best) > n - np.count_nonzero(reached):
            return best
        root = int(np.argmin(reached))


def _row_entries(rows: np.ndarray, starts: np.ndarray, degrees: np.ndarray) -> np.ndarray:
    """Positions in the CSR's flat index array of the neighbour entries of
    ``rows``, row after row."""
    import numpy as np

    row_degrees = degrees[rows]
    offsets = np.cumsum(row_degrees) - row_degrees
    entries = np.repeat(starts[rows] - offsets, row_degrees)
    entries += np.arange(len(entries))
    return entries


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

    The first m distinct pairs are picked in numpy, and each node's
    neighbours, in drawing order, become both its set and its row of the
    graph's kept CSR, so the metrics read the baseline without rebuilding
    it.  The sets share one int object per node id.
    """
    import numpy as np

    limit = n * (n - 1) // 2
    if m > limit:
        raise ValueError(f"{m} edges exceed the {limit} possible on {n} nodes")
    pairs = np.stack(_first_distinct_pairs(n, m, rng), axis=1).astype(np.min_scalar_type(n))
    # Each edge u-v lists v in u's row and u in v's, in drawing order.  A
    # stable sort of rows at most 16 bits wide is a radix sort.
    owners = pairs.ravel()
    indices = pairs[:, ::-1].ravel()[np.argsort(owners, kind="stable")]
    degrees = np.bincount(owners, minlength=n)
    graph = FriendshipGraph()
    ids = list(range(1, n + 1))
    neighbours = iter(np.array(ids, dtype=object)[indices].tolist())
    graph.adj = {u: set(islice(neighbours, d)) for u, d in zip(ids, degrees.tolist())}
    graph.edge_count = m
    degrees.flags.writeable = indices.flags.writeable = False
    graph._csr_memo = (ids, degrees, indices)
    return graph


def _first_distinct_pairs(n: int, m: int, rng: Random) -> tuple[np.ndarray, np.ndarray]:
    """Rows (node - 1) of both ends of the first m distinct non-loop pairs
    of ``randrange(1, n + 1)`` draws, in drawing order, with rng left just
    past the draw that completed the m-th.  The words are drawn in a batch
    sized to suffice almost always, and in as many again until m pairs are
    distinct.  A pair is keyed ``min * n + max``, and ``np.unique`` finds
    each key's first draw."""
    import numpy as np

    if m == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    limit = n * (n - 1) // 2
    k = n.bit_length()
    # 1.1 times the expected words, plus 64: with e edges in, a pair is new
    # with chance 2 * (limit - e) / n**2, a draw is kept with chance
    # n / 2**k, and the log approximates the sum of 1 / (limit - e) over
    # the m edges.
    words = int(1.1 * n * (1 << k) * math.log((limit + 0.5) / (limit - m + 0.5))) + 64
    state = rng.getstate()
    batches = []
    while True:
        bits = rng.getrandbits(32 * words).to_bytes(4 * words, "little")
        batches.append(np.frombuffer(bits, dtype="<u4"))
        draws = np.concatenate(batches) >> (32 - k)
        kept = np.flatnonzero(draws < n)
        seconds = kept[1::2]
        us = draws[kept[0:2 * len(seconds):2]].astype(np.int64)
        vs = draws[seconds].astype(np.int64)
        keys = np.minimum(us, vs) * n + np.maximum(us, vs)
        keys[us == vs] = -1
        _, first = np.unique(keys, return_index=True)
        first = first[keys[first] >= 0]
        if len(first) >= m:
            break
    picked = np.sort(first)[:m]
    # Rewind, then redraw the words up to the m-th pair's second node.
    rng.setstate(state)
    rng.getrandbits(32 * (int(seconds[picked[-1]]) + 1))
    return us[picked], vs[picked]
