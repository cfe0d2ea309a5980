"""Finite weighted graphs with killing, and their oriented-edge tables.

A graph here is a finite vertex set {0..n-1}, a set of undirected simple
edges carrying positive conductances, and a nonnegative killing rate per
vertex. The induced Markov chain jumps from x to a neighbour y with
probability C(x,y)/lam(x) where lam(x) = kappa(x) + sum_y C(x,y); with
probability kappa(x)/lam(x) it dies. All the loop-measure machinery sits on
top of this chain. P lives on the oriented edges only (GraphModel._p, in
the CSR order of the edge table): every exact route reads it one step at a
time, and only soup's dense algebra scatters it into an n x n matrix.

Also here: deterministic spanning-tree frames (the tree plus an ordered,
oriented list of the remaining edges, which generate the fundamental group).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, repeat
from typing import Iterable, Sequence

import numpy as np

from ._memo import memo, memoized
from .errors import ConfigError, ValidationError


def _normalize_edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class GraphModel:
    """Immutable weighted graph with killing.

    Attributes:
        num_vertices: number of vertices, labelled 0..num_vertices-1.
        edges: sorted tuple of undirected edges (u, v) with u < v.
        conductance: mapping edge -> weight, keyed by the normalized pair.
        killing: per-vertex killing rates, length num_vertices.

    The transition probabilities are _p, one per oriented edge of
    _oriented; the graph keeps no n x n matrix.
    """

    num_vertices: int
    edges: tuple[tuple[int, int], ...]
    conductance: dict[tuple[int, int], float] = field(hash=False)
    killing: tuple[float, ...]

    @cached_property
    def neighbors(self) -> tuple[tuple[int, ...], ...]:
        adj: list[list[int]] = [[] for _ in range(self.num_vertices)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return tuple(tuple(sorted(a)) for a in adj)

    @cached_property
    def _bfs(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The canonical frame's tree: parent and depth of each vertex."""
        return _search_tree(self.neighbors, "graph is not connected")

    @cached_property
    def lam(self) -> np.ndarray:
        """Total jump-plus-kill rate at each vertex, summed in Python floats:
        inf where the sum overflows."""
        lam = list(self.killing)
        for (u, v), c in self.conductance.items():
            lam[u] += c
            lam[v] += c
        return np.array(lam, dtype=float)

    @cached_property
    def _oriented(self) -> _EdgeTable:
        """The _EdgeTable of the topology, memoized per neighbours (see _memo)."""
        return _edge_table(self.neighbors)

    @cached_property
    def _p(self) -> np.ndarray:
        """P(x, y) = C(x,y)/lam(x) on each oriented edge of _oriented, in
        its order, read-only. The edges with tail < head are self.edges in
        order, and reverse maps them onto the others."""
        table = self._oriented
        forward = np.flatnonzero(table.tail < table.head)
        c = np.empty(table.head.size)
        c[forward] = np.fromiter(map(self.conductance.__getitem__, self.edges),
                                 float, len(self.edges))
        c[table.reverse[forward]] = c[forward]
        p = c / self.lam[table.tail]
        p.flags.writeable = False
        return p

    def degree(self, x: int) -> int:
        return len(self.neighbors[x])


@dataclass(init=False, eq=False)
class _EdgeTable:
    """The oriented edges of a graph, given sorted by tail, as read-only
    arrays in CSR order: edge i runs from tail[i] to head[i], the edges out
    of v are first[v]:first[v + 1], ascending in head, reverse[i] runs from
    head[i] to tail[i], and keys[i] = tail[i] * n + head[i] ascend. succ_first
    and succ hold the non-backtracking successor operator B (Hashimoto's) in
    CSR form: the successors of i, succ[succ_first[i]:succ_first[i + 1]], are
    the edges out of head[i] but reverse[i], ascending. succ, sum_v deg(v)
    (deg(v) - 1) entries, is a memo entry of its own, built on first use."""

    first: np.ndarray
    head: np.ndarray
    tail: np.ndarray
    reverse: np.ndarray
    succ_first: np.ndarray
    keys: np.ndarray

    def __init__(self, tail: np.ndarray, head: np.ndarray, reverse: np.ndarray,
                 num_vertices: int):
        degree = np.bincount(tail, minlength=num_vertices)
        self.first = np.concatenate(([0], np.cumsum(degree)))
        self.head, self.tail, self.reverse = head, tail, reverse
        self.succ_first = np.concatenate(([0], np.cumsum(degree[head] - 1)))
        self.keys = tail * num_vertices + head

    def index(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """The position of each oriented edge (x[k], y[k]), all of them
        edges."""
        return np.searchsorted(self.keys, x * (self.first.size - 1) + y)

    @property
    def succ(self) -> np.ndarray:
        return memoized((self,), _successors, self)


@memo
def _edge_table(neighbors: tuple[tuple[int, ...], ...]) -> _EdgeTable:
    """The _EdgeTable of a topology: by head, then tail, edges list their reverses."""
    head = np.fromiter(chain.from_iterable(neighbors), dtype=np.intp)
    tail = np.repeat(np.arange(len(neighbors)), [len(a) for a in neighbors])
    return _EdgeTable(tail, head, np.lexsort((tail, head)), len(neighbors))


def _successors(table: _EdgeTable) -> np.ndarray:
    rows, cols = _expand(table.first, table.head)
    return cols[cols != table.reverse[rows]]


def _expand(first: np.ndarray, at: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One step from every row of at (a vertex, or an edge under B) to each
    of its CSR entries, in order: the position in at and the index of each."""
    count = first[at + 1] - first[at]
    src = np.repeat(np.arange(at.size), count)
    offset = np.arange(src.size) - np.repeat(np.cumsum(count) - count, count)
    return src, first[at][src] + offset


def _search_tree(adj: Sequence[Sequence[int]],
                 message: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Breadth-first search from vertex 0 over adjacency lists, neighbours
    in ascending order: the parent (-1 at the root) and depth of each
    vertex. Raises ValidationError(message) if a vertex is not reached."""
    n = len(adj)
    parent = [-1] * n
    depth = [0] + [-1] * (n - 1)
    queue = [0]
    for x in queue:
        for y in sorted(adj[x]):
            if depth[y] < 0:
                parent[y] = x
                depth[y] = depth[x] + 1
                queue.append(y)
    if min(depth) < 0:
        raise ValidationError(message)
    return tuple(parent), tuple(depth)


def build_graph(
    num_vertices: int,
    weighted_edges: Iterable[tuple[int, int, float]],
    killing: Iterable[float] | float = 0.0,
) -> GraphModel:
    """Validate and construct a GraphModel.

    Args:
        num_vertices: vertex count; vertices are 0..num_vertices-1.
        weighted_edges: iterable of (u, v, conductance) triples.
        killing: scalar applied to every vertex, or one rate per vertex.

    Raises:
        ValidationError: on bad labels, loops, duplicate edges, nonpositive
            or non-finite conductances, negative or non-finite killing
            rates, a total rate lam(x) that overflows, or a disconnected
            graph.
    """
    if num_vertices < 1:
        raise ValidationError("graph needs at least one vertex")
    conductance: dict[tuple[int, int], float] = {}
    for u, v, c in weighted_edges:
        if not (0 <= u < num_vertices and 0 <= v < num_vertices):
            raise ValidationError(f"edge ({u},{v}) has a vertex out of range")
        if u == v:
            raise ValidationError(f"self-loop at vertex {u} not allowed")
        e = _normalize_edge(u, v)
        if e in conductance:
            raise ValidationError(f"duplicate edge {e}")
        if not c > 0:
            raise ValidationError(f"edge {e} has nonpositive conductance {c}")
        if not math.isfinite(c):
            raise ValidationError(f"edge {e} has non-finite conductance {c}")
        conductance[e] = float(c)
    # a connected graph on N vertices has N - 1 edges at least: refuse a short
    # count before anything per vertex is allocated
    if len(conductance) < num_vertices - 1:
        raise ValidationError("graph is not connected")
    if isinstance(killing, (int, float)):
        kill = (float(killing),) * num_vertices
    else:
        kill = tuple(float(k) for k in killing)
        if len(kill) != num_vertices:
            raise ValidationError(
                f"killing has length {len(kill)}, expected {num_vertices}"
            )
    if any(k < 0 for k in kill):
        raise ValidationError("killing rates must be nonnegative")
    if not all(math.isfinite(k) for k in kill):
        raise ValidationError("killing rates must be finite")
    g = GraphModel(
        num_vertices=num_vertices,
        edges=tuple(sorted(conductance)),
        conductance=conductance,
        killing=kill,
    )
    lam_zero = [x for x in range(num_vertices) if kill[x] == 0 and not g.neighbors[x]]
    if lam_zero:
        raise ValidationError(f"vertex {lam_zero[0]} has no edge and no killing")
    if g.lam.max() == math.inf:
        raise ValidationError(f"vertex {int(np.argmax(g.lam))} has a total rate lam "
                              f"that is not finite")
    g._bfs  # proves the graph connected; the canonical frame reuses it
    return g


@dataclass(frozen=True)
class SpanningTreeFrame:
    """A rooted spanning tree plus the ordered non-tree edges.

    Each non-tree edge, oriented from its smaller to its larger endpoint, is a
    generator of the fundamental group of the graph (rank = |E| - |X| + 1).
    Crossing generator i forward contributes the letter +(i+1) to a loop's
    word, crossing it backward contributes -(i+1); tree edges contribute
    nothing.
    """

    parent: tuple[int, ...]
    depth: tuple[int, ...]
    cogenerators: tuple[tuple[int, int], ...]

    @property
    def rank(self) -> int:
        return len(self.cogenerators)

    @cached_property
    def _letter(self) -> dict[tuple[int, int], int]:
        table = {}
        for i, (u, v) in enumerate(self.cogenerators, start=1):
            table[(u, v)] = i
            table[(v, u)] = -i
        return table

    def crossing(self, u: int, v: int) -> int:
        """Signed generator index of the step u -> v, or 0 on a tree edge."""
        return self._letter.get((u, v), 0)

    def tree_path(self, x: int, y: int) -> list[int]:
        """Vertex path from x to y inside the tree."""
        up_x, up_y = [x], [y]
        a, b = x, y
        while a != b:
            if self.depth[a] >= self.depth[b]:
                a = self.parent[a]
                up_x.append(a)
            else:
                b = self.parent[b]
                up_y.append(b)
        return up_x + up_y[-2::-1]


def spanning_tree_frame(
    g: GraphModel,
    tree_edges: Iterable[tuple[int, int]] | None = None,
) -> SpanningTreeFrame:
    """Build the canonical frame, or one over a caller-supplied tree.

    The canonical tree is grown breadth-first from vertex 0, scanning
    neighbours in ascending order: it is the search by which build_graph
    proved the graph connected, kept on the graph (_bfs). Non-tree edges
    are sorted by endpoint pair and oriented small -> large.
    """
    n = g.num_vertices
    if tree_edges is None:
        parent, depth = g._bfs
        tree = [_normalize_edge(parent[y], y) for y in range(1, n)]
    else:
        tree = [_normalize_edge(u, v) for u, v in tree_edges]
        if len(set(tree)) != len(tree):
            raise ValidationError("duplicate tree edge")
        for e in tree:
            if e not in g.conductance:
                raise ValidationError(f"tree edge {e} is not a graph edge")
        if len(tree) != n - 1:
            raise ValidationError(
                f"spanning tree needs {n - 1} edges, got {len(tree)}"
            )
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in tree:
            adj[u].append(v)
            adj[v].append(u)
        parent, depth = _search_tree(adj, "tree edges do not span the graph")
    tree_set = set(tree)
    cogens = tuple(e for e in g.edges if e not in tree_set)
    return SpanningTreeFrame(parent=parent, depth=depth, cogenerators=cogens)


def parse_graph(text: str) -> GraphModel:
    """Parse the plain-text graph format.

    Lines (blank lines and '#' comments ignored):
        vertices N
        edge U V CONDUCTANCE
        kappa X RATE

    'vertices' must come first. Killing defaults to 0 everywhere.

    Raises:
        ValidationError: with a line number on any malformed line.
    """
    num_vertices = None
    weighted_edges: list[tuple[int, int, float]] = []
    killing: dict[int, float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            if parts[0] == "vertices":
                if num_vertices is not None:
                    raise ValueError("repeated 'vertices' line")
                if len(parts) != 2:
                    raise ValueError("expected 'vertices N'")
                num_vertices = int(parts[1])
            elif parts[0] == "edge":
                if num_vertices is None:
                    raise ValueError("'edge' before 'vertices'")
                if len(parts) != 4:
                    raise ValueError("expected 'edge U V CONDUCTANCE'")
                weighted_edges.append((int(parts[1]), int(parts[2]), float(parts[3])))
            elif parts[0] == "kappa":
                if num_vertices is None:
                    raise ValueError("'kappa' before 'vertices'")
                if len(parts) != 3:
                    raise ValueError("expected 'kappa X RATE'")
                x = int(parts[1])
                if not 0 <= x < num_vertices:
                    raise ValueError(f"vertex {x} out of range")
                if x in killing:
                    raise ValueError(f"repeated kappa for vertex {x}")
                killing[x] = float(parts[2])
            else:
                raise ValueError(f"unknown directive {parts[0]!r}")
        except ValueError as exc:
            raise ValidationError(f"line {lineno}: {exc}") from None
    if num_vertices is None:
        raise ValidationError("missing 'vertices' line")
    # build_graph reads the killing of each vertex only once the edges have
    # passed its checks, so a huge vertex count allocates nothing here
    return build_graph(num_vertices, weighted_edges,
                       map(killing.get, range(num_vertices), repeat(0.0)))


def load_graph(path: str) -> GraphModel:
    """parse_graph of a file's UTF-8 text; ConfigError if it cannot be
    read or is not UTF-8."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    return parse_graph(text)
