"""Directed multigraphs with two distinguished vertices s and t.

Everything downstream consumes the queries defined here: simple s-t-path
enumeration, useless-edge detection, cycle finding, quasi-cycles and their
exact disjoint packing, and unit-capacity flow for edge-disjoint paths.
Every search walks an explicit stack, so no query's depth is bounded by
the interpreter's recursion limit.  Exponential searches are confined by
exact reductions: cycle enumeration and the useless-edge path search only
enter strongly connected components, and the packing drops dominated
quasi-cycles and packs each conflict component on its own.  The
whole-graph queries are computed once per graph.  One in-degree peel from
s (Kahn) decides whether the graph is acyclic with every edge on an s-t
path; on such a graph the cycle and useless-edge queries answer from it
alone.  Otherwise one breadth-first search from s and one to t give every
reachability answer, the distance from s to t and the edges reachability
leaves useless, and one depth-first search gives the strongly connected
components and the cycle witness.

Graphs are immutable: setting an attribute raises ``AttributeError``, and
``cached_property`` writes the cached queries straight into ``__dict__``.
Deletion and contraction return new graphs and never renumber the
surviving edge ids, so edge subsets remain comparable between a graph and
its minors.  The public constructor checks every invariant of a graph.
``Digraph._trusted`` builds one without those checks; only code that has
already established them calls it: the file parser, which checks each
line as it reads it, and the minors of an already valid graph.

Every query walks one cached adjacency of (position, neighbour) pairs, in
the order of ``edges``, where position i is ``edges[i]``; ``_position``
is the one map from edge ids to positions.  An edge mask is an int
whose bit i stands for that edge; the packing works on masks.  The flow
indexes edges by position, with a state of one byte per edge, so no
per-edge int is as wide as the edge count.
"""

from __future__ import annotations

import math
from collections import defaultdict
from functools import cached_property
from itertools import chain, islice
from typing import Hashable, Iterator, NamedTuple, Optional, Sequence

from .errors import ResourceLimitError

Vertex = Hashable

QUASI_CYCLE_PACKING_LIMIT = 64


class Walk(NamedTuple):
    """A walk given by its vertices v0..vn and edges e1..en.

    Each edge ei runs from v(i-1) to vi.  Simple s-t-paths and cycle
    witnesses are both represented this way; a cycle repeats its first
    vertex at the end.
    """

    vertices: tuple
    edges: tuple[int, ...]

    def edge_set(self) -> frozenset[int]:
        return frozenset(self.edges)


class QuasiCycle(NamedTuple):
    """Either the edge set of a cycle or a singleton holding a useless edge."""

    edges: frozenset[int]
    kind: str  # "cycle" | "useless-edge"


class Digraph:
    """Directed multigraph (vertices, edges, s, t) with integer edge ids.

    ``edges`` holds (edge_id, source, target) triples; parallel edges and
    self-loops are permitted, and s = t is permitted.  ``edge_labels``
    optionally carries display names aligned with ``edges`` (used by the
    file format; algorithms ignore it).  Queries walk ``edges`` in order,
    whatever the ids, and cache one breadth-first search per end.
    """

    def __init__(self, vertices: tuple, edges: tuple[tuple[int, Vertex, Vertex], ...],
                 s: Vertex, t: Vertex, edge_labels: Optional[tuple[str, ...]] = None):
        declared = set(vertices)
        if len(declared) != len(vertices):
            raise ValueError("duplicate vertex")
        if s not in declared or t not in declared:
            raise ValueError("s and t must be declared vertices")
        seen_ids = set()
        for eid, u, v in edges:
            if eid in seen_ids:
                raise ValueError(f"duplicate edge id {eid}")
            seen_ids.add(eid)
            if u not in declared or v not in declared:
                raise ValueError(f"edge {eid} uses an undeclared vertex")
        if edge_labels is not None and len(edge_labels) != len(edges):
            raise ValueError("edge_labels must align with edges")
        vars(self).update(vertices=vertices, edges=edges, s=s, t=t, edge_labels=edge_labels)

    def __setattr__(self, name, value):
        raise AttributeError("Digraph is immutable")

    def _key(self) -> tuple:
        return (self.vertices, self.edges, self.s, self.t, self.edge_labels)

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (f"Digraph(vertices={self.vertices!r}, edges={self.edges!r}, s={self.s!r}, "
                f"t={self.t!r}, edge_labels={self.edge_labels!r})")

    @classmethod
    def _trusted(cls, vertices: tuple, edges: tuple, s, t,
                 edge_labels: Optional[tuple]) -> "Digraph":
        """The graph with these fields, without ``__init__``'s checks:
        for callers that already hold every invariant (module docstring)."""
        g = object.__new__(cls)
        vars(g).update(vertices=vertices, edges=edges, s=s, t=t, edge_labels=edge_labels)
        return g

    @classmethod
    def build(cls, vertices: Sequence, edges: Sequence[tuple], s, t,
              labels: Optional[Sequence[str]] = None) -> "Digraph":
        """Construct from (source, target) pairs, assigning ids 0,1,2,..."""
        triples = tuple((i, u, v) for i, (u, v) in enumerate(edges))
        return cls(tuple(vertices), triples, s, t,
                   tuple(labels) if labels is not None else None)

    # -- bookkeeping -------------------------------------------------------

    @cached_property
    def edge_ids(self) -> tuple[int, ...]:
        return tuple(eid for eid, _, _ in self.edges)

    @cached_property
    def _position(self) -> dict[int, int]:
        """Edge id -> its position in ``edges``, the edge's bit in a mask."""
        return {eid: i for i, (eid, _, _) in enumerate(self.edges)}

    @cached_property
    def _adj(self) -> tuple[dict, dict]:
        """Out- and in-adjacency, every query's view of the edges: vertex ->
        list of (position, neighbour), in the order of ``edges``, built in one
        loop.  ``edge_ids[position]`` is the edge's id; shared, never mutated."""
        out: dict = {v: [] for v in self.vertices}
        inc: dict = {v: [] for v in self.vertices}
        for i, (_, u, v) in enumerate(self.edges):
            out[u].append((i, v))
            inc[v].append((i, u))
        return out, inc

    def label_map(self) -> dict[int, str]:
        """Edge id -> display label (falls back to the decimal id)."""
        if self.edge_labels is None:
            return {eid: str(eid) for eid in self.edge_ids}
        return {eid: lbl for (eid, _, _), lbl in zip(self.edges, self.edge_labels)}

    # -- deletion and contraction ------------------------------------------

    def delete_edge(self, e: int) -> "Digraph":
        """Remove edge e; vertices and the s, t roles are unchanged."""
        try:
            i = self._position[e]
        except KeyError:
            raise ValueError(f"unknown edge id {e}") from None
        labels = self.edge_labels
        return Digraph._trusted(self.vertices, self.edges[:i] + self.edges[i + 1:],
                                self.s, self.t, labels and labels[:i] + labels[i + 1:])

    def contract_edge(self, e: int) -> "Digraph":
        """Identify the endpoints of e and drop e itself.

        The merged vertex keeps the source's id; every other edge is
        retargeted onto it.  If s or t was an endpoint, the merged vertex
        inherits the role (both roles if e ran from s to t).  Contracting
        a self-loop is the same as deleting it.
        """
        g = self.delete_edge(e)
        u, v = self.edges[self._position[e]][1:]
        if u == v:
            return g
        merge = lambda w: u if w == v else w
        return Digraph._trusted(tuple(w for w in g.vertices if w != v),
                                tuple((eid, merge(a), merge(b)) for eid, a, b in g.edges),
                                merge(g.s), merge(g.t), g.edge_labels)

    def subgraph(self, edge_ids) -> "Digraph":
        """Restriction to a subset of edges (vertices and s, t kept)."""
        wanted = frozenset(edge_ids)
        unknown = wanted - self._position.keys()
        if unknown:
            raise ValueError(f"unknown edge ids {sorted(unknown)}")
        keep = [i for i, (eid, _, _) in enumerate(self.edges) if eid in wanted]
        labels = None
        if self.edge_labels is not None:
            labels = tuple(self.edge_labels[i] for i in keep)
        return Digraph._trusted(self.vertices, tuple(self.edges[i] for i in keep),
                                self.s, self.t, labels)

    # -- paths ---------------------------------------------------------------

    def has_st_path(self) -> bool:
        """True iff t is reachable from s (a walk exists iff a path does)."""
        return self.t in self._from_s

    def edge_mask(self, edge_ids) -> int:
        """The edge mask of a set of edge ids; ids the graph lacks raise
        ``ValueError``."""
        pos, bits = self._position, bytearray(len(self.edges) // 8 + 1)
        try:
            for i in map(pos.__getitem__, edge_ids):
                bits[i >> 3] |= 1 << (i & 7)
        except KeyError as err:
            raise ValueError(f"not an edge id of the graph: {err.args[0]!r}") from None
        return int.from_bytes(bits, "little")

    def has_st_path_within(self, edge_ids) -> bool:
        """Reachability of t from s using only the given edges: the
        restricted graph's ``has_st_path``.  Ids the graph lacks raise
        ``ValueError``."""
        return self.subgraph(edge_ids).has_st_path()

    def enumerate_st_paths(self) -> list[Walk]:
        """All simple s-t-paths, lexicographic by edge positions in ``edges``.

        When s = t the only s-t-path is the trivial edgeless one.
        """
        if self.s == self.t:
            return [Walk((self.s,), ())]
        return list(self._simple_walks(self.s, self.t, set(self.vertices) - {self.s}))

    def _simple_walks(self, root, target, inner: set):
        """Yield each walk from ``root`` to ``target`` with its other vertices
        distinct and in ``inner``, lexicographic by edge positions.

        Depth-first over an explicit stack of neighbour iterators; a vertex
        leaves ``inner`` while it is on the walk."""
        out, ids = self._adj[0], self.edge_ids
        vseq, eseq = [root], []
        frames = [iter(out[root])]
        while frames:
            for i, w in frames[-1]:
                if w == target:
                    yield Walk((*vseq, w), (*eseq, ids[i]))
                elif w in inner:
                    inner.discard(w)
                    vseq.append(w)
                    eseq.append(ids[i])
                    frames.append(iter(out[w]))
                    break
            else:
                frames.pop()
                if eseq:
                    eseq.pop()
                    inner.add(vseq.pop())

    def shortest_st_path_length(self) -> Optional[int]:
        """Edge count of a shortest s-t-path; None when t is unreachable."""
        return self._from_s.get(self.t)

    @cached_property
    def _from_s(self) -> dict:
        """Vertex -> its distance from s, over the vertices s reaches, in
        breadth-first order (shared by every query: never mutated)."""
        return _distances(self.s, self._adj[0])

    @cached_property
    def _to_t(self) -> dict:
        """Vertex -> its distance to t, over the vertices reaching t (shared)."""
        return _distances(self.t, self._adj[1])

    # -- cycles and useless edges ---------------------------------------------

    def find_cycle(self) -> Optional[Walk]:
        """First cycle found by depth-first search in ``edges`` order, or None.

        Self-loops count as cycles.  Vertices are tried in declaration
        order, so the answer is deterministic: the first edge that leads
        back onto the search path closes the witness.  The witness comes
        from the one search that also finds the strongly connected
        components, which runs once per graph, unless the graph peels
        whole (``_generic_acyclic``): then it is acyclic, with no search.
        """
        if self._generic_acyclic:
            return None
        return self._components_and_cycle[1]

    def nonsinks(self) -> frozenset:
        """Vertices with at least one outgoing edge."""
        return frozenset(u for _, u, _ in self.edges)

    def useless_edges(self) -> frozenset[int]:
        """Edges lying on no simple s-t-path, computed once per graph.

        An edge (u, v) is useless when u is unreachable from s, t is
        unreachable from v, or it is a self-loop, enters s or leaves t;
        reachability alone decides these.  Any other edge whose
        endpoints lie in different strongly connected components is
        useful: an s-u path stays in components at or before u's in
        topological order and a v-t path in components at or after v's, so
        the two share no vertex.  A simple s-t-path meets a component C in
        one simple path inside C, from an entry of C (s, or a vertex with
        an in-edge from outside C that s reaches) to an exit (t, or a
        vertex with an out-edge to outside C that reaches t), and every
        such path extends to an s-t-path that way.  So only edges inside
        a component need a search, and it stays inside that component;
        it is still exponential in the component's size.  An acyclic
        graph needs no search, and one that peels whole
        (``_generic_acyclic``) has no useless edge, with no search at all.
        """
        return self._useless

    @cached_property
    def _useless(self) -> frozenset[int]:
        """The edge set ``useless_edges`` returns."""
        if self._generic_acyclic:
            return frozenset()
        fwd, bwd = self._from_s, self._to_t
        useless = self._useless_by_reach
        comp, cycle = self._components_and_cycle
        if cycle is None:
            return useless
        inside = defaultdict(set)  # component -> its undecided edges
        entries, exits = defaultdict(set), defaultdict(set)
        entries[comp[self.s]].add(self.s)
        exits[comp[self.t]].add(self.t)
        for eid, u, v in self.edges:
            if comp[u] != comp[v]:
                if u in fwd:
                    entries[comp[v]].add(v)
                if v in bwd:
                    exits[comp[u]].add(u)
            elif eid not in useless:
                inside[comp[u]].add(eid)
        members = defaultdict(set)
        for v, label in comp.items():
            members[label].add(v)
        for label, todo in inside.items():
            paths = chain.from_iterable(
                self._simple_walks(a, b, members[label] - {a, b})
                for a in entries[label] for b in exits[label] if a != b)
            for path in paths:
                todo.difference_update(path.edges)
                if not todo:
                    break
            useless |= todo
        return useless

    @cached_property
    def _useless_by_reach(self) -> frozenset[int]:
        """The edges ``useless_edges`` marks by reachability alone."""
        fwd, bwd, s, t = self._from_s, self._to_t, self.s, self.t
        return frozenset(eid for eid, u, v in self.edges
                         if u == v or u not in fwd or v not in bwd or v == s or u == t)

    @cached_property
    def _generic_acyclic(self) -> bool:
        """True iff the graph is acyclic and every edge lies on a simple
        s-t-path (with s = t: iff it has no edge), by one in-degree peel
        from s (Kahn, CACM 1962): a dequeued vertex consumes its out-edges,
        and a head with every in-edge consumed joins the queue.  It holds iff
        no edge enters s (so s joins once), every dequeued vertex but t has an
        edge out, and all |E| edges are consumed; an edge out of t fails one
        of the last two, so it exits at once."""
        out, inc = self._adj
        if inc[self.s] or out[self.t]:
            return False
        left = {v: len(es) for v, es in inc.items()}  # vertex -> in-edges not consumed
        queue, consumed, t = [self.s], 0, self.t
        for v in queue:
            es = out[v]
            if not es and v != t:
                return False
            consumed += len(es)
            for _, w in es:
                left[w] -= 1
                if not left[w]:
                    queue.append(w)
        return consumed == len(self.edges)

    @cached_property
    def _components_and_cycle(self) -> tuple[dict, Optional[Walk]]:
        """Vertex -> a label shared by exactly the vertices of its strongly
        connected component, and the ``find_cycle`` witness, from one
        depth-first search (Tarjan, with an explicit stack of neighbour
        iterators) run once per graph.  An open vertex holds the lowest
        visit order it reaches; closing a component relabels it ``n`` +
        its root's visit order.  The first edge onto a vertex still on the
        search path closes the witness."""
        out, ids = self._adj[0], self.edge_ids
        n = len(self.vertices)
        low: dict = {}
        pending: list = []  # visited vertices whose component is still open
        cycle = None
        for root in self.vertices:
            if root in low:
                continue
            low[root] = len(low)
            frames = [(root, low[root], iter(out[root]))]
            pending.append(root)
            while frames:
                v, i, it = frames[-1]
                for _, w in it:
                    if w not in low:
                        low[w] = len(low)
                        frames.append((w, low[w], iter(out[w])))
                        pending.append(w)
                        break
                    if cycle is None and low[w] < n:
                        # Until a cycle closes, every component closes as one
                        # vertex, so ``pending`` is the search path, and each
                        # step along it took the first edge to its next vertex.
                        vs = (*pending[pending.index(w):], w)
                        cycle = Walk(vs, tuple(next(ids[e] for e, x in out[a] if x == b)
                                               for a, b in zip(vs, vs[1:])))
                    if low[w] < low[v]:
                        low[v] = low[w]
                else:
                    frames.pop()
                    if low[v] == i:
                        while True:
                            w = pending.pop()
                            low[w] = n + i
                            if w == v:
                                break
                    elif low[v] < low[frames[-1][0]]:
                        low[frames[-1][0]] = low[v]
        return low, cycle

    def _simple_cycle_edge_sets(self) -> Iterator[frozenset[int]]:
        """Yield the edge set of every simple cycle, each once.

        A cycle is rooted at its earliest vertex (declaration order) and the
        search never dips below that root, so each cycle is emitted once,
        from its root.  The search is confined to ``back``: the vertices
        of the root's strongly connected component, after the root, that
        reach the root through such vertices, found by one backward scan.
        It enters no vertex from which the root is out of reach, and a
        root with an empty ``back`` closes only its self-loops.  Cycles
        come as the search finds them, so a caller can stop early.  A graph
        that peels whole (``_generic_acyclic``) has none to search.
        """
        if self._generic_acyclic:
            return
        comp, cycle = self._components_and_cycle
        if cycle is None:
            return
        vindex = {v: i for i, v in enumerate(self.vertices)}
        (out, inc), ids = self._adj, self.edge_ids
        for start in self.vertices:
            base, label = vindex[start], comp[start]
            back: set = set()
            scan = [start]
            while scan:
                for _, u in inc[scan.pop()]:
                    if comp[u] == label and vindex[u] > base and u not in back:
                        back.add(u)
                        scan.append(u)
            if back:
                for w in self._simple_walks(start, start, back):
                    yield w.edge_set()
            else:
                yield from (frozenset((ids[i],)) for i, w in out[start] if w == start)

    def quasi_cycles(self) -> list[QuasiCycle]:
        """Cycle edge sets plus singletons of useless edges, deduplicated.

        A self-loop is both; it is reported once, as a cycle.
        """
        return self._quasi_cycles(list(self._simple_cycle_edge_sets()))

    def _quasi_cycles(self, cycle_sets: list[frozenset[int]]) -> list[QuasiCycle]:
        """``quasi_cycles`` from the list of every cycle edge set."""
        taken = set(cycle_sets)
        result = [QuasiCycle(es, "cycle") for es in cycle_sets]
        for eid in sorted(self.useless_edges()):
            singleton = frozenset((eid,))
            if singleton not in taken:
                result.append(QuasiCycle(singleton, "useless-edge"))
        result.sort(key=lambda qc: (len(qc.edges), sorted(qc.edges)))
        return result

    def max_disjoint_quasi_cycles(self) -> tuple[int, tuple[QuasiCycle, ...]]:
        """Exact maximum packing of pairwise edge-disjoint quasi-cycles.

        Refuses to run when ``quasi_cycles()`` has more than
        ``QUASI_CYCLE_PACKING_LIMIT`` entries.  The cycle search stops at
        the first cycle past the limit, before the useless edges are
        counted, so a refusal lists no more cycles than that.  Two exact
        reductions come first.  A quasi-cycle that strictly contains
        another is dropped, since the smaller one can take its place in
        any packing.  The rest split into components of the conflict
        relation (two quasi-cycles conflict when they share an edge), and
        each component is packed on its own by an iterative branch and
        bound over edge masks.  The packing number is the sum over the
        components; the witness is the union of theirs.
        """
        most = QUASI_CYCLE_PACKING_LIMIT
        cycle_sets = list(islice(self._simple_cycle_edge_sets(), most + 1))
        if len(cycle_sets) > most:
            raise ResourceLimitError(f"more than {most} cycles exceed the packing limit of {most}")
        qcs = self._quasi_cycles(cycle_sets)
        if len(qcs) > most:
            raise ResourceLimitError(f"{len(qcs)} quasi-cycles exceed the packing limit of {most}")
        masks = [self.edge_mask(qc.edges) for qc in qcs]
        # ``qcs`` is sorted by size, so a strict subset comes earlier.
        rest = [i for i, m in enumerate(masks) if not any(o & m == o for o in masks[:i])]
        chosen: list[int] = []
        while rest:
            # Grow the conflict component of rest[0] until no mask joins it.
            group, span = [], masks[rest[0]]
            while True:
                joined = [i for i in rest if masks[i] & span]
                if len(joined) == len(group):
                    break
                group = joined
                for i in group:
                    span |= masks[i]
            rest = [i for i in rest if not masks[i] & span]
            chosen += (group[k] for k in _max_disjoint([masks[i] for i in group]))
        return len(chosen), tuple(qcs[i] for i in sorted(chosen))

    # -- flows ------------------------------------------------------------------

    def _max_flow(self) -> tuple[int, set]:
        """Unit-capacity max flow from s to t by augmenting-path search.

        Returns the value and the vertices the last, failing search
        reached: the source side of a minimum cut.  When s = t the trivial
        path replicates without using any edge: the value is ``math.inf``.
        """
        s, t = self.s, self.t
        if s == t:
            return math.inf, {s}
        out, inc = self._adj
        # state[i]: 1 while edge i may take a unit, 2 while it carries one;
        # an augmenting step flips the two.
        state = bytearray(b"\1") * len(self.edges)
        value = 0
        while True:
            how: dict = {s: None}
            frontier = [s]
            while frontier and t not in how:
                nxt = []
                for v in frontier:
                    for i, w in out[v]:
                        if state[i] == 1 and w not in how:
                            how[w] = (v, i)
                            nxt.append(w)
                    for i, w in inc[v]:
                        if state[i] == 2 and w not in how:
                            how[w] = (v, i)
                            nxt.append(w)
                frontier = nxt
            if t not in how:
                break
            v = t
            while v != s:
                v, i = how[v]
                state[i] ^= 3
            value += 1
        return value, set(how)

    def max_edge_disjoint_st_paths(self):
        """Max number of pairwise edge-disjoint s-t-paths.

        ``math.inf`` when s = t: the trivial path replicates without using
        any edge, so every bound is met.
        """
        return self._max_flow()[0]

    def min_st_cutset_size(self) -> int:
        """Size of a smallest edge set meeting every s-t-path.

        Read off a maximum flow: the edges leaving the vertices that the
        last, failing augmenting-path search reached form a minimum cut.
        """
        if self.s == self.t:
            raise ValueError("no cut-set exists when s = t")
        _, side = self._max_flow()
        return sum(1 for _, u, v in self.edges if u in side and v not in side)


def _max_disjoint(masks: list[int]) -> tuple[int, ...]:
    """Positions of a largest set of pairwise disjoint masks.

    Branch and bound on an explicit stack: each mask is first taken, when
    it fits, then skipped; a branch stops once the masks left cannot beat
    the best set found.
    """
    best: tuple[int, ...] = ()
    stack = [(0, 0, ())]
    while stack:
        i, used, taken = stack.pop()
        if len(taken) > len(best):
            best = taken
        if i < len(masks) and len(taken) + len(masks) - i > len(best):
            stack.append((i + 1, used, taken))
            if not masks[i] & used:
                stack.append((i + 1, used | masks[i], taken + (i,)))
    return best


def _distances(root, adj: dict) -> dict:
    """Vertex -> its distance from ``root`` along ``adj`` (vertex -> list of
    (position, neighbour)), for the vertices reached, in the order a
    breadth-first search discovers them."""
    dist = {root: 0}
    queue = [root]
    for v in queue:
        d = dist[v] + 1
        for _, w in adj[v]:
            if w not in dist:
                dist[w] = d
                queue.append(w)
    return dist
