"""Stallings core graphs for finitely generated subgroups of free groups.

Membership, quasiconvexity constants, malnormality (conjugate separation)
and finiteness of intersections with conjugates, all via the folded core
graph and fiber products over the rose.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Tuple

from .words import Alphabet, Word, inverse, mul, free_reduce


@dataclass(frozen=True)
class CoreGraph:
    """Folded basepointed graph; vertices 0..n-1 in canonical BFS order, basepoint 0.

    The BFS spanning tree from the basepoint and the index of its chords (the
    non-tree edges, one per free generator) are computed once, on first use.
    """

    alphabet: Alphabet
    num_vertices: int
    edges: tuple  # sorted tuple of (source, generator>=1, target)

    def __post_init__(self):
        out, inn = _edge_maps(self.edges)
        if len(out) != len(self.edges) or len(inn) != len(self.edges):
            raise ValueError("graph is not folded")
        object.__setattr__(self, "_out", out)
        object.__setattr__(self, "_in", inn)

    def step(self, vertex: int, letter: int) -> Optional[int]:
        if letter > 0:
            return self._out.get((vertex, letter))
        return self._in.get((vertex, -letter))

    def trace(self, w: Word, start: int = 0) -> Optional[int]:
        v = start
        for x in w:
            v = self.step(v, x)
            if v is None:
                return None
        return v

    @property
    def betti(self) -> int:
        return len(self.edges) - self.num_vertices + 1

    def serialize(self) -> str:
        """Canonical one-line adjacency text (graphs are canonically numbered)."""
        parts = [f"v={self.num_vertices}"]
        for (u, g, v) in self.edges:
            parts.append(f"{u}-{self.alphabet.names[g - 1]}->{v}")
        return " ".join(parts)

    @cached_property
    def _tree(self) -> dict:
        return _bfs(self.step, 0, self.alphabet.size)

    @cached_property
    def _chords(self) -> Dict[Tuple[int, int, int], int]:
        """Non-tree edges in sorted order -> index in the free basis."""
        chords = [e for e in self.edges if not _is_tree_edge(self._tree, e)]
        return {e: i for i, e in enumerate(chords)}


def _bfs(step, start, size: int) -> dict:
    """Breadth-first spanning tree of a folded graph whose step(x, letter) is
    the end of the edge at x labelled by a signed letter, or None.

    Returns vertex -> (parent, signed letter) in visiting order, the start
    mapping to (None, 0).  Generators are visited in index order, each
    forward edge before its backward edge.
    """
    tree = {start: (None, 0)}
    queue = deque([start])
    while queue:
        x = queue.popleft()
        for g in range(1, size + 1):
            for letter in (g, -g):
                nbr = step(x, letter)
                if nbr is not None and nbr not in tree:
                    tree[nbr] = (x, letter)
                    queue.append(nbr)
    return tree


def _tree_path(tree: dict, vertex) -> Word:
    """Label of the tree path from the root to vertex."""
    letters = []
    parent, letter = tree[vertex]
    while parent is not None:
        letters.append(letter)
        parent, letter = tree[parent]
    return tuple(reversed(letters))


def _is_tree_edge(tree: dict, edge) -> bool:
    (u, g, v) = edge
    return tree[v] == (u, g) or tree[u] == (v, -g)


def _edge_maps(edges):
    """(vertex, generator) -> vertex maps for forward and backward edges."""
    out: dict = {}
    inn: dict = {}
    for (u, g, v) in edges:
        out[(u, g)] = v
        inn[(v, g)] = u
    return out, inn


def _fold(num_vertices: int, edges: List[Tuple[int, int, int]], basepoint: int):
    """Fold edge list in place (union-find); returns (vertex map, folded edges, basepoint)."""
    parent = list(range(num_vertices))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    changed = True
    while changed:
        changed = False
        out: Dict[Tuple[int, int], int] = {}
        inn: Dict[Tuple[int, int], int] = {}
        for (u, g, v) in edges:
            u, v = find(u), find(v)
            if (u, g) in out and out[(u, g)] != v:
                union(out[(u, g)], v)
                changed = True
                break
            out[(u, g)] = v
            if (v, g) in inn and inn[(v, g)] != u:
                union(inn[(v, g)], u)
                changed = True
                break
            inn[(v, g)] = u
    folded = sorted({(find(u), g, find(v)) for (u, g, v) in edges})
    return find, folded, find(basepoint)


def _trim(edges, basepoint):
    """Remove non-basepoint vertices of degree 1 (hair)."""
    edges = list(edges)
    while True:
        deg: Dict[int, int] = {}
        for (u, g, v) in edges:
            deg[u] = deg.get(u, 0) + 1
            deg[v] = deg.get(v, 0) + 1
        hair = [x for x, d in deg.items() if d == 1 and x != basepoint]
        if not hair:
            return edges
        edges = [e for e in edges if e[0] not in hair and e[2] not in hair]


def _canonical(alphabet: Alphabet, edges, basepoint) -> CoreGraph:
    """Renumber vertices by BFS from the basepoint with shortlex edge order."""
    out, inn = _edge_maps(edges)

    def step(x, letter):
        return out.get((x, letter)) if letter > 0 else inn.get((x, -letter))

    order = {x: i for i, x in enumerate(_bfs(step, basepoint, alphabet.size))}
    new_edges = sorted((order[u], g, order[v]) for (u, g, v) in edges if u in order)
    return CoreGraph(alphabet, max(1, len(order)), tuple(new_edges))


def build_core(alphabet: Alphabet, generators) -> CoreGraph:
    """Folded basepointed core graph of the subgroup generated by the given words."""
    edges: List[Tuple[int, int, int]] = []
    nv = 1
    for w in generators:
        w = free_reduce(w)
        if not w:
            continue
        prev = 0
        for i, x in enumerate(w):
            nxt = 0 if i == len(w) - 1 else nv
            if i < len(w) - 1:
                nv += 1
            if x > 0:
                edges.append((prev, x, nxt))
            else:
                edges.append((nxt, -x, prev))
            prev = nxt
    _, folded, base = _fold(nv, edges, 0)
    folded = _trim(folded, base)
    return _canonical(alphabet, folded, base)


def contains(graph: CoreGraph, w: Word) -> bool:
    return graph.trace(w) == 0


def free_basis(graph: CoreGraph) -> List[Word]:
    """One free generator per non-tree edge, in deterministic order."""
    tree = graph._tree
    return [
        mul(_tree_path(tree, u), (g,), inverse(_tree_path(tree, v))) for (u, g, v) in graph._chords
    ]


def express(graph: CoreGraph, w: Word) -> Optional[List[Tuple[int, int]]]:
    """Decompose a subgroup element over the free basis; None if w is not in it.

    Returns a list of (basis index, sign) whose product equals w.
    """
    chords = graph._chords
    v = 0
    out: List[Tuple[int, int]] = []
    for x in w:
        nxt = graph.step(v, x)
        if nxt is None:
            return None
        i = chords.get((v, x, nxt) if x > 0 else (nxt, -x, v))
        if i is not None:
            out.append((i, 1 if x > 0 else -1))
        v = nxt
    if v != 0:
        return None
    return out


def quasiconvexity_constant(graph: CoreGraph) -> int:
    """Max graph distance from any vertex to the basepoint within the core."""
    tree = graph._tree
    return len(_tree_path(tree, next(reversed(tree))))  # BFS visits the farthest vertex last


@dataclass(frozen=True)
class FiberComponent:
    """Connected component of the pullback of two core graphs over the rose."""

    vertices: tuple  # sorted tuple of (p, q) pairs
    edges: tuple  # sorted tuple of ((p,q), g, (p',q'))
    contains_basepoint: bool

    @property
    def betti(self) -> int:
        return len(self.edges) - len(self.vertices) + 1


def _pair_step(g1: CoreGraph, g2: CoreGraph):
    """The step function of the fiber product, on (p, q) pairs."""

    def step(x, letter):
        p, q = g1.step(x[0], letter), g2.step(x[1], letter)
        return None if p is None or q is None else (p, q)

    return step


def fiber_product(g1: CoreGraph, g2: CoreGraph) -> List[FiberComponent]:
    """The components of the pullback that carry at least one edge, in order
    of their least (p, q) pair.

    A pair with no edge would be a one-vertex tree component; none is
    returned.  Edges are built one generator at a time from the two edge
    lists, so the cost is the number of edge pairs, not of vertex pairs.
    """
    if g1.alphabet != g2.alphabet:
        raise ValueError("fiber product needs a common alphabet")
    size = g1.alphabet.size
    by_gen: Dict[int, list] = {g: [] for g in range(1, size + 1)}
    for (q, g, q2) in g2.edges:
        by_gen[g].append((q, q2))
    edges = sorted(((p, q), g, (p2, q2)) for (p, g, p2) in g1.edges for (q, q2) in by_gen[g])
    step = _pair_step(g1, g2)
    component: Dict[Tuple[int, int], int] = {}
    vertex_sets: List[tuple] = []
    for x in sorted({x for (a, _, b) in edges for x in (a, b)}):
        if x not in component:
            tree = _bfs(step, x, size)
            component.update(dict.fromkeys(tree, len(vertex_sets)))
            vertex_sets.append(tuple(sorted(tree)))
    comp_edges: List[list] = [[] for _ in vertex_sets]
    for e in edges:
        comp_edges[component[e[0]]].append(e)
    return [
        FiberComponent(vs, tuple(es), contains_basepoint=vs[0] == (0, 0))
        for vs, es in zip(vertex_sets, comp_edges)
    ]


def _cycle_witness(comp: FiberComponent, g1: CoreGraph, g2: CoreGraph):
    """(alpha, beta, u) for a fiber component of g1, g2 with betti >= 1, at its
    least pair (p, q): alpha and beta are the tree paths to p in g1 and to q in
    g2, and u = alpha z alpha^-1 for the loop z at (p, q) through the first
    chord."""
    at = comp.vertices[0]
    tree = _bfs(_pair_step(g1, g2), at, g1.alphabet.size)
    (u, g, v) = next(e for e in comp.edges if not _is_tree_edge(tree, e))
    z = mul(_tree_path(tree, u), (g,), inverse(_tree_path(tree, v)))
    alpha = _tree_path(g1._tree, at[0])
    beta = _tree_path(g2._tree, at[1])
    return alpha, beta, mul(alpha, z, inverse(alpha))


@dataclass(frozen=True)
class SeparationResult:
    """Outcome of a finiteness test, with a verifying witness on failure."""

    holds: bool
    witness: Optional[Word] = None  # x (or g) conjugating a common element
    common_element: Optional[Word] = None

    def __bool__(self):
        return self.holds


def is_conjugate_separated(graph: CoreGraph) -> SeparationResult:
    """Malnormality of U in the ambient free group (finite = trivial, torsion-free).

    True iff every off-diagonal component of the self fiber product is a tree.
    On failure returns x not in U and a nontrivial u in U with u^x in U.
    """
    for comp in fiber_product(graph, graph):
        if comp.contains_basepoint or comp.betti == 0:
            continue
        alpha, beta, u = _cycle_witness(comp, graph, graph)
        return SeparationResult(False, witness=mul(alpha, inverse(beta)), common_element=u)
    return SeparationResult(True)


def conjugate_intersections_finite(gU: CoreGraph, gV: CoreGraph) -> SeparationResult:
    """True iff U \\cap g^-1 V g is trivial for all g (every fiber component a tree).

    On failure returns g and a nontrivial common element of U and g^-1 V g.
    """
    for comp in fiber_product(gU, gV):
        if comp.betti == 0:
            continue
        alpha, beta, u = _cycle_witness(comp, gU, gV)
        return SeparationResult(False, witness=mul(beta, inverse(alpha)), common_element=u)
    return SeparationResult(True)
