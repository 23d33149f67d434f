"""Stallings core graphs for finitely generated subgroups of free groups.

Membership, quasiconvexity constants, malnormality (conjugate separation)
and finiteness of intersections with conjugates, all via the folded core
graph and fiber products over the rose.
"""

from __future__ import annotations

from array import array
from collections import deque
from functools import cached_property
from typing import Dict, List, Optional, Tuple

from .words import Alphabet, Frozen, ResourceCapError, Word, inverse, mul, free_reduce


class CoreGraph(Frozen):
    """Folded basepointed graph; vertices 0..n-1 in canonical BFS order, basepoint 0.

    The BFS spanning tree from the basepoint and the index of its chords (the
    non-tree edges, one per free generator) are computed once, on first use.
    """

    __slots__ = ("alphabet", "num_vertices", "edges", "_out", "_in", "__dict__")

    def __init__(self, alphabet: Alphabet, num_vertices: int, edges: tuple):
        # edges: sorted tuple of (source, generator>=1, target)
        out = {(u, g): v for (u, g, v) in edges}
        inn = {(v, g): u for (u, g, v) in edges}
        if len(out) != len(edges) or len(inn) != len(edges):
            raise ValueError("graph is not folded")
        super().__init__(alphabet, num_vertices, edges, out, inn)

    def _key(self) -> tuple:
        return (self.alphabet, self.num_vertices, self.edges)

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


def _fold(num_vertices: int, edges, basepoint: int):
    """Fold labelled edges (u, x, v, label), where u -x-> v for a signed
    letter x reads label, a word of any free group (and v -(-x)-> u reads
    its inverse); returns the folded edges (u, g, v, label), g >= 1, and
    the basepoint.

    Worklist folding (Touikan): each vertex maps its signed letters to
    (neighbour, label) pairs, two ends under one letter are queued to be
    merged, and a merge moves one map into the other, queueing the clashes.
    Stored neighbours may be merged vertices; find resolves them.  The
    folded graph does not depend on the merge order.

    Labels (Kapovich-Myasnikov 2002): merging w2 into w1, where the clashing
    edges read l1 and l2, gauges w2 by c = l1^-1 l2, so edges leaving w2
    read c l, edges entering it l c^-1, and both read l1.  find composes
    gauges as it compresses paths.  The basepoint is never gauged, so no
    merge changes what a closed path at it reads.  Labels are fixed only up
    to gauge, and they are a well-defined map on closed paths exactly when
    no fold identified two parallel edges, that is when the folded graph
    keeps the betti number r of the input: folding r petals u_i at the
    basepoint, petal i reading v_i, then reads psi: u_i -> v_i along each
    closed path (free groups are Hopfian).
    """
    parent = list(range(num_vertices))
    gauge: List[Word] = [()] * num_vertices  # a merged vertex's gauge to its parent
    adj: List[dict] = [{} for _ in range(num_vertices)]
    queue = []

    def find(x):
        """(root of x, gauge of x to it)."""
        p = parent[x]
        if parent[p] == p:
            return p, gauge[x]
        path = []
        while parent[x] != x:
            path.append(x)
            x = parent[x]
        c = ()
        for y in reversed(path):
            g = gauge[y]
            c = mul(c, g) if c and g else c or g
            parent[y], gauge[y] = x, c
        return x, c

    def attach(u, letter, v, label):
        new = (v, label)
        old = adj[u].setdefault(letter, new)
        if old is not new and old != new:
            queue.append((old, new))

    for (u, x, v, label) in edges:
        attach(u, x, v, label)
        attach(v, -x, u, inverse(label) if label else label)
    while queue:
        (w1, l1), (w2, l2) = queue.pop()
        (a, c1), (b, c2) = find(w1), find(w2)
        if a == b:
            continue
        c = mul(c1, inverse(l1), l2, inverse(c2)) if c1 or l1 or l2 or c2 else ()
        if b == basepoint:
            a, b, c = b, a, inverse(c)
        parent[b], gauge[b] = a, c
        for letter, (v, label) in adj[b].items():
            attach(a, letter, v, mul(c, label) if c and label else c or label)
        adj[b] = {}
    folded = []
    for u, arrows in enumerate(adj):  # merged vertices have none left
        for g, (w, label) in arrows.items():
            if g > 0:
                v, c = find(w)
                folded.append((u, g, v, mul(label, inverse(c)) if c else label))
    return folded, basepoint


def _canonical(alphabet: Alphabet, edges, basepoint) -> Tuple[CoreGraph, tuple]:
    """Renumber labelled edges' vertices by BFS from the basepoint with
    shortlex edge order; returns the graph and its edges' labels in order."""
    out = {(u, g): v for (u, g, v, _) in edges}
    inn = {(v, g): u for (u, g, v, _) in edges}

    def step(x, letter):
        return out.get((x, letter)) if letter > 0 else inn.get((x, -letter))

    order = {x: i for i, x in enumerate(_bfs(step, basepoint, alphabet.size))}
    new_edges = sorted((order[u], g, order[v], label) for (u, g, v, label) in edges)
    graph = CoreGraph(alphabet, len(order), tuple((u, g, v) for (u, g, v, _) in new_edges))
    return graph, tuple(label for (*_, label) in new_edges)


def labelled_core(alphabet: Alphabet, petals) -> Tuple[CoreGraph, tuple]:
    """Fold the petals (u_i, v_i): u_i a closed path at the basepoint whose
    last edge reads v_i.  Returns the core graph of <u_i> and the labels of
    its edges in order; see _fold for what they mean.

    No hair needs trimming: each freely reduced u_i traces a reduced closed
    path in the folded graph, which can only turn back at the basepoint, so
    every other vertex keeps degree at least 2.
    """
    edges: List[tuple] = []
    nv = 1
    for w, label in petals:
        w = free_reduce(w)
        if not w:
            continue
        ends = [0, *range(nv, nv + len(w) - 1), 0]
        nv += len(w) - 1
        edges += zip(ends, w, ends[1:], [()] * (len(w) - 1) + [label])
    return _canonical(alphabet, *_fold(nv, edges, 0))


def build_core(alphabet: Alphabet, generators) -> CoreGraph:
    """Folded basepointed core graph of the subgroup generated by the given words."""
    return labelled_core(alphabet, [(w, ()) for w in generators])[0]


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


class FiberComponent(Frozen):
    """Connected component of the pullback of two core graphs over the rose:
    its sorted (p, q) pairs and its sorted ((p, q), g, (p', q')) edges."""

    __slots__ = ("vertices", "edges", "contains_basepoint")

    @property
    def betti(self) -> int:
        return len(self.edges) - len(self.vertices) + 1


def _pair_step(g1: CoreGraph, g2: CoreGraph):
    """The step function of the fiber product, on (p, q) pairs."""

    def step(x, letter):
        p, q = g1.step(x[0], letter), g2.step(x[1], letter)
        return None if p is None or q is None else (p, q)

    return step


# Most (p, q) pairs fiber_product numbers: it fills 8 bytes a pair before it reads an edge.
MAX_FIBER_PAIRS = 2 * 10**7


def fiber_product(g1: CoreGraph, g2: CoreGraph) -> List[FiberComponent]:
    """The components of the pullback that contain a cycle, in order of their
    least (p, q) pair.

    Tree components carry no common element and none is returned.  Pair
    (p, q) has id p * n2 + q; a union-find over the pairs of equally
    labelled edges keeps the least id of each component as its root and
    collects the roots where an edge closed a cycle.  Each of those
    components is then walked once by BFS from its least pair.  More than
    MAX_FIBER_PAIRS pairs raise ResourceCapError.
    """
    if g1.alphabet != g2.alphabet:
        raise ValueError("fiber product needs a common alphabet")
    size, n2 = g1.alphabet.size, g2.num_vertices
    if g1.num_vertices * n2 > MAX_FIBER_PAIRS:
        raise ResourceCapError(
            f"fiber product of cores of {g1.num_vertices} and {n2} vertices exceeds {MAX_FIBER_PAIRS} pairs"
        )
    parent = array("q", range(g1.num_vertices * n2))

    def find(x):
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    by_gen: Dict[int, list] = {g: [] for g in range(1, size + 1)}
    for (q, g, q2) in g2.edges:
        by_gen[g].append((q, q2))
    closed = []
    for (p, g, p2) in g1.edges:
        for (q, q2) in by_gen[g]:
            a, b = find(p * n2 + q), find(p2 * n2 + q2)
            if a == b:
                closed.append(a)
            else:
                parent[max(a, b)] = min(a, b)
    step = _pair_step(g1, g2)
    comps = []
    for root in sorted({find(x) for x in closed}):
        vertices = tuple(sorted(_bfs(step, divmod(root, n2), size)))
        edges = tuple(
            (x, g, y)
            for x in vertices
            for g in range(1, size + 1)
            if (y := step(x, g)) is not None
        )
        comps.append(FiberComponent(vertices, edges, contains_basepoint=root == 0))
    return comps


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


class SeparationResult(Frozen):
    """Outcome of a finiteness test; on failure, x (or g) conjugating a common element."""

    __slots__ = ("holds", "witness", "common_element")
    _defaults = {"witness": None, "common_element": None}


def is_conjugate_separated(graph: CoreGraph) -> SeparationResult:
    """Malnormality of U in the ambient free group (finite = trivial, torsion-free).

    True iff every off-diagonal component of the self fiber product is a tree.
    On failure returns x not in U and a nontrivial u in U with u^x in U.
    """
    for comp in fiber_product(graph, graph):
        if comp.contains_basepoint:
            continue
        alpha, beta, u = _cycle_witness(comp, graph, graph)
        return SeparationResult(False, witness=mul(alpha, inverse(beta)), common_element=u)
    return SeparationResult(True)


def conjugate_intersections_finite(gU: CoreGraph, gV: CoreGraph) -> SeparationResult:
    """True iff U \\cap g^-1 V g is trivial for all g (every fiber component a tree).

    On failure returns g and a nontrivial common element of U and g^-1 V g.
    """
    for comp in fiber_product(gU, gV):
        alpha, beta, u = _cycle_witness(comp, gU, gV)
        return SeparationResult(False, witness=mul(beta, inverse(alpha)), common_element=u)
    return SeparationResult(True)
