"""Homomorphisms between f.g. subgroups of free groups, plus exact word
reduction in HNN-extensions and amalgams over free bases.

The subgroup map is given on a free basis; applying it to an arbitrary
subgroup element goes through the Stallings decomposition over the core
graph's intrinsic basis, with a Nielsen change of basis in between.

Both free constructions are the graph of groups with one edge psi: U -> V
(a loop for an HNN-extension, a segment for an amalgam), and words in
either are checked by one Britton pass on it, `hnn_reduce`: Britton's lemma
and the amalgam normal form are one theorem (Lyndon-Schupp IV.2, Serre,
Trees I.1).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from .stallings import build_core, contains, express
from .words import Alphabet, Frozen, Word, free_reduce, inverse, mul

Abstract = Tuple[int, ...]  # word over abstract symbols +-(i+1), freely reduced


def _substitute(abstract: Abstract, images: Sequence[Word]) -> Word:
    parts = []
    for x in abstract:
        w = images[abs(x) - 1]
        parts.append(w if x > 0 else inverse(w))
    return mul(*parts)


def nielsen_invert(images: Sequence[Abstract]) -> Optional[List[Abstract]]:
    """Given d_i in F_k over abstract letters, return expressions of the k basis
    letters as words in symbols g_1..g_k with g_i := d_i, or None if (d_i) is
    not a free basis of F_k.

    A labelled Stallings fold (Kapovich-Myasnikov 2002).  The petals d_i at
    vertex 0 carry labels in F(g): g_i on the last edge of petal i, 1
    elsewhere.  Each edge u -x-> w labelled l keeps l(d) = p(u) x p(w)^-1
    for some vertex words p with p(0) = 1.  Folding u -x-> w1 and u -x-> w2
    (labels l1, l2) first gauges w2 by c = l1^-1 l2: edges leaving w2 get
    c l, edges entering it l c^-1, so both edges read l1 and w2 merges into
    w1.  The d_i generate F_k, hence (Hopfian) are a basis, iff the folded
    graph is the rose; its loop x_j then reads x_j's expression.
    """
    k = len(images)
    if any(not w for w in images):
        return None
    adj: List[dict] = [{}]  # vertex -> {signed letter: (end vertex, label)}
    gauge: dict = {}  # merged vertex -> (vertex it merged into, its gauge c)
    queue = []

    def find(v):
        c: Abstract = ()
        while v in gauge:
            v, g = gauge[v]
            c = mul(g, c)
        return v, c

    def attach(u, x, w, label):
        old = adj[u].setdefault(x, (w, label))
        if old != (w, label):
            queue.append((old, (w, label)))

    for i, d in enumerate(images):
        path = [0, *range(len(adj), len(adj) + len(d) - 1), 0]
        adj.extend({} for _ in d[1:])
        for j, x in enumerate(d):
            label = (i + 1,) if j == len(d) - 1 else ()
            attach(path[j], x, path[j + 1], label)
            attach(path[j + 1], -x, path[j], inverse(label))
    while queue:
        ((w1, l1), (w2, l2)) = queue.pop()
        (w1, c1), (w2, c2) = find(w1), find(w2)
        if w1 == w2:
            continue
        if w2 == 0:
            w1, l1, c1, w2, l2, c2 = w2, l2, c2, w1, l1, c1
        c = mul(c1, inverse(l1), l2, inverse(c2))
        gauge[w2] = (w1, c)
        for x, (w, label) in adj[w2].items():
            attach(w1, x, w, mul(c, label))
        adj[w2] = {}
    if len(gauge) != len(adj) - 1 or sorted(adj[0]) != [*range(-k, 0), *range(1, k + 1)]:
        return None
    return [mul(label, inverse(find(w)[1])) for w, label in (adj[0][j] for j in range(1, k + 1))]


class NotASubgroupElement(ValueError):
    pass


class SubgroupHom:
    """Map from U = <u_1..u_r> <= F(dom) into F(cod), u_i |-> v_i.

    Requires (u_i) to be a free basis of U; `valid` is False otherwise.
    """

    def __init__(self, dom: Alphabet, pairs: Sequence[Tuple[Word, Word]], cod: Alphabet):
        self.dom = dom
        self.cod = cod
        self.pairs = [(free_reduce(u), free_reduce(v)) for (u, v) in pairs]
        self.graph = build_core(dom, [u for u, _ in self.pairs])
        self.valid = False
        self._chord_images: Optional[List[Word]] = None
        rank = self.graph.betti
        if rank != len(self.pairs):
            return
        decomps = []
        for u, _ in self.pairs:
            d = express(self.graph, u)
            if d is None:
                return
            decomps.append(free_reduce((idx + 1) * s for idx, s in d))
        basis_expr = nielsen_invert(decomps)
        if basis_expr is None:
            return
        images = [v for _, v in self.pairs]
        self._chord_images = [_substitute(b, images) for b in basis_expr]
        self.valid = True

    def apply(self, w: Word) -> Word:
        d = express(self.graph, w)
        if d is None:
            raise NotASubgroupElement(f"{self.dom.format(w)} is not in the domain subgroup")
        assert self._chord_images is not None
        return _substitute(free_reduce((idx + 1) * s for idx, s in d), self._chord_images)


# ---------------------------------------------------------------------------
# The edge psi: U <= F(dom) -> V <= F(cod); an HNN-extension has dom = cod
# ---------------------------------------------------------------------------


class EdgeContext(Frozen):
    __slots__ = ("dom", "cod", "psi", "psi_inv")  # psi: U -> V, psi_inv: V -> U


def edge_context(dom: Alphabet, cod: Alphabet, pairs: Sequence[Tuple[Word, Word]]) -> EdgeContext:
    psi = SubgroupHom(dom, pairs, cod)
    psi_inv = SubgroupHom(cod, [(v, u) for (u, v) in pairs], dom)
    if not (psi.valid and psi_inv.valid):
        raise ValueError("edge map is not an isomorphism on the given bases")
    return EdgeContext(dom, cod, psi, psi_inv)


def hnn_reduce(ctx: EdgeContext, tokens: list) -> list:
    """Britton reduction: no t^-1 u t with u in U, no t v t^-1 with v in V remains.

    Tokens are signed letters and ("t", +-1).  One left-to-right pass keeps
    a reduced stack of t-signs and the words between them.  Each new t-sign
    is checked against the one on top around the word between them, so the
    leftmost pinch is always applied first.
    """
    words: list = [[]]
    signs: list = []
    for tok in tokens:
        if not isinstance(tok, tuple):
            words[-1].append(tok)
            continue
        eps = tok[1]
        hom = ctx.psi if eps == 1 else ctx.psi_inv
        mid = free_reduce(words.pop())
        if signs and signs[-1] == -eps and contains(hom.graph, mid):
            signs.pop()
            words[-1].extend(hom.apply(mid))
        else:
            words.append(list(mid))
            signs.append(eps)
            words.append([])
    out: list = list(free_reduce(words[0]))
    for eps, w in zip(signs, words[1:]):
        out.append(("t", eps))
        out.extend(free_reduce(w))
    return out


def hnn_is_identity(ctx: EdgeContext, tokens: list) -> bool:
    return not hnn_reduce(ctx, tokens)


def hnn_inverse(tokens: list) -> list:
    out = []
    for tok in reversed(tokens):
        if isinstance(tok, tuple):
            out.append(("t", -tok[1]))
        else:
            out.append(-tok)
    return out


def hnn_commute(ctx: EdgeContext, x: list, y: list) -> bool:
    return hnn_is_identity(ctx, hnn_inverse(x) + hnn_inverse(y) + list(x) + list(y))


Syllable = Tuple[str, Word]  # ("L", word over dom) or ("R", word over cod)


def amalgam_reduce(ctx: EdgeContext, sylls: Sequence[Syllable]) -> List[Syllable]:
    """Reduced sequence: alternating sides, no syllable in the edge subgroup
    unless it is the only one; the identity is [("L", ())].

    L(w1) R(w2) L(w3) ... is the closed path w1 t w2 t^-1 w3 ... through
    hnn_reduce (a -> a, b -> t b t^-1 embeds the amalgam in the loop over
    F(dom) * F(cod)).  The reduced path alternates L and R words, every
    inner one outside the edge subgroup; an end word in U folds into its R
    neighbour.
    """
    tokens: list = []
    at = "L"
    for side, w in sylls:
        if side != at:
            tokens.append(("t", 1 if side == "R" else -1))
            at = side
        tokens.extend(w)
    if at == "R":
        tokens.append(("t", -1))
    parts: list = [[]]
    for tok in hnn_reduce(ctx, tokens):
        if isinstance(tok, tuple):
            parts.append([])
        else:
            parts[-1].append(tok)
    if len(parts) == 1:
        return [("L", tuple(parts[0]))]
    head, *mid, tail = map(tuple, parts)
    red = [("RL"[i % 2], w) for i, w in enumerate(mid)]  # R, L, ..., R
    if contains(ctx.psi.graph, head):
        red[0] = ("R", mul(ctx.psi.apply(head), red[0][1]))
    else:
        red.insert(0, ("L", head))
    if contains(ctx.psi.graph, tail):
        red[-1] = ("R", mul(red[-1][1], ctx.psi.apply(tail)))
    else:
        red.append(("L", tail))
    return red
