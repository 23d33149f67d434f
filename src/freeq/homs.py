"""Homomorphisms between f.g. subgroups of free groups, plus exact word
reduction in HNN-extensions and amalgams over free bases.

The subgroup map is given on a free basis; applying it to an arbitrary
subgroup element goes through the Stallings decomposition over the core
graph's intrinsic basis, with a Nielsen change of basis in between.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .stallings import build_core, contains, express
from .words import Alphabet, Word, free_reduce, inverse, mul

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
# HNN-extension words  <F(base), t | t^-1 u t = psi(u), u in U>
# ---------------------------------------------------------------------------

T_UP = "t"  # stable letter
T_DOWN = "T"  # its inverse

HnnToken = object  # int (base letter) or T_UP / T_DOWN


@dataclass
class HnnContext:
    base: Alphabet
    psi: SubgroupHom  # U -> V
    psi_inv: SubgroupHom  # V -> U


def hnn_context(base: Alphabet, pairs: Sequence[Tuple[Word, Word]]) -> HnnContext:
    psi = SubgroupHom(base, pairs, base)
    psi_inv = SubgroupHom(base, [(v, u) for (u, v) in pairs], base)
    if not (psi.valid and psi_inv.valid):
        raise ValueError("associated subgroup map is not an isomorphism on the given bases")
    return HnnContext(base, psi, psi_inv)


def hnn_parse(alphabet: Alphabet, text: str) -> list:
    out: list = []
    for ch in text.strip():
        if ch == T_UP:
            out.append(("t", 1))
        elif ch == T_DOWN:
            out.append(("t", -1))
        elif ch == "1":
            continue
        else:
            out.append(alphabet.letter(ch))
    return out


def hnn_reduce(ctx: HnnContext, tokens: list) -> list:
    """Britton reduction: no t^-1 u t with u in U, no t v t^-1 with v in V remains.

    One left-to-right pass keeps a reduced stack of t-signs and the words
    between them.  Each new t-sign is checked against the one on top around
    the word between them, so the leftmost pinch is always applied first.
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


def hnn_is_identity(ctx: HnnContext, tokens: list) -> bool:
    return not hnn_reduce(ctx, tokens)


def hnn_inverse(tokens: list) -> list:
    out = []
    for tok in reversed(tokens):
        if isinstance(tok, tuple):
            out.append(("t", -tok[1]))
        else:
            out.append(-tok)
    return out


def hnn_commute(ctx: HnnContext, x: list, y: list) -> bool:
    return hnn_is_identity(ctx, hnn_inverse(x) + hnn_inverse(y) + list(x) + list(y))


# ---------------------------------------------------------------------------
# Amalgam words  F(left) *_{U=V} F(right)
# ---------------------------------------------------------------------------


@dataclass
class AmalgamContext:
    left: Alphabet
    right: Alphabet
    psi: SubgroupHom  # U <= F(left) -> V <= F(right)
    psi_inv: SubgroupHom

    def factor(self, side: str) -> Alphabet:
        return self.left if side == "L" else self.right


def amalgam_context(
    left: Alphabet, right: Alphabet, pairs: Sequence[Tuple[Word, Word]]
) -> AmalgamContext:
    psi = SubgroupHom(left, pairs, right)
    psi_inv = SubgroupHom(right, [(v, u) for (u, v) in pairs], left)
    if not (psi.valid and psi_inv.valid):
        raise ValueError("amalgamated subgroup map is not an isomorphism on the given bases")
    return AmalgamContext(left, right, psi, psi_inv)


Syllable = Tuple[str, Word]  # ("L"|"R", word in that factor)


def amalgam_reduce(ctx: AmalgamContext, sylls: Sequence[Syllable]) -> List[Syllable]:
    """Reduced sequence: alternating sides, no syllable in the edge subgroup
    unless it is the only one.

    One left-to-right pass over a reduced stack: a new syllable merges into
    a top on its side, and a syllable in the edge subgroup crosses over to
    merge with its neighbour.
    """

    def in_edge(side, w):
        return contains((ctx.psi if side == "L" else ctx.psi_inv).graph, w)

    def cross(side, w):
        if side == "L":
            return "R", ctx.psi.apply(w)
        return "L", ctx.psi_inv.apply(w)

    stack: List[Syllable] = []
    for side, w in sylls:
        w = free_reduce(w)
        while w:
            if stack and stack[-1][0] == side:
                w = mul(stack.pop()[1], w)
            elif stack and in_edge(side, w):
                side, w = cross(side, w)
            elif len(stack) == 1 and in_edge(*stack[0]):
                w = mul(cross(*stack.pop())[1], w)
            else:
                stack.append((side, w))
                break
    return stack or [("L", ())]


def amalgam_is_identity(ctx: AmalgamContext, sylls: Sequence[Syllable]) -> bool:
    red = amalgam_reduce(ctx, sylls)
    return len(red) == 1 and not red[0][1]


def amalgam_inverse(sylls: Sequence[Syllable]) -> List[Syllable]:
    return [(side, inverse(w)) for side, w in reversed(list(sylls))]


def amalgam_commute(ctx: AmalgamContext, x: Sequence[Syllable], y: Sequence[Syllable]) -> bool:
    word = amalgam_inverse(x) + amalgam_inverse(y) + list(x) + list(y)
    return amalgam_is_identity(ctx, word)
