"""Homomorphisms between f.g. subgroups of free groups, plus exact word
reduction in HNN-extensions and amalgams over free bases.

The subgroup map is given on a free basis; one labelled Stallings fold of
that basis gives the domain's core graph with the images as edge labels,
and applying the map to a subgroup element reads the labels along its path.

Both free constructions are the graph of groups with one edge psi: U -> V
(a loop for an HNN-extension, a segment for an amalgam), and words in
either are checked by one Britton pass on it, `hnn_reduce`: Britton's lemma
and the amalgam normal form are one theorem (Lyndon-Schupp IV.2, Serre,
Trees I.1).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from .stallings import contains, labelled_core
from .words import Alphabet, Frozen, Word, free_reduce, inverse, mul


class NotASubgroupElement(ValueError):
    pass


class SubgroupHom:
    """Map from U = <u_1..u_r> <= F(dom) into F(cod), u_i |-> v_i.

    One labelled fold of the petals u_i, petal i reading v_i, gives U's core
    and a label on each edge.  The map is well defined iff (u_i) is a free
    basis of U, that is iff the core has rank r; `valid` says so.  Then
    reading the labels along a closed path w gives the image of w.
    """

    def __init__(self, dom: Alphabet, pairs: Sequence[Tuple[Word, Word]], cod: Alphabet):
        self.dom = dom
        self.cod = cod
        self.pairs = [(free_reduce(u), free_reduce(v)) for (u, v) in pairs]
        self.graph, labels = labelled_core(dom, self.pairs)
        self.valid = self.graph.betti == len(self.pairs)
        self._arrows: dict = {}  # (vertex, signed letter) -> (end, label)
        for (u, g, v), label in zip(self.graph.edges, labels):
            self._arrows[(u, g)] = (v, label)
            self._arrows[(v, -g)] = (u, inverse(label))

    def apply(self, w: Word) -> Word:
        if not self.valid:
            raise ValueError("the domain words are not a free basis, so the map is not defined")
        at, parts = 0, []
        for x in w:
            arrow = self._arrows.get((at, x))
            if arrow is None:
                break
            at, label = arrow
            parts.append(label)
        else:
            if at == 0:
                return mul(*parts)
        raise NotASubgroupElement(f"{self.dom.format(w)} is not in the domain subgroup")


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
