"""Britton reduction in HNN-extensions and reduction in amalgams, checked
against the restart-from-the-start reductions they replaced."""

import random

from freeq import homs, words
from freeq.stallings import build_core, contains
from freeq.words import Alphabet, free_reduce, mul

AB = Alphabet(("a", "b"))
X = Alphabet(("x",))
Y = Alphabet(("y",))

HNN_ISOS = [
    [("a", "b")],
    [("a", "aa")],
    [("ab", "ba")],
    [("aab", "bA")],
    [("a", "b"), ("b", "a")],
    [("aa", "b"), ("bb", "a")],
]

AMALGAM_ISOS = [
    (X, Y, [("xx", "yyy")]),
    (AB, AB, [("a", "b")]),
    (AB, AB, [("ab", "aab")]),
    (AB, X, [("abAB", "x")]),
    (AB, AB, [("a", "ab"), ("b", "b")]),
    (AB, AB, [("aa", "bab"), ("b", "a")]),
]


def hnn_contexts():
    return [
        homs.edge_context(AB, AB, [(AB.parse(u), AB.parse(v)) for u, v in iso]) for iso in HNN_ISOS
    ]


def amalgam_contexts():
    return [
        homs.edge_context(
            left, right, [(left.parse(u), right.parse(v)) for u, v in iso]
        )
        for left, right, iso in AMALGAM_ISOS
    ]


def random_word(rng, alphabet, max_len):
    return free_reduce(
        rng.choice([1, -1]) * rng.randint(1, alphabet.size) for _ in range(rng.randint(0, max_len))
    )


def restart_hnn_reduce(ctx, tokens):
    """Britton reduction that restarts from the start after every pinch, as
    hnn_reduce ran before the one-pass stack: the oracle for it."""
    sylls = [[]]
    for tok in tokens:
        if isinstance(tok, tuple):
            sylls.append(tok[1])
            sylls.append([])
        else:
            sylls[-1].append(tok)
    ws = [free_reduce(s) for s in sylls[0::2]]
    signs = list(sylls[1::2])
    changed = True
    while changed:
        changed = False
        for i in range(len(signs) - 1):
            w = ws[i + 1]
            if signs[i] == -1 and signs[i + 1] == 1 and contains(ctx.psi.graph, w):
                repl = ctx.psi.apply(w)
            elif signs[i] == 1 and signs[i + 1] == -1 and contains(ctx.psi_inv.graph, w):
                repl = ctx.psi_inv.apply(w)
            else:
                continue
            ws[i : i + 3] = [mul(ws[i], repl, ws[i + 2])]
            signs[i : i + 2] = []
            changed = True
            break
    out = list(ws[0])
    for eps, w in zip(signs, ws[1:]):
        out.append(("t", eps))
        out.extend(w)
    return out


def amalgam_inverse(sylls):
    return [(side, words.inverse(w)) for side, w in reversed(sylls)]


def restart_amalgam_reduce(ctx, sylls):
    """Amalgam reduction that merges, then flips the first syllable in the
    edge subgroup and starts again, as amalgam_reduce ran before the
    one-pass stack: the oracle for its identity answers."""
    cur = [(side, free_reduce(w)) for side, w in sylls]
    changed = True
    while changed:
        changed = False
        merged = []
        for side, w in cur:
            if not w:
                continue
            if merged and merged[-1][0] == side:
                merged[-1] = (side, mul(merged[-1][1], w))
                if not merged[-1][1]:
                    merged.pop()
            else:
                merged.append((side, w))
        if not merged:
            merged = [("L", ())]
        if merged != cur:
            cur = merged
            changed = True
            continue
        if len(cur) <= 1:
            break
        for i, (side, w) in enumerate(cur):
            if side == "L" and contains(ctx.psi.graph, w):
                cur[i] = ("R", ctx.psi.apply(w))
                changed = True
                break
            if side == "R" and contains(ctx.psi_inv.graph, w):
                cur[i] = ("L", ctx.psi_inv.apply(w))
                changed = True
                break
    return cur


def random_hnn_tokens(rng, ctx):
    """Tokens mixing t^+-1, associated generators and random letters; every
    other sequence is followed by a disguised copy of its inverse."""
    us = [u for u, _ in ctx.psi.pairs]
    vs = [v for _, v in ctx.psi.pairs]
    tokens = []
    for _ in range(rng.randint(0, 8)):
        kind = rng.randrange(4)
        if kind == 0:
            tokens.append(("t", rng.choice([1, -1])))
        elif kind == 1:
            tokens.extend(words.power(rng.choice(us + vs), rng.choice([1, -1, 2, -2])))
        elif kind == 2:
            # t^-1 u t or t v t^-1, the pattern Britton reduction pinches
            eps = rng.choice([1, -1])
            gen = rng.choice(us if eps == 1 else vs)
            tokens += [("t", -eps)] + list(words.power(gen, rng.choice([1, -1]))) + [("t", eps)]
        else:
            tokens.extend(random_word(rng, AB, 3))
    if rng.random() < 0.5:
        tokens += _disguised_hnn_inverse(rng, ctx, tokens)
    return tokens


def _disguised_hnn_inverse(rng, ctx, tokens):
    """The inverse of tokens, with a t^-1 u t psi(u)^-1 inserted at random."""
    out = []
    for tok in homs.hnn_inverse(tokens):
        out.append(tok)
        if rng.random() < 0.3:
            u, v = rng.choice(ctx.psi.pairs)
            out += [("t", -1)] + list(u) + [("t", 1)] + list(words.inverse(v))
    return out


def random_syllables(rng, ctx):
    """Syllables over both factors (sides may repeat), every other sequence
    followed by its inverse with edge elements moved across syllables."""
    gens = {"L": [u for u, _ in ctx.psi.pairs], "R": [v for _, v in ctx.psi.pairs]}
    sylls = []
    for _ in range(rng.randint(0, 8)):
        side = rng.choice("LR")
        parts = [random_word(rng, ctx.dom if side == "L" else ctx.cod, 4)]
        if rng.random() < 0.4:
            parts.append(words.power(rng.choice(gens[side]), rng.choice([1, -1, 2])))
        rng.shuffle(parts)
        sylls.append((side, mul(*parts)))
    if rng.random() < 0.4:
        for side, w in amalgam_inverse(sylls):
            u, v = rng.choice(ctx.psi.pairs)
            if side == "L":
                sylls += [("L", mul(w, u)), ("R", words.inverse(v))]
            else:
                sylls += [("R", mul(w, v)), ("L", words.inverse(u))]
    return sylls


def is_reduced(ctx, red):
    if red == [("L", ())]:
        return True
    if any(not w for _, w in red):
        return False
    if any(a[0] == b[0] for a, b in zip(red, red[1:])):
        return False
    hom = {"L": ctx.psi, "R": ctx.psi_inv}
    return len(red) == 1 or not any(contains(hom[side].graph, w) for side, w in red)


def test_hnn_reduce_matches_restart_oracle():
    rng = random.Random(31)
    contexts = hnn_contexts()
    trivial = pinched = 0
    for i in range(2400):
        ctx = contexts[i % len(contexts)]
        tokens = random_hnn_tokens(rng, ctx)
        red = homs.hnn_reduce(ctx, tokens)
        assert red == restart_hnn_reduce(ctx, tokens), tokens
        trivial += not red
        pinched += sum(isinstance(t, tuple) for t in red) < sum(isinstance(t, tuple) for t in tokens)
    assert trivial > 300 and pinched > 1000


def test_amalgam_reduce_matches_restart_oracle():
    rng = random.Random(32)
    contexts = amalgam_contexts()
    trivial = longer = 0
    for i in range(2400):
        ctx = contexts[i % len(contexts)]
        sylls = random_syllables(rng, ctx)
        red = homs.amalgam_reduce(ctx, sylls)
        oracle = restart_amalgam_reduce(ctx, sylls)
        assert (red == [("L", ())]) == (oracle == [("L", ())])
        assert is_reduced(ctx, red), (sylls, red)
        # the reduced sequence is the same element as the input
        assert restart_amalgam_reduce(ctx, amalgam_inverse(red) + sylls) == [("L", ())]
        trivial += red == [("L", ())]
        longer += len(red) > 1
    assert trivial > 300 and longer > 200



def nielsen_moved_basis(rng, k, moves):
    """A basis of F_k made from the standard one by random Nielsen moves."""
    d = [(i + 1,) for i in range(k)]
    for _ in range(moves):
        i, j = rng.sample(range(k), 2)
        dj = d[j] if rng.random() < 0.5 else words.inverse(d[j])
        d[i] = rng.choice([mul(d[i], dj), mul(dj, d[i]), words.inverse(d[i])])
    rng.shuffle(d)
    return d


def test_nielsen_invert_inverts_every_basis():
    # moves that keep the length (Nielsen's N3) are needed on bases such as
    # the u-words {ad, adBadBA, DACDA, DbDACDA} of F_4
    rng = random.Random(9)
    bases = [[(1, 4), (1, 4, -2, 1, 4, -2, -1), (-4, -1, -3, -4, -1), (-4, 2, -4, -1, -3, -4, -1)]]
    bases += [nielsen_moved_basis(rng, rng.randint(2, 5), rng.randint(1, 12)) for _ in range(1500)]
    for d in bases:
        inv = homs.nielsen_invert(d)
        assert inv is not None, d
        assert [homs._substitute(e, d) for e in inv] == [(i + 1,) for i in range(len(d))], d


def test_nielsen_invert_rejects_non_bases():
    for d in [[(1, 1), (2,)], [(1, 2), (1, 2)], [(1,), ()], [(1, 2, -1, -2), (1,)], [(1,)] * 2, [(1, 2)]]:
        assert homs.nielsen_invert(d) is None, d
    # a random tuple is a basis iff its Stallings graph is the rose
    rng = random.Random(10)
    letters = Alphabet(tuple("abcd"))
    for _ in range(1500):
        k = rng.randint(1, 4)
        d = [random_word(rng, Alphabet(letters.names[:k]), 4) for _ in range(k)]
        core = build_core(Alphabet(letters.names[:k]), d)
        rose = all(d) and core.num_vertices == 1 and core.betti == k
        assert (homs.nielsen_invert(d) is not None) == rose, d
