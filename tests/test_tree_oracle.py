"""An oracle for the tower that shares no code with it.

A tower whose every step element v_i lies in the base group F is a tree of
groups: F at the centre and one leaf <x_i> per step, the edge identifying
v_i with x_i^(m_i).  Its word problem is decided by reduced sequences
(Serre, Trees, I.4.2): alternating F-words and leaf syllables x_i^e with m_i
not dividing e, where an F-word between two syllables of one leaf i lies
outside <v_i>.  Such a sequence with a leaf syllable is never the identity.
The reducer below uses free-group arithmetic only, and the tower's products,
equality, coset representatives and canonical forms are checked against it.
"""

import random

from freeq import homs, qcompletion, tower as tw, words
from freeq.tower import Tower
from freeq.words import Alphabet

AB = Alphabet(("a", "b"))


def in_cyclic(f, v):
    """The k with f = v^k in F, or None.  With v = c u c^-1, u cyclically
    reduced, v^k has 2|c| + |k||u| letters for k != 0."""
    if not f:
        return 0
    cw = words.cyclic_reduce(v)
    n, r = divmod(len(f) - 2 * len(cw.conjugator), len(cw.core))
    return next((k for k in (n, -n) if n > 0 and not r and words.power(v, k) == f), None)


def reduce_star(star, sylls):
    """Reduced sequence [f0, (i, e1), f1, ...] of a syllable list over the
    star with leaves star[i] = (v_i, m_i); a syllable is ("f", word) or
    (i, e) for x_i^e.  One stack pass: F-words merge, a pinch x_i^a v_i^k
    x_i^b merges into x_i^(a + m_i k + b), and x_i^(m_i q) becomes v_i^q."""
    out = [()]
    for syl in sylls:
        if syl[0] == "f":
            out[-1] = words.mul(out[-1], syl[1])
            continue
        i, e = syl
        v, m = star[i]
        if len(out) > 1 and out[-2][0] == i and (k := in_cyclic(out[-1], v)) is not None:
            out.pop()
            e += out.pop()[1] + m * k
        if e % m:
            out += [(i, e), ()]
        else:
            out[-1] = words.mul(out[-1], words.power(v, e // m))
    return out


def is_identity(star, sylls):
    return reduce_star(star, sylls) == [()]


def inverse(sylls):
    return [("f", words.inverse(s[1])) if s[0] == "f" else (s[0], -s[1]) for s in reversed(sylls)]


def evaluate(t, sylls):
    """The tower element of a syllable list: leaf i is the root of level i + 1."""
    parts = [s[1] if s[0] == "f" else tw.pow_elem(t, t.root(s[0] + 1), s[1]) for s in sylls]
    return tw.mul(t, (), *parts)


def read_back(t, e):
    """The syllable list a tower element spells: v^s at level l is x^(s m)."""
    if not isinstance(e, tw.Form):
        return [("f", e)]
    m = t.step_at(e.level).m
    out = []
    for i, h in enumerate(e.hs):
        out += read_back(t, h)
        if i < len(e.ss):
            out.append((e.level - 1, int(e.ss[i] * m)))
    return out


def random_stars(rng, count):
    """Seeded stars of 3-6 roots of cyclically reduced primitive words of
    1-4 letters, m in 2..6; a word the tower refuses (conjugate to an
    earlier v or its inverse) is skipped."""
    for _ in range(count):
        t, size = Tower(AB), rng.randint(3, 6)
        while t.level < size:
            w = words.free_reduce(rng.choice((1, -1, 2, -2)) for _ in range(rng.randint(1, 4)))
            if not w or words.cyclic_reduce(w).conjugator or not words.is_primitive(w):
                continue
            try:
                t = t.extend_centralizer(w, rng.randint(2, 6))
            except ValueError:
                continue
        yield t, [(s.v, s.m) for s in t.steps]


def random_sylls(rng, star, n):
    out = []
    for _ in range(n):
        i = rng.randrange(len(star))
        v, m = star[i]
        if rng.random() < 0.5:
            out.append((i, rng.randint(-2 * m, 2 * m)))
        elif rng.random() < 0.4:  # plants a pinch
            out.append(("f", words.power(v, rng.randint(-2, 2))))
        else:
            out.append(("f", words.free_reduce(rng.choice((1, -1, 2, -2)) for _ in range(rng.randint(0, 3)))))
    return out


def rewrite(rng, star, sylls):
    """Another spelling of the same element: x_i^m_i v_i^-1 or x_i^e x_i^-e
    inserted at random places."""
    out = list(sylls)
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(star))
        v, m = star[i]
        e = rng.randint(1, m)
        pair = [(i, m), ("f", words.inverse(v))] if rng.random() < 0.5 else [(i, e), (i, -e)]
        j = rng.randint(0, len(out))
        out[j:j] = pair
    return out


class TestStarReducer:
    def test_agrees_with_amalgam_reduce_on_one_step(self):
        # F *_{v = x^m} <x> as an amalgam of F(a,b) and F(x): the same
        # identity verdicts and the same number of leaf syllables
        rng = random.Random(130)
        X = Alphabet(("x",))
        for v, m in [((1, 2), 2), ((1,), 3), ((1, 2, -1, -2), 2), ((1, 1, 2), 5)]:
            star = [(v, m)]
            ctx = homs.edge_context(AB, X, [(v, (1,) * m)])
            for _ in range(40):
                sylls = random_sylls(rng, star, rng.randint(1, 7))
                red = reduce_star(star, sylls)
                amalgam = homs.amalgam_reduce(
                    ctx, [("L", s[1]) if s[0] == "f" else ("R", words.power((1,), s[1])) for s in sylls]
                )
                assert (red == [()]) == (amalgam == [("L", ())])
                assert len(red) // 2 == sum(side == "R" for side, _ in amalgam)


class TestTowerAgainstStarReducer:
    def test_differential(self):
        # T_2 over ab (roots of a, b, ab, aB) and seeded stars: products,
        # equality and coset representatives agree with the reducer, and
        # every result is its own canonical form
        rng = random.Random(131)
        t2 = qcompletion.tower_level(AB, 2).tower
        towers = [(t2, [(s.v, s.m) for s in t2.steps])] + list(random_stars(rng, 6))
        cases = 0
        for t, star in towers:
            for _ in range(80):
                a = random_sylls(rng, star, rng.randint(1, 6))
                b = rewrite(rng, star, a) if rng.random() < 0.5 else random_sylls(rng, star, rng.randint(1, 6))
                ea, eb = evaluate(t, a), evaluate(t, b)
                assert (ea == ()) == is_identity(star, a)
                assert (ea == eb) == is_identity(star, a + inverse(b))
                assert is_identity(star, inverse(a) + read_back(t, ea))
                i = rng.randrange(len(star))
                v, r = star[i][0], t.root(i + 1)
                for u, u_sylls in ((v, [("f", v)]), (r, [(i, 1)]), (tw.inv(t, r), [(i, -1)])):
                    rep, k = tw.coset_rep(t, ea, u)
                    u_k = u_sylls * k if k >= 0 else inverse(u_sylls) * -k
                    assert is_identity(star, inverse(a) + read_back(t, rep) + u_k)
                    j = rng.randint(-6, 6)
                    assert tw.coset_rep(t, tw.mul(t, ea, tw.pow_elem(t, u, j)), u) == (rep, k + j)
                    assert tw.canonical_form(t, rep) == rep
                for e in (ea, eb):
                    assert tw.canonical_form(t, e) == e
                cases += 1
        assert cases >= 500
