"""Arithmetic and canonical forms in iterated centralizer extensions:
alternating syllable forms, coset representatives, cyclic reduction, root
extraction, and conjugacy with certificates."""

import dataclasses
import functools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, strategies as st

from freeq import cli, tower as tw
from freeq import words
from freeq.qcompletion import QSession
from freeq.tower import ResourceCapError, Tower
from freeq.words import Alphabet

AB = Alphabet(("a", "b"))


def base_tower():
    return Tower(AB)


def e2_tower():
    """E(F(a,b), ab, 2): adjoin a square root w of ab."""
    t0 = base_tower()
    return t0.extend_centralizer((1, 2), 2, name="w")


def random_elem(rng, t, n_factors=4, max_exp=2):
    symbols = list(t.base.names) + [s.name for s in t.steps]
    raw = []
    for _ in range(rng.randint(1, n_factors)):
        raw.append((rng.choice(symbols), rng.choice([-2, -1, 1, 2][: 2 * max_exp])))
    return semicanonical(t, raw)


def semicanonical(t, raw):
    """Fold a sequence of (symbol name, integer exponent), each symbol a base
    letter or a root's name, into canonical form."""
    gens = {name: (t.base.letter(name),) for name in t.base.names}
    gens.update((step.name, t.root(lvl)) for lvl, step in enumerate(t.steps, 1))
    return tw.mul(t, (), *(tw.pow_elem(t, gens[name], e) for name, e in raw))


def tower_chain(alphabet):
    """Towers of levels 0..3 over one caches dict: a square root of ab, a
    cube root of that root, then a square root of aB."""
    t0 = Tower(alphabet)
    t1 = t0.extend_centralizer((1, 2), 2, name="w")
    t2 = t1.extend_centralizer(t1.root(1), 3, name="u")
    t3 = t2.extend_centralizer((1, -2), 2, name="x")
    return [t0, t1, t2, t3]


def oracle_towers():
    """Levels 0..3 of four towers, each over its own caches: chain roots
    (every step after the first adjoins a root of the previous root), v with
    a zero exponent vector (abAB, then a commutator with a syllable), v with
    syllables at its own level (levels 1 and 2), and a mixed chain."""

    def word(text):
        return lambda t: AB.parse(text)

    def root(lvl, sign=1):
        return lambda t: t.root(lvl) if sign > 0 else tw.inv(t, t.root(lvl))

    def core(*parts):
        return lambda t: tw.cyclic_decompose(t, tw.mul(t, *(p(t) for p in parts)))[1]

    specs = [
        [(word("ab"), 2), (root(1), 3), (root(2, -1), 2)],
        [(word("abAB"), 2), (core(root(1), word("a"), root(1, -1), word("A")), 2), (word("aabAB"), 2)],
        [(word("ab"), 2), (core(word("a"), root(1)), 2), (core(word("b"), root(2)), 3)],
        [(word("ab"), 2), (root(1), 3), (word("aB"), 2)],
    ]
    out = []
    for spec in specs:
        towers = [Tower(AB)]
        for make, m in spec:
            towers.append(towers[-1].extend_centralizer(make(towers[-1]), m))
        out.append(towers)
    return out


def coset_cases(towers):
    """(tower, vs) for each level 1..3, with vs the level's adjoined root,
    its inverse and, below the top, the next step's element."""
    top = towers[-1]
    for lvl in range(1, 4):
        t = towers[lvl]
        vs = [t.root(lvl), tw.inv(t, t.root(lvl))]
        if lvl < 3:
            vs.append(top.step_at(lvl + 1).v)
        yield t, vs


def window_coset_rep(t, h, v):
    """coset_rep as a bounded search over a window of v-powers, as it ran
    before the exact recursion: the oracle for it."""
    window = 2 * tw.elem_len(t, h) + 2
    exponents = set(range(-window, window + 1))
    vvec = tw.exponent_vector(t, v)
    if any(vvec):
        hvec = tw.exponent_vector(t, h)
        for i, c in enumerate(vvec):
            if c:
                center = round(hvec[i] / c)
                exponents.update(range(center - window, center + window + 1))
    best = None
    for j in sorted(exponents):
        cand = tw.mul(t, h, tw.pow_elem(t, v, -j))
        key = (tw.elem_len(t, cand), tw.sort_key(t, cand))
        if best is None or key < best[0]:
            best = (key, cand, j)
    return best[1], best[2]


def restart_normalize(t, lvl, hs, ss):
    """_normalize that restarts its scan after every exponent fix and every
    pinch, as it ran before the one-pass stack: the oracle for it."""
    step = t.step_at(lvl)
    v = step.v
    while True:
        changed = False
        for i, s in enumerate(ss):
            if s.denominator == 1 or not (0 < s < 1):
                k = math.floor(s)
                if s == k:
                    hs[i] = tw.mul(t, hs[i], tw._vpow(t, lvl, k), hs[i + 1])
                    del ss[i]
                    del hs[i + 1]
                else:
                    ss[i] = s - k
                    hs[i + 1] = tw.mul(t, tw._vpow(t, lvl, k), hs[i + 1])
                changed = True
                break
        if changed:
            continue
        for i in range(1, len(hs) - 1):
            k = tw.is_in_cyclic(t, hs[i], v)
            if k is not None:
                ss[i - 1] = ss[i - 1] + k + ss[i]
                del ss[i]
                del hs[i]
                changed = True
                break
        if not changed:
            break
    for s in ss:
        if step.m % s.denominator:
            raise ValueError(f"exponent {s} incompatible with root index {step.m}")
    carry = 0
    for i in range(len(hs)):
        h = tw.mul(t, tw._vpow(t, lvl, carry), hs[i]) if carry else hs[i]
        if i < len(hs) - 1:
            hs[i], carry = tw.coset_rep(t, h, v)
        else:
            hs[i] = h
    return tw.Form(lvl, tuple(hs), tuple(ss)) if ss else hs[0]


def window_twists(t, g, k_bound):
    """Conjugators p * v^j of the rotations of g for each prefix p of its
    alternating factors (identity first, g last), |j| <= k_bound by
    increasing |j|, -j before +j: the twist window the exact twist replaced."""
    lvl = g.level
    v = t.step_at(lvl).v
    for p in tw._prefixes(t, g) + [g]:
        for j in sorted(range(-k_bound, k_bound + 1), key=abs):
            yield tw.mul(t, p, tw.pow_elem(t, v, j))


def window_class_rep(t, core, k_bound=None):
    """class_rep as a search over the twist window, as it ran before the
    exact twist: the oracle for it (cores with syllables only)."""
    core = tw.canonical_form(t, core)
    k_bound = tw.elem_len(t, core) + 4 if k_bound is None else k_bound
    best = None
    for sign, g in ((1, core), (-1, tw.canonical_form(t, tw.inv(t, core)))):
        for d in window_twists(t, g, k_bound):
            cand = tw.conj(t, g, d)
            key = (tw.sort_key(t, cand), sign)
            if best is None or key < best[0]:
                best = (key, cand, d, sign)
    return best[1], best[2], best[3]


def rotation_class_rep(t, core):
    """class_rep at level 0 as it ran before it read the least rotation off
    the doubled text: every rotation of the word and of its inverse
    materialised, the sort_key-least taken (sign 1 first): the oracle for it."""
    cands = []
    for sign, g in ((1, core), (-1, words.inverse(core))):
        cands += [(g[i:] + g[:i], g[:i], sign) for i in range(max(1, len(g)))]
    return min(cands, key=lambda cand: (tw.sort_key(t, cand[0]), cand[2]))


def scan_extract_root_elem(t, c):
    """extract_root_elem as it ran before tower.root_class: the root at c's
    own level, then two conjugacy questions per level above it, a root
    conjugate to that step's v^+-1 = r^+-m replaced by the conjugate of
    r^+-1 and its exponent multiplied by m: the oracle for root_class."""
    root, k = tw._own_root(t, tw.canonical_form(t, c))
    for lvl in range(tw.level_of(root) + 1, t.level + 1):
        step = t.step_at(lvl)
        for target, r in ((step.v, t.root(lvl)), (tw.inv(t, step.v), tw.inv(t, t.root(lvl)))):
            status, d = tw.conjugate_in_tower(t, target, root)
            if status == tw.CONJUGATE:
                root, k = tw.conj(t, r, d), k * step.m
                break
    return root, k


@dataclasses.dataclass
class Chain:
    """Iterated roots of one conjugacy-class representative, m = 2, 3, 4, ...,
    as QSession kept them before it read its chains off tower.root_class."""

    key: str
    rep: object  # at its own level
    levels: list
    ms: list

    @property
    def index(self):
        return math.prod(self.ms)


class ScanSession(QSession):
    """QSession taking a fractional power as it did before the class keys:
    the root from scan_extract_root_elem, its chain found by
    conjugate_in_tower against each chain's rep and each of its roots, in
    both signs, chain by chain, and each chain's roots kept in a Chain: the
    oracle for root_class, the lookup and the root record.  `scans` counts
    the fractional powers it took."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.chains = []
        self.scans = 0

    def _power(self, base, r):
        if r.denominator == 1:
            return super()._power(base, r)
        self.scans += 1
        x, core = tw.cyclic_decompose(self.tower, base)
        if tw.is_trivial(core):
            return ()
        root, k = scan_extract_root_elem(self.tower, core)
        val = self._root_power(root, k * r)
        return tw.mul(self.tower, x, val, tw.inv(self.tower, x))

    def _root_power(self, root, r):
        t = self.tower
        if r.denominator == 1:
            return tw.pow_elem(t, root, int(r))
        for chain in self.chains:
            candidates = [(chain.rep, Fraction(1))]
            m_cum = 1
            for lvl, m in zip(chain.levels, chain.ms):
                m_cum *= m
                candidates.append((t.root(lvl), Fraction(1, m_cum)))
            for cand, scale in candidates:
                for sign, target in ((1, cand), (-1, tw.inv(t, cand))):
                    status, d = tw.conjugate_in_tower(t, target, root)
                    if status == tw.CONJUGATE:
                        # d^-1 rep^(sign*scale) d = root
                        val = self._class_power(chain, sign * scale * r)
                        return tw.mul(self.tower, tw.inv(self.tower, d), val, d)
        rep, c, sign = tw.class_rep(t, root)
        chain = Chain(key=tw.serialize(t, rep), rep=rep, levels=[], ms=[])
        self.chains.append(chain)
        val = self._class_power(chain, Fraction(sign) * r)
        return tw.mul(self.tower, c, val, tw.inv(self.tower, c))

    def _chain_root(self, chain):
        return self.tower.root(chain.levels[-1]) if chain.levels else chain.rep

    def _ensure_denominator(self, chain, q):
        while chain.index % q:
            next_m = chain.ms[-1] + 1 if chain.ms else 2
            if next_m > self.max_level:
                raise ResourceCapError(
                    f"denominator {q} needs root index {next_m} "
                    f"> max_level {self.max_level} for class {chain.key}"
                )
            self.tower = self.tower.extend_centralizer(
                self._chain_root(chain), next_m, name=f"r{next_m}[{chain.key}]", validate=False
            )
            chain.levels.append(self.tower.level)
            chain.ms.append(next_m)

    def _class_power(self, chain, rho):
        """rep^rho as a tower element."""
        if rho.denominator == 1:
            return tw.pow_elem(self.tower, chain.rep, int(rho))
        self._ensure_denominator(chain, rho.denominator)
        return tw.pow_elem(self.tower, self._chain_root(chain), int(rho * chain.index))


def window_conjugate(t, f1, f2, k_bound=None):
    """conjugate_in_tower with the twist-window search, as it ran before the
    exact twist: the oracle for it.  Exhausting the window answers
    absent-within-bound."""
    if tw.exponent_vector(t, f1) != tw.exponent_vector(t, f2):
        return tw.DISTINCT, None
    x1, c1 = tw.cyclic_decompose(t, f1)
    x2, c2 = tw.cyclic_decompose(t, f2)
    if k_bound is None:
        k_bound = tw.elem_len(t, c1) + tw.elem_len(t, c2) + 4

    def finish(d):
        return tw.CONJUGATE, tw.mul(t, x1, d, tw.inv(t, x2))

    if tw.level_of(c1) != tw.level_of(c2):
        return tw.DISTINCT, None
    if tw.level_of(c1) == 0:
        d = words.conjugacy_witness(c1, c2)
        return finish(d) if d is not None else (tw.DISTINCT, None)
    n2 = c2.syllable_count
    if c1.syllable_count != n2:
        return tw.DISTINCT, None
    if tuple(c1.ss) not in [tuple(c2.ss[i:] + c2.ss[:i]) for i in range(n2)]:
        return tw.DISTINCT, None
    for d in window_twists(t, c1, k_bound):
        if tw.equal(t, tw.conj(t, c1, d), c2):
            return finish(d)
    return "absent-within-bound", None


def window_extract_root(t, c):
    """extract_root_elem's seam search for forms with syllables, as it ran
    before the exact twist: a period slice shifted by v^j, |j| within a
    window, whose d-th power is c."""
    if not isinstance(c, tw.Form):
        return c, 1
    lvl = c.level
    n = c.syllable_count
    v = t.step_at(lvl).v
    window = max(s.m for s in t.steps) * (tw.elem_len(t, c) + 2)
    for d in range(n, 1, -1):
        if n % d:
            continue
        p = n // d
        for j in sorted(range(-window, window + 1), key=abs):
            hs = list(c.hs[:p]) + [tw.mul(t, c.hs[p], tw.pow_elem(t, v, j))]
            cand = tw._normalize(t, lvl, hs, list(c.ss[:p]))
            if isinstance(cand, tw.Form) and cand.syllable_count == p and tw.pow_elem(t, cand, d) == c:
                return cand, d
    return c, 1


def conjugate_to_root_power(t, v):
    """The root-power loop _check_extendable ran before extract_root_elem was
    exact: is v conjugate to r^k or r^-k, k >= 2, for an adjoined root r
    (powers up to length |v| + 2, twist window 4)?"""
    target = tw.elem_len(t, v)
    for i in range(t.level, 0, -1):
        r = t.root(i)
        for kk in range(2, t.step_at(i).m * (target + 2) + 1):
            pos = tw.pow_elem(t, r, kk)
            if tw.elem_len(t, pos) > target + 2:
                break
            for cand in (pos, tw.inv(t, pos)):
                if window_conjugate(t, v, cand, 4)[0] == tw.CONJUGATE:
                    return True
    return False


def char_key(c):
    """Per-character order of the tuple sort key sort_key replaced."""
    if c.isalpha():
        return (0, c.lower(), 1 if c.isupper() else 0)
    return (1, c, 0)


def tuple_sort_key(t, e):
    return (tw.elem_len(t, e), tuple(char_key(c) for c in tw.serialize(t, e)))


class TestExtend:
    def test_basic_step(self):
        t = e2_tower()
        assert t.level == 1
        assert t.steps[0].m == 2

    def test_m1_collapses_to_alias(self):
        t0 = base_tower()
        t = t0.extend_centralizer((1,), 1, name="wa")
        assert t.level == 0
        assert dict(t.aliases)["wa"] == (1,)

    def test_rejects_proper_power(self):
        t0 = base_tower()
        with pytest.raises(ValueError):
            t0.extend_centralizer((1, 2, 1, 2), 2)

    def test_rejects_repeated_class(self):
        t = e2_tower()
        with pytest.raises(ValueError):
            t.extend_centralizer((1, 2), 3)

    def test_chain_extension_allowed(self):
        # adjoining a root of the previous root is the legal chain pattern
        t = e2_tower()
        t2 = t.extend_centralizer(t.root(1), 3, name="w6")
        w6 = t2.root(2)
        assert tw.equal(t2, tw.pow_elem(t2, w6, 6), (1, 2))


class TestRelation:
    def test_w_squared_is_v(self):
        t = e2_tower()
        w = t.root(1)
        assert tw.equal(t, tw.mul(t, w, w), (1, 2))

    def test_relation_exhaustive_small(self):
        for v in words.reduced_words(AB, 3):
            if not v or (len(v) > 1 and v[0] == -v[-1]):
                continue
            if not words.is_primitive(v):
                continue
            for m in (2, 3, 4):
                t0 = base_tower()
                t = t0.extend_centralizer(v, m)
                r = t.root(1)
                assert tw.equal(t, tw.pow_elem(t, r, m), v), (v, m)

    def test_w_commutes_with_v(self):
        t = e2_tower()
        w = t.root(1)
        v = (1, 2)
        assert tw.equal(t, tw.mul(t, w, v, tw.inv(t, w)), v)


class TestSemicanonical:
    def test_waw_form(self):
        t = e2_tower()
        f = semicanonical(t, [("w", 1), ("a", 1), ("w", 1)])
        assert f.syllable_count == 2
        assert all(s == Fraction(1, 2) for s in f.ss)

    def test_ww_collapses(self):
        t = e2_tower()
        f = semicanonical(t, [("w", 2)])
        assert f == (1, 2)

    def test_invariants_random(self):
        rng = random.Random(41)
        t = e2_tower()
        for _ in range(200):
            f = random_elem(rng, t)
            if not isinstance(f, tw.Form):
                continue
            for s in f.ss:
                assert 0 < s < 1 and s.denominator <= 2
            # interior factors lie outside <v>
            for h in f.hs[1:-1]:
                assert tw.is_in_cyclic(Tower(AB), h, (1, 2)) is None


class TestCosetRep:
    def test_examples(self):
        t0 = base_tower()
        rep, k = tw.coset_rep(t0, AB.parse("aabab"), AB.parse("ab"))
        assert (AB.format(rep), k) == ("a", 2)
        rep, k = tw.coset_rep(t0, AB.parse("a"), AB.parse("ab"))
        assert (AB.format(rep), k) == ("a", 0)
        rep, k = tw.coset_rep(t0, AB.parse("ababababab"), AB.parse("ab"))
        assert (rep, k) == ((), 5)

    def test_is_in_cyclic(self):
        t0 = base_tower()
        assert tw.is_in_cyclic(t0, AB.parse("aa"), AB.parse("a")) == 2
        assert tw.is_in_cyclic(t0, AB.parse("ab"), AB.parse("a")) is None
        assert tw.is_in_cyclic(t0, words.inverse(AB.parse("ababab")), AB.parse("ab")) == -3

    def test_rep_deterministic(self):
        # every member h v^j of a coset, |j| <= 50, picks the same rep
        rng = random.Random(42)
        t0 = base_tower()
        for v in (AB.parse("ab"), AB.parse("a"), AB.parse("abAB")):
            for _ in range(60):
                h = words.free_reduce(rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(0, 6)))
                rep, k = tw.coset_rep(t0, h, v)
                assert words.mul(rep, words.power(v, k)) == h
                for j in rng.sample(range(-50, 51), 6) + [-50, 50]:
                    rep2, k2 = tw.coset_rep(t0, words.mul(h, words.power(v, j)), v)
                    assert rep2 == rep and k2 == k + j
        for towers in oracle_towers():
            top = towers[-1]
            for t, vs in coset_cases(towers):
                for _ in range(4):
                    h = random_elem(rng, t)
                    for v in vs:
                        rep, k = tw.coset_rep(top, h, v)
                        assert tw.mul(top, rep, tw.pow_elem(top, v, k)) == h
                        for j in rng.sample(range(-50, 51), 2) + [rng.choice((-50, 50))]:
                            hj = tw.mul(top, h, tw.pow_elem(top, v, j))
                            assert tw.coset_rep(top, hj, v) == (rep, k + j)

    def test_matches_window_oracle(self):
        # seeded h and h v^j over four towers, levels 1-3, v the next step's
        # element or the level's root (either sign)
        rng = random.Random(61)
        count = 0
        for towers in oracle_towers():
            top = towers[-1]
            for t, vs in coset_cases(towers):
                for _ in range(20):
                    h = random_elem(rng, t)
                    for v in vs:
                        for g in (h, tw.mul(top, h, tw.pow_elem(top, v, rng.randint(-6, 6)))):
                            assert tw.coset_rep(top, g, v) == window_coset_rep(top, g, v)
                            count += 1
        assert count == 1280

    def test_window_missed_least_rep(self):
        # chain tower, x^2 = u^-1, u^3 = w, w^2 = ab: bb x^12 = bb (ab)^-1 = bA
        # is the least element of bb<x>, but j = -12 lay outside the old
        # window (|j| <= 6, and 6 around the vector centre -24), which picked
        # bb for bb and bA for bA: two reps for one coset
        t = oracle_towers()[0][3]
        x = t.root(3)
        bb, ba = (AB.parse(w) for w in ("bb", "bA"))
        assert tw.coset_rep(t, bb, x) == (ba, -12)
        assert tw.coset_rep(t, ba, x) == (ba, 0)
        assert window_coset_rep(t, bb, x) == (bb, 0)
        assert window_coset_rep(t, ba, x) == (ba, 0)

    def test_normalize_matches_restart_oracle(self):
        # seeded factor lists with integer, negative and >1 exponents and
        # planted pinches (interior v^k factors), over four towers, levels 1-3
        rng = random.Random(62)
        for towers in oracle_towers():
            top = towers[-1]
            for lvl in range(1, 4):
                m = top.step_at(lvl).m
                v = top.step_at(lvl).v
                for _ in range(100):
                    n = rng.randint(1, 4)
                    hs = [
                        tw.pow_elem(top, v, rng.randint(-2, 2)) if rng.random() < 0.3
                        else random_elem(rng, towers[lvl - 1], n_factors=2)
                        for _ in range(n + 1)
                    ]
                    ss = [Fraction(rng.randint(-2 * m, 2 * m), m) for _ in range(n)]
                    assert tw._normalize(top, lvl, list(hs), list(ss)) == restart_normalize(
                        top, lvl, list(hs), list(ss)
                    )


class TestCanonical:
    def test_idempotent(self):
        rng = random.Random(43)
        t = e2_tower()
        for _ in range(200):
            f = random_elem(rng, t)
            c = tw.canonical_form(t, f)
            assert tw.canonical_form(t, c) == c

    def test_equal_iff_identical(self):
        rng = random.Random(44)
        t = e2_tower()
        for _ in range(100):
            f = random_elem(rng, t)
            g = random_elem(rng, t)
            same = tw.equal(t, f, g)
            assert same == (tw.canonical_form(t, f) == tw.canonical_form(t, g))

    def test_base_agreement_across_levels(self):
        # an element of H has the same canonical form in H and in E(H,v,m)
        rng = random.Random(45)
        t0 = base_tower()
        t = e2_tower()
        for _ in range(100):
            w = tuple(rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(0, 8)))
            assert tw.canonical_form(t, w) == tw.canonical_form(t0, w) == words.free_reduce(w)
            assert tw.serialize(t, tw.canonical_form(t, w)) == AB.format(words.free_reduce(w))

    def test_commutation_closure(self):
        # forms differing by v^s v^t <-> v^t v^s swaps are equal
        rng = random.Random(46)
        t0 = base_tower()
        t = t0.extend_centralizer((1, 2), 4, name="w")
        w = t.root(1)
        for _ in range(200):
            i, j = rng.randint(1, 3), rng.randint(1, 3)
            lhs = tw.mul(t, tw.pow_elem(t, w, i), tw.pow_elem(t, w, j))
            rhs = tw.mul(t, tw.pow_elem(t, w, j), tw.pow_elem(t, w, i))
            assert tw.equal(t, lhs, rhs)

    def test_inverse_roundtrip(self):
        rng = random.Random(47)
        t = e2_tower()
        for _ in range(200):
            f = random_elem(rng, t)
            assert tw.is_trivial(tw.mul(t, f, tw.inv(t, f)))
            assert tw.equal(t, tw.inv(t, tw.inv(t, f)), f)

    def test_exponent_sum_separates_inverse(self):
        t = e2_tower()
        w = t.root(1)
        assert not tw.equal(t, w, tw.inv(t, w))


class TestCyclicAndRoots:
    def test_decompose_certificate(self):
        rng = random.Random(48)
        t = e2_tower()
        for _ in range(150):
            f = random_elem(rng, t)
            x, c = tw.cyclic_decompose(t, f)
            back = tw.mul(t, x, c, tw.inv(t, x))
            assert tw.equal(t, back, f)

    def test_extract_root_reconstitutes(self):
        rng = random.Random(49)
        t = e2_tower()
        for _ in range(60):
            f = random_elem(rng, t, n_factors=3)
            n = rng.randint(1, 3)
            p = tw.pow_elem(t, f, n)
            _, core = tw.cyclic_decompose(t, p)
            if tw.is_trivial(core):
                continue
            root, k = tw.extract_root_elem(t, core)
            assert tw.equal(t, tw.pow_elem(t, root, k), core)

    def test_root_of_power(self):
        t = e2_tower()
        w = t.root(1)
        p = tw.pow_elem(t, w, 3)  # = (ab) w, canonical (ab)^{3/2}
        _, core = tw.cyclic_decompose(t, p)
        root, k = tw.extract_root_elem(t, core)
        assert k == 3
        assert tw.equal(t, root, w) or tw.equal(t, root, tw.inv(t, w))


class TestConjugacy:
    def test_simple_conjugate(self):
        t = e2_tower()
        w = t.root(1)
        a = (1,)
        g = tw.mul(t, tw.inv(t, a), w, a)
        status, c = tw.conjugate_in_tower(t, g, w)
        assert status == tw.CONJUGATE
        assert tw.equal(t, tw.mul(t, tw.inv(t, c), g, c), w)

    def test_base_distinct(self):
        t = e2_tower()
        status, _ = tw.conjugate_in_tower(t, (1,), (2,))
        assert status == tw.DISTINCT

    def test_rotated_root_conjugate(self):
        # (ba)^{1/2} is conjugate to (ab)^{1/2} by a
        t0 = base_tower()
        t = t0.extend_centralizer((1, 2), 2, name="w")
        w = t.root(1)
        a = (1,)
        other = tw.mul(t, tw.inv(t, a), w, a)
        status, c = tw.conjugate_in_tower(t, other, w)
        assert status == tw.CONJUGATE

    def test_w_and_inverse_distinct(self):
        t = e2_tower()
        w = t.root(1)
        status, _ = tw.conjugate_in_tower(t, w, tw.inv(t, w))
        assert status == tw.DISTINCT

    def test_random_certificates(self):
        rng = random.Random(50)
        t = e2_tower()
        for _ in range(60):
            g = random_elem(rng, t, n_factors=3)
            x = random_elem(rng, t, n_factors=2)
            other = tw.mul(t, tw.inv(t, x), g, x)
            status, c = tw.conjugate_in_tower(t, other, g)
            assert status == tw.CONJUGATE
            assert tw.equal(t, tw.mul(t, tw.inv(t, c), other, c), g)


@functools.cache
def property_towers():
    """Levels 0-5 of two towers, built once: a chain of roots of b (each step
    a root of the previous root), and a mixed tower (v = abAB with a zero
    exponent vector, a root of ab, the inverse of that root, a word, then a
    root of the word)."""

    def word(text):
        return lambda t: AB.parse(text)

    def root(lvl, sign=1):
        return lambda t: t.root(lvl) if sign > 0 else tw.inv(t, t.root(lvl))

    specs = [
        [(word("b"), 2), (root(1), 3), (root(2), 2), (root(3), 3), (root(4), 2)],
        [(word("abAB"), 3), (word("ab"), 2), (root(2, -1), 2), (word("aaB"), 2), (root(4), 3)],
    ]
    out = []
    for spec in specs:
        towers = [Tower(AB)]
        for make, m in spec:
            towers.append(towers[-1].extend_centralizer(make(towers[-1]), m))
        out.append(towers)
    return out

raw_elems = st.lists(
    st.tuples(st.integers(0, 6), st.sampled_from([-2, -1, 1, 2])), min_size=1, max_size=5
)


def tower_elem(which, lvl, raw):
    """(tower, element) at level lvl of a property tower, from raw symbol
    choices over the base letters and the roots up to that level."""
    t = property_towers()[which][lvl]
    symbols = list(t.base.names) + [s.name for s in t.steps]
    return t, semicanonical(t, [(symbols[i % len(symbols)], e) for i, e in raw])


def syllable_core(t, e):
    _, core = tw.cyclic_decompose(t, e)
    return core if tw.level_of(core) == t.level else None


class TestTwistProperties:
    """The exact twist makes class representatives and conjugacy answers
    functions of the conjugacy class alone, at levels 1-5."""

    @given(st.integers(0, 1), st.integers(1, 5), raw_elems, st.integers(-50, 50))
    def test_class_rep_twist_invariant(self, which, lvl, raw, j):
        t, e = tower_elem(which, lvl, raw)
        core = syllable_core(t, e)
        assume(core is not None)
        v = t.step_at(lvl).v
        rep, c, sign = tw.class_rep(t, core)
        twisted = tw.conj(t, core, tw.pow_elem(t, v, j))
        assert tw.class_rep(t, twisted)[0] == rep
        again = tw.class_rep(t, rep)
        assert again[0] == rep and again[2] == 1

    @given(st.integers(0, 1), st.integers(1, 5), raw_elems, raw_elems)
    def test_conjugate_certificates_replay(self, which, lvl, raw1, raw2):
        t, f = tower_elem(which, lvl, raw1)
        _, x = tower_elem(which, lvl, raw2)
        g = tw.conj(t, f, x)
        status, d = tw.conjugate_in_tower(t, f, g)
        assert status == tw.CONJUGATE
        assert tw.equal(t, tw.conj(t, f, d), g)

    @given(st.integers(0, 1), st.integers(1, 5), raw_elems, raw_elems)
    def test_status_symmetric(self, which, lvl, raw1, raw2):
        t, f1 = tower_elem(which, lvl, raw1)
        _, f2 = tower_elem(which, lvl, raw2)
        s12, d12 = tw.conjugate_in_tower(t, f1, f2)
        s21, d21 = tw.conjugate_in_tower(t, f2, f1)
        assert s12 == s21 and s12 in (tw.CONJUGATE, tw.DISTINCT)
        if s12 == tw.CONJUGATE:
            assert tw.equal(t, tw.conj(t, f2, d21), f1)


class TestTwistCache:
    """`_twist` drops the mul, ser and key entries its search added at its
    own level, and no answer depends on what the cache holds."""

    def test_no_own_level_products_left(self):
        rng = random.Random(71)
        checked = 0
        for towers in property_towers():
            for warm in towers[1:]:
                for _ in range(6):
                    core = syllable_core(warm, random_elem(rng, warm, n_factors=3))
                    if core is None:
                        continue
                    t = Tower(warm.base, warm.steps, warm.aliases)  # empty caches
                    pid = t._pid[t.level]
                    tw._twist(t, core)
                    left = t._cache("ops")
                    assert ("twist", pid, core) in left
                    assert not [k for k in left if k[0] in ("mul", "ser", "key") and k[1] == pid]
                    checked += 1
        assert checked > 10

    @given(st.integers(0, 1), st.integers(1, 5), raw_elems, st.integers(-50, 50))
    def test_warm_cache_answers_as_fresh(self, which, lvl, raw, j):
        t, e = tower_elem(which, lvl, raw)
        core = syllable_core(t, e)
        assume(core is not None)
        g = tw.conj(t, core, tw.pow_elem(t, t.step_at(lvl).v, j))
        fresh = Tower(t.base, t.steps, t.aliases)
        assert tw._twist(fresh, g) == tw._twist(t, g)
        assert tw.class_rep(fresh, core) == tw.class_rep(t, core)


class TestTwistOracles:
    """The exact twist against the window searches it replaced (kept above as
    oracles): it never picks a larger class representative, keeps every
    certificate the window found, and decides what the window left open."""

    def cores(self, seed, count):
        rng = random.Random(seed)
        out = []
        for towers in property_towers() + oracle_towers():
            for t in towers[1:]:
                for _ in range(count):
                    core = syllable_core(t, random_elem(rng, t, n_factors=rng.randint(2, 4)))
                    if core is not None:
                        out.append((t, core))
        return out

    def test_class_rep_never_above_window(self):
        for t, core in self.cores(71, 6):
            rep, c, sign = tw.class_rep(t, core)
            wrep, _, wsign = window_class_rep(t, core)
            assert (tw.sort_key(t, rep), sign) <= (tw.sort_key(t, wrep), wsign)

    def test_conjugacy_matches_window(self):
        rng = random.Random(72)
        for t, core in self.cores(73, 3):
            x = random_elem(rng, t, n_factors=2)
            for other in (tw.conj(t, core, x), random_elem(rng, t, n_factors=3)):
                status, d = tw.conjugate_in_tower(t, core, other)
                wstatus, wd = window_conjugate(t, core, other)
                if wstatus == tw.CONJUGATE:
                    assert (status, d) == (wstatus, wd)
                elif wstatus == tw.DISTINCT:
                    assert status == tw.DISTINCT
                else:
                    assert status in (tw.CONJUGATE, tw.DISTINCT)

    def test_window_left_open_now_distinct(self):
        # aaB and aBa are conjugate in F only by <aaB>a, which holds no power
        # of ab, so no twisted rotation of one core matches the other
        s = QSession(AB)
        f1, f2 = s.normalize("(ab)^(1/2)aaB"), s.normalize("(ab)^(1/2)aBa")
        assert window_conjugate(s.tower, f1, f2)[0] == "absent-within-bound"
        assert tw.conjugate_in_tower(s.tower, f1, f2) == (tw.DISTINCT, None)

    def test_extract_root_matches_window(self):
        # powers d of seeded cores: the exact seam finds every root the
        # window found, and the root rebuilds the core
        for t, core in self.cores(75, 2):
            for d in (1, 2, 3):
                _, c = tw.cyclic_decompose(t, tw.pow_elem(t, core, d))
                root, k = tw.extract_root_elem(t, c)
                assert tw.pow_elem(t, root, k) == c and k % d == 0
                assert k % window_extract_root(t, c)[1] == 0

    def test_extendable_matches_root_power_loop(self):
        # every element the old loop rejected as a conjugate of a root power
        # r^k, k >= 2, is rejected as a proper power by extract_root_elem
        rng = random.Random(76)
        rejected = 0
        for towers in property_towers()[:1] + oracle_towers()[:1]:
            for t in towers[1:4]:
                for kk in (2, 3):
                    for i in range(1, t.level + 1):
                        r = t.root(i)
                        x = random_elem(rng, t, n_factors=2)
                        v = tw.conj(t, tw.pow_elem(t, r, kk), x)
                        _, c = tw.cyclic_decompose(t, v)
                        assert conjugate_to_root_power(t, c)
                        with pytest.raises(ValueError):
                            t.extend_centralizer(c, 2)
                        rejected += 1
        assert rejected > 0

    def test_session_core_twist_invariant(self):
        # the core of b^(-7/4)aaaaa in a session, twisted by v^J: the window
        # gave some twists another class representative, which printed two
        # canonical texts for one element
        s = QSession(AB, max_level=4)
        e = s.normalize("b^(-7/4)aaaaa")
        t = s.tower
        _, core = tw.cyclic_decompose(t, e)
        v = t.step_at(core.level).v
        rep = tw.class_rep(t, core)[0]
        for j in range(-12, 13):
            assert tw.class_rep(t, tw.conj(t, core, tw.pow_elem(t, v, j)))[0] == rep


def text_word(rng, n, letters="abAB"):
    return AB.format(words.free_reduce(AB.letter(rng.choice(letters)) for _ in range(n)))


class TestClassKeyOracles:
    """class_rep's least-slice rotation against the rotation list, and the
    session's class lookup against the chain scan (both kept above)."""

    def test_level0_class_rep_matches_rotation_list(self):
        # periodic cores u^k, their inverses and rotations: ties between
        # rotations must go to the first, as in the list
        rng = random.Random(131)
        checked = 0
        for alphabet in (AB, Alphabet(("a", "b", "c"))):
            t = Tower(alphabet)
            letters = [x for i in range(1, alphabet.size + 1) for x in (i, -i)]
            for _ in range(150):
                raw = [rng.choice(letters) for _ in range(rng.randint(1, 7))]
                u = words.cyclic_reduce(words.free_reduce(raw)).core
                if not u:
                    continue
                w = u * rng.choice([1, 1, 2, 3, 7, 40])
                i = rng.randrange(len(w))
                for core in (w, words.inverse(w), w[i:] + w[:i]):
                    assert tw.class_rep(t, core) == rotation_class_rep(t, core), core
                    checked += 1
        assert checked > 600

    def reuse_qwords(self, rng):
        """Q-words reusing one class through conjugates, inverses, rotations
        and iterated roots, in groups of three for one session."""
        yield ["(ab)^(1/2)(BA)^(1/3)((ab)^(1/2))^(1/2)", "((ab)^(1/3))^(1/2)", "(Ba)^(1/4)"]
        for _ in range(25):
            u = text_word(rng, rng.randint(1, 3)) if rng.random() < 0.7 else "(ab)^(1/2)a"
            x = text_word(rng, rng.randint(0, 2))
            inv, xi = f"({u})^(-1)", f"({x})^(-1)"
            fracs = ["(1/2)", "(-1/2)", "(1/3)", "(2/3)", "(-3/4)", "(1/6)"]
            forms = [u, inv, f"{x}{u}{xi}", f"{x}{inv}{xi}", f"({u})^(1/2)", f"(({u})^(1/2))^(1/2)"]
            yield [
                "".join(f"({rng.choice(forms)})^{rng.choice(fracs)}" for _ in range(rng.randint(2, 3)))
                for _ in range(3)
            ]

    def test_lookup_matches_chain_scan(self):
        rng = random.Random(132)
        for group in self.reuse_qwords(rng):
            for max_level in (4, 6):
                s, scan = QSession(AB, max_level), ScanSession(AB, max_level)
                for q in group:
                    texts = []
                    for sess in (s, scan):
                        try:
                            texts.append(sess.canonical_text(sess.normalize(q)))
                        except ResourceCapError as ex:
                            texts.append(f"cap: {ex}")
                    assert texts[0] == texts[1], q
                assert scan.scans >= len(group)
                # each recorded root is its own class rep (r, (), 1); a chain
                # opens over a class key, the text of which names the chain
                for r, (key, index) in s.roots.items():
                    assert tw.class_rep(s.tower, r) == (r, (), 1)
                    step = s.tower.step_at(r.level)
                    if step.v in s.roots:
                        assert s.roots[step.v] == (key, index // step.m)
                    else:
                        assert tw.class_rep(s.tower, step.v)[0] == step.v
                        assert (tw.serialize(s.tower, step.v), index) == (key, 2)

    def test_steps_match_chain_oracle(self):
        # 120 seeded sessions of 2-4 Q-words: the roots a session adjoins,
        # as (name, m, v) steps in order, and its cap messages are the
        # former chains'
        rng = random.Random(151)
        fracs = ["1/2", "-1/2", "1/3", "2/3", "3/4", "-1/4", "1/5", "5/6", "1/12"]

        def qword():
            u = text_word(rng, rng.randint(1, 4))
            x = text_word(rng, rng.randint(0, 2))
            for _ in range(rng.randint(0, 2)):
                u = rng.choice([f"({u})^({rng.choice(fracs)})", f"({u})^(-1)", f"{x}({u}){x.swapcase()[::-1]}"])
            return u

        caps = 0
        for i in range(120):
            max_level = (2, 3, 4, 6)[i % 4]
            s, scan = QSession(AB, max_level), ScanSession(AB, max_level)
            for _ in range(rng.randint(2, 4)):
                q = "".join(f"({qword()})^({rng.choice(fracs)})" for _ in range(rng.randint(1, 3)))
                texts = []
                for sess in (s, scan):
                    try:
                        texts.append(sess.canonical_text(sess.normalize(q)))
                    except ResourceCapError as ex:
                        texts.append(f"cap: {ex}")
                assert texts[0] == texts[1], q
                caps += texts[0].startswith("cap: ")
            steps = [
                [(step.name, step.m, tw.serialize(sess.tower, step.v)) for step in sess.tower.steps]
                for sess in (s, scan)
            ]
            assert steps[0] == steps[1]
        assert caps >= 100


def file_tower(steps):
    """The tower a construction file with these (v, m) steps describes: each
    v a Q-word over the tower so far, each step validated."""
    obj = {"base": {"generators": ["a", "b"]}, "steps": [{"v": v, "m": m} for v, m in steps]}
    return cli._read_tower(obj, "#")


class TestRootClassOracle:
    """root_class's key walk against the conjugacy climb it replaced (kept
    above as scan_extract_root_elem), at levels 1-5."""

    def towers(self):
        def root(lvl, sign=1):
            return lambda t: t.root(lvl) if sign > 0 else tw.inv(t, t.root(lvl))

        # the chains over ab and aB interleaved, one through an inverse root
        interleaved = [Tower(AB)]
        spec = [(lambda t: (1, 2), 2), (lambda t: (1, -2), 3), (root(1), 3), (root(2, -1), 2), (root(3), 2)]
        for make, m in spec:
            interleaved.append(interleaved[-1].extend_centralizer(make(interleaved[-1]), m))
        files = [
            [("ab", 2), ("(ab)^(1/2)", 3), ("aB", 2), ("((ab)^(1/2))^(1/3)", 2)],
            [("b", 2), ("b^(1/2)a", 2), ("(b^(1/2)a)^(1/2)", 3), ("aB", 2)],
        ]
        out = [interleaved] + property_towers() + oracle_towers()
        return [t for towers in out for t in towers[1:]] + [file_tower(f) for f in files]

    def test_extract_root_matches_scan(self):
        rng = random.Random(151)
        checked = 0
        for t in self.towers():
            assert 1 <= t.level <= 5
            elems = [random_elem(rng, t, n_factors=3) for _ in range(4)]
            for lvl in range(1, t.level + 1):
                x = random_elem(rng, t, n_factors=2)
                for kk in (1, -1, 2, -3):
                    r = tw.pow_elem(t, t.root(lvl), kk)
                    elems += [r, tw.conj(t, r, x), tw.conj(t, tw.pow_elem(t, t.step_at(lvl).v, kk), x)]
            for e in elems:
                for n in (1, 2):
                    _, c = tw.cyclic_decompose(t, tw.pow_elem(t, e, n))
                    if tw.is_trivial(c):
                        continue
                    root, k = tw.extract_root_elem(t, c)
                    assert (root, k) == scan_extract_root_elem(t, c), tw.serialize(t, c)
                    rep, d, s, k_rep = tw.root_class(t, c)
                    assert k_rep == k and s in (1, -1)
                    assert tw.class_rep(t, tw.cyclic_decompose(t, root)[1])[0] == rep
                    assert tw.mul(t, d, tw.pow_elem(t, rep, s * k), tw.inv(t, d)) == c
                    checked += 1
        assert checked > 500


class TestDeepChainTwist:
    """Twists where v is a root of a root ...: the least twist can lie many
    chain periods away, and the digit search still finds it."""

    def test_session_core_far_twist(self):
        # the core of (ab)^(1/7)a lies where v is the index-6 root of the
        # chain over ab, index product 720; its least twist is at j = 102
        s = QSession(AB, max_level=8)
        e = s.normalize("(ab)^(1/7)a")
        t = s.tower
        _, core = tw.cyclic_decompose(t, e)
        assert tw._twist(t, core)[1] == 102
        v = t.step_at(core.level).v
        rep = tw.class_rep(t, core)[0]
        for j in (1, 6, 102, 719, -720, 2023):
            assert tw.class_rep(t, tw.conj(t, core, tw.pow_elem(t, v, j)))[0] == rep

    @pytest.mark.parametrize(
        "queries, period",
        [
            (["(ab)^(1/5)"], 24),
            # the chain over ab is extended past the levels of a and b
            (["(ab)^(1/2)", "a^(1/2)", "(ab)^(1/3)", "b^(1/2)", "(ab)^(1/4)"], 6),
        ],
    )
    def test_twist_matches_brute_force(self, queries, period):
        # rotations at the top level, where v has the given index product,
        # against the least key over |j| <= 4 period + 30
        s = QSession(AB, max_level=5)
        for q in queries:
            s.normalize(q)
        t = s.tower
        v = t.step_at(t.level).v
        symbols = list(t.base.names) + [step.name for step in t.steps]
        rng = random.Random(81)
        checked = 0
        while checked < 12:
            raw = [(rng.choice(symbols), rng.choice([-2, -1, 1, 2])) for _ in range(rng.randint(2, 6))]
            core = syllable_core(t, semicanonical(t, raw))
            if core is None or core.level != t.level:
                continue
            for p in tw._prefixes(t, core):
                g = tw.conj(t, core, p)
                span = range(-4 * period - 30, 4 * period + 31)
                twists = {j: tw.conj(t, g, tw.pow_elem(t, v, j)) for j in span}
                twist, j = tw._twist(t, g)
                assert twists[j] == twist
                assert tw.sort_key(t, twist) == min(tw.sort_key(t, x) for x in twists.values())
                checked += 1


class TestLevelContract:
    """Every element is stored at the level of its own syllables, and the
    operations take operands of different levels."""

    def test_extract_root_walks_to_top(self):
        # ab = w^2 and w = u^3: at each level the root of ab is the newest root
        # of its chain, and the unrelated level 3 (x^2 = aB) leaves it alone
        expected = [("ab", 1), ("(ab)^(1/2)", 2), ("((ab)^(1/2))^(1/3)", 6), ("((ab)^(1/2))^(1/3)", 6)]
        for t, want in zip(tower_chain(AB), expected):
            root, k = tw.extract_root_elem(t, (1, 2))
            assert (tw.serialize(t, root), k) == want

    def test_mixed_levels(self):
        t = tower_chain(AB)[3]
        u = t.root(2)
        assert tw.mul(t, (1,), u) == tw.Form(2, ((1,), ()), (Fraction(1, 3),))
        # u^-1 ba u has syllables at level 2 and the core ab at level 0
        f = tw.conj(t, (1, 2), tw.mul(t, (1,), u))
        assert tw.level_of(f) == 2
        status, d = tw.conjugate_in_tower(t, (1, 2), f)
        assert status == tw.CONJUGATE and tw.conj(t, (1, 2), d) == f
        # u a u^-1 b has ab's exponent vector, but its core lives at level 2
        g = tw.mul(t, u, (1,), tw.inv(t, u), (2,))
        assert tw.conjugate_in_tower(t, (1, 2), g) == (tw.DISTINCT, None)

    def test_cancelled_syllables_leave_the_lower_element(self):
        t = tower_chain(AB)[3]
        w = t.root(1)
        assert tw.mul(t, w, tw.inv(t, w)) == ()
        assert tw.pow_elem(t, t.root(2), 3) == w
        assert tw.pow_elem(t, t.root(2), 6) == (1, 2)

    def test_form_needs_a_syllable(self):
        with pytest.raises(ValueError):
            tw.Form(1, ((1,),), ())


class TestCanonicalContract:
    """Every element a tower op returns is canonical: canonical_form leaves
    it as it is, so equality of elements is identity of their forms."""

    def test_results_are_canonical(self):
        # levels 1-5 of the property and oracle towers, and the chain of
        # roots of roots that (ab)^(1/5) adjoins
        rng = random.Random(140)
        s = QSession(AB, max_level=5)
        s.normalize("(ab)^(1/5)")
        towers = [ts[lvl] for ts in property_towers() + oracle_towers() for lvl in range(1, len(ts))]
        checked = 0
        for t in towers + [s.tower]:

            def check(*elems):
                nonlocal checked
                for r in elems:
                    assert tw.canonical_form(t, r) == r
                    checked += 1

            check(*(t.root(lvl) for lvl in range(1, t.level + 1)))
            for i in range(2):
                e, f = random_elem(rng, t), random_elem(rng, t, n_factors=2)
                lvl = rng.randint(1, t.level)
                r = t.root(lvl)
                check(tw.mul(t, e, f), tw.inv(t, e), tw.pow_elem(t, e, rng.randint(-3, 3)))
                check(tw.pow_elem(t, r, rng.randint(-12, 12)))
                check(*(tw.coset_rep(t, e, v)[0] for v in (t.step_at(lvl).v, r, tw.inv(t, r))))
                x, core = tw.cyclic_decompose(t, e)
                check(x, core)
                if i == 0 and not tw.is_trivial(core):  # one twist search per tower
                    check(*tw.class_rep(t, core)[:2], *tw.root_class(t, core)[:2])
                if isinstance(e, tw.Form):
                    check(*tw._prefixes(t, e))
        assert checked > 400


class TestCacheKeys:
    @pytest.mark.parametrize("names", [("a", "b"), ("é", "b")])
    def test_sort_key_matches_char_key_order(self, names):
        rng = random.Random(43)
        towers = tower_chain(Alphabet(names))
        top = towers[-1]
        elems = [
            words.free_reduce(rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(0, 8)))
            for _ in range(40)
        ]
        for t in towers[1:]:
            elems += [random_elem(rng, t) for _ in range(40)]
        assert {tw.level_of(e) for e in elems} == {0, 1, 2, 3}
        texts = "".join(tw.serialize(top, e) for e in elems)
        assert set(names + (names[0].upper(), "/", "(")) <= set(texts)
        new = [tw.sort_key(top, e) for e in elems]
        old = [tuple_sort_key(top, e) for e in elems]
        for i in range(len(elems)):
            for j in range(len(elems)):
                assert (new[i] < new[j], new[i] == new[j]) == (old[i] < old[j], old[i] == old[j])

    def test_prefix_ids_interned(self):
        caches = {}
        t1, u1 = (
            Tower(AB, caches=caches).extend_centralizer((1, 2), 2, name="w")
            for _ in range(2)
        )
        assert t1 is not u1 and t1._pid == u1._pid
        x = tw.pow_elem(t1, t1.root(1), 5)
        size = len(caches["ops"])
        assert tw.pow_elem(u1, u1.root(1), 5) == x
        assert len(caches["ops"]) == size  # u1 hits t1's entries
        base = Tower(AB, caches=caches)
        others = [
            base.extend_centralizer((1, 2), 3, name="w"),
            base.extend_centralizer((1, 2), 2, name="y"),
            base.extend_centralizer((1, -2), 2, name="w"),
        ]
        assert len({t._pid[1] for t in [t1] + others}) == 4
        # one step over different parents
        v = (1, -2)
        tops = [t.extend_centralizer(v, 2, name="z") for t in (t1, others[1])]
        assert tops[0].steps[1] == tops[1].steps[1]
        assert tops[0]._pid[2] != tops[1]._pid[2]
        assert [t._pid[0] for t in tops] == [0, 0]


CERTIFICATE_SCRIPT = """
import sys
from fractions import Fraction
from freeq import constructions as cs, homs, qcompletion, tower as tw, words
from freeq.words import Alphabet, Presentation

mul, equal = words.mul, tw.equal
if __debug__:
    sys.exit("expected python -O")
t0 = tw.Tower(Alphabet(("a", "b")))
t1 = t0.extend_centralizer((1, 2), 2, name="w")


def probe(name, fn, error=tw.CertificateError):
    try:
        fn()
    except error:
        print(name, "raised")
    else:
        print(name, "passed")


tw.equal = lambda t, a, b: False
probe("conjugate_in_tower", lambda: tw.conjugate_in_tower(t0, (1, 2), (2, 1)))
probe("class_rep level 1", lambda: tw.class_rep(t1, t1.root(1)))
words.mul = lambda *ws: ()
# a fresh tower: building t1 cached the class of ab in t0's caches
probe("class_rep level 0", lambda: tw.class_rep(tw.Tower(Alphabet(("a", "b"))), (1, 2)))

words.mul, tw.equal = mul, equal
session = qcompletion.QSession(Alphabet(("a", "b")))
# adjoining no root leaves a^(1/2) with a denominator
session._adjoin = lambda rep, e: (rep, e)
probe("QSession._power", lambda: session._power((1,), Fraction(1, 2)))
AB, X, Y = (Presentation(Alphabet(tuple(n)), ()) for n in ("ab", "x", "y"))
homs.hnn_is_identity = lambda ctx, tokens: False
probe("hnn intersection witness", lambda: cs.check_separated_hnn(cs.HNNData(AB, ((1,),), ((1, 1),))))
probe("hnn pair witness", lambda: cs.check_separated_hnn(cs.HNNData(AB, ((1, 1),), ((2, 2),))))
homs.amalgam_reduce = lambda ctx, sylls: [("L", (1,))]
probe("amalgam pair witness", lambda: cs.check_amalgam(cs.AmalgamData(X, Y, ((1, 1),), ((1, 1, 1),))))
# a, aa is no free basis of <a>, so a -> a, aa -> b defines no map
invalid = homs.SubgroupHom(AB.alphabet, [((1,), (1,)), ((1, 1), (2,))], AB.alphabet)
probe("SubgroupHom.apply on an invalid map", lambda: invalid.apply((1,)), ValueError)
"""


def test_certificate_checks_survive_O():
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(tw.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", CERTIFICATE_SCRIPT],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:8] == [
        "conjugate_in_tower raised",
        "class_rep level 1 raised",
        "class_rep level 0 raised",
        "QSession._power raised",
        "hnn intersection witness raised",
        "hnn pair witness raised",
        "amalgam pair witness raised",
        "SubgroupHom.apply on an invalid map raised",
    ]


class TestSerialization:
    def test_examples(self):
        t = e2_tower()
        w = t.root(1)
        assert tw.serialize(t, w) == "(ab)^(1/2)"
        assert tw.serialize(t, tw.pow_elem(t, w, 3)) == "(ab)^(1/2)ab"
        assert tw.serialize(t, ()) == "1"

    def test_elem_len(self):
        t = e2_tower()
        w = t.root(1)
        assert tw.elem_len(t, w) == 1
        assert tw.elem_len(t, tw.pow_elem(t, w, 3)) == 3
        assert tw.elem_len(t, (1, 2)) == 2
