"""Arithmetic and canonical forms in iterated centralizer extensions:
alternating syllable forms, coset representatives, cyclic reduction, root
extraction, and conjugacy with certificates."""

import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from freeq import tower as tw
from freeq import words
from freeq.tower import ResourceCapError, Tower
from freeq.words import Alphabet

AB = Alphabet(("a", "b"))


def base_tower():
    return Tower(AB)


def e2_tower():
    """E(F(a,b), ab, 2): adjoin a square root w of ab."""
    t0 = base_tower()
    return t0.extend_centralizer(tw.from_word(t0, (1, 2)), 2, name="w")


def random_elem(rng, t, n_factors=4, max_exp=2):
    symbols = list(t.base.names) + [s.name for s in t.steps]
    raw = []
    for _ in range(rng.randint(1, n_factors)):
        raw.append((rng.choice(symbols), rng.choice([-2, -1, 1, 2][: 2 * max_exp])))
    return tw.reduce_to_semicanonical(t, raw)


def tower_chain(alphabet):
    """Towers of levels 0..3 over one caches dict: a square root of ab, a
    cube root of that root, then a square root of aB."""
    t0 = Tower(alphabet)
    t1 = t0.extend_centralizer(tw.from_word(t0, (1, 2)), 2, name="w")
    t2 = t1.extend_centralizer(t1.root(1), 3, name="u")
    t3 = t2.extend_centralizer(tw.from_word(t2, (1, -2)), 2, name="x")
    return [t0, t1, t2, t3]


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
        t = t0.extend_centralizer(tw.from_word(t0, (1,)), 1, name="wa")
        assert t.level == 0
        assert dict(t.aliases)["wa"] == tw.from_word(t0, (1,))

    def test_rejects_proper_power(self):
        t0 = base_tower()
        with pytest.raises(ValueError):
            t0.extend_centralizer(tw.from_word(t0, (1, 2, 1, 2)), 2)

    def test_rejects_repeated_class(self):
        t = e2_tower()
        with pytest.raises(ValueError):
            t.extend_centralizer(tw.from_word(t, (1, 2)), 3)

    def test_chain_extension_allowed(self):
        # adjoining a root of the previous root is the legal chain pattern
        t = e2_tower()
        t2 = t.extend_centralizer(t.root(1), 3, name="w6")
        w6 = t2.root(2)
        assert tw.equal(t2, tw.pow_elem(t2, w6, 6), tw.from_word(t2, (1, 2)))


class TestRelation:
    def test_w_squared_is_v(self):
        t = e2_tower()
        w = t.root(1)
        assert tw.equal(t, tw.mul(t, w, w), tw.from_word(t, (1, 2)))

    def test_relation_exhaustive_small(self):
        for v in words.reduced_words(AB, 3):
            if not v or (len(v) > 1 and v[0] == -v[-1]):
                continue
            if not words.is_primitive(v):
                continue
            for m in (2, 3, 4):
                t0 = base_tower()
                t = t0.extend_centralizer(tw.from_word(t0, v), m)
                r = t.root(1)
                assert tw.equal(t, tw.pow_elem(t, r, m), tw.from_word(t, v)), (v, m)

    def test_w_commutes_with_v(self):
        t = e2_tower()
        w = t.root(1)
        v = tw.from_word(t, (1, 2))
        assert tw.equal(t, tw.mul(t, w, v, tw.inv(t, w)), v)


class TestSemicanonical:
    def test_waw_form(self):
        t = e2_tower()
        f = tw.reduce_to_semicanonical(t, [("w", 1), ("a", 1), ("w", 1)])
        assert f.syllable_count == 2
        assert all(s == Fraction(1, 2) for s in f.ss)

    def test_ww_collapses(self):
        t = e2_tower()
        f = tw.reduce_to_semicanonical(t, [("w", 2)])
        assert f == tw.canonical_form(t, tw.from_word(t, (1, 2)))

    def test_invariants_random(self):
        rng = random.Random(41)
        t = e2_tower()
        for _ in range(200):
            f = random_elem(rng, t)
            if not isinstance(f, tw.Form) or not f.ss:
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
        rng = random.Random(42)
        t0 = base_tower()
        v = AB.parse("ab")
        for _ in range(100):
            h = tuple(
                x
                for x in [rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(0, 6))]
            )
            h = words.free_reduce(h)
            rep, k = tw.coset_rep(t0, h, v)
            assert words.mul(rep, words.power(v, k)) == h
            for j in (-2, -1, 1, 2):
                rep2, k2 = tw.coset_rep(t0, words.mul(h, words.power(v, j)), v)
                assert rep2 == rep and k2 == k + j


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
            w = words.free_reduce(
                rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(0, 8))
            )
            lifted = tw.lift(t, w, 1)
            assert tw.serialize(t, lifted) == AB.format(w)

    def test_commutation_closure(self):
        # forms differing by v^s v^t <-> v^t v^s swaps are equal
        rng = random.Random(46)
        t0 = base_tower()
        t = t0.extend_centralizer(tw.from_word(t0, (1, 2)), 4, name="w")
        v = tw.from_word(t, (1, 2))
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
        a = tw.from_word(t, (1,))
        g = tw.mul(t, tw.inv(t, a), w, a)
        status, c = tw.conjugate_in_tower(t, g, w)
        assert status == tw.CONJUGATE
        assert tw.equal(t, tw.mul(t, tw.inv(t, c), g, c), w)

    def test_base_distinct(self):
        t = e2_tower()
        status, _ = tw.conjugate_in_tower(
            t, tw.from_word(t, (1,)), tw.from_word(t, (2,))
        )
        assert status == tw.DISTINCT

    def test_rotated_root_conjugate(self):
        # (ba)^{1/2} is conjugate to (ab)^{1/2} by a
        t0 = base_tower()
        t = t0.extend_centralizer(tw.from_word(t0, (1, 2)), 2, name="w")
        w = t.root(1)
        a = tw.from_word(t, (1,))
        other = tw.mul(t, tw.inv(t, a), w, a)
        status, c = tw.conjugate_in_tower(t, other, w)
        assert status == tw.CONJUGATE

    def test_w_and_inverse_distinct(self):
        t = e2_tower()
        w = t.root(1)
        status, _ = tw.conjugate_in_tower(t, w, tw.inv(t, w))
        assert status != tw.CONJUGATE

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
            Tower(AB, caches=caches).extend_centralizer(tw.from_word(Tower(AB), (1, 2)), 2, name="w")
            for _ in range(2)
        )
        assert t1 is not u1 and t1._pid == u1._pid
        x = tw.pow_elem(t1, t1.root(1), 5)
        size = len(caches["ops"])
        assert tw.pow_elem(u1, u1.root(1), 5) == x
        assert len(caches["ops"]) == size  # u1 hits t1's entries
        base = Tower(AB, caches=caches)
        others = [
            base.extend_centralizer(tw.from_word(base, (1, 2)), 3, name="w"),
            base.extend_centralizer(tw.from_word(base, (1, 2)), 2, name="y"),
            base.extend_centralizer(tw.from_word(base, (1, -2)), 2, name="w"),
        ]
        assert len({t._pid[1] for t in [t1] + others}) == 4
        # one step over different parents
        v = tw.from_word(t1, (1, -2))
        tops = [t.extend_centralizer(v, 2, name="z") for t in (t1, others[1])]
        assert tops[0].steps[1] == tops[1].steps[1]
        assert tops[0]._pid[2] != tops[1]._pid[2]
        assert [t._pid[0] for t in tops] == [0, 0]


CERTIFICATE_SCRIPT = """
import sys
from fractions import Fraction
from freeq import constructions as cs, homs, qcompletion, tower as tw, words
from freeq.words import Alphabet, Presentation

mul = words.mul
if __debug__:
    sys.exit("expected python -O")
t0 = tw.Tower(Alphabet(("a", "b")))
t1 = t0.extend_centralizer(tw.from_word(t0, (1, 2)), 2, name="w")


def probe(name, fn):
    try:
        fn()
    except tw.CertificateError:
        print(name, "raised")
    else:
        print(name, "passed")


tw.equal = lambda t, a, b: False
probe("conjugate_in_tower", lambda: tw.conjugate_in_tower(t0, (1, 2), (2, 1)))
probe("class_rep level 1", lambda: tw.class_rep(t1, t1.root(1)))
words.mul = lambda *ws: ()
probe("class_rep level 0", lambda: tw.class_rep(t0, (1, 2)))

words.mul = mul
session = qcompletion.QSession(Alphabet(("a", "b")))
session._ensure_denominator = lambda chain, q: None
chain = qcompletion._Chain("a", (1,), [], [])
probe("_class_power", lambda: session._class_power(chain, Fraction(1, 2)))
AB, X, Y = (Presentation(Alphabet(tuple(n)), ()) for n in ("ab", "x", "y"))
homs.hnn_is_identity = lambda ctx, tokens: False
probe("hnn intersection witness", lambda: cs.check_separated_hnn(cs.HNNData(AB, ((1,),), ((1, 1),))))
probe("hnn pair witness", lambda: cs.check_separated_hnn(cs.HNNData(AB, ((1, 1),), ((2, 2),))))
homs.amalgam_is_identity = lambda ctx, sylls: False
probe("amalgam pair witness", lambda: cs.check_amalgam(cs.AmalgamData(X, Y, ((1, 1),), ((1, 1, 1),))))
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
    assert proc.stdout.split("\n")[:7] == [
        "conjugate_in_tower raised",
        "class_rep level 1 raised",
        "class_rep level 0 raised",
        "_class_power raised",
        "hnn intersection witness raised",
        "hnn pair witness raised",
        "amalgam pair witness raised",
    ]


class TestSerialization:
    def test_examples(self):
        t = e2_tower()
        w = t.root(1)
        assert tw.serialize(t, w) == "(ab)^(1/2)"
        assert tw.serialize(t, tw.pow_elem(t, w, 3)) == "(ab)^(1/2)ab"
        assert tw.serialize(t, tw.identity(t, 1)) == "1"

    def test_elem_len(self):
        t = e2_tower()
        w = t.root(1)
        assert tw.elem_len(t, w) == 1
        assert tw.elem_len(t, tw.pow_elem(t, w, 3)) == 3
        assert tw.elem_len(t, tw.from_word(t, (1, 2))) == 2
