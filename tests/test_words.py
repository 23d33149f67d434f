"""Free-group word arithmetic: reduction, conjugacy, roots, Gromov products,
and the relator-area search."""

import random
import time
from collections import deque
from fractions import Fraction

import pytest

from freeq import words
from freeq.words import Alphabet, Presentation

AB = Alphabet(("a", "b"))


def W(text):
    return AB.parse(text)


def random_reduced(rng, max_len, alphabet=AB):
    n = rng.randint(0, max_len)
    out = []
    while len(out) < n:
        x = rng.choice([1, -1]) * rng.randint(1, alphabet.size)
        if out and out[-1] == -x:
            continue
        out.append(x)
    return tuple(out)


def rotation_witness(w1, w2):
    """The rotation-by-rotation search conjugacy_witness replaced: the oracle
    for its first-matching-rotation witness."""
    r1, r2 = words.cyclic_reduce(w1), words.cyclic_reduce(w2)
    if len(r1.core) != len(r2.core):
        return None
    core = r1.core
    for i in range(max(1, len(core))):
        if core[i:] + core[:i] == r2.core:
            c = words.mul(r1.conjugator, core[:i], words.inverse(r2.conjugator))
            if words.conjugate(w1, c) == w2:
                return c
    return None


def cyclic_word(rng, n):
    """A cyclically reduced word of exactly n >= 2 letters over a, b."""
    out = [1]
    while len(out) < n:
        x = rng.choice([1, -1, 2, -2])
        if x != -out[-1] and (len(out) < n - 1 or x != -out[0]):
            out.append(x)
    return tuple(out)


class TestFreeReduce:
    def test_cancellation(self):
        assert W("aA") == ()
        assert W("aAb") == W("b")

    def test_cascading_cancellation(self):
        # abBAc: repeated single-pair cancellation leaves c
        abc = Alphabet(("a", "b", "c"))
        assert abc.parse("abBAc") == abc.parse("c")

    def test_idempotent_random(self):
        rng = random.Random(11)
        for _ in range(200):
            w = random_reduced(rng, 12)
            assert words.free_reduce(w) == w

    def test_product_length_bound(self):
        rng = random.Random(12)
        for _ in range(500):
            u = random_reduced(rng, 10)
            v = random_reduced(rng, 10)
            assert len(words.mul(u, v)) <= len(u) + len(v)

    def test_identity_text(self):
        assert W("1") == ()
        assert AB.format(()) == "1"

    def test_unknown_symbol(self):
        with pytest.raises(words.WordSyntaxError):
            W("axb")


class TestCyclicReduce:
    def test_simple(self):
        cyc = words.cyclic_reduce(W("abA"))
        assert AB.format(cyc.core) == "b"
        assert AB.format(cyc.conjugator) == "a"

    def test_already_cyclic(self):
        cyc = words.cyclic_reduce(W("b"))
        assert AB.format(cyc.core) == "b"
        assert cyc.conjugator == ()

    def test_conjugator_witness(self):
        cyc = words.cyclic_reduce(W("Abba"))
        assert AB.format(cyc.core) == "bb"
        assert AB.format(cyc.conjugator) == "A"

    def test_witness_random(self):
        rng = random.Random(13)
        for _ in range(300):
            w = random_reduced(rng, 12)
            cyc = words.cyclic_reduce(w)
            assert words.conjugate(cyc.core, words.inverse(cyc.conjugator)) == w
            # cyclically reduced: no pinch around the seam
            if cyc.core:
                assert cyc.core[0] != -cyc.core[-1] or len(cyc.core) == 1


class TestConjugacy:
    def test_rotation(self):
        assert words.is_conjugate(W("ab"), W("ba"))
        assert words.is_conjugate(W("abAB"), W("bABa"))

    def test_distinct(self):
        assert not words.is_conjugate(W("a"), W("b"))

    def test_witness_verifies(self):
        rng = random.Random(14)
        for _ in range(200):
            w = random_reduced(rng, 8)
            x = random_reduced(rng, 5)
            other = words.conjugate(w, x)
            c = words.conjugacy_witness(w, other)
            assert c is not None
            assert words.conjugate(w, c) == other

    def test_witness_matches_rotation_oracle(self):
        rng = random.Random(16)
        abc = Alphabet(("a", "b", "c"))
        for i in range(500):
            alphabet = abc if i % 2 else AB
            u = random_reduced(rng, 4, alphabet)
            w = words.power(u, rng.randint(1, 4)) if i % 5 == 0 else random_reduced(rng, 12, alphabet)
            if i % 3:
                other = words.conjugate(w, random_reduced(rng, 6, alphabet))
            else:
                other = random_reduced(rng, 12, alphabet)
            assert words.conjugacy_witness(w, other) == rotation_witness(w, other)

    def test_long_pair_linear(self):
        rng = random.Random(17)
        core = cyclic_word(rng, 4000)
        w1 = words.conjugate(core, random_reduced(rng, 10))
        w2 = words.conjugate(core, core[:3000])  # the rotation by 3000 letters
        t0 = time.perf_counter()
        c = words.conjugacy_witness(w1, w2)
        elapsed = time.perf_counter() - t0
        assert c == rotation_witness(w1, w2)
        assert words.conjugate(w1, c) == w2
        assert elapsed < 0.05

    def test_long_conjugator_linear(self):
        # x^-1 a x with |x| = 4,000: cyclic_reduce peels 4,000 letter pairs
        rng = random.Random(18)
        x = [2]  # starts with b, so nothing cancels against a
        while len(x) < 4000:
            letter = rng.choice([1, -1, 2, -2])
            if letter != -x[-1]:
                x.append(letter)
        x = tuple(x)
        w = words.conjugate(W("a"), x)
        t0 = time.perf_counter()
        c = words.conjugacy_witness(w, W("a"))
        elapsed = time.perf_counter() - t0
        assert words.cyclic_reduce(w) == words.CyclicWord(W("a"), words.inverse(x))
        assert c == words.inverse(x)
        assert elapsed < 0.01

    def test_failed_check_raises(self, monkeypatch):
        # a witness that fails its replay is a CertificateError, not "distinct"
        monkeypatch.setattr(words, "conjugate", lambda w, by: ())
        with pytest.raises(words.CertificateError):
            words.conjugacy_witness(W("Bab"), W("a"))
        assert words.conjugacy_witness(W("a"), W("b")) is None

    def test_equivalence_and_invariance(self):
        rng = random.Random(15)
        sample = [random_reduced(rng, 6) for _ in range(20)]
        for w in sample:
            assert words.is_conjugate(w, w)
        for u in sample:
            for v in sample:
                assert words.is_conjugate(u, v) == words.is_conjugate(v, u)
                x = random_reduced(rng, 4)
                assert words.is_conjugate(u, v) == words.is_conjugate(
                    words.conjugate(u, x), v
                )


class TestRoots:
    def test_examples(self):
        assert words.extract_root(W("abab")) == (W("ab"), 2)
        assert words.extract_root(W("ab")) == (W("ab"), 1)
        assert words.extract_root(W("aaaaaa")) == (W("a"), 6)

    def test_primitivity(self):
        assert words.is_primitive(W("ab"))
        assert words.is_primitive(W("a"))
        assert not words.is_primitive(W("abab"))

    def test_reconstitution_exhaustive(self):
        # every cyclically reduced word of length <= 8 over two letters
        for w in words.reduced_words(AB, 8):
            if not w or (len(w) > 1 and w[0] == -w[-1]):
                continue
            root, exp = words.extract_root(w)
            assert words.power(root, exp) == w
            assert words.is_primitive(root)

    def test_power_length_exact(self):
        rng = random.Random(16)
        for _ in range(100):
            w = random_reduced(rng, 8)
            cyc = words.cyclic_reduce(w).core
            if not cyc:
                continue
            for n in range(1, 9):
                assert len(words.power(cyc, n)) == n * len(cyc)


class TestGromovProduct:
    def test_examples(self):
        abc = Alphabet(("a", "b", "c"))
        assert words.gromov_product(abc.parse("ab"), abc.parse("ac")) == Fraction(1)
        assert words.gromov_product(W("ab"), W("ab")) == 2
        assert words.gromov_product(W("a"), W("B")) == 0

    def test_common_prefix(self):
        rng = random.Random(17)
        for _ in range(300):
            x = random_reduced(rng, 10)
            y = random_reduced(rng, 10)
            k = 0
            while k < min(len(x), len(y)) and x[k] == y[k]:
                k += 1
            assert words.gromov_product(x, y) == k

    def test_zero_delta_triples(self):
        rng = random.Random(18)
        for _ in range(1000):
            x = random_reduced(rng, 8)
            y = random_reduced(rng, 8)
            z = random_reduced(rng, 8)
            assert words.gromov_product(x, y) >= min(
                words.gromov_product(x, z), words.gromov_product(y, z)
            )


class TestDehnArea:
    def test_single_relator(self):
        a = Alphabet(("a",))
        p = Presentation(a, (a.parse("aaa"),))
        assert words.dehn_area(p, a.parse("aaa"), 4) == 1
        assert words.dehn_area(p, a.parse("aaaaaa"), 4) == 2

    def test_free_group_absent(self):
        p = Presentation(AB, ())
        assert words.dehn_area(p, W("abAB"), 4) is None

    def test_identity(self):
        a = Alphabet(("a",))
        p = Presentation(a, (a.parse("aaa"),))
        assert words.dehn_area(p, (), 4) == 0

    def test_conjugated_relator(self):
        p = Presentation(AB, (W("aaa"),))
        assert words.dehn_area(p, W("baaaB"), 4) == 1

    def test_area_at_the_bound(self):
        # the last step's words are only tested for the identity
        p = Presentation(AB, (W("abAB"),))
        assert words.dehn_area(p, W("abABabAB"), 2) == 2
        assert words.dehn_area(p, W("abABabAB"), 1) is None

    def test_long_words_on_the_way(self):
        # each word one step from w has >= 6 letters, more than the 4 a
        # length pruning |v| <= (bound - n) * max_rel would keep
        p = Presentation(AB, (W("abAB"),))
        assert words.dehn_area(p, W("bbabABBBaaBAbA"), 2) == 2

    def test_matches_stored_search(self):
        # the search that stores every word of every step, under the former
        # cap of |w| + bound * max_rel letters, gives the same area
        presentations = [
            (Alphabet(("a",)), ("aaa",)),
            (AB, ("abAB",)),
            (AB, ("aa", "bbb")),
            (AB, ("abab",)),
            (AB, ("aabAB",)),
            (Alphabet(("a", "b", "c")), ("abAB", "ac")),
        ]
        rng = random.Random(11)
        found = 0
        for alphabet, texts in presentations:
            p = Presentation(alphabet, tuple(alphabet.parse(r) for r in texts))
            for _ in range(25):
                w = ()
                for _ in range(rng.randint(0, 2)):
                    x = random_reduced(rng, 2, alphabet)
                    r = rng.choice(p.relators)
                    r = r if rng.random() < 0.5 else words.inverse(r)
                    w = words.mul(w, x, r, words.inverse(x))
                if rng.random() < 0.3:
                    w = words.mul(w, random_reduced(rng, 2, alphabet))
                bound = rng.randint(0, 2)
                area = words.dehn_area(p, w, bound)
                assert area == capped_area(p, w, bound), (texts, w, bound)
                found += area is not None
        assert 40 < found < 150


def capped_area(p, w, bound):
    """The former dehn_area: breadth-first search storing every word of at
    most |w| + bound * max_rel letters, those of the last step too."""
    if not w:
        return 0
    if not p.relators:
        return None
    cap = len(w) + bound * max(len(r) for r in p.relators)
    inserts = sorted(
        {s[i:] + s[:i] for r in p.relators for s in (r, words.inverse(r)) for i in range(len(s))}
    )
    seen, frontier = {w}, deque([w])
    for n in range(1, bound + 1):
        nxt = deque()
        for u in frontier:
            for i in range(len(u) + 1):
                for m in inserts:
                    v = words.mul(u[:i], m, u[i:])
                    if len(v) > cap:
                        continue
                    if not v:
                        return n
                    if v not in seen:
                        seen.add(v)
                        nxt.append(v)
        frontier = nxt
    return None
