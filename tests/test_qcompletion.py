"""Q-words with exact rational exponents: parsing, depth, normalization,
word/conjugacy decisions, and the effective root-class tables."""

import random
from fractions import Fraction

import pytest

from freeq import qcompletion as qc
from freeq import tower as tw
from freeq.qcompletion import QSession, parse_qword
from freeq.tower import ResourceCapError
from freeq.words import Alphabet

AB = Alphabet(("a", "b"))


def session(max_level=4):
    return QSession(AB, max_level=max_level)


def random_qword(rng, depth_budget=2, max_den=4):
    """Random Q-word text of bounded depth with denominators <= max_den."""
    letters = "abAB"

    def product(budget):
        n = rng.randint(1, 3)
        return "".join(factor(budget) for _ in range(n))

    def factor(budget):
        if budget <= 1 or rng.random() < 0.5:
            return rng.choice(letters)
        den = rng.randint(2, max_den)
        num = rng.randint(1, 2 * den)
        while num % den == 0:
            num = rng.randint(1, 2 * den)
        sign = "-" if rng.random() < 0.3 else ""
        return f"({product(budget - 1)})^({sign}{num}/{den})"

    return product(depth_budget)


class TestParse:
    def test_power(self):
        q = parse_qword(AB, "(ab)^(1/2)")
        assert isinstance(q, qc.QPower)
        assert q.exponent == Fraction(1, 2)

    def test_identity(self):
        q = parse_qword(AB, "1")
        assert q == qc.QProduct(())

    def test_unbalanced(self):
        with pytest.raises(qc.QSyntaxError) as err:
            parse_qword(AB, "(a")
        assert err.value.position == 2

    def test_zero_denominator(self):
        with pytest.raises(qc.QSyntaxError):
            parse_qword(AB, "a^(1/0)")

    def test_nesting_cap(self):
        n = qc.MAX_NESTING
        assert parse_qword(AB, "(" * n + "a" + ")" * n) == qc.QLetter(1)
        with pytest.raises(qc.QSyntaxError) as err:
            parse_qword(AB, "(" * (n + 1) + "a" + ")" * (n + 1))
        assert err.value.position == n

    def test_uppercase_inverse(self):
        s = session()
        assert s.q_equal("aA", "1")

    def test_whitespace_ignored(self):
        s = session()
        assert s.q_equal("a b", "ab")


class TestDepth:
    def test_letter(self):
        assert qc.depth(parse_qword(AB, "a")) == 1

    def test_fractional_power(self):
        assert qc.depth(parse_qword(AB, "(ab)^(1/2)")) == 2

    def test_nested(self):
        abc = Alphabet(("a", "b", "c"))
        assert qc.depth(qc.parse_qword(abc, "((ab)^(1/2)c)^(1/3)")) == 3

    def test_integer_power_free(self):
        assert qc.depth(parse_qword(AB, "(ab)^3")) == 1


class TestNormalize:
    def test_half_plus_half(self):
        s = session()
        assert s.canonical_text(s.normalize("a^(1/2)a^(1/2)")) == "a"

    def test_conjugated_root(self):
        s = session()
        e = s.normalize("(baB)^(1/2)")
        assert s.canonical_text(e) == "b(a)^(1/2)B"

    def test_exponent_split(self):
        s = session()
        assert s.canonical_text(s.normalize("(ab)^(3/2)")) == "(ab)^(1/2)ab"

    def test_lowest_terms(self):
        s = session()
        assert s.q_equal("a^(2/2)", "a")

    def test_iterated_roots(self):
        s = session(max_level=6)
        assert s.q_equal("(a^(1/2))^(1/3)", "a^(1/6)")

    def test_distinct_roots(self):
        s = session()
        assert not s.q_equal("a^(1/2)", "b^(1/2)")

    def test_resource_cap(self):
        s = session(max_level=2)
        with pytest.raises(ResourceCapError):
            s.normalize("a^(1/5)")


class TestAxioms:
    def test_unit_axioms(self):
        s = session()
        rng = random.Random(61)
        for _ in range(50):
            g = random_qword(rng)
            assert s.q_equal(f"({g})^1", g)
            assert s.q_equal(f"({g})^0", "1")
        assert s.q_equal("1^(1/2)", "1")

    def test_exponent_addition(self):
        s = session()
        rng = random.Random(62)
        for _ in range(30):
            g = random_qword(rng, depth_budget=1)
            al = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
            be = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
            lhs = f"({g})^({al})"
            rhs = f"({g})^({be})"
            total = f"({g})^({al + be})"
            assert s.q_equal(f"{lhs}{rhs}", total), (g, al, be)

    def test_exponent_multiplication(self):
        s = session(max_level=5)
        rng = random.Random(63)
        for _ in range(20):
            g = random_qword(rng, depth_budget=1)
            al = Fraction(rng.randint(1, 3), rng.randint(1, 3))
            be = Fraction(rng.randint(1, 3), rng.randint(1, 3))
            assert s.q_equal(f"(({g})^({al}))^({be})", f"({g})^({al * be})")

    def test_conjugation_axiom(self):
        s = session()
        rng = random.Random(64)
        for _ in range(30):
            g = random_qword(rng, depth_budget=1)
            h = random_qword(rng, depth_budget=1)
            al = Fraction(rng.randint(1, 5), rng.randint(2, 4))
            H = f"({h})"
            lhs = f"({H}^(-1)({g}){H})^({al})"
            rhs = f"{H}^(-1)({g})^({al}){H}"
            assert s.q_equal(lhs, rhs), (g, h, al)

    def test_commuting_product_axiom(self):
        # (gh)^al = g^al h^al when g, h are powers of a common element
        s = session()
        rng = random.Random(65)
        for _ in range(30):
            base = random_qword(rng, depth_budget=1)
            i, j = rng.randint(1, 3), rng.randint(1, 3)
            al = Fraction(rng.randint(1, 5), rng.randint(2, 4))
            g = f"({base})^{i}"
            h = f"({base})^{j}"
            assert s.q_equal(f"({g}{h})^({al})", f"({g})^({al})({h})^({al})")


class TestConjugacy:
    def test_certificate(self):
        s = session()
        status, c = s.q_conjugate("b a^(1/2) b^(-1)", "a^(1/2)")
        assert status == tw.CONJUGATE
        cert = tw.serialize(s.tower, c)
        assert s.q_equal(f"({cert})^(-1) (b a^(1/2) b^(-1)) ({cert})", "a^(1/2)")

    def test_distinct(self):
        s = session()
        status, _ = s.q_conjugate("a", "b")
        assert status == tw.DISTINCT

    def test_rotation(self):
        s = session()
        status, c = s.q_conjugate("(ba)^(1/2)", "(ab)^(1/2)")
        assert status == tw.CONJUGATE

    def test_different_vectors_distinct(self):
        # the exponent vector is a conjugation invariant, so pairs whose
        # vectors differ are decided distinct (five of these 80 pairs were
        # absent-within-bound under the bounded twist search alone)
        rng = random.Random(1)

        def word():
            return "".join(rng.choice("abAB") for _ in range(rng.randint(1, 2)))

        def qword():
            r = Fraction(rng.randint(1, 5), rng.choice([2, 3]))
            return f"({word()})^({r}){word()}"

        differ = 0
        for _ in range(80):
            p, q = qword(), qword()
            s = session()
            status, _ = s.q_conjugate(p, q)
            vectors = [tw.exponent_vector(s.tower, s.normalize(x)) for x in (p, q)]
            if vectors[0] != vectors[1]:
                differ += 1
                assert status == tw.DISTINCT, (p, q)
            else:
                assert status == tw.CONJUGATE, (p, q)
        assert differ == 79

    def test_distinct_stable_under_conjugation(self):
        s = session()
        rng = random.Random(66)
        for _ in range(10):
            x = random_qword(rng, depth_budget=1)
            status, _ = s.q_conjugate(f"({x})^(-1) a ({x})", "b")
            assert status == tw.DISTINCT


def test_pinned_query_cache_entries():
    # the slowest criterion-7 query of the benchmark leaves a few thousand
    # cache entries (192,508 under the windowed coset representatives)
    w = "(bbA)^(-3/2)(Baa)^(-7/4)(bb)^(1/4)"
    s = QSession(AB, max_level=8)
    assert s.q_equal(f"({w})^(1/2)({w})^(1/2)", w)
    assert sum(len(c) for c in s.tower._caches.values()) < 20_000


def test_vn3_cache_entries(monkeypatch):
    # the V_3 tower leaves 13,866 entries (32,284 while each twist search
    # kept the products, texts and keys of its candidates)
    monkeypatch.setattr(qc, "_tower_levels", {})
    ti = qc.tower_level(AB, 3)
    assert len(ti.tower._caches["ops"]) < 16_000


def test_roots_ask_no_conjugacy_question(monkeypatch):
    # a fractional power's root and class are read off class keys
    # (tower.root_class), so conjugate_in_tower runs only for q_conjugate
    calls = []
    search = tw.conjugate_in_tower
    monkeypatch.setattr(tw, "conjugate_in_tower", lambda *args: calls.append(args) or search(*args))
    monkeypatch.setattr(qc, "_tower_levels", {})
    s = session(max_level=6)
    fixed = ["((ab)^(1/2))^(1/3)", "a((ab)^(1/2))^(1/3)A", "((BA)^(1/3))^(-1/2)", "(ba)^(5/6)"]
    rng = random.Random(142)
    seeded = [random_qword(rng, depth_budget=3) for _ in range(40)]
    for q in fixed + seeded + [f"({x})^(-1)({q})({x})" for q, x in zip(seeded, fixed)]:
        s.normalize(q)
    assert s.tower.level >= 6
    qc.tower_level(AB, 3)
    assert calls == []
    status, _ = s.q_conjugate("((ab)^(1/2))^(1/3)", "a((ba)^(1/2))^(1/3)A")
    assert status == tw.CONJUGATE and calls


class TestLocate:
    def test_base_word(self):
        s = session()
        assert s.locate(s.normalize("ab")) == 0

    def test_level_two(self):
        s = session()
        assert s.locate(s.normalize("(ab)^(1/2)")) == 2

    def test_max_rule(self):
        # a^(1/6) = (a^(1/2))^(1/3); the cube root of the class of a^(1/2)
        # (a length-1 element first available at level 2) lives in T_3
        s = session(max_level=6)
        assert s.locate(s.normalize("a^(1/6)")) == 3


class TestAbelianVector:
    def test_fractional_counts(self):
        s = session()
        e = s.normalize("(ab)^(1/2)")
        assert tw.exponent_vector(s.tower, e) == (Fraction(1, 2), Fraction(1, 2))

    def test_conjugation_invariant(self):
        s = session()
        rng = random.Random(67)
        for _ in range(30):
            g = random_qword(rng)
            x = random_qword(rng, depth_budget=1)
            e1 = s.normalize(g)
            e2 = s.normalize(f"({x})^(-1)({g})({x})")
            assert tw.exponent_vector(s.tower, e1) == tw.exponent_vector(s.tower, e2)


class TestTables:
    def test_v1(self):
        ti = qc.tower_level(AB, 1)
        assert ti.tables[0].texts == ("a", "b")

    def test_v2(self):
        ti = qc.tower_level(AB, 2)
        assert ti.tables[1].texts == ("a", "b", "ab", "aB")

    def test_t2_generators(self):
        ti = qc.tower_level(AB, 2)
        assert ti.generator_count == 6
        assert ti.tower.base.names + tuple(s.name for s in ti.tower.steps) == (
            "a",
            "b",
            "w[2;a]",
            "w[2;b]",
            "w[2;ab]",
            "w[2;aB]",
        )

    def test_level1_collapses(self):
        ti = qc.tower_level(AB, 1)
        assert ti.tower.level == 0
        assert len(ti.tower.aliases) == 2

    def test_generator_recurrence(self):
        t2 = qc.tower_level(AB, 2)
        t3 = qc.tower_level(AB, 3)
        assert t3.generator_count == t2.generator_count + len(t3.tables[2].entries)

    def test_root_soundness(self):
        # for every v in V_n, (v^{1/n})^n = v, n <= 2
        for n in (2,):
            ti = qc.tower_level(AB, n)
            t = ti.tower
            for i, step in enumerate(t.steps):
                assert tw.equal(t, tw.pow_elem(t, t.root(i + 1), step.m), step.v)

    def test_v3_contains_prior_roots(self):
        ti = qc.tower_level(AB, 3)
        texts = ti.tables[2].texts
        for want in ("(a)^(1/2)", "(b)^(1/2)", "(ab)^(1/2)", "(aB)^(1/2)"):
            assert want in texts

    def test_cap(self):
        with pytest.raises(ResourceCapError):
            qc.tower_level(AB, 4, max_level=3)
