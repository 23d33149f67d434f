"""Acceptance suite: one criterion per test, each printing a single
pass/fail line and enforcing its runtime budget."""

import hashlib
import json
import random
import time
from fractions import Fraction

from freeq import constructions, qcompletion as qc, stallings, tower as tw, words
from freeq.constructions import (
    AmalgamData,
    HNNData,
    OUTCOME_HYPERBOLIC,
    OUTCOME_NOT_HYPERBOLIC,
    check_amalgam,
    check_separated_hnn,
)
from freeq.qcompletion import QSession
from freeq.words import Alphabet, Presentation

AB = Alphabet(("a", "b"))
ABP = Presentation(AB, ())


def report(name, ok, elapsed, budget):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"{status} {name}: {elapsed:.2f}s (budget {budget:.0f}s)")
    assert ok
    assert elapsed < budget, f"{name} exceeded budget: {elapsed:.2f}s >= {budget}s"


def random_reduced(rng, max_len, alphabet=AB):
    n = rng.randint(0, max_len)
    out = []
    while len(out) < n:
        x = rng.choice([1, -1]) * rng.randint(1, alphabet.size)
        if out and out[-1] == -x:
            continue
        out.append(x)
    return tuple(out)


def random_qword(rng, depth_budget=2, max_den=4):
    letters = "abAB"

    def product(budget):
        return "".join(factor(budget) for _ in range(rng.randint(1, 3)))

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


def test_criterion_1_counterexample_verdicts():
    t0 = time.perf_counter()
    ok = True

    k = HNNData(ABP, (AB.parse("aa"),), (AB.parse("bb"),))
    v = check_separated_hnn(k)
    ok &= v.outcome == OUTCOME_NOT_HYPERBOLIC and v.cited == "Corollary 1"

    x = Presentation(Alphabet(("x",)), ())
    bs = HNNData(x, (x.alphabet.parse("xx"),), (x.alphabet.parse("xxx"),))
    ok &= check_separated_hnn(bs).outcome == OUTCOME_NOT_HYPERBOLIC

    y = Presentation(Alphabet(("y",)), ())
    am = AmalgamData(x, y, (x.alphabet.parse("xx"),), (y.alphabet.parse("yyy"),))
    ok &= check_amalgam(am).outcome == OUTCOME_NOT_HYPERBOLIC

    report("criterion-1 counterexample-verdicts", ok, time.perf_counter() - t0, 3.0)


def test_criterion_2_positive_verdicts():
    t0 = time.perf_counter()
    ok = True
    w = Presentation(Alphabet(("w",)), ())
    for v in words.reduced_words(AB, 3):
        if not v or (len(v) > 1 and v[0] == -v[-1]) or not words.is_primitive(v):
            continue
        for m in (2, 3, 4):
            data = AmalgamData(ABP, w, (v,), (w.alphabet.parse("w" * m),))
            ok &= check_amalgam(data).outcome == OUTCOME_HYPERBOLIC
    report("criterion-2 positive-verdicts", ok, time.perf_counter() - t0, 10.0)


def test_criterion_3_zero_hyperbolicity():
    t0 = time.perf_counter()
    rng = random.Random(103)
    failures = 0
    for _ in range(10_000):
        x = random_reduced(rng, 8)
        y = random_reduced(rng, 8)
        z = random_reduced(rng, 8)
        lhs = words.gromov_product(x, y)
        if lhs < min(words.gromov_product(x, z), words.gromov_product(y, z)):
            failures += 1
    report("criterion-3 zero-hyperbolicity", failures == 0, time.perf_counter() - t0, 5.0)


def test_criterion_4_stallings_oracle():
    t0 = time.perf_counter()
    rng = random.Random(104)
    ok = True
    small_words = [w for w in words.reduced_words(AB, 6)]
    witness_xs = [w for w in words.reduced_words(AB, 4) if w]
    for _ in range(100):
        gens = []
        for _ in range(rng.randint(1, 3)):
            g = random_reduced(rng, 4)
            if g:
                gens.append(g)
        if not gens:
            gens = [(1,)]
        graph = stallings.build_core(AB, gens)

        # membership: positives certified by basis reconstitution, and every
        # brute-force product must be accepted
        brute = {()}
        frontier = [()]
        letters = [g for gen in gens for g in (gen, words.inverse(gen))]
        for _ in range(4):
            nxt = []
            for u in frontier:
                for g in letters:
                    p = words.mul(u, g)
                    if p not in brute:
                        brute.add(p)
                        nxt.append(p)
            frontier = nxt
        basis = stallings.free_basis(graph)
        for w in small_words:
            if stallings.contains(graph, w):
                d = stallings.express(graph, w)
                ok &= d is not None
                rebuilt = words.mul(
                    *(basis[i] if s > 0 else words.inverse(basis[i]) for i, s in d)
                )
                ok &= rebuilt == w
            else:
                ok &= w not in brute
        for u in brute:
            ok &= stallings.contains(graph, u)

        # malnormality vs brute-force witness search (one-sided for positives)
        res = stallings.is_conjugate_separated(graph)
        if res.holds:
            for xw in witness_xs:
                if stallings.contains(graph, xw):
                    continue
                for u in brute:
                    if u and stallings.contains(graph, words.conjugate(u, xw)):
                        ok = False
        else:
            ok &= not stallings.contains(graph, res.witness)
            ok &= bool(res.common_element)
            ok &= stallings.contains(graph, res.common_element)
            ok &= stallings.contains(
                graph, words.conjugate(res.common_element, res.witness)
            )
    report("criterion-4 stallings-oracle", ok, time.perf_counter() - t0, 60.0)


def test_criterion_5_v_tables():
    t0 = time.perf_counter()
    t1 = qc.tower_level(AB, 1)
    t2 = qc.tower_level(AB, 2)
    t3 = qc.tower_level(AB, 3)
    ok = t1.tables[0].texts == ("a", "b")
    ok &= t2.tables[1].texts == ("a", "b", "ab", "aB")
    ok &= t2.generator_count == t1.generator_count + len(t2.tables[1].entries)
    ok &= t3.generator_count == t2.generator_count + len(t3.tables[2].entries)
    report("criterion-5 v-tables", ok, time.perf_counter() - t0, 30.0)


# sha256 of the V_3 element list (as json, base ab) printed by the seed commit
V3_SEED_DIGEST = "08d8cde988eaa9ff6558b2b1c7714112eec72656b0282f95319a6e1514acef98"


def test_criterion_5_v3_byte_identity():
    # tower_level memoizes levels, so this reuses criterion-5's T_3
    texts = list(qc.tower_level(AB, 3).tables[2].texts)
    assert hashlib.sha256(json.dumps(texts).encode()).hexdigest() == V3_SEED_DIGEST


# sha256 of the lines of pinned_query_lines(), printed by the commit before
# tower elements were stored at their own level
PINNED_QUERY_DIGEST = "3be8a5f4840f5d8968da78974834188791a10fc210410eb0c1252f8029a452a0"


def pinned_query_lines():
    """Canonical text and level of both sides, conj status and certificate of
    100 seeded Q-word pairs from the criterion-6/7/8 generators (25 each of
    g^al g^be vs g^(al+be), an axiom rewrite, a conjugate, a random pair)."""
    rng = random.Random(110)
    pairs = []
    for _ in range(25):
        g = random_qword(rng, depth_budget=1)
        al, be = _rand_fraction(rng), _rand_fraction(rng)
        pairs.append((f"({g})^({al})({g})^({be})", f"({g})^({al + be})"))
        w = random_qword(rng)
        pairs.append((w, _axiom_rewrite(rng, w)))
        g, x = random_qword(rng), random_qword(rng, depth_budget=1)
        pairs.append((f"({x})^(-1)({g})({x})", g))
        pairs.append((random_qword(rng), random_qword(rng)))
    for a, b in pairs:
        s = QSession(AB, max_level=8)
        ea, eb = s.normalize(a), s.normalize(b)
        status, c = s.q_conjugate(a, b)
        cert = tw.serialize(s.tower, c) if c is not None else "-"
        yield "\t".join(
            [a, b, s.canonical_text(ea), str(s.locate(ea)), s.canonical_text(eb), str(s.locate(eb)), status, cert]
        )


def test_pinned_query_digest():
    t0 = time.perf_counter()
    text = "\n".join(pinned_query_lines())
    ok = hashlib.sha256(text.encode()).hexdigest() == PINNED_QUERY_DIGEST
    report("pinned-query digest", ok, time.perf_counter() - t0, 5.0)


def _rand_fraction(rng, max_den=4, signed=True):
    den = rng.randint(1, max_den)
    num = rng.randint(0, 3 * den)
    if signed and rng.random() < 0.4:
        num = -num
    return Fraction(num, den)


def test_criterion_6_axiom_suite():
    t0 = time.perf_counter()
    rng = random.Random(106)
    ok = True
    n = 500

    def fresh():
        return QSession(AB, max_level=8)

    for _ in range(n):  # g^1 = g
        g = random_qword(rng)
        ok &= fresh().q_equal(f"({g})^1", g)
    for _ in range(n):  # g^0 = 1
        g = random_qword(rng)
        ok &= fresh().q_equal(f"({g})^0", "1")
    for _ in range(n):  # 1^alpha = 1
        al = _rand_fraction(rng)
        ok &= fresh().q_equal(f"1^({al})", "1")
    for _ in range(n):  # g^(al+be) = g^al g^be
        g = random_qword(rng, depth_budget=1)
        al, be = _rand_fraction(rng), _rand_fraction(rng)
        ok &= fresh().q_equal(f"({g})^({al})({g})^({be})", f"({g})^({al + be})")
    for _ in range(n):  # (g^al)^be = g^(al*be)
        g = random_qword(rng, depth_budget=1)
        al, be = _rand_fraction(rng), _rand_fraction(rng)
        ok &= fresh().q_equal(f"(({g})^({al}))^({be})", f"({g})^({al * be})")
    for _ in range(n):  # (h^-1 g h)^al = h^-1 g^al h
        g = random_qword(rng, depth_budget=1)
        h = random_qword(rng, depth_budget=1)
        al = _rand_fraction(rng)
        ok &= fresh().q_equal(
            f"(({h})^(-1)({g})({h}))^({al})", f"({h})^(-1)({g})^({al})({h})"
        )
    for _ in range(n):  # commuting g, h: (gh)^al = g^al h^al
        base = random_qword(rng, depth_budget=1)
        i, j = rng.randint(1, 3), rng.randint(1, 3)
        al = _rand_fraction(rng)
        lhs = f"(({base})^{i}({base})^{j})^({al})"
        rhs = f"(({base})^{i})^({al})(({base})^{j})^({al})"
        ok &= fresh().q_equal(lhs, rhs)
    report("criterion-6 axiom-suite", ok, time.perf_counter() - t0, 300.0)


def _axiom_rewrite(rng, w):
    """An equality-preserving rewrite of Q-word text via a random axiom."""
    h = random_qword(rng, depth_budget=1)
    choice = rng.randrange(5)
    if choice == 0:
        return f"({w})^1"
    if choice == 1:
        return f"1({w})"
    if choice == 2:
        return f"({h})({h})^(-1)({w})"
    if choice == 3:
        return f"(({w})^(1/2))^2"
    return f"({w})^(1/2)({w})^(1/2)"


def test_criterion_7_normal_form_soundness():
    t0 = time.perf_counter()
    rng = random.Random(107)
    ok = True
    for _ in range(500):
        w = random_qword(rng)
        w2 = _axiom_rewrite(rng, w)
        s1 = QSession(AB, max_level=8)
        s2 = QSession(AB, max_level=8)
        text1 = s1.canonical_text(s1.normalize(w))
        text2 = s2.canonical_text(s2.normalize(w2))
        ok &= text1 == text2
        s = QSession(AB, max_level=8)
        ok &= s.q_equal(w, w2)
    for _ in range(200):  # v^s v^t = v^t v^s
        v = random_qword(rng, depth_budget=1)
        s_exp, t_exp = _rand_fraction(rng), _rand_fraction(rng)
        sess = QSession(AB, max_level=8)
        ok &= sess.q_equal(
            f"({v})^({s_exp})({v})^({t_exp})", f"({v})^({t_exp})({v})^({s_exp})"
        )
    report("criterion-7 normal-form-soundness", ok, time.perf_counter() - t0, 300.0)


def test_criterion_8_conjugacy_certificates():
    t0 = time.perf_counter()
    rng = random.Random(108)
    ok = True
    for _ in range(200):
        g = random_qword(rng, depth_budget=2)
        x = random_qword(rng, depth_budget=1)
        s = QSession(AB, max_level=8)
        status, c = s.q_conjugate(f"({x})^(-1)({g})({x})", g)
        ok &= status == tw.CONJUGATE
        if status == tw.CONJUGATE:
            cert = tw.serialize(s.tower, c)
            ok &= s.q_equal(f"({cert})^(-1)(({x})^(-1)({g})({x}))({cert})", g)

    s = QSession(AB, max_level=4)
    status, _ = s.q_conjugate("a", "b")
    ok &= status == tw.DISTINCT

    # w vs w^-1 in E(F(a,b), ab, 2)
    t_base = tw.Tower(AB)
    t = t_base.extend_centralizer((1, 2), 2, name="w")
    w = t.root(1)
    status, _ = tw.conjugate_in_tower(t, w, tw.inv(t, w))
    ok &= status == tw.DISTINCT

    report("criterion-8 conjugacy-certificates", ok, time.perf_counter() - t0, 120.0)


def test_criterion_9_area_oracle():
    t0 = time.perf_counter()
    a = Alphabet(("a",))
    p = Presentation(a, (a.parse("aaa"),))
    ok = all(
        words.dehn_area(p, a.parse("a" * (3 * k)), k + 1) == k for k in (1, 2, 3)
    )
    report("criterion-9 area-oracle", ok, time.perf_counter() - t0, 30.0)
