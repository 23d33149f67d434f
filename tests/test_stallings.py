"""Core graphs of finitely generated subgroups: membership, quasiconvexity,
malnormality, and finiteness of intersections with conjugates."""

import hashlib
import itertools
import random
import time

from freeq import stallings, words
from freeq.stallings import FiberComponent, build_core, contains, fiber_product, free_basis
from freeq.words import Alphabet

AB = Alphabet(("a", "b"))
ABC = Alphabet(("a", "b", "c"))


def W(text):
    return AB.parse(text)


def core(*gens):
    return build_core(AB, [W(g) for g in gens])


def brute_elements(gens, max_factors):
    """All products of up to max_factors generators (and inverses)."""
    letters = []
    for g in gens:
        letters.append(g)
        letters.append(words.inverse(g))
    seen = {()}
    frontier = [()]
    for _ in range(max_factors):
        nxt = []
        for w in frontier:
            for x in letters:
                p = words.mul(w, x)
                if p not in seen:
                    seen.add(p)
                    nxt.append(p)
        frontier = nxt
    return seen


def random_subgroup(rng, max_gens=3, max_len=4, rank=2):
    gens = []
    for _ in range(rng.randint(1, max_gens)):
        n = rng.randint(1, max_len)
        out = []
        while len(out) < n:
            x = rng.choice([1, -1]) * rng.randint(1, rank)
            if out and out[-1] == -x:
                continue
            out.append(x)
        gens.append(tuple(out))
    return gens


class TestBuildCore:
    def test_double_loop(self):
        g = core("aa")
        assert g.num_vertices == 2
        assert g.betti == 1

    def test_rose(self):
        g = core("a", "b")
        assert g.num_vertices == 1
        assert g.betti == 2

    def test_conjugated_loop(self):
        g = core("abA")
        assert g.betti == 1
        for w in brute_elements([W("abA")], 3):
            assert contains(g, w)

    def test_order_independence(self):
        rng = random.Random(21)
        for _ in range(50):
            gens = random_subgroup(rng)
            g1 = build_core(AB, gens)
            shuffled = gens[:]
            rng.shuffle(shuffled)
            g2 = build_core(AB, shuffled)
            assert g1.serialize() == g2.serialize()

    def test_trivial_subgroup(self):
        g = build_core(AB, [()])
        assert g.num_vertices == 1
        assert g.betti == 0

    def test_matches_rescan_fold_oracle(self, monkeypatch):
        rng = random.Random(28)
        cases = []
        for i in range(2000):
            alphabet = (AB, ABC)[i % 2]
            gens = random_subgroup(rng, 5, 10, alphabet.size)
            cases.append((alphabet, gens, build_core(alphabet, gens).serialize()))
        trimmed = []
        monkeypatch.setattr(stallings, "_fold", lambda *a: rescan_fold(*a, trimmed))
        for alphabet, gens, text in cases:
            assert build_core(alphabet, gens).serialize() == text
        assert trimmed == []  # hair trimming never had anything to remove

    def test_many_short_generators(self):
        rng = random.Random(29)
        gens = [random_subgroup(rng, 1, 8, 3)[0] for _ in range(1500)]
        t0 = time.perf_counter()
        g = build_core(ABC, gens)
        elapsed = time.perf_counter() - t0
        assert all(contains(g, w) for w in gens)
        assert elapsed < 1.0

    def test_nested_conjugates(self):
        # a^k b a^-k for k < 300: 90,000 letters folding onto one a-path,
        # quadratic for a fold that rescans until a pass makes no merge
        gens = [(1,) * k + (2,) + (-1,) * k for k in range(1, 300)]
        t0 = time.perf_counter()
        g = build_core(AB, gens)
        elapsed = time.perf_counter() - t0
        assert (g.num_vertices, g.betti) == (300, 299)
        assert elapsed < 2.0


def rescan_fold(num_vertices, edges, basepoint, trimmed):
    """The fold that restarts its edge scan after every merge, followed by
    the hair trimming, as build_core ran them before the one-pass fold: the
    oracle for it.  Appends every trimmed vertex to `trimmed`."""
    parent = list(range(num_vertices))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    changed = True
    while changed:
        changed = False
        out, inn = {}, {}
        for (u, g, v) in edges:
            u, v = find(u), find(v)
            if (u, g) in out and out[(u, g)] != v:
                union(out[(u, g)], v)
                changed = True
                break
            out[(u, g)] = v
            if (v, g) in inn and inn[(v, g)] != u:
                union(inn[(v, g)], u)
                changed = True
                break
            inn[(v, g)] = u
    edges = sorted({(find(u), g, find(v)) for (u, g, v) in edges})
    base = find(basepoint)
    while True:
        deg = {}
        for (u, g, v) in edges:
            deg[u] = deg.get(u, 0) + 1
            deg[v] = deg.get(v, 0) + 1
        hair = [x for x, d in deg.items() if d == 1 and x != base]
        if not hair:
            return edges, base
        trimmed.extend(hair)
        edges = [e for e in edges if e[0] not in hair and e[2] not in hair]


class TestMembership:
    def test_examples(self):
        g = core("aa")
        assert contains(g, W("aaaa"))
        assert not contains(g, W("a"))
        whole = core("a", "b")
        assert contains(whole, W("abAB"))

    def test_agrees_with_brute_force(self):
        rng = random.Random(22)
        for _ in range(40):
            gens = random_subgroup(rng)
            g = build_core(AB, gens)
            elements = brute_elements(gens, 4)
            for w in itertools.chain(elements, (AB.parse("ab"), AB.parse("ba"))):
                if w in elements:
                    assert contains(g, w)

    def test_express_roundtrip(self):
        rng = random.Random(23)
        for _ in range(40):
            gens = random_subgroup(rng)
            g = build_core(AB, gens)
            basis = free_basis(g)
            for w in brute_elements(gens, 3):
                d = stallings.express(g, w)
                assert d is not None
                rebuilt = words.mul(
                    *(basis[i] if s > 0 else words.inverse(basis[i]) for i, s in d)
                )
                assert rebuilt == w


def _shortest_return(g, vertex):
    """Shortest edge-path word from a vertex back to the basepoint."""
    from collections import deque

    prev = {vertex: None}
    queue = deque([vertex])
    while queue:
        x = queue.popleft()
        if x == 0:
            path = []
            while prev[x] is not None:
                x, letter = prev[x]
                path.append(letter)
            return tuple(reversed(path))
        for gidx in range(1, g.alphabet.size + 1):
            for letter in (gidx, -gidx):
                nbr = g.step(x, letter)
                if nbr is not None and nbr not in prev:
                    prev[nbr] = (x, letter)
                    queue.append(nbr)
    raise AssertionError("core graph is connected; basepoint unreachable")


class TestQuasiconvexity:
    def test_examples(self):
        assert stallings.quasiconvexity_constant(core("a")) == 0
        assert stallings.quasiconvexity_constant(core("ab")) == 1
        assert stallings.quasiconvexity_constant(core("a", "b")) == 0

    def test_prefix_soundness(self):
        # every prefix of a reduced basepoint loop can be completed to a
        # subgroup element by at most eps extra letters
        rng = random.Random(24)
        for _ in range(20):
            gens = random_subgroup(rng)
            g = build_core(AB, gens)
            eps = stallings.quasiconvexity_constant(g)
            for w in list(brute_elements(gens, 3))[:50]:
                for k in range(len(w) + 1):
                    prefix = w[:k]
                    at = g.trace(prefix)
                    assert at is not None  # loops stay inside the core
                    back = _shortest_return(g, at)
                    assert len(back) <= eps
                    u = words.mul(prefix, back)
                    assert contains(g, u)
                    assert len(words.mul(words.inverse(prefix), u)) <= eps


def components_oracle(g1, g2):
    """The components of the pullback with a cycle, found by a BFS from every
    unvisited vertex pair in sorted order."""
    size = g1.alphabet.size
    step = stallings._pair_step(g1, g2)
    seen = set()
    out = []
    for x in itertools.product(range(g1.num_vertices), range(g2.num_vertices)):
        if x in seen:
            continue
        vertices = tuple(sorted(stallings._bfs(step, x, size)))
        seen.update(vertices)
        edges = [(y, g, step(y, g)) for y in vertices for g in range(1, size + 1)]
        edges = tuple(e for e in edges if e[2] is not None)
        if len(edges) >= len(vertices):
            out.append(FiberComponent(vertices, edges, contains_basepoint=x == (0, 0)))
    return out


class TestFiberProduct:
    def test_disjoint_cyclic(self):
        assert fiber_product(core("a"), core("b")) == []

    def test_self_diagonal(self):
        comps = fiber_product(core("a"), core("a"))
        diag = [c for c in comps if c.contains_basepoint]
        assert len(diag) == 1 and diag[0].betti == 1

    def test_nested_cyclic(self):
        comps = fiber_product(core("aa"), core("a"))
        assert any(c.betti >= 1 for c in comps)

    def test_only_components_with_edges(self):
        # in <ab> x <ba> the pairs (0, 0) and (1, 1) carry no edge: they are
        # one-vertex trees, and only the component with edges is returned
        comps = fiber_product(core("ab"), core("ba"))
        assert [c.vertices for c in comps] == [((0, 1), (1, 0))]
        assert comps[0].betti == 1 and not comps[0].contains_basepoint

    def test_tree_beside_cycle(self):
        # the basepoint pair spans a one-edge tree ((0, 0), (1, 1)); only the
        # cyclic component beside it is returned
        comps = fiber_product(core("ab"), core("aabA"))
        assert [c.vertices for c in comps] == [((0, 1), (1, 2))]
        assert comps[0].betti == 1 and not comps[0].contains_basepoint

    def test_matches_components_oracle(self):
        rng = random.Random(30)
        for i in range(200):
            alphabet = (AB, ABC)[i % 2]
            gU = build_core(alphabet, random_subgroup(rng, 3, 6, alphabet.size))
            gV = build_core(alphabet, random_subgroup(rng, 3, 6, alphabet.size))
            for g1, g2 in ((gU, gV), (gU, gU)):
                assert fiber_product(g1, g2) == components_oracle(g1, g2)


class TestConjugateSeparated:
    def test_examples(self):
        assert stallings.is_conjugate_separated(core("ab")).holds
        assert stallings.is_conjugate_separated(core("a")).holds
        res = stallings.is_conjugate_separated(core("aa"))
        assert not res.holds

    def test_primitive_vs_power_exhaustive(self):
        for w in words.reduced_words(AB, 4):
            if not w or (len(w) > 1 and w[0] == -w[-1]):
                continue
            res = stallings.is_conjugate_separated(build_core(AB, [w]))
            assert res.holds == words.is_primitive(w)

    def test_witness_verifies(self):
        rng = random.Random(25)
        checked = 0
        for _ in range(60):
            gens = random_subgroup(rng)
            g = build_core(AB, gens)
            res = stallings.is_conjugate_separated(g)
            if res.holds:
                continue
            x, u = res.witness, res.common_element
            assert not contains(g, x)
            assert u and contains(g, u)
            assert contains(g, words.conjugate(u, x))
            checked += 1
        assert checked > 0

    def test_brute_force_agreement(self):
        rng = random.Random(26)
        small = [w for w in words.reduced_words(AB, 4) if w]
        for _ in range(30):
            gens = random_subgroup(rng)
            g = build_core(AB, gens)
            res = stallings.is_conjugate_separated(g)
            if res.holds:
                # no x of length <= 4 outside U conjugates a nontrivial u into U
                for x in small:
                    if contains(g, x):
                        continue
                    for u in brute_elements(gens, 2):
                        if u and contains(g, words.conjugate(u, x)):
                            raise AssertionError(
                                f"false separation verdict for {gens}: x={x} u={u}"
                            )


class TestConjugateIntersections:
    def test_examples(self):
        assert stallings.conjugate_intersections_finite(core("a"), core("b")).holds
        res = stallings.conjugate_intersections_finite(core("aa"), core("a"))
        assert not res.holds
        res2 = stallings.conjugate_intersections_finite(core("ab"), core("ba"))
        assert not res2.holds

    def test_witness_verifies(self):
        gU, gV = core("ab"), core("ba")
        res = stallings.conjugate_intersections_finite(gU, gV)
        g, u = res.witness, res.common_element
        assert u and contains(gU, u)
        # witness convention: g u g^-1 lies in V
        assert contains(gV, words.mul(g, u, words.inverse(g)))


# sha256 of the lines below, fixed when the BFS was shared across core graphs
# and fiber products: vertex numbering, bases, qc-constants and witnesses are
# part of the CLI output and must not change
STALLINGS_DIGEST = "340a09d422eb5199917b387d9faaa12fd91b784e68a77b60187c58241411993b"


def test_byte_identity_digest():
    digest = hashlib.sha256()
    for alphabet in (AB, ABC):
        rng = random.Random(27)
        for _ in range(150):
            gU = build_core(alphabet, random_subgroup(rng, 3, 6, alphabet.size))
            gV = build_core(alphabet, random_subgroup(rng, 3, 6, alphabet.size))
            sep = stallings.is_conjugate_separated(gU)
            inter = stallings.conjugate_intersections_finite(gU, gV)
            line = (
                gU.serialize(),
                free_basis(gU),
                stallings.quasiconvexity_constant(gU),
                (sep.holds, sep.witness, sep.common_element),
                (inter.holds, inter.witness, inter.common_element),
            )
            digest.update(repr(line).encode() + b"\n")
    assert digest.hexdigest() == STALLINGS_DIGEST
