"""Hyperbolicity verdicts for HNN-extensions and amalgams over free groups,
with machine-checked witnesses on negative verdicts."""

import random

import pytest

from freeq import constructions, homs, stallings, words
from freeq.constructions import (
    AmalgamData,
    HNNData,
    IsoError,
    OUTCOME_HYPERBOLIC,
    OUTCOME_INCONCLUSIVE,
    OUTCOME_NOT_HYPERBOLIC,
    check_amalgam,
    check_separated_hnn,
    verify_iso,
)
from freeq.words import Alphabet, Presentation

AB = Presentation(Alphabet(("a", "b")), ())
X = Presentation(Alphabet(("x",)), ())
Y = Presentation(Alphabet(("y",)), ())


def hnn(base, us, vs):
    a = base.alphabet
    return HNNData(base, tuple(a.parse(u) for u in us), tuple(a.parse(v) for v in vs))


def amalgam(left, right, us, vs):
    return AmalgamData(
        left,
        right,
        tuple(left.alphabet.parse(u) for u in us),
        tuple(right.alphabet.parse(v) for v in vs),
    )


def stacked_verify_iso(data) -> bool:
    """verify_iso as it was before the one edge helper, kept as its
    differential oracle: cores of the u-words, the images and U, V compared
    one by one, with trivial U and V decided by ranks alone."""
    if isinstance(data, HNNData):
        dom = cod = data.base.alphabet
    else:
        dom, cod = data.left.alphabet, data.right.alphabet
    gU = stallings.build_core(dom, data.u_generators)
    gV = stallings.build_core(cod, data.v_generators)
    if gU.betti == 0 or gV.betti == 0:
        return gU.betti == gV.betti and all(bool(u) == bool(v) for u, v in data.iso)
    pairs = [(u, v) for u, v in data.iso if u or v]
    if any(not u or not v for u, v in pairs):
        return False
    psi = homs.SubgroupHom(dom, pairs, cod)
    if not psi.valid:
        return False
    if psi.graph.serialize() != gU.serialize():
        return False
    g_img = stallings.build_core(cod, [v for _, v in data.iso])
    if g_img.serialize() != gV.serialize():
        return False
    return gU.betti == gV.betti


def random_edge_data(rng):
    """An HNNData or AmalgamData with 0-2 short random generators on each
    side, and the default iso, the generators paired in random order, or
    random pairs."""
    W = Presentation(Alphabet(("w",)), ())
    left, right = rng.choice([(AB, AB), (X, X), (X, Y), (AB, W), (AB, AB), (AB, X)])
    hnn_kind = left is right and rng.random() < 0.6

    def word(p, n):
        return words.free_reduce(
            rng.choice([1, -1]) * rng.randint(1, p.alphabet.size) for _ in range(rng.randint(0, n))
        )

    k = rng.randint(0, 2)
    us = tuple(word(left, 3) for _ in range(k))
    vs = tuple(word(right, 3) for _ in range(k))
    iso = ()
    if rng.random() < 0.4:
        iso = list(zip(us, vs)) if rng.random() < 0.5 else [(word(left, 2), word(right, 2)) for _ in range(k or 1)]
        rng.shuffle(iso)
        iso = tuple(iso)
    if hnn_kind:
        return HNNData(left, us, vs, iso)
    return AmalgamData(left, right, us, vs, iso)


class TestVerifyIso:
    def test_generator_to_generator(self):
        assert verify_iso(hnn(AB, ["aa"], ["bb"]))

    def test_to_square(self):
        assert verify_iso(hnn(AB, ["a"], ["bb"]))

    def test_agrees_with_stacked_oracle(self):
        # the two differ only on trivial U and V with a nontrivial iso pair,
        # which the stacked check accepted without looking at the pair
        rng = random.Random(41)
        accepted = trivial_edges = 0
        for _ in range(2400):
            data = random_edge_data(rng)
            dom, cod = (data.base, data.base) if isinstance(data, HNNData) else (data.left, data.right)
            trivial = stallings.build_core(dom.alphabet, data.u_generators).betti == 0
            trivial &= stallings.build_core(cod.alphabet, data.v_generators).betti == 0
            new, old = verify_iso(data), stacked_verify_iso(data)
            if trivial and any(u or v for u, v in data.iso):
                assert not new, data
                trivial_edges += old
            else:
                assert new == old, data
            accepted += new
        assert accepted > 600 and trivial_edges > 10

    def test_rank_drop(self):
        a = AB.alphabet
        data = HNNData(
            AB,
            (a.parse("a"), a.parse("b")),
            (a.parse("a"), a.parse("a")),
        )
        assert not verify_iso(data)


class TestHNN:
    def test_counterexample_K(self):
        v = check_separated_hnn(hnn(AB, ["aa"], ["bb"]))
        assert v.outcome == OUTCOME_NOT_HYPERBOLIC
        assert v.cited == "Corollary 1"
        assert v.witness["verified"]

    def test_baumslag_solitar(self):
        v = check_separated_hnn(hnn(X, ["xx"], ["xxx"]))
        assert v.outcome == OUTCOME_NOT_HYPERBOLIC
        assert v.witness["kind"] == "baumslag-solitar-relation"

    def test_free_rank_two(self):
        v = check_separated_hnn(hnn(AB, ["a"], ["b"]))
        assert v.outcome == OUTCOME_HYPERBOLIC

    def test_iso_error(self):
        a = AB.alphabet
        bad = HNNData(AB, (a.parse("a"), a.parse("b")), (a.parse("a"), a.parse("a")))
        with pytest.raises(IsoError):
            check_separated_hnn(bad)

    def test_noncyclic_failure_is_inconclusive(self):
        # U = V = <a, bab^-1>: not conjugate separated, rank 2, no iff applies
        v = check_separated_hnn(hnn(AB, ["a", "baB"], ["a", "baB"]))
        assert v.outcome in (OUTCOME_INCONCLUSIVE, OUTCOME_HYPERBOLIC)
        if v.outcome == OUTCOME_INCONCLUSIVE:
            assert v.witness is None

    def test_witness_relation_checked(self):
        # the K witness commutes as claimed, re-verified independently
        data = hnn(AB, ["aa"], ["bb"])
        ctx = homs.edge_context(AB.alphabet, AB.alphabet, data.iso)
        a, b = AB.alphabet.parse("a"), AB.alphabet.parse("b")
        x = ([("t", 1)] + list(b * 2) + [("t", -1)] + list(a * 2)) * 2
        assert homs.hnn_commute(ctx, x, list(a * 2))


def test_one_edge_per_check(monkeypatch):
    """Each check builds U's and V's cores and psi, psi^-1 once."""
    calls = {"cores": 0, "homs": 0}
    build, init = stallings.build_core, homs.SubgroupHom.__init__

    def counted_build(*args):
        calls["cores"] += 1
        return build(*args)

    def counted_init(self, *args):
        calls["homs"] += 1
        init(self, *args)

    for module in (stallings, homs, constructions):
        if getattr(module, "build_core", None) is build:
            monkeypatch.setattr(module, "build_core", counted_build)
    monkeypatch.setattr(homs.SubgroupHom, "__init__", counted_init)
    W = Presentation(Alphabet(("w",)), ())
    for check, data in [
        (check_separated_hnn, hnn(AB, ["aa"], ["bb"])),
        (check_separated_hnn, hnn(X, ["xx"], ["xxx"])),
        (check_amalgam, amalgam(X, Y, ["xx"], ["yyy"])),
        (check_amalgam, amalgam(AB, W, ["ab"], ["www"])),
    ]:
        calls.update(cores=0, homs=0)
        check(data)
        assert calls["cores"] <= 4 and calls["homs"] == 2, (data, calls)


class TestAmalgam:
    def test_torus_knot_groups(self):
        for n, m in ((2, 3), (2, 2), (3, 4)):
            v = check_amalgam(amalgam(X, Y, ["x" * n], ["y" * m]))
            assert v.outcome == OUTCOME_NOT_HYPERBOLIC
            assert v.cited == "Corollary 2"
            assert v.witness["verified"]

    def test_centralizer_extension_is_hyperbolic(self):
        w = Presentation(Alphabet(("w",)), ())
        v = check_amalgam(amalgam(AB, w, ["ab"], ["www"]))
        assert v.outcome == OUTCOME_HYPERBOLIC

    def test_free_product(self):
        v = check_amalgam(amalgam(X, Y, ["1"], ["1"]))
        assert v.outcome == OUTCOME_HYPERBOLIC
        assert v.cited == "Corollary 3"

    def test_symmetry(self):
        cases = [
            (X, Y, ["xx"], ["yyy"]),
            (AB, Presentation(Alphabet(("w",)), ()), ["ab"], ["ww"]),
        ]
        for left, right, us, vs in cases:
            v1 = check_amalgam(amalgam(left, right, us, vs))
            v2 = check_amalgam(amalgam(right, left, vs, us))
            assert v1.outcome == v2.outcome

    def test_redundant_generators_stable(self):
        rng = random.Random(31)
        w = Presentation(Alphabet(("w",)), ())
        base_case = amalgam(AB, w, ["ab"], ["ww"])
        baseline = check_amalgam(base_case).outcome
        for _ in range(20):
            k = rng.randint(1, 4)
            data = AmalgamData(
                AB,
                w,
                base_case.u_generators,
                base_case.v_generators + (words.power(w.alphabet.parse("ww"), k),),
                iso=base_case.iso,
            )
            assert check_amalgam(data).outcome == baseline


class TestPrimitiveExtensions:
    def test_all_primitive_v_hyperbolic(self):
        """E(F(a,b), v, m) is hyperbolic for every primitive v, |v| <= 3, m in 2..4."""
        a = AB.alphabet
        w = Presentation(Alphabet(("w",)), ())
        count = 0
        for v in words.reduced_words(a, 3):
            if not v or (len(v) > 1 and v[0] == -v[-1]):
                continue
            if not words.is_primitive(v):
                continue
            for m in (2, 3, 4):
                data = AmalgamData(AB, w, (v,), (w.alphabet.parse("w" * m),))
                verdict = check_amalgam(data)
                assert verdict.outcome == OUTCOME_HYPERBOLIC, (v, m)
                count += 1
        assert count > 0


class TestJson:
    def test_roundtrip_hnn(self):
        data = hnn(AB, ["aa"], ["bb"])
        v = check_separated_hnn(data)
        doc = constructions.verdict_to_json(v)
        assert doc["outcome"] == OUTCOME_NOT_HYPERBOLIC
        assert doc["witness"]["verified"]

    def test_roundtrip_amalgam(self):
        data = AmalgamData(X, Y, (X.alphabet.parse("xx"),), (Y.alphabet.parse("yyy"),))
        v = check_amalgam(data)
        assert v.outcome == OUTCOME_NOT_HYPERBOLIC
