"""Hyperbolicity verdicts for HNN-extensions and amalgams over free groups,
with machine-checked witnesses on negative verdicts."""

import random

import pytest

from freeq import constructions, homs, words
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


class TestVerifyIso:
    def test_generator_to_generator(self):
        assert verify_iso(hnn(AB, ["aa"], ["bb"]))

    def test_to_square(self):
        assert verify_iso(hnn(AB, ["a"], ["bb"]))

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
        ctx = homs.hnn_context(AB.alphabet, data.iso)
        x = homs.hnn_parse(AB.alphabet, "tbbTaatbbTaa")
        y = homs.hnn_parse(AB.alphabet, "aa")
        assert homs.hnn_commute(ctx, x, y)


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
