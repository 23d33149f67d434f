"""Hyperbolicity decisions for HNN-extensions and amalgams over free base groups.

Sufficient conditions are checked exactly on Stallings graphs; for cyclic
associated subgroups the criterion is an iff and negative verdicts carry a
machine-checked witness (a commuting pair or a Baumslag-Solitar relation).
"""

from __future__ import annotations

from typing import Optional, Tuple

from . import homs, stallings
from .stallings import CoreGraph, build_core, express, free_basis
from .words import Alphabet, CertificateError, Frozen, Presentation, Word, inverse, mul, power

OUTCOME_HYPERBOLIC = "hyperbolic"
OUTCOME_NOT_HYPERBOLIC = "not-hyperbolic"
OUTCOME_INCONCLUSIVE = "hypotheses-fail-inconclusive"


class IsoError(ValueError):
    """The given basis mapping does not extend to a subgroup isomorphism."""


def _free_base(p: Presentation) -> Alphabet:
    if p.relators:
        raise ValueError("base group must be free (no relators)")
    return p.alphabet


def _default_iso(u_gens, v_gens):
    if len(u_gens) != len(v_gens):
        raise ValueError("generator lists differ in length and no iso mapping given")
    return tuple(zip(u_gens, v_gens))


class HNNData(Frozen):
    __slots__ = ("base", "u_generators", "v_generators", "iso")

    def __init__(self, base: Presentation, u_generators: tuple, v_generators: tuple, iso: tuple = ()):
        # iso: pairs (u-basis word, image word); defaults to zip
        _free_base(base)
        if not iso:
            iso = _default_iso(u_generators, v_generators)
        super().__init__(base, u_generators, v_generators, iso)


class AmalgamData(Frozen):
    __slots__ = ("left", "right", "u_generators", "v_generators", "iso")

    def __init__(
        self, left: Presentation, right: Presentation, u_generators: tuple, v_generators: tuple,
        iso: tuple = (),
    ):
        # u_generators: words in the left factor, v_generators: in the right one
        _free_base(left)
        _free_base(right)
        if not iso:
            iso = _default_iso(u_generators, v_generators)
        super().__init__(left, right, u_generators, v_generators, iso)


class Verdict(Frozen):
    __slots__ = ("outcome", "cited", "witness", "details")

    def __init__(
        self, outcome: str, cited: str, witness: Optional[dict] = None, details: Optional[dict] = None
    ):
        super().__init__(outcome, cited, witness, {} if details is None else details)


def _edge(data) -> Tuple[CoreGraph, CoreGraph, homs.EdgeContext]:
    """U's core, V's core and the edge psi: U -> V that the iso pairs give.

    Raises IsoError unless every pair is trivial on both sides or on
    neither, the nontrivial pairs are free bases of <u-words> and of
    <images> (so psi and its inverse are well defined), and those are U
    and V.
    """
    if isinstance(data, HNNData):
        dom = cod = _free_base(data.base)
        error = IsoError("associated subgroup mapping is not an isomorphism")
    else:
        dom, cod = _free_base(data.left), _free_base(data.right)
        error = IsoError("amalgamated subgroup mapping is not an isomorphism")
    if any(bool(u) != bool(v) for u, v in data.iso):
        raise error
    try:
        ctx = homs.edge_context(dom, cod, [(u, v) for u, v in data.iso if u])
    except ValueError:
        raise error from None
    gU, gV = build_core(dom, data.u_generators), build_core(cod, data.v_generators)
    if ctx.psi.graph.serialize() != gU.serialize() or ctx.psi_inv.graph.serialize() != gV.serialize():
        raise error
    return gU, gV, ctx


def verify_iso(data) -> bool:
    """True iff the basis mapping extends to an isomorphism U -> V."""
    try:
        _edge(data)
    except IsoError:
        return False
    return True


def _cyclic_exponent(graph: CoreGraph, w: Word) -> Optional[int]:
    """Exponent k with w = b^k over the single basis element of a cyclic core."""
    d = express(graph, w)
    if d is None:
        return None
    if any(idx != 0 for idx, _ in d):
        return None
    return sum(s for _, s in d)


def _hnn_witness_intersection(ctx: homs.EdgeContext, gV, inter) -> dict:
    """Witness from an infinite intersection U cap g^-1 V g (cyclic case).

    With x = t g the relation x^-1 h^beta x = h^alpha holds; alpha == beta
    gives a commuting pair, otherwise a Baumslag-Solitar relation.  Either
    pattern rules out hyperbolicity and is checked by Britton reduction.
    """
    g, h = inter.witness, inter.common_element
    alpha = _cyclic_exponent(gV, ctx.psi.apply(h))
    beta = _cyclic_exponent(gV, mul(g, h, inverse(g)))
    x = [("t", 1)] + list(g)
    lhs = homs.hnn_inverse(x) + list(power(h, beta)) + x + list(power(h, -alpha))
    if not homs.hnn_is_identity(ctx, lhs):
        raise CertificateError("witness relation failed Britton check")
    kind = "commuting-pair" if abs(alpha) == abs(beta) else "baumslag-solitar-relation"
    return {
        "kind": kind,
        "x": "t" + ctx.dom.format(g) if g else "t",
        "y": ctx.dom.format(h),
        "relation": f"x^-1 y^{beta} x = y^{alpha}",
        "verified": True,
    }


def _hnn_witness_pair(ctx: homs.EdgeContext, gU, csU, csV) -> dict:
    """Commuting pair ((t g2^2 t^-1 g1^2)^2, c) when neither side is conjugate
    separated, checked by Britton reduction."""
    g1, g2 = csU.witness, csV.witness
    c = free_basis(gU)[0]
    x = ([("t", 1)] + list(power(g2, 2)) + [("t", -1)] + list(power(g1, 2))) * 2
    if not homs.hnn_commute(ctx, x, list(c)):
        raise CertificateError("witness pair failed commutation check")
    return {
        "kind": "commuting-pair",
        "x": "(t" + ctx.dom.format(power(g2, 2)) + "T" + ctx.dom.format(power(g1, 2)) + ")^2",
        "y": ctx.dom.format(c),
        "verified": True,
    }


def check_separated_hnn(data: HNNData) -> Verdict:
    """Decide hyperbolicity of <G, t | U^t = V> for free G per the separation test."""
    gU, gV, ctx = _edge(data)
    csU = stallings.is_conjugate_separated(gU)
    csV = stallings.is_conjugate_separated(gV)
    inter = stallings.conjugate_intersections_finite(gU, gV)
    details = {
        "u_conjugate_separated": csU.holds,
        "v_conjugate_separated": csV.holds,
        "intersections_finite": inter.holds,
        "u_rank": gU.betti,
        "v_rank": gV.betti,
    }
    separated = (csU.holds or csV.holds) and inter.holds
    details["separated"] = separated
    if separated:
        cited = "Corollary 3" if gU.betti == 0 else "Corollary 5"
        return Verdict(OUTCOME_HYPERBOLIC, cited, details=details)
    cyclic = gU.betti <= 1 and gV.betti <= 1
    if not cyclic:
        return Verdict(OUTCOME_INCONCLUSIVE, "Theorem 1", details=details)
    if not inter.holds:
        witness = _hnn_witness_intersection(ctx, gV, inter)
    else:
        witness = _hnn_witness_pair(ctx, gU, csU, csV)
    return Verdict(OUTCOME_NOT_HYPERBOLIC, "Corollary 1", witness=witness, details=details)


def _amalgam_witness_pair(ctx: homs.EdgeContext, gU, csU, csV) -> dict:
    """Commuting pair ((g1 g2)^2, z) when neither side is conjugate separated,
    checked by reducing the commutator x^-1 z^-1 x z to the identity."""
    g1, g2 = csU.witness, csV.witness
    z = free_basis(gU)[0]
    x = [("L", g1), ("R", g2)] * 2
    x_inv = [("R", inverse(g2)), ("L", inverse(g1))] * 2
    if homs.amalgam_reduce(ctx, x_inv + [("L", inverse(z))] + x + [("L", z)]) != [("L", ())]:
        raise CertificateError("witness pair failed commutation check")
    return {
        "kind": "commuting-pair",
        "x": f"({ctx.dom.format(g1)}*{ctx.cod.format(g2)})^2",
        "y": ctx.dom.format(z),
        "verified": True,
    }


def check_amalgam(data: AmalgamData) -> Verdict:
    """Decide hyperbolicity of G1 *_{U=V} G2 for free factors."""
    gU, gV, ctx = _edge(data)
    csU = stallings.is_conjugate_separated(gU)
    csV = stallings.is_conjugate_separated(gV)
    details = {
        "u_conjugate_separated": csU.holds,
        "v_conjugate_separated": csV.holds,
        "u_rank": gU.betti,
        "v_rank": gV.betti,
    }
    if gU.betti == 0:
        return Verdict(OUTCOME_HYPERBOLIC, "Corollary 3", details=details)
    if csU.holds or csV.holds:
        details["separated_side"] = "left" if csU.holds else "right"
        return Verdict(OUTCOME_HYPERBOLIC, "Theorem 2", details=details)
    if gU.betti == 1 and gV.betti == 1:
        witness = _amalgam_witness_pair(ctx, gU, csU, csV)
        return Verdict(OUTCOME_NOT_HYPERBOLIC, "Corollary 2", witness=witness, details=details)
    return Verdict(OUTCOME_INCONCLUSIVE, "Theorem 2", details=details)


def verdict_to_json(v: Verdict) -> dict:
    out = {"outcome": v.outcome, "cited": v.cited, "details": v.details}
    if v.witness is not None:
        out["witness"] = v.witness
    return out
