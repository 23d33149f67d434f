"""Element arithmetic and normal forms in iterated centralizer extensions
E(H, v, m) = H *_{v = w^m} <w> over a free base group.

An element of the k-th extension is an alternating form
h1 v^{s1} h2 ... v^{sn} h{n+1} with lower-level h_i, fractional exponents
s_i in (0,1) with denominator dividing m, and interior h_i outside <v>.
Fixing left-coset representatives for the interior syllables (overflow
pushed rightward) makes the form canonical: equal elements have identical
forms.

Storage rule: every element lives at the level of its own syllables.  An
element of the base amalgam H (no syllable at level k) is stored as that
element of H, down to a plain Word at level 0; a Form always has at least
one syllable, and its h_i may live at any lower level.  Operations accept
operands of different levels and return results at their own level.

Contract: every element a tower op returns is canonical (only `_normalize`,
`Tower.root`, `pow_elem`, `coset_rep` and `_prefixes` build a `Form`), and
the public functions take canonical elements: results of tower ops,
`QSession.normalize` or `canonical_form`.  None re-normalizes its input.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterator, List, Optional, Tuple, Union

from . import words
from .words import Alphabet, CertificateError, Frozen, ResourceCapError

Elem = Union[tuple, "Form"]  # a plain Word, or a Form at the level of its syllables


# Longest power pow_elem builds, counted as |n| * elem_len(e): a larger one
# raises ResourceCapError instead of multiplying without limit.
MAX_POWER_LENGTH = 10**6

# Most extension steps a tower holds (tower_level(ab, 3) has 92).  A form
# nests only the lower forms it holds (mul, serialize and locate run on a
# chain of 600 square roots), but _twist's digit search recurses once per
# root of v's chain of roots, so class_rep fails with RecursionError on a
# chain of 200 roots: extend_centralizer raises ResourceCapError beyond this
# cap.
MAX_LEVEL = 160


class Form(Frozen):
    """Alternating semicanonical form with n >= 1 syllables at extension
    level `level`; an element without a syllable there is not a Form at that
    level but the lower element itself.

    `hs` holds n+1 elements, each of any level below `level`, and `ss` the
    n >= 1 fractional exponents, each in (0,1).
    """

    __slots__ = ("level", "hs", "ss", "_hash")

    def __init__(self, level: int, hs: tuple, ss: tuple):
        if not ss:
            raise ValueError("a form needs a syllable: store the lower element itself")
        if len(hs) != len(ss) + 1:
            raise ValueError("alternating form needs one more h than syllables")
        for s in ss:
            if not isinstance(s, Fraction) or not (0 < s < 1):
                raise ValueError(f"syllable exponent must be a Fraction in (0,1): {s}")
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "hs", hs)
        object.__setattr__(self, "ss", ss)
        object.__setattr__(self, "_hash", hash((level, hs, ss)))

    def _key(self) -> tuple:
        return (self.level, self.hs, self.ss)

    def __eq__(self, other):
        if other.__class__ is not Form:
            return NotImplemented
        return (
            self._hash == other._hash
            and self.level == other.level
            and self.hs == other.hs
            and self.ss == other.ss
        )

    def __hash__(self):  # cached: forms nest and live in dict keys
        return self._hash

    @property
    def syllable_count(self) -> int:
        return len(self.ss)


class Step(Frozen):
    """One centralizer extension: adjoin an m-th root (named `name`) of v,
    an element at its own level, below this step."""

    __slots__ = ("v", "m", "name")


def level_of(e: Elem) -> int:
    return e.level if isinstance(e, Form) else 0


def _factors(e: Elem, lvl: int) -> Tuple[tuple, tuple]:
    """(hs, ss) of e read at level lvl >= its own: a lower e is one factor."""
    return (e.hs, e.ss) if level_of(e) == lvl else ((e,), ())


def _form(lvl: int, hs: tuple, ss: tuple) -> Elem:
    """The form h1 v^s1 ... at level lvl, or h1 itself when no syllable is left."""
    return Form(lvl, hs, ss) if ss else hs[0]


class Tower:
    """Base free group plus an ordered chain of centralizer-extension steps.

    Immutable: extend_centralizer returns a new tower sharing the prefix.
    Caches are shared across extensions.  An entry of `_caches["ops"]` is keyed
    `(kind, prefix id, operands...)`: the prefix id is an int standing for the
    steps up to the operands' level (0 for none), interned in
    `_caches["prefix"]` by (parent id, step), so towers built separately over
    one caches dict give equal step chains equal ids and share entries.
    Each entry's value is a pure function of its key, so an entry may go at
    any time: `_twist` drops the `mul`, `ser` and `key` entries its search
    added under its own prefix id, and everything else stays.
    """

    def __init__(self, base: Alphabet, steps: Tuple[Step, ...] = (), aliases=(), caches=None):
        self.base = base
        self.steps = tuple(steps)
        self.aliases = tuple(aliases)  # (name, elem) pairs from m=1 collapses
        self._caches = caches if caches is not None else {}
        ids = self._cache("prefix")
        pid = [0]
        for step in self.steps:
            pid.append(ids.setdefault((pid[-1], step), len(ids) + 1))
        self._pid = tuple(pid)  # _pid[lvl]: id of steps[:lvl]
        self._order = _order_table(base)

    @property
    def level(self) -> int:
        return len(self.steps)

    def step_at(self, lvl: int) -> Step:
        """The step that creates level lvl (1-based)."""
        return self.steps[lvl - 1]

    def _cache(self, name: str) -> dict:
        return self._caches.setdefault(name, {})

    def extend_centralizer(
        self, v: Elem, m: int, name: Optional[str] = None, validate: bool = True
    ) -> "Tower":
        """Adjoin an m-th root of v (an element of the tower, at any level).

        `validate=False` skips the primitivity/maximality check for callers
        that have already vetted v (bulk tower construction).
        """
        if m < 1:
            raise ValueError("root exponent m must be >= 1")
        if m > 1 and self.level >= MAX_LEVEL:
            raise ResourceCapError(f"tower would exceed {MAX_LEVEL} levels")
        if level_of(v) > self.level:
            raise ValueError("v must be an element of the tower")
        v = canonical_form(self, v)
        if is_trivial(v):
            raise ValueError("cannot extend the centralizer of the identity")
        if validate:
            # v need only be as short as its cyclic core, as are the class
            # reps tower_level extends by (a(ab)^(1/2) is not cyclically
            # reduced); a conjugate of a power r^k, k >= 2, of an adjoined
            # root r has root r, so root_class reports it as a proper power
            c = cyclic_decompose(self, v)[1]
            if elem_len(self, c) != elem_len(self, v):
                raise ValueError("extension element must be cyclically minimal")
            if root_class(self, c)[3] != 1:
                raise ValueError("extension element is a proper power, not primitive")
        if name is None:
            name = f"w{len(self.steps) + len(self.aliases) + 1}"
        if m == 1:
            return Tower(self.base, self.steps, self.aliases + ((name, v),), self._caches)
        return Tower(self.base, self.steps + (Step(v, m, name),), self.aliases, self._caches)

    def root(self, lvl: int) -> "Form":
        """The adjoined root of the step creating level lvl, as a level-lvl element."""
        return Form(lvl, ((), ()), (Fraction(1, self.step_at(lvl).m),))


def is_trivial(e: Elem) -> bool:
    """A Form always has a syllable, so only the empty word is trivial."""
    return not isinstance(e, Form) and not e


# -- length, serialization, ordering ----------------------------------------


def elem_len(t: Tower, e: Elem) -> int:
    """Word length over the canonical generating set (base letters + roots)."""
    if not isinstance(e, Form):
        return len(e)
    m = t.step_at(e.level).m
    return sum(elem_len(t, h) for h in e.hs) + sum(s.numerator * (m // s.denominator) for s in e.ss)


def serialize(t: Tower, e: Elem) -> str:
    """Q-word text for the form; root powers print as (v)^(k/m)."""
    if not isinstance(e, Form):
        return t.base.format(e)
    key = ("ser", t._pid[e.level], e)
    cache = t._cache("ops")
    if key in cache:
        return cache[key]
    vtxt = serialize(t, t.step_at(e.level).v)
    parts = []
    for i, h in enumerate(e.hs):
        if not is_trivial(h):
            parts.append(serialize(t, h))
        if i < len(e.ss):
            s = e.ss[i]
            parts.append(f"({vtxt})^({s.numerator}/{s.denominator})")
    out = "".join(parts)
    cache[key] = out
    return out


def _order_table(base: Alphabet) -> dict:
    """str.translate table mapping each character serialize can emit to its
    rank: letters by lowercase, lowercase before uppercase, then the other
    characters by code point."""
    chars = set("()^/-0123456789")
    for name in base.names:
        chars.update(name + name.upper())
    keys = {c: (0, c.lower(), c.isupper()) if c.isalpha() else (1, c, False) for c in chars}
    ranks = {k: r for r, k in enumerate(sorted(set(keys.values())))}
    return {ord(c): ranks[k] for c, k in keys.items()}


def sort_key(t: Tower, e: Elem):
    """Shortlex over the canonical generating set (lowercase before uppercase):
    (length, serialized text with each character replaced by its rank)."""
    key = ("key", t._pid[level_of(e)], e)
    cache = t._cache("ops")
    if key in cache:
        return cache[key]
    out = (elem_len(t, e), serialize(t, e).translate(t._order))
    cache[key] = out
    return out


# -- multiplication and normal forms ----------------------------------------


def _mul_level(t: Tower, a: Elem, b: Elem) -> Elem:
    """a b, normalized at the higher of the two levels."""
    lvl = max(level_of(a), level_of(b))
    if lvl == 0:
        return words.mul(a, b)
    key = ("mul", t._pid[lvl], a, b)
    cache = t._cache("ops")
    if key in cache:
        return cache[key]
    (ha, sa), (hb, sb) = _factors(a, lvl), _factors(b, lvl)
    hs = [*ha[:-1], _mul_level(t, ha[-1], hb[0]), *hb[1:]]
    out = _normalize(t, lvl, hs, list(sa + sb))
    cache[key] = out
    return out


def mul(t: Tower, *elems: Elem) -> Elem:
    """Product of elements of any levels, at the level of its own syllables."""
    if not elems:
        raise ValueError("mul needs at least one element")
    out = elems[0]
    for e in elems[1:]:
        out = _mul_level(t, out, e)
    return out


def inv(t: Tower, e: Elem) -> Elem:
    if not isinstance(e, Form):
        return words.inverse(e)
    key = ("inv", t._pid[e.level], e)
    cache = t._cache("ops")
    if key in cache:
        return cache[key]
    hs = [inv(t, h) for h in reversed(e.hs)]
    ss = [-s for s in reversed(e.ss)]
    out = _normalize(t, e.level, hs, ss)
    cache[key] = out
    return out


def pow_elem(t: Tower, e: Elem, n: int) -> Elem:
    if isinstance(e, Form) and e.hs == ((), ()):
        # e = r^j for the root r of its level, r^m = v: e^n = v^q r^s with
        # (q, s) = divmod(jn, m), so the cap counts v^q, not |n| letters
        step = t.step_at(e.level)
        q, s = divmod(int(e.ss[0] * step.m) * n, step.m)
        vq = pow_elem(t, step.v, q)
        return mul(t, vq, Form(e.level, ((), ()), (Fraction(s, step.m),))) if s else vq
    if n < 0:
        e, n = inv(t, e), -n
    if n > 1 and n * elem_len(t, e) > MAX_POWER_LENGTH:
        raise ResourceCapError(
            f"power {n} of a length-{elem_len(t, e)} element exceeds {MAX_POWER_LENGTH} letters"
        )
    out, acc = (), e
    while n:
        if n & 1:
            out = mul(t, out, acc)
        n >>= 1
        if n:
            acc = mul(t, acc, acc)
    return out


def conj(t: Tower, g: Elem, x: Elem) -> Elem:
    """x^-1 g x."""
    return mul(t, inv(t, x), g, x)


def _vpow(t: Tower, lvl: int, k: int) -> Elem:
    """v^k, for the step creating level lvl (at v's level or below)."""
    step = t.step_at(lvl)
    key = ("vpow", t._pid[lvl], k)
    cache = t._cache("ops")
    if key not in cache:
        cache[key] = pow_elem(t, step.v, k)
    return cache[key]


def _normalize(t: Tower, lvl: int, hs: List[Elem], ss: List[Fraction]) -> Elem:
    """Canonical form of h0 v^s1 h1 ... v^sn hn, or the lower element itself
    when every syllable cancels.  One left-to-right stack pass
    brings exponents into (0,1), overflow pushed into the next factor; a
    whole exponent merges its neighbours, and a pinch (an interior factor in
    <v>, tested only when a fractional syllable follows it) merges the
    syllables around it.  Then each factor followed by a syllable becomes
    its left-coset representative, the v-power overflow carried rightward."""
    step = t.step_at(lvl)
    v = step.v
    out_h, out_s = [hs[0]], []
    for s, h in zip(ss, hs[1:]):
        if out_s and s.denominator != 1:
            k = is_in_cyclic(t, out_h[-1], v)
            if k is not None:
                out_h.pop()
                s += out_s.pop() + k
        k = math.floor(s)
        if k:
            h = mul(t, _vpow(t, lvl, k), h)
        if s == k:
            out_h[-1] = mul(t, out_h[-1], h)
        else:
            out_s.append(s - k)
            out_h.append(h)
    for s in out_s:
        if step.m % s.denominator:
            raise ValueError(f"exponent {s} incompatible with root index {step.m}")
    carry = 0
    for i in range(len(out_s)):
        h = mul(t, _vpow(t, lvl, carry), out_h[i]) if carry else out_h[i]
        out_h[i], carry = coset_rep(t, h, v)
    if carry:
        out_h[-1] = mul(t, _vpow(t, lvl, carry), out_h[-1])
    return _form(lvl, tuple(out_h), tuple(out_s))


def canonical_form(t: Tower, e: Elem) -> Elem:
    """Canonical form of input from outside tower ops: a hand-built form, an unreduced word."""
    if not isinstance(e, Form):
        return words.free_reduce(e)
    return _normalize(t, e.level, [canonical_form(t, h) for h in e.hs], list(e.ss))


def equal(t: Tower, a: Elem, b: Elem) -> bool:
    return a == b  # canonical elements are equal exactly when identical


# -- cyclic subgroup membership and coset representatives --------------------


def exponent_vector(t: Tower, e: Elem):
    """Exponent sums per base letter; roots contribute fractionally.  A
    conjugation-invariant homomorphism to Q^rank, so h = v^k forces
    vector(h) = k * vector(v)."""
    n = t.base.size
    if not isinstance(e, Form):
        out = [0] * n
        for x in e:
            out[abs(x) - 1] += 1 if x > 0 else -1
        return tuple(Fraction(c) for c in out)
    vecs = [exponent_vector(t, h) for h in e.hs]
    vecs.append(tuple(sum(e.ss) * c for c in exponent_vector(t, t.step_at(e.level).v)))
    return tuple(sum(col, Fraction(0)) for col in zip(*vecs))


def is_in_cyclic(t: Tower, h: Elem, v: Elem) -> Optional[int]:
    """The integer k with h = v^k, or None: h lies in <v> exactly when the
    least element of h<v> is the identity."""
    rep, k = coset_rep(t, h, v)
    return k if is_trivial(rep) else None


def coset_rep(t: Tower, h: Elem, v: Elem) -> Tuple[Elem, int]:
    """Designated representative of the left coset h<v>: h = rep * v^k, with
    rep the (elem_len, sort_key)-least element h v^-j of the coset, so every
    member of the coset picks the same one.  h and v are canonical, v
    cyclically reduced; l is the higher of their levels.  Exact, by cases:

    - Words.  s is the longest suffix of h that is a suffix of v^N or of
      v^-N (not both, as v[-1] != v[0]^-1).  For q = s // |v|, |h v^-j| falls
      by |v| per step up to q and rises by |v| per step from q+1, so the
      least element is among j in {0, +-q, +-(q+1)}, sort_key breaking a tie.
    - v below l.  v^-j changes only h's trailing factor, and sort_key
      compares the common prefix first: the trailing factor's rep, put back
      in place.
    - v = w^+-1, level l's adjoined root (w^m = v_l).  With (c, k) the rep
      of h's trailing factor in its coset of <v_l> (h itself if h is below
      l), h = (h with trailing factor c) w^(m k); if c is trivial, the last
      syllable s_n goes too, at j = m (k + s_n), leaving the lower factor if
      it was h's only syllable.  Every other member has an extra syllable or
      a longer trailing factor.
    - Any other v.  v^j has n|j| syllables and the cancellation against h
      stops after whole periods, so the key of h v^-j strictly falls, has a
      plateau of at most two points, then strictly rises: walk downhill from
      the exponent-vector centre (j = 0 for a zero vector) to the first rise.
    """
    lvl = max(level_of(h), level_of(v))
    key = ("rep", t._pid[lvl], h, v)
    cache = t._cache("ops")
    if key in cache:
        return cache[key]
    if lvl == 0:
        u, sign = (words.inverse(v), -1) if h and h[-1] == -v[0] else (v, 1)
        s = 0
        while s < len(h) and h[-1 - s] == u[-1 - s % len(u)]:
            s += 1
        q = s // len(u)
        cands = [(words.mul(h, words.power(u, -j)), sign * j) for j in (0, q, q + 1)]
        out = min(cands, key=lambda c: sort_key(t, c[0]))
    elif level_of(v) < lvl:
        c, k = coset_rep(t, h.hs[-1], v)
        out = Form(lvl, h.hs[:-1] + (c,), h.ss), k
    elif v in (w := t.root(lvl), inv(t, w)):
        step = t.step_at(lvl)
        m = step.m if v == w else -step.m
        hs, ss = _factors(h, lvl)
        c, k = coset_rep(t, hs[-1], step.v)
        if is_trivial(c) and ss:
            out = _form(lvl, hs[:-1], ss[:-1]), int(m * (k + ss[-1]))
        else:
            out = _form(lvl, hs[:-1] + (c,), ss), m * k
    else:
        vvec = exponent_vector(t, v)
        i = next((i for i, c in enumerate(vvec) if c), None)
        j = start = 0 if i is None else round(exponent_vector(t, h)[i] / vvec[i])
        rep = mul(t, h, pow_elem(t, v, -j))
        rkey = sort_key(t, rep)
        for d in (1, -1):
            vd = pow_elem(t, v, -d)
            while (ckey := sort_key(t, cand := mul(t, rep, vd))) < rkey:
                rep, rkey, j = cand, ckey, j + d
            if j != start:
                break
        out = rep, j
    cache[key] = out
    return out


# -- cyclic reduction, roots, conjugacy --------------------------------------


def cyclic_decompose(t: Tower, e: Elem) -> Tuple[Elem, Elem]:
    """(x, c) with e = x c x^-1 and c cyclically reduced in the amalgam sense;
    c drops to a lower level whenever its last syllable cancels."""
    x = ()
    while isinstance(e, Form):
        if not is_trivial(e.hs[0]):
            y = e.hs[0]
        elif len(e.ss) == 1 or (k := is_in_cyclic(t, e.hs[-1], t.step_at(e.level).v)) is None:
            # one syllable: a trailing v^k is exponent overflow, not a pinch
            return x, e
        elif k:
            # trailing v^k is a wrap pinch: conjugate it into the first syllable
            y = inv(t, e.hs[-1])
        else:
            # trailing pure syllable: rotate it to the front
            y = _normalize(t, e.level, [(), ()], [-e.ss[-1]])
        x, e = mul(t, x, y), conj(t, e, y)
    cw = words.cyclic_reduce(e)
    return mul(t, x, cw.conjugator), cw.core


def root_class(t: Tower, c: Elem) -> Tuple[Elem, Elem, int, int]:
    """(rep, d, s, k) with c = d rep^(s k) d^-1 for a cyclically reduced
    element c, rep the class_rep key of c's primitive root in t, s = +-1.

    The root at c's own level is keyed once.  Then each level above whose
    step element v = e rep^sv e^-1 (its key cached under "vcls") has that
    key takes over: v = r^m for the level's root r, itself a key, so the
    root becomes (d e^-1) r^(s sv) (d e^-1)^-1 and k becomes k m.  Keys are
    complete conjugacy invariants up to inversion (Collins' lemma with
    `_twist` exact), so comparing them decides what a conjugacy test against
    v^+-1 would.
    """
    root, k = _own_root(t, c)
    x, core = cyclic_decompose(t, root)
    rep, d, s = class_rep(t, core)
    d = mul(t, x, d)
    cache = t._cache("ops")
    for lvl in range(level_of(rep) + 1, t.level + 1):
        key = ("vcls", t._pid[lvl])
        if key not in cache:
            x, core = cyclic_decompose(t, t.step_at(lvl).v)
            vrep, e, sv = class_rep(t, core)
            cache[key] = vrep, mul(t, x, e), sv
        vrep, e, sv = cache[key]
        if vrep == rep:
            rep, d, s, k = t.root(lvl), mul(t, d, inv(t, e)), s * sv, k * t.step_at(lvl).m
    return rep, d, s, k


def extract_root_elem(t: Tower, c: Elem) -> Tuple[Elem, int]:
    """Primitive root in t and maximal exponent of a cyclically reduced
    element: root_class's d rep^s d^-1 and k."""
    rep, d, s, k = root_class(t, c)
    return mul(t, d, pow_elem(t, rep, s), inv(t, d)), k


def _own_root(t: Tower, c: Elem) -> Tuple[Elem, int]:
    """Primitive root and maximal exponent of a canonical cyclically reduced
    element among the elements of its own level."""
    if not isinstance(c, Form):
        if not c:
            raise ValueError("identity has no root")
        return words.extract_root(c)
    lvl, n = c.level, c.syllable_count
    step = t.step_at(lvl)
    if n == 1 and is_trivial(c.hs[0]):
        k = is_in_cyclic(t, c.hs[1], step.v)
        if k is not None:
            # pure power of the adjoined root: c = r^num
            s = c.ss[0]
            num = s.numerator * (step.m // s.denominator) + k * step.m
            r = t.root(lvl)
            if num < 0:
                r, num = inv(t, r), -num
            return r, num
    for d in range(n, 1, -1):
        # c = r^d, r of n/d syllables, exactly when c's syllables repeat with
        # period n/d and c rotated by its first period P is v^k c v^-k: r = P v^k
        if n % d or c.ss[n // d :] + c.ss[: n // d] != c.ss:
            continue
        p = _prefixes(t, c)[2 * (n // d)]
        (tc, jc), (tr, jr) = _twist(t, c), _twist(t, conj(t, c, p))
        cand = mul(t, p, _vpow(t, lvl, jr - jc))
        if tr == tc and pow_elem(t, cand, d) == c:
            root, k = _own_root(t, cand)
            return root, k * d
    return c, 1


CONJUGATE = "conjugate"
DISTINCT = "distinct"


def _prefixes(t: Tower, e: Form) -> List[Elem]:
    """Products of the first i alternating factors of a form, i from 0 (the
    identity) to one short of all: the conjugators of its cyclic rotations."""
    out: List[Elem] = [()]
    for i, h in enumerate(e.hs):
        if not is_trivial(h):
            out.append(mul(t, out[-1], h))
        if i < len(e.ss):
            out.append(mul(t, out[-1], Form(e.level, ((), ()), (e.ss[i],))))
    return out[:-1]


def _shape(e: Elem, lam: int, out: list) -> list:
    """Append e's factors below level lam to out, None for each syllable run."""
    if level_of(e) < lam:
        if not is_trivial(e):
            out.append(e)
        return out
    for i, h in enumerate(e.hs):
        _shape(h, lam, out)
        if i < len(e.ss) and out and out[-1] is not None:
            out.append(None)
    return out


def _twist(t: Tower, g: Form) -> Tuple[Form, int]:
    """The sort_key-least twist v^-j g v^j over all j in Z, with its j, for g
    canonical at level l with syllables and v the step element of level l.

    If g commutes with v (a pure root power) every twist is g: (g, 0).
    Otherwise distinct j give distinct twists (<v> is malnormal), and:
    - Digits.  Down v's chain of roots, v = r_1^+-1, r_d^m_d = r_(d+1)^+-1,
      ..., r_D^m_D = u^+-1, u not a root.  With P_d = m_1 ... m_d, the twists
      with j = j0 mod P_d are those of v^-j0 g v^j0 by z = v^P_d; their least
      is the least over r < m_(d+1) of those with j0 + P_d r.
    - Kept syllables.  A twist keeps g's level-l syllables.  A twist by
      z = r_(d+1)^+-1 keeps those at levels >= L_d (r_d's level) too while
      each level passed between holds a chain root or a step element from
      below L_d: coset_rep's root case makes every carry a power of z, which
      passes them as a whole-number shift, and other carries stay below L_d.
      lam_d is the lowest level so kept (l if none).
    - Shapes.  Normalizing never reads a kept exponent, so residues whose
      twists share a _shape at lam_d share it under every z^q, lengths a
      constant apart, texts differing in kept syllables only, which at a
      first difference meet only syllables of their level (lower roots print
      fewer parentheses): keys order the q alike, one least gives the other.
      Memoised by shape, a depth holds one residue per carry pattern.
    - Base.  At depth D, u^q passes root syllables as whole-number shifts and
      has n |q| syllables at u's level (n = u's syllable count, |u| for a
      word), each a letter or more; each end loses at most |g'| + n to a
      twist g' (elem_len |g'|), so the least is within P_D (3|g'| // (2n) + 3)
      of g' = v^-i g v^i, i from a walk by P_D while the key falls.
    The candidates' own-level mul, ser and key entries leave the cache after.
    """
    key = ("twist", t._pid[g.level], g)
    cache = t._cache("ops")
    if key in cache:
        return cache[key]
    lvl, mark = g.level, len(cache)

    def twisted(j: int) -> Form:
        return mul(t, _vpow(t, lvl, -j), g, _vpow(t, lvl, j))

    def rank(j: int):
        return sort_key(t, twisted(j))

    def least(j0: int, d: int, period: int) -> int:  # j = j0 mod period = P_d
        shape = (d, tuple(_shape(twisted(j0), lams[d], [])))
        if shape not in memo:
            if d < len(radices):
                js = range(j0, j0 + period * radices[d], period)
                j = min((least(s, d + 1, period * radices[d]) for s in js), key=rank)
            else:
                j = j0
                for s in (period, -period):
                    while rank(j + s) < rank(j):
                        j += s
                bound = period * (3 * elem_len(t, twisted(j)) // (2 * n) + 3)
                j = min(range(j - bound, j + bound + 1, period), key=rank)
            memo[shape] = j - j0
        return j0 + memo[shape]

    if twisted(1) == g:
        out = g, 0
    else:
        radices, lams, passed, memo = [], [lvl], [], {}
        above, u = lvl, t.step_at(lvl).v  # u is the step element of level `above`
        while isinstance(u, Form) and u in (w := t.root(u.level), inv(t, w)):
            passed += range(u.level + 1, above)
            low = all(level_of(t.step_at(k).v) < u.level for k in passed)
            radices.append(t.step_at(u.level).m)
            lams.append(u.level if low else lams[-1])
            above, u = u.level, t.step_at(u.level).v
        n = len(u.ss) if isinstance(u, Form) else len(u)
        j = least(0, 0, 1)
        out = twisted(j), j
    tail = itertools.islice(reversed(cache), len(cache) - mark)
    for k in [k for k in tail if k[0] in ("mul", "ser", "key") and k[1] == key[1]]:
        del cache[k]
    cache[key] = out
    return out


def _rotations(t: Tower, g: Form) -> Iterator[Tuple[Form, Elem]]:
    """(least twist, c) for each rotation p^-1 g p of a form, in prefix order,
    with c = p v^j and the twist c^-1 g c (`_twist`)."""
    for p in _prefixes(t, g):
        twist, j = _twist(t, conj(t, g, p))
        yield twist, mul(t, p, _vpow(t, g.level, j))


def conjugate_in_tower(t: Tower, f1: Elem, f2: Elem) -> Tuple[str, Optional[Elem]]:
    """Conjugacy decision: (status, conjugator d with d^-1 f1 d = f2).

    Different exponent vectors (a conjugation invariant) mean distinct, and
    so do cyclic cores at different levels.  Cores with syllables follow
    Collins' lemma (Lyndon-Schupp IV.2.8): each rotation of c1, in prefix
    order (`_rotations`), is compared with c2 through their least twists;
    the first match, c^-1 c1 c = v^-j2 c2 v^j2, gives d = c v^-j2, and no
    match proves the pair distinct.
    """
    if exponent_vector(t, f1) != exponent_vector(t, f2):
        return DISTINCT, None
    x1, c1 = cyclic_decompose(t, f1)
    x2, c2 = cyclic_decompose(t, f2)

    def finish(d: Elem) -> Tuple[str, Elem]:
        total = mul(t, x1, d, inv(t, x2))
        if not equal(t, conj(t, f1, total), f2):
            raise CertificateError("conjugator does not conjugate f1 to f2")
        return CONJUGATE, total

    lvl = level_of(c1)
    if level_of(c2) != lvl:
        return DISTINCT, None
    if lvl == 0:
        d = words.conjugacy_witness(c1, c2)
        return finish(d) if d is not None else (DISTINCT, None)
    if c1 == c2:  # the twists need not be computed
        return finish(())
    if c1.ss not in [c2.ss[i:] + c2.ss[:i] for i in range(len(c2.ss))]:
        return DISTINCT, None
    t2, j2 = _twist(t, c2)
    for tp, c in _rotations(t, c1):
        if tp == t2:
            return finish(mul(t, c, _vpow(t, lvl, -j2)))
    return DISTINCT, None


def class_rep(t: Tower, core: Elem) -> Tuple[Elem, Elem, int]:
    """Deterministic representative of the conjugacy class of a cyclically
    reduced element, identifying inverse classes.

    Returns (rep, c, sign) with core = c * rep^sign * c^-1: the sort_key-least
    rotation of core or its inverse (sign 1 first, a tie to the first), where
    for a form with syllables each rotation stands for its least twist
    (`_rotations`, Collins' lemma).  A word's n rotations print n characters
    each, so their sort_keys are the n-slices of its ranked text doubled: the
    least slice is read off without serializing.
    """
    ckey = ("crep", t._pid[level_of(core)], core)
    cache = t._cache("ops")
    if ckey in cache:
        return cache[ckey]
    lvl = level_of(core)
    cands = []
    for sign, g in ((1, core), (-1, inv(t, core))):
        if lvl == 0:
            n, text = len(g), serialize(t, g).translate(t._order) * 2
            i = min(range(n), key=lambda i: text[i : i + n], default=0)
            cands.append((g[i:] + g[:i], g[:i], sign))
            continue
        cands += [(rep, c, sign) for rep, c in _rotations(t, g)]
    out = rep, c, sign = min(cands, key=lambda cand: (sort_key(t, cand[0]), cand[2]))
    # rep = c^-1 g c with g = core^sign, hence core = (c rep c^-1)^sign
    if not equal(t, mul(t, c, pow_elem(t, rep, sign), inv(t, c)), core):
        raise CertificateError("class representative does not rebuild the core")
    cache[ckey] = out
    return out
