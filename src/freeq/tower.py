"""Element arithmetic and normal forms in iterated centralizer extensions
E(H, v, m) = H *_{v = w^m} <w> over a free base group.

An element of the k-th extension is an alternating form
h1 v^{s1} h2 ... v^{sn} h{n+1} with lower-level h_i, fractional exponents
s_i in (0,1) with denominator dividing m, and interior h_i outside <v>.
Fixing left-coset representatives for the interior syllables (overflow
pushed rightward) makes the form canonical: equal elements have identical
forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Tuple, Union

from . import words
from .words import Alphabet, CertificateError, Word

Elem = Union[tuple, "Form"]  # level-0 elements are plain Words


class ResourceCapError(RuntimeError):
    """A tower operation exceeded a cap: the level cap or MAX_POWER_LENGTH."""


# Longest power pow_elem builds, counted as |n| * elem_len(e): a larger one
# raises ResourceCapError instead of multiplying without limit.
MAX_POWER_LENGTH = 10**6


@dataclass(frozen=True, slots=True)
class Form:
    """Alternating semicanonical form at a given extension level."""

    level: int
    hs: tuple  # n+1 elements of the level below
    ss: tuple  # n fractional exponents, each in (0,1)
    _hash: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if len(self.hs) != len(self.ss) + 1:
            raise ValueError("alternating form needs one more h than syllables")
        for s in self.ss:
            if not isinstance(s, Fraction) or not (0 < s < 1):
                raise ValueError(f"syllable exponent must be a Fraction in (0,1): {s}")
        object.__setattr__(self, "_hash", hash((self.level, self.hs, self.ss)))

    def __hash__(self):  # cached: forms nest deeply and live in dict keys
        return self._hash

    @property
    def syllable_count(self) -> int:
        return len(self.ss)


@dataclass(frozen=True, slots=True)
class Step:
    """One centralizer extension: adjoin an m-th root (named `name`) of v."""

    v: Elem  # at the level below this step
    m: int
    name: str


def level_of(e: Elem) -> int:
    return e.level if isinstance(e, Form) else 0


class Tower:
    """Base free group plus an ordered chain of centralizer-extension steps.

    Immutable: extend_centralizer returns a new tower sharing the prefix.
    Caches are shared across extensions.  An entry of `_caches["ops"]` is keyed
    `(kind, prefix id, operands...)`: the prefix id is an int standing for the
    steps up to the operands' level (0 for none), interned in
    `_caches["prefix"]` by (parent id, step), so towers built separately over
    one caches dict give equal step chains equal ids and share entries.
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

    @property
    def max_m(self) -> int:
        return max((s.m for s in self.steps), default=1)

    def step_at(self, lvl: int) -> Step:
        """The step that creates level lvl (1-based)."""
        return self.steps[lvl - 1]

    def _cache(self, name: str) -> dict:
        return self._caches.setdefault(name, {})

    def extend_centralizer(
        self, v: Elem, m: int, name: Optional[str] = None, validate: bool = True
    ) -> "Tower":
        """Adjoin an m-th root of v (an element at the current top level).

        `validate=False` skips the primitivity/maximality check for callers
        that have already vetted v (bulk tower construction).
        """
        if m < 1:
            raise ValueError("root exponent m must be >= 1")
        if level_of(v) != self.level:
            raise ValueError("v must be an element at the tower's top level")
        v = canonical_form(self, v)
        if is_trivial(v):
            raise ValueError("cannot extend the centralizer of the identity")
        if validate:
            _check_extendable(self, v)
        if name is None:
            name = f"w{len(self.steps) + len(self.aliases) + 1}"
        if m == 1:
            return Tower(self.base, self.steps, self.aliases + ((name, v),), self._caches)
        step = Step(v=v, m=m, name=name)
        return Tower(self.base, self.steps + (step,), self.aliases, self._caches)

    def root(self, lvl: int) -> "Form":
        """The adjoined root of the step creating level lvl, as a level-lvl element."""
        step = self.step_at(lvl)
        idv = identity(self, lvl - 1)
        return Form(lvl, (idv, idv), (Fraction(1, step.m),))


# -- basic constructors ------------------------------------------------------


def identity(t: Tower, lvl: int) -> Elem:
    e: Elem = ()
    for i in range(lvl):
        e = Form(i + 1, (e,), ())
    return e


def wrap(e: Elem) -> Form:
    return Form(level_of(e) + 1, (e,), ())


def lift(t: Tower, e: Elem, lvl: int) -> Elem:
    while level_of(e) < lvl:
        e = wrap(e)
    if level_of(e) != lvl:
        raise ValueError("cannot lower an element's level")
    return e


def from_word(t: Tower, w: Word, lvl: Optional[int] = None) -> Elem:
    return lift(t, words.free_reduce(w), t.level if lvl is None else lvl)


def is_trivial(e: Elem) -> bool:
    if isinstance(e, Form):
        return not e.ss and is_trivial(e.hs[0])
    return not e


# -- length, serialization, ordering ----------------------------------------


def elem_len(t: Tower, e: Elem) -> int:
    """Word length over the canonical generating set (base letters + roots)."""
    if not isinstance(e, Form):
        return len(e)
    total = sum(elem_len(t, h) for h in e.hs)
    for s in e.ss:
        step = t.step_at(e.level)
        total += abs(s.numerator * (step.m // s.denominator))
    return total


def serialize(t: Tower, e: Elem) -> str:
    """Q-word text for the form; root powers print as (v)^(k/m)."""
    if not isinstance(e, Form):
        return t.base.format(e)
    if is_trivial(e):
        return "1"
    key = ("ser", t._pid[e.level], e)
    cache = t._cache("ops")
    if key in cache:
        return cache[key]
    step = t.step_at(e.level) if e.ss else None
    parts = []
    for i, h in enumerate(e.hs):
        if not is_trivial(h):
            parts.append(serialize(t, h))
        if i < len(e.ss):
            s = e.ss[i]
            vtxt = serialize(t, step.v)
            parts.append(f"({vtxt})^({s.numerator}/{s.denominator})")
    out = serialize(t, e.hs[0]) if not parts else "".join(parts)
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


def _mul_level(t: Tower, lvl: int, a: Elem, b: Elem) -> Elem:
    if lvl == 0:
        return words.mul(a, b)
    key = ("mul", t._pid[lvl], a, b)
    cache = t._cache("ops")
    if key in cache:
        return cache[key]
    hs = a.hs[:-1] + (_mul_level(t, lvl - 1, a.hs[-1], b.hs[0]),) + b.hs[1:]
    ss = a.ss + b.ss
    out = _normalize(t, lvl, list(hs), list(ss))
    cache[key] = out
    return out


def mul(t: Tower, *elems: Elem) -> Elem:
    if not elems:
        raise ValueError("mul needs at least one element")
    out = elems[0]
    for e in elems[1:]:
        if level_of(e) != level_of(out):
            raise ValueError("cannot multiply elements at different levels")
        out = _mul_level(t, level_of(out), out, e)
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
    if n < 0:
        e, n = inv(t, e), -n
    if n > 1 and n * elem_len(t, e) > MAX_POWER_LENGTH:
        raise ResourceCapError(
            f"power {n} of a length-{elem_len(t, e)} element exceeds {MAX_POWER_LENGTH} letters"
        )
    out = identity(t, level_of(e))
    acc = e
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
    """v^k at level lvl-1, for the step creating level lvl."""
    step = t.step_at(lvl)
    key = ("vpow", t._pid[lvl], k)
    cache = t._cache("ops")
    if key not in cache:
        cache[key] = pow_elem(t, step.v, k)
    return cache[key]


def _normalize(t: Tower, lvl: int, hs: List[Elem], ss: List[Fraction]) -> Form:
    """Canonical form of h0 v^s1 h1 ... v^sn hn.  One left-to-right stack pass
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
    return Form(lvl, tuple(out_h), tuple(out_s))


def canonical_form(t: Tower, e: Elem) -> Elem:
    """Deterministic canonical form; idempotent, equal elements map to equal forms."""
    if not isinstance(e, Form):
        return words.free_reduce(e)
    key = ("canon", t._pid[e.level], e)
    cache = t._cache("ops")
    if key in cache:
        return cache[key]
    hs = [canonical_form(t, h) for h in e.hs]
    if e.ss:
        out = _normalize(t, e.level, hs, list(e.ss))
    else:
        out = Form(e.level, (hs[0],), ())
    cache[key] = out
    return out


def equal(t: Tower, a: Elem, b: Elem) -> bool:
    return canonical_form(t, a) == canonical_form(t, b)


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
    if e.ss:
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
    member of the coset picks the same one.  h and v are canonical at one
    level, v cyclically reduced.  Exact, by cases:

    - Words.  s is the longest suffix of h that is a suffix of v^N or of
      v^-N (not both, as v[-1] != v[0]^-1).  For q = s // |v|, |h v^-j| falls
      by |v| per step up to q and rises by |v| per step from q+1, so the
      least element is among j in {0, +-q, +-(q+1)}, sort_key breaking a tie.
    - v without syllables at its level.  v^-j changes only h's trailing
      factor, and sort_key compares the common prefix first: the trailing
      factor's rep one level down, put back in place.
    - v = w^+-1, the level's adjoined root (w^m = v_l).  With (c, k) the rep
      of h's trailing factor in its coset of <v_l>, h = (h with trailing
      factor c) w^(m k); if c is trivial, the last syllable s_n goes too, at
      j = m (k + s_n).  Every other member has an extra syllable or a longer
      trailing factor.
    - Any other v.  v^j has n|j| syllables and the cancellation against h
      stops after whole periods, so the key of h v^-j strictly falls, has a
      plateau of at most two points, then strictly rises: walk downhill from
      the exponent-vector centre (j = 0 for a zero vector) to the first rise.
    """
    key = ("rep", t._pid[level_of(h)], h, v)
    cache = t._cache("ops")
    if key in cache:
        return cache[key]
    if not isinstance(h, Form):
        u, sign = (words.inverse(v), -1) if h and h[-1] == -v[0] else (v, 1)
        s = 0
        while s < len(h) and h[-1 - s] == u[-1 - s % len(u)]:
            s += 1
        q = s // len(u)
        cands = [(words.mul(h, words.power(u, -j)), sign * j) for j in (0, q, q + 1)]
        out = min(cands, key=lambda c: sort_key(t, c[0]))
    elif not v.ss:
        c, k = coset_rep(t, h.hs[-1], v.hs[0])
        out = Form(h.level, h.hs[:-1] + (c,), h.ss), k
    elif v in (w := t.root(h.level), inv(t, w)):
        step = t.step_at(h.level)
        m = step.m if v == w else -step.m
        c, k = coset_rep(t, h.hs[-1], step.v)
        if is_trivial(c) and h.ss:
            out = Form(h.level, h.hs[:-1], h.ss[:-1]), int(m * (k + h.ss[-1]))
        else:
            out = Form(h.level, h.hs[:-1] + (c,), h.ss), m * k
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
    """(x, c) with e = x c x^-1 and c cyclically reduced in the amalgam sense."""
    lvl = level_of(e)
    if lvl == 0:
        cw = words.cyclic_reduce(e)
        return cw.conjugator, cw.core
    e = canonical_form(t, e)
    x = identity(t, lvl)
    step = t.step_at(lvl)
    v = step.v
    while True:
        if not e.ss:
            xl, cl = cyclic_decompose(t, e.hs[0])
            return mul(t, x, wrap(xl)), wrap(cl)
        h1 = e.hs[0]
        if not is_trivial(h1):
            x = mul(t, x, lift(t, h1, lvl))
            hs = [identity(t, lvl - 1)] + list(e.hs[1:-1]) + [mul(t, e.hs[-1], h1)]
            e = _normalize(t, lvl, hs, list(e.ss))
            continue
        hl = e.hs[-1]
        k = is_in_cyclic(t, hl, v)
        if k is None:
            return x, e
        if k != 0:
            if len(e.ss) == 1:
                # pure fractional power of v; the trailing v^k is canonical
                # exponent overflow, not a wrap pinch
                return x, e
            # trailing v^k is a wrap pinch: conjugate it into the first syllable
            x = mul(t, x, lift(t, inv(t, hl), lvl))
            idv = identity(t, lvl - 1)
            hs = [idv] + list(e.hs[1:-1]) + [idv]
            e = _normalize(t, lvl, hs, [e.ss[0] + k] + list(e.ss[1:]))
            continue
        if len(e.ss) >= 2:
            # trailing pure syllable: rotate it to the front and merge exponents
            s_last = e.ss[-1]
            idv = identity(t, lvl - 1)
            y = _normalize(t, lvl, [idv, idv], [-s_last])
            x = mul(t, x, y)
            hs = [idv] + list(e.hs[1:-1])
            ss = [e.ss[-1] + e.ss[0]] + list(e.ss[1:-1])
            e = _normalize(t, lvl, hs, ss)
            continue
        return x, e


def extract_root_elem(t: Tower, c: Elem) -> Tuple[Elem, int]:
    """Primitive root and maximal exponent of a cyclically reduced element."""
    lvl = level_of(c)
    if lvl == 0:
        if not c:
            raise ValueError("identity has no root")
        return words.extract_root(c)
    c = canonical_form(t, c)
    if not c.ss:
        root, k = extract_root_elem(t, c.hs[0])
        # the lower-level root may itself be a power of this step's adjoined
        # root: v = r^m, so a conjugate of v yields a conjugate of r
        step = t.step_at(lvl)
        for target, r in ((step.v, t.root(lvl)), (inv(t, step.v), inv(t, t.root(lvl)))):
            status, d = conjugate_in_tower(t, target, root)
            if status == CONJUGATE:
                rooted = conj(t, r, lift(t, d, lvl))
                return rooted, k * step.m
        return wrap(root), k
    n = c.syllable_count
    step = t.step_at(lvl)
    v = step.v
    if n == 1 and is_trivial(c.hs[0]):
        k = is_in_cyclic(t, c.hs[1], v)
        if k is not None:
            # pure power of the adjoined root: c = r^num
            s = c.ss[0]
            num = s.numerator * (step.m // s.denominator) + k * step.m
            r = t.root(lvl)
            if num < 0:
                r, num = inv(t, r), -num
            return r, num
    for d in range(n, 1, -1):
        if n % d:
            continue
        p = n // d
        # a period slice can miss the true root by a v-power at the seam
        # (canonical carries are fixed left to right), so search the shift
        window = t.max_m * (elem_len(t, c) + 2)
        for j in sorted(range(-window, window + 1), key=abs):
            hs = list(c.hs[:p]) + [mul(t, c.hs[p], pow_elem(t, v, j))]
            cand = _normalize(t, lvl, hs, list(c.ss[:p]))
            if cand.syllable_count != p:
                continue
            if pow_elem(t, cand, d) == c:
                root, k = extract_root_elem(t, cand)
                return root, k * d
    return c, 1


def _check_extendable(t: Tower, v: Elem) -> None:
    """v must be cyclically minimal, primitive, with <v> maximal cyclic."""
    x, c = cyclic_decompose(t, v)
    if not is_trivial(x):
        raise ValueError("extension element must be cyclically minimal")
    _, k = extract_root_elem(t, c)
    if k != 1:
        raise ValueError("extension element is a proper power, not primitive")
    # v must not be a proper power of a previously adjoined root (extending
    # by the root itself, exponent +-1, is the legal chain pattern)
    target = elem_len(t, v)
    for i in range(t.level, 0, -1):
        r = lift(t, t.root(i), t.level)
        cap = t.step_at(i).m * (target + 2)
        for kk in range(2, cap + 1):
            pos = pow_elem(t, r, kk)
            if elem_len(t, pos) > target + 2:
                break
            for cand in (pos, inv(t, pos)):
                status, _ = conjugate_in_tower(t, v, cand, k_bound=4)
                if status == CONJUGATE:
                    raise ValueError(
                        "centralizer of v is not maximal cyclic: v is conjugate "
                        f"to a proper power of root {t.step_at(i).name}"
                    )


CONJUGATE = "conjugate"
DISTINCT = "distinct"
UNKNOWN = "absent-within-bound"


def _units(t: Tower, e: Form) -> List[Elem]:
    """The alternating factors of a form, lifted to the form's level."""
    lvl = e.level
    out: List[Elem] = []
    for i, h in enumerate(e.hs):
        if not is_trivial(h):
            out.append(lift(t, h, lvl))
        if i < len(e.ss):
            out.append(
                Form(lvl, (identity(t, lvl - 1), identity(t, lvl - 1)), (e.ss[i],))
            )
    return out


def _twists(t: Tower, g: Form, k_bound: int):
    """Conjugators p * v^j of the cyclic rotations of g, twisted by powers of
    the step element v: for each prefix p of g's alternating factors
    (identity first), |j| <= k_bound by increasing |j|, -j before +j."""
    lvl = g.level
    prefixes = [identity(t, lvl)]
    for u in _units(t, g):
        prefixes.append(mul(t, prefixes[-1], u))
    v = t.step_at(lvl).v
    for p in prefixes:
        for j in sorted(range(-k_bound, k_bound + 1), key=abs):
            yield mul(t, p, lift(t, pow_elem(t, v, j), lvl))


def conjugate_in_tower(
    t: Tower, f1: Elem, f2: Elem, k_bound: Optional[int] = None
) -> Tuple[str, Optional[Elem]]:
    """Tri-state conjugacy: (status, conjugator d with d^-1 f1 d = f2).

    Different exponent vectors mean distinct: the vector is a conjugation
    invariant, so the comparison is the certificate.  Syllable-free forms
    recurse to the level below (free conjugacy at the base).  Forms with
    syllables are searched over cyclic rotations twisted by v^j,
    |j| <= k_bound; exhausting the bound yields "absent-within-bound"
    rather than a proof of non-conjugacy.
    """
    lvl = level_of(f1)
    if level_of(f2) != lvl:
        raise ValueError("forms must live at the same tower level")
    if exponent_vector(t, f1) != exponent_vector(t, f2):
        return DISTINCT, None
    x1, c1 = cyclic_decompose(t, f1)
    x2, c2 = cyclic_decompose(t, f2)
    if k_bound is None:
        k_bound = elem_len(t, c1) + elem_len(t, c2) + 4

    def finish(d: Elem) -> Tuple[str, Elem]:
        total = mul(t, x1, d, inv(t, x2))
        if not equal(t, conj(t, f1, total), f2):
            raise CertificateError("conjugator does not conjugate f1 to f2")
        return CONJUGATE, total

    if lvl == 0:
        d = words.conjugacy_witness(c1, c2)
        return finish(d) if d is not None else (DISTINCT, None)
    n1 = c1.syllable_count if isinstance(c1, Form) else 0
    n2 = c2.syllable_count if isinstance(c2, Form) else 0
    if n1 == 0 and n2 == 0:
        status, d = conjugate_in_tower(t, c1.hs[0], c2.hs[0], k_bound)
        return finish(wrap(d)) if status == CONJUGATE else (status, None)
    if n1 != n2:
        return DISTINCT, None
    rots = [tuple(c2.ss[i:] + c2.ss[:i]) for i in range(n2)]
    if tuple(c1.ss) not in rots:
        return DISTINCT, None
    for d in _twists(t, c1, k_bound):
        if equal(t, conj(t, c1, d), c2):
            return finish(d)
    return UNKNOWN, None


# -- name resolution for raw symbol sequences --------------------------------


def resolve_symbol(t: Tower, name: str) -> Elem:
    """Base letter, root name, or alias name -> element at the tower's top level."""
    low = name.lower()
    if len(name) == 1 and low in t.base.names:
        return lift(t, (t.base.letter(name),), t.level)
    for i, step in enumerate(t.steps):
        if step.name == name:
            return lift(t, t.root(i + 1), t.level)
    for alias, e in t.aliases:
        if alias == name:
            return lift(t, e, t.level)
    raise ValueError(f"unknown symbol {name!r}")


def reduce_to_semicanonical(t: Tower, raw) -> Elem:
    """Fold a sequence of (symbol name, integer exponent) into canonical form."""
    out = identity(t, t.level)
    for name, exp in raw:
        out = mul(t, out, pow_elem(t, resolve_symbol(t, name), exp))
    return canonical_form(t, out)


def class_rep(
    t: Tower, core: Elem, k_bound: Optional[int] = None
) -> Tuple[Elem, Elem, int]:
    """Deterministic representative of the conjugacy class of a cyclically
    reduced element, identifying inverse classes.

    Returns (rep, c, sign) with core = c * rep^sign * c^-1; rep is the
    sort_key-least candidate over cyclic rotations of core and of its
    inverse (twisted by bounded v-powers at syllable levels), so conjugate
    cores map to the same rep.
    """
    lvl = level_of(core)
    ckey = ("crep", t._pid[lvl], core, k_bound)
    cache = t._cache("ops")
    if ckey in cache:
        return cache[ckey]
    if lvl == 0:
        best = None
        for sign, g in ((1, core), (-1, words.inverse(core))):
            for i in range(max(1, len(g))):
                rot = g[i:] + g[:i]
                key = (sort_key(t, rot), sign)
                if best is None or key < best[0]:
                    best = (key, rot, g[:i], sign)
        _, rep, c, sign = best
        check = words.mul(c, rep if sign > 0 else words.inverse(rep), words.inverse(c))
        if check != core:
            raise CertificateError("class representative does not rebuild the core")
        cache[ckey] = (rep, c, sign)
        return rep, c, sign
    core = canonical_form(t, core)
    if not core.ss:
        rep, c, sign = class_rep(t, core.hs[0], k_bound)
        out = (lift(t, rep, lvl), lift(t, c, lvl), sign)
        cache[ckey] = out
        return out
    if k_bound is None:
        k_bound = elem_len(t, core) + 4
    best = None
    for sign, g in ((1, core), (-1, inv(t, core))):
        g = canonical_form(t, g)
        for d in _twists(t, g, k_bound):
            cand = conj(t, g, d)
            key = (sort_key(t, cand), sign)
            if best is None or key < best[0]:
                best = (key, cand, d, sign)
    _, rep, d, sign = best
    # cand = d^-1 g d with g = core^sign, hence core = (d rep d^-1)^sign
    c = d
    check = mul(t, c, rep if sign > 0 else inv(t, rep), inv(t, c))
    if not equal(t, check, core):
        raise CertificateError("class representative does not rebuild the core")
    cache[ckey] = (rep, c, sign)
    return rep, c, sign
