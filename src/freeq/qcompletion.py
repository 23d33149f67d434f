"""Q-words with exact rational exponents over a free group: parsing, depth,
normalization to canonical tower forms, word/conjugacy decisions, and the
effective enumeration of root-class tables and tower levels.

Fractional powers are interpreted in the Q-completion of the free group,
realized as a union of iterated centralizer extensions.  Per-query sessions
build a minimal chain of root extensions on demand; the eager table/tower
constructors reproduce the global level-by-level picture at desk scale.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import groupby
from typing import Dict, List, Optional, Tuple, Union

from . import tower as tw
from . import words
from .tower import Elem, Form, ResourceCapError, Tower
from .words import Alphabet, CertificateError, Frozen, WordSyntaxError


class QSyntaxError(WordSyntaxError):
    """Malformed Q-word text; the message carries the 0-based position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position


class QLetter(Frozen):
    __slots__ = ("letter",)  # signed generator index


class QProduct(Frozen):
    __slots__ = ("factors",)


class QPower(Frozen):
    __slots__ = ("base", "exponent")  # a QWord and a Fraction


QWord = Union[QLetter, QProduct, QPower]


# -- parsing -----------------------------------------------------------------

# Deepest parenthesis nesting accepted; deeper input is a syntax error rather
# than a RecursionError in the recursive-descent parser or in normalization.
MAX_NESTING = 100


class _Parser:
    def __init__(self, alphabet: Alphabet, text: str):
        self.alphabet = alphabet
        self.text = text
        self.pos = 0
        self.nesting = 0

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> Optional[str]:
        self._skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else None

    def expect(self, ch: str):
        got = self.peek()
        if got != ch:
            raise QSyntaxError(f"expected {ch!r}", self.pos)
        self.pos += 1

    def parse(self) -> QWord:
        word = self.product()
        if self.peek() is not None:
            raise QSyntaxError(f"unexpected {self.peek()!r}", self.pos)
        return word

    def product(self) -> QWord:
        factors = []
        while True:
            ch = self.peek()
            if ch is None or ch == ")":
                break
            factors.append(self.factor())
        if len(factors) == 1:
            return factors[0]
        return QProduct(tuple(factors))

    def factor(self) -> QWord:
        atom = self.atom()
        if self.peek() == "^":
            self.pos += 1
            return QPower(atom, self.rational())
        return atom

    def atom(self) -> QWord:
        ch = self.peek()
        if ch == "(":
            if self.nesting == MAX_NESTING:
                raise QSyntaxError(f"parentheses nested deeper than {MAX_NESTING}", self.pos)
            self.nesting += 1
            self.pos += 1
            inner = self.product()
            self.expect(")")
            self.nesting -= 1
            return inner
        if ch == "1":
            self.pos += 1
            return QProduct(())
        if ch is not None and ch.isalpha():
            pos = self.pos
            self.pos += 1
            try:
                return QLetter(self.alphabet.letter(ch))
            except WordSyntaxError:
                raise QSyntaxError(f"unknown generator {ch!r}", pos)
        raise QSyntaxError(
            "expected a letter, '1', or '('" if ch is not None else "unexpected end of input",
            self.pos,
        )

    def rational(self) -> Fraction:
        parenthesized = self.peek() == "("
        if parenthesized:
            self.pos += 1
        sign = 1
        if self.peek() == "-":
            self.pos += 1
            sign = -1
        num = self._digits()
        den = 1
        if self.peek() == "/":
            self.pos += 1
            pos = self.pos
            den = self._digits()
            if den == 0:
                raise QSyntaxError("zero denominator", pos)
        if parenthesized:
            self.expect(")")
        return Fraction(sign * num, den)

    def _digits(self) -> int:
        self._skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise QSyntaxError("expected digits", start)
        try:
            return int(self.text[start : self.pos])
        except ValueError:  # longer than sys.get_int_max_str_digits()
            raise QSyntaxError(f"{self.pos - start}-digit number is too long", start)


def parse_qword(alphabet: Alphabet, text: str) -> QWord:
    """Parse Q-word text: Factor+ with Factor = Atom ['^' Rational];
    uppercase letters are inverses, '1' is the identity."""
    return _Parser(alphabet, text).parse()


def depth(q: QWord) -> int:
    """Nesting count of fractional exponentiations; integer powers are free."""
    if isinstance(q, QLetter):
        return 1
    if isinstance(q, QProduct):
        return max((depth(f) for f in q.factors), default=1)
    extra = 0 if q.exponent.denominator == 1 else 1
    return depth(q.base) + extra


def locate(t: Tower, e: Elem) -> int:
    """The level n(g): max over the root classes used (their first available
    level) and the exponent denominators; 0 for plain base words."""
    if not isinstance(e, Form):
        return 0
    v = t.step_at(e.level).v
    cls = max(2, tw.elem_len(t, v), locate(t, v) + 1)
    return max(cls, *(locate(t, h) for h in e.hs), *(s.denominator for s in e.ss))


# -- lazy per-query sessions -------------------------------------------------


class QSession:
    """Normalization context: a tower grown on demand from the Q-words seen.

    tower.root_class names a base's primitive root by its class key and
    follows it up to the top root the tower holds for that class, so a
    class's chain of roots is read off the tower.  `roots` records each root
    this session adjoined (m = 2, 3, 4, ... up one class chain, so every
    small denominator eventually divides the chain's index) with its chain's
    key, the text of the class rep, and the chain's index at that root.

    max_level caps the root indices adjoined per class chain (denominator q
    needs indices up to q); exceeding it raises ResourceCapError.
    """

    def __init__(self, alphabet: Alphabet, max_level: int = 3):
        self.alphabet = alphabet
        self.tower = Tower(alphabet)
        self.max_level = max_level
        self.roots: Dict[Elem, Tuple[str, int]] = {}

    def canonical_text(self, e: Elem) -> str:
        return tw.serialize(self.tower, e)

    # -- normalization

    def normalize(self, q) -> Elem:
        """Canonical tower form of a Q-word (text or parsed), at its own level."""
        if isinstance(q, str):
            q = parse_qword(self.alphabet, q)
        return self._norm(q)

    def _norm(self, node: QWord) -> Elem:
        if isinstance(node, QLetter):
            return (node.letter,)
        if isinstance(node, QProduct):
            # normalizing may grow self.tower: read it only after; each run
            # of plain words is one free reduction, not one tw.mul per factor
            fs = [self._norm(f) for f in node.factors]
            parts: List[Elem] = []
            for form, run in groupby(fs, key=lambda e: isinstance(e, Form)):
                parts += run if form else [words.mul(*run)]
            return tw.mul(self.tower, (), *parts)
        return self._power(self._norm(node.base), node.exponent)

    def _power(self, base: Elem, r: Fraction) -> Elem:
        """base^r.  A fractional power reads base = x d rep^(s k) d^-1 x^-1
        off tower.root_class: base^r = (x d) rep^(s k r) (x d)^-1, as another
        d differs by a centralizer element of rep, which commutes with it."""
        if r.denominator == 1:
            return tw.pow_elem(self.tower, base, int(r))
        x, core = tw.cyclic_decompose(self.tower, base)
        if tw.is_trivial(core):
            return ()
        rep, d, s, k = tw.root_class(self.tower, core)
        root, e = self._adjoin(rep, s * k * r)
        if e.denominator != 1:
            raise CertificateError("class root index does not clear the denominator")
        d = tw.mul(self.tower, x, d)
        return tw.mul(self.tower, d, tw.pow_elem(self.tower, root, int(e)), tw.inv(self.tower, d))

    def _adjoin(self, rep: Elem, e: Fraction) -> Tuple[Elem, Fraction]:
        """(root, e m) with rep^e = root^(e m) whole: roots adjoined on top of
        rep, the top root of its class chain, with m one more than rep's own
        m over a root this session adjoined and m = 2 over any other rep."""
        key, index = self.roots.get(rep) or (tw.serialize(self.tower, rep), 1)
        while e.denominator != 1:
            m = self.tower.step_at(rep.level).m + 1 if rep in self.roots else 2
            if m > self.max_level:
                raise ResourceCapError(
                    f"denominator {(e / index).denominator} needs root index {m} "
                    f"> max_level {self.max_level} for class {key}"
                )
            self.tower = self.tower.extend_centralizer(rep, m, name=f"r{m}[{key}]", validate=False)
            rep, index, e = self.tower.root(self.tower.level), index * m, e * m
            self.roots[rep] = key, index
        return rep, e

    # -- decisions

    def q_equal(self, a, b) -> bool:
        return self.normalize(a) == self.normalize(b)

    def q_conjugate(self, a, b) -> Tuple[str, Optional[Elem]]:
        """Conjugacy decision with a certificate element on success."""
        e1 = self.normalize(a)
        e2 = self.normalize(b)
        return tw.conjugate_in_tower(self.tower, e1, e2)

    def locate(self, e: Elem) -> int:
        return locate(self.tower, e)


# -- eager tables and tower levels -------------------------------------------


class VnEntry(Frozen):
    __slots__ = ("text", "elem")  # elem: the class representative, at its own level


class VnTable(Frozen):
    __slots__ = ("n", "entries")

    @property
    def texts(self) -> tuple:
        return tuple(e.text for e in self.entries)


class TowerIndex(Frozen):
    __slots__ = ("n", "tower", "tables")  # tables: the VnTable of each level 1..n

    @property
    def generator_count(self) -> int:
        return self.tower.base.size + len(self.tower.steps)


# Most products of at most n letters enumerate_Vn forms: V_3 over ab forms
# 12^3 = 1,728, over abc 24^3 = 13,824; V_4 at level 3 over ab would form
# 188^4, about 1.2e9.
MAX_VN_PRODUCTS = 10**6


def enumerate_Vn(ti: TowerIndex, n: int) -> VnTable:
    """Conjugacy-class representatives of primitive elements of length <= n
    at the given tower level, inverse classes identified, shortlex order."""
    if n < 1:
        raise ValueError("table level must be >= 1")
    t = ti.tower
    gens: List[Elem] = [(i,) for i in range(1, t.base.size + 1)]
    gens += [t.root(i) for i in range(1, t.level + 1)]
    letters: List[Elem] = []
    for g in gens:
        letters.append(g)
        letters.append(tw.inv(t, g))
    if len(letters) ** n > MAX_VN_PRODUCTS:
        raise ResourceCapError(
            f"V_{n} over {len(letters)} letters would form {len(letters)}^{n} products, "
            f"more than {MAX_VN_PRODUCTS}"
        )
    seen = {()}
    frontier = list(seen)
    for _ in range(n):
        nxt = []
        for e in frontier:
            for x in letters:
                p = tw.mul(t, e, x)
                if p not in seen:
                    seen.add(p)
                    nxt.append(p)
        frontier = nxt
    cores = {}
    for e in seen:
        if tw.is_trivial(e):
            continue
        _, core = tw.cyclic_decompose(t, e)
        if core not in cores and tw.elem_len(t, core) <= n:
            cores[core] = None
    found = {}
    for core in sorted(cores, key=lambda c: tw.sort_key(t, c)):
        rep, _, _, k = tw.root_class(t, core)
        if k != 1:
            continue
        key = tw.serialize(t, rep)
        if key not in found:
            found[key] = VnEntry(key, rep)
    entries = sorted(found.values(), key=lambda en: tw.sort_key(t, en.elem))
    return VnTable(n, tuple(entries))


_tower_levels: dict = {}  # (alphabet names, n) -> TowerIndex; levels build on each other


def _check_level(n: int, max_level: int):
    if n > max_level:
        raise ResourceCapError(f"tower level {n} exceeds max_level {max_level}")


def tower_level(alphabet: Alphabet, n: int, max_level: int = 3) -> TowerIndex:
    """The n-th tower level: each previous-level class gets an n-th root
    (n = 1 collapses to renamings)."""
    _check_level(n, max_level)
    idx = TowerIndex(0, Tower(alphabet), ())
    start = 1
    for k in range(n, 0, -1):
        cached = _tower_levels.get((alphabet.names, k))
        if cached is not None:
            idx, start = cached, k + 1
            break
    for k in range(start, n + 1):
        table = enumerate_Vn(idx, k)
        t = idx.tower
        for entry in table.entries:
            t = t.extend_centralizer(entry.elem, k, name=f"w[{k};{entry.text}]", validate=False)
        idx = TowerIndex(k, t, idx.tables + (table,))
        _tower_levels[(alphabet.names, k)] = idx
    return idx


def vn_table(alphabet: Alphabet, n: int, max_level: int = 3) -> Tuple[VnTable, int]:
    """V_n, enumerated from T_{n-1}, and the generator count of T_n, without
    building T_n: T_n adds one root per V_n entry, except at n = 1, whose
    m = 1 steps are aliases and add none."""
    _check_level(n, max_level)
    below = tower_level(alphabet, n - 1, max_level)
    table = enumerate_Vn(below, n)
    return table, below.generator_count + (len(table.entries) if n > 1 else 0)
