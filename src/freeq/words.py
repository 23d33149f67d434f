"""Exact arithmetic with freely reduced words over a finite symmetric alphabet.

Words are tuples of nonzero ints: ``+k`` is generator ``k-1``, ``-k`` its
inverse.  All functions are pure; words are immutable and always freely
reduced on the way out.
"""

from __future__ import annotations

import itertools
from collections import deque
from fractions import Fraction
from typing import Iterable, List, Optional

Word = tuple  # tuple[int, ...], freely reduced

IDENTITY: Word = ()


class WordSyntaxError(ValueError):
    """Raised for malformed word text or unknown generator symbols."""


class CertificateError(RuntimeError):
    """A certificate failed its replay check, so the answer it backs is wrong."""


class ResourceCapError(RuntimeError):
    """An operation exceeded a cap on its work or memory."""


class Frozen:
    """Base of freeq's immutable value types.

    A subclass lists its fields in `__slots__` (a `__dict__` slot holds
    cached properties and is no field).  The one constructor sets them in
    slot order from positional arguments, then keywords, then the class's
    `_defaults`, and raises TypeError for a field left unset or an argument
    it cannot place.  A subclass with checks ends its `__init__` with one
    call of it; only `tower.Form`, on the tower's hot path, sets its own
    slots.  After that, assignment raises AttributeError.  Values of one
    class compare and hash by the tuple of their fields.  Nothing is
    generated when a subclass is defined, so importing stays cheap.
    """

    __slots__ = ()
    _defaults: dict = {}

    def __init__(self, *args, **kwargs):
        fields = [name for name in self.__slots__ if name != "__dict__"]
        if len(args) > len(fields):
            raise TypeError(f"{type(self).__name__} takes {len(fields)} fields, got {len(args)}")
        for name, value in zip(fields, args):
            object.__setattr__(self, name, value)
        for name in fields[len(args):]:
            if name in kwargs:
                value = kwargs.pop(name)
            elif name in self._defaults:
                value = self._defaults[name]
            else:
                raise TypeError(f"{type(self).__name__} needs field {name!r}")
            object.__setattr__(self, name, value)
        if kwargs:
            raise TypeError(f"{type(self).__name__} got unexpected fields {sorted(kwargs)}")

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")

    def __reduce__(self):  # copy and pickle rebuild through __init__: fields in its order
        return type(self), self._key()

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(map(repr, self._key()))})"


class Alphabet(Frozen):
    """Finite generating set.  Lowercase letter = generator, uppercase = inverse."""

    __slots__ = ("names",)

    def __init__(self, names: tuple):
        if len(names) < 1:
            raise ValueError("alphabet needs at least one generator")
        if len(set(names)) != len(names):
            raise ValueError("generator names must be distinct")
        for n in names:
            if not (isinstance(n, str) and len(n) == 1 and n.isalpha() and n.islower()):
                raise ValueError(f"generator name must be a single lowercase letter: {n!r}")
        super().__init__(names)

    @property
    def size(self) -> int:
        return len(self.names)

    def letter(self, symbol: str) -> int:
        low = symbol.lower()
        if low not in self.names:
            raise WordSyntaxError(f"unknown generator symbol {symbol!r}")
        idx = self.names.index(low) + 1
        return idx if symbol.islower() else -idx

    def symbol(self, letter: int) -> str:
        name = self.names[abs(letter) - 1]
        return name if letter > 0 else name.upper()

    def parse(self, text: str) -> Word:
        text = "".join(text.split())
        if text == "1" or text == "":
            return IDENTITY
        return free_reduce(self.letter(ch) for ch in text)

    def format(self, w: Word) -> str:
        if not w:
            return "1"
        return "".join(self.symbol(x) for x in w)

    def all_letters(self):
        for i in range(1, self.size + 1):
            yield i
            yield -i


def free_reduce(raw: Iterable[int]) -> Word:
    """Freely reduce a sequence of signed letters."""
    out = []
    for x in raw:
        if x == 0:
            raise WordSyntaxError("0 is not a letter")
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def inverse(w: Word) -> Word:
    return tuple(-x for x in reversed(w))


def mul(*words: Word) -> Word:
    return free_reduce(itertools.chain.from_iterable(words))


def power(w: Word, n: int) -> Word:
    if n < 0:
        return power(inverse(w), -n)
    c = cyclic_reduce(w)
    return mul(c.conjugator, c.core * n, inverse(c.conjugator))


def conjugate(w: Word, by: Word) -> Word:
    """by^-1 * w * by."""
    return mul(inverse(by), w, by)


class CyclicWord(Frozen):
    """Cyclically reduced core plus the witness conjugator c with c*core*c^-1 = original."""

    __slots__ = ("core", "conjugator")

    def __init__(self, core: Word, conjugator: Word):
        if core and core[0] == -core[-1]:
            raise ValueError("core is not cyclically reduced")
        super().__init__(core, conjugator)


def cyclic_reduce(w: Word) -> CyclicWord:
    w = tuple(w)
    n, k = len(w), 0
    while n - 2 * k >= 2 and w[k] == -w[n - 1 - k]:
        k += 1
    return CyclicWord(core=w[k : n - k], conjugator=w[:k])


def is_conjugate(w1: Word, w2: Word) -> bool:
    return conjugacy_witness(w1, w2) is not None


def conjugacy_witness(w1: Word, w2: Word) -> Optional[Word]:
    """A word c with c^-1 * w1 * c = w2, or None; CertificateError if the c
    found fails that check, so a failed check never reads as "not conjugate".

    The core of w2 is the rotation core1[i:] + core1[:i] exactly when it
    occurs at offset i of core1 doubled; str.find over the letters encoded as
    characters gives the first such i in linear time.
    """
    r1, r2 = cyclic_reduce(w1), cyclic_reduce(w2)
    if len(r1.core) != len(r2.core):
        return None
    i = (_text(r1.core) * 2).find(_text(r2.core))
    if i < 0:
        return None
    # rot = p^-1 core1 p with p = core1[:i], hence c = a1 p a2^-1
    c = mul(r1.conjugator, r1.core[:i], inverse(r2.conjugator))
    if conjugate(w1, c) != w2:
        raise CertificateError("conjugator does not conjugate w1 to w2")
    return c


def _text(w: Word) -> str:
    """One character per letter, distinct letters to distinct characters."""
    return "".join([chr(2 * x if x > 0 else -2 * x - 1) for x in w])


def extract_root(w: Word):
    """Primitive root and maximal exponent of a cyclically reduced nonempty
    word: its period p is the first offset > 0 at which w occurs in w doubled
    (as in conjugacy_witness), and p divides |w|."""
    if not w:
        raise ValueError("empty word has no root")
    if cyclic_reduce(w).conjugator:
        raise ValueError("extract_root requires cyclically reduced input")
    text = _text(w)
    p = (text * 2).find(text, 1)
    return w[:p], len(w) // p


def is_primitive(w: Word) -> bool:
    return extract_root(w)[1] == 1


def gromov_product(x: Word, y: Word, o: Word = IDENTITY) -> Fraction:
    """(x . y)_o = 1/2(|o^-1 x| + |o^-1 y| - |x^-1 y|), exact."""
    return Fraction(
        len(mul(inverse(o), x)) + len(mul(inverse(o), y)) - len(mul(inverse(x), y)), 2
    )


class Presentation(Frozen):
    __slots__ = ("alphabet", "relators")

    def __init__(self, alphabet: Alphabet, relators: tuple):
        for r in relators:
            if not r:
                raise ValueError("relator equal to identity")
            if cyclic_reduce(r).conjugator:
                raise ValueError("relators must be cyclically reduced")
        super().__init__(alphabet, relators)


def dehn_area(p: Presentation, w: Word, bound: int) -> Optional[int]:
    """Minimal n <= bound with w a product of n conjugates of relators, or None.

    Breadth-first search over freely reduced words: each step inserts a
    cyclic permutation of a relator (or its inverse) at some position, which
    multiplies by a conjugate of that relator.  The search is complete up to
    `bound`; the words of the last step are only tested for the identity.
    A length bound would prune wrongly: bb (abAB) BB aa (BAba) AA has area
    2, yet every word one insertion from it has 6 or more letters, more than
    the 4 its last insertion can cancel.
    """
    if not w:
        return 0
    if not p.relators:
        return None
    inserts = set()
    for r in p.relators:
        for signed in (r, inverse(r)):
            for i in range(len(signed)):
                inserts.add(signed[i:] + signed[:i])
    inserts = sorted(inserts)
    seen = {w}
    frontier = deque([w])
    for n in range(1, bound + 1):
        nxt = deque()
        while frontier:
            u = frontier.popleft()
            for i in range(len(u) + 1):
                head, tail = u[:i], u[i:]
                for m in inserts:
                    v = mul(head, m, tail)
                    if not v:
                        return n
                    if n < bound and v not in seen:
                        seen.add(v)
                        nxt.append(v)
        frontier = nxt
    return None


def reduced_words(alphabet: Alphabet, max_len: int) -> List[Word]:
    """All freely reduced words of length <= max_len, shortest first."""
    out = [IDENTITY]
    frontier = [IDENTITY]
    for _ in range(max_len):
        frontier = [
            w + (x,) for w in frontier for x in alphabet.all_letters() if not (w and w[-1] == -x)
        ]
        out.extend(frontier)
    return out
