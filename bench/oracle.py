"""Reference facts computed without the package under test.

Every check in the benchmark compares the program's answer with one of
these: free reduction, cyclic reduction, proper-power tests and
exponent-sum vectors of words and Q-words.  They are deliberately small,
direct implementations so that a defect in ``freeq`` cannot hide in them.
"""

from __future__ import annotations

from fractions import Fraction


def letters(base: str, text: str) -> list:
    """Signed letter indices of plain word text ('1' is the identity)."""
    out = []
    for ch in text:
        if ch == "1" or ch.isspace():
            continue
        out.append((base.index(ch.lower()) + 1) * (1 if ch.islower() else -1))
    return out


def text(base: str, w) -> str:
    if not w:
        return "1"
    return "".join(base[abs(x) - 1] if x > 0 else base[abs(x) - 1].upper() for x in w)


def free_reduce(w) -> tuple:
    out = []
    for x in w:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def inverse(w) -> tuple:
    return tuple(-x for x in reversed(w))


def cyclic_core(w) -> tuple:
    w = free_reduce(w)
    i, j = 0, len(w)
    while j - i >= 2 and w[i] == -w[j - 1]:
        i, j = i + 1, j - 1
    return w[i:j]


def _key(w) -> str:
    # one character per signed letter, so tuple search becomes substring search
    return "".join(chr(0x4E00 + x) for x in w)


def is_proper_power(w) -> bool:
    """A nonempty word is a proper power iff it occurs inside (ww) strictly."""
    s = _key(w)
    return (s + s).find(s, 1) < len(s)


def exponent_sums(base: str, w) -> tuple:
    out = [0] * len(base)
    for x in w:
        out[abs(x) - 1] += 1 if x > 0 else -1
    return tuple(out)


def qword_vector(base: str, src: str) -> tuple:
    """Exponent-sum vector of a Q-word; the abelianization is a homomorphism
    Q-completion -> Q^n, so equal elements (and conjugates) share it."""
    s = "".join(src.split())
    pos = 0

    def product():
        nonlocal pos
        acc = [Fraction(0)] * len(base)
        while pos < len(s) and s[pos] != ")":
            vec = atom()
            if pos < len(s) and s[pos] == "^":
                pos += 1
                r = rational()
                vec = [r * c for c in vec]
            acc = [a + c for a, c in zip(acc, vec)]
        return acc

    def atom():
        nonlocal pos
        ch = s[pos]
        pos += 1
        if ch == "(":
            vec = product()
            if s[pos] != ")":
                raise ValueError(f"unbalanced Q-word {src!r}")
            pos += 1
            return vec
        if ch == "1":
            return [Fraction(0)] * len(base)
        return [Fraction(c) for c in exponent_sums(base, letters(base, ch))]

    def rational():
        nonlocal pos
        paren = s[pos] == "("
        pos += paren
        start = pos
        while pos < len(s) and (s[pos].isdigit() or s[pos] in "-/"):
            pos += 1
        r = Fraction(s[start:pos])
        if paren:
            pos += 1
        return r

    vec = product()
    if pos != len(s):
        raise ValueError(f"unbalanced Q-word {src!r}")
    return tuple(vec)
