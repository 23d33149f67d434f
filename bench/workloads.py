"""Seeded op blocks for the three workloads, and the check for every op.

An op is one ``freeq --json ...`` invocation.  Each workload turns a seed into
a deterministic, endless sequence of blocks of ops; ``check`` compares an op's exit code and JSON
output with a reference computed by ``oracle`` (never by the code under test),
or, where only a replay is possible, replays the op's certificate or witness.

The Q-word generators mirror ``random_qword``, ``_rand_fraction`` and
``_axiom_rewrite`` of the acceptance suite (criteria 6, 7 and 8).  They are
copied rather than imported so that a later edit to the tests cannot change
the benchmark's inputs.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterator, List, Optional

import oracle

MAX_LEVEL = "8"

# The ROADMAP's worst criterion-7 query: w^(1/2) w^(1/2) = w by the axiom
# g^(al+be) = g^al g^be.  10-11 s and about 190k cache entries on the seed.
PINNED_W = "(bbA)^(-3/2)(Baa)^(-7/4)(bb)^(1/4)"
PINNED_X = f"({PINNED_W})^(1/2)({PINNED_W})^(1/2)"


@dataclass
class Op:
    kind: str
    argv: List[str]
    expect_codes: tuple
    data: dict = field(default_factory=dict)
    pinned: bool = False


@dataclass
class Result:
    code: Optional[int]
    stdout: str
    error: Optional[str] = None  # traceback summary when the op raised
    latency_s: float = 0.0

    def doc(self) -> dict:
        return json.loads(self.stdout)


# -- Q-word generators (criteria 6-8) -----------------------------------------


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


def rand_fraction(rng, max_den=4, signed=True):
    den = rng.randint(1, max_den)
    num = rng.randint(0, 3 * den)
    if signed and rng.random() < 0.4:
        num = -num
    return Fraction(num, den)


def criterion7_rewrite(rng, choice):
    """(w, rewrite of w) via criterion-7 axiom rewrite number `choice` (0-4).

    The two square-root rewrites are applied to depth-1 words only.  On depth-2
    words their cost ranges from 6 ms to 23 s per query (1,200-query sample on
    the seed: the top 12 took 53% of the time), so a seeded sample of them makes
    a run's throughput a lottery.  That tail is measured instead by the pinned
    query, which runs in every run.
    """
    w = random_qword(rng, depth_budget=1 if choice >= 3 else 2)
    h = random_qword(rng, depth_budget=1)
    rewrites = (
        f"({w})^1",
        f"1({w})",
        f"({h})({h})^(-1)({w})",
        f"(({w})^(1/2))^2",
        f"({w})^(1/2)({w})^(1/2)",
    )
    return w, rewrites[choice]


def criterion6_axiom(rng, choice):
    """(lhs, rhs), equal by Q-group axiom number `choice` (0-7) of criteria 6-7."""
    if choice == 0:  # g^1 = g
        g = random_qword(rng)
        return f"({g})^1", g
    if choice == 1:  # g^0 = 1
        return f"({random_qword(rng)})^0", "1"
    if choice == 2:  # 1^al = 1
        return f"1^({rand_fraction(rng)})", "1"
    g = random_qword(rng, depth_budget=1)
    al, be = rand_fraction(rng), rand_fraction(rng)
    if choice == 3:  # g^(al+be) = g^al g^be
        return f"({g})^({al})({g})^({be})", f"({g})^({al + be})"
    if choice == 4:  # (g^al)^be = g^(al*be)
        return f"(({g})^({al}))^({be})", f"({g})^({al * be})"
    if choice == 5:  # (h^-1 g h)^al = h^-1 g^al h
        h = random_qword(rng, depth_budget=1)
        return f"(({h})^(-1)({g})({h}))^({al})", f"({h})^(-1)({g})^({al})({h})"
    if choice == 6:  # commuting g, h: (gh)^al = g^al h^al
        i, j = rng.randint(1, 3), rng.randint(1, 3)
        return f"(({g})^{i}({g})^{j})^({al})", f"(({g})^{i})^({al})(({g})^{j})^({al})"
    return f"({g})^({al})({g})^({be})", f"({g})^({be})({g})^({al})"  # v^s v^t = v^t v^s


def perturb(rng, w):
    """A Q-word whose exponent-sum vector differs from w's."""
    x = rng.choice("abAB")
    if rng.random() < 0.5:
        return f"({w}){x}"
    return f"({w})({x})^({rng.choice([1, -1]) * rng.randint(1, 3)}/{rng.randint(2, 4)})"


def _qword(verb, *args):
    return ["--json", "qword", verb, "--max-level", MAX_LEVEL, *args]


PINNED_OP = Op("equal", _qword("equal", PINNED_X, PINNED_W), (0,), {"lhs": PINNED_X, "rhs": PINNED_W}, pinned=True)


def qword_session_blocks(seed: int) -> Iterator[List[Op]]:
    """Endless blocks of 20 ops in seeded order: 11 equal on axiom rewrites
    (6 criterion-7 rewrites, 5 criterion-6 axioms, each cycling through its
    kinds), 3 equal against a perturbed word, 3 normalize, 3 conj of x^-1 g x
    against g.  Fixed counts per block keep the mix, and so the run-to-run
    spread, independent of the seed."""
    rng = random.Random(seed)
    n7 = n6 = 0
    while True:
        block = []
        for _ in range(6):
            lhs, rhs = criterion7_rewrite(rng, n7 % 5)
            n7 += 1
            block.append(Op("equal", _qword("equal", lhs, rhs), (0,), {"lhs": lhs, "rhs": rhs}))
        for _ in range(5):
            lhs, rhs = criterion6_axiom(rng, n6 % 8)
            n6 += 1
            block.append(Op("equal", _qword("equal", lhs, rhs), (0,), {"lhs": lhs, "rhs": rhs}))
        for _ in range(3):
            w = random_qword(rng)
            p = perturb(rng, w)
            block.append(Op("unequal", _qword("equal", w, p), (1,), {"lhs": w, "rhs": p}))
        for _ in range(3):
            w = random_qword(rng)
            block.append(Op("normalize", _qword("normalize", w), (0,), {"expr": w}))
        for _ in range(3):
            g = random_qword(rng, depth_budget=2)
            x = random_qword(rng, depth_budget=1)
            lhs = f"({x})^(-1)({g})({x})"
            block.append(Op("conj", _qword("conj", lhs, g), (0,), {"lhs": lhs, "rhs": g}))
        rng.shuffle(block)
        yield block


def check_qword(op: Op, res: Result, replay: Callable[[List[str]], Result]) -> Optional[str]:
    doc = res.doc()

    def vec(s):
        return oracle.qword_vector("ab", s)

    if op.kind == "equal":
        if doc.get("equal") is not True:
            return "axiom rewrite reported unequal"
        if vec(doc["canonical"]) != vec(op.data["lhs"]):
            return "canonical form changed the exponent-sum vector"
        return None
    if op.kind == "unequal":
        if vec(op.data["lhs"]) == vec(op.data["rhs"]):
            return "perturbation left the exponent-sum vector unchanged"
        return None if doc.get("equal") is False else "distinct exponent sums reported equal"
    if op.kind == "normalize":
        canon = doc["canonical"]
        if vec(canon) != vec(op.data["expr"]):
            return "canonical form changed the exponent-sum vector"
        again = replay(_qword("normalize", canon))
        if again.code != 0 or again.doc().get("canonical") != canon:
            return "canonical text does not re-normalize to itself"
        return None
    if doc.get("status") != "conjugate":
        return f"x^-1 g x vs g reported {doc.get('status')!r}"
    cert = doc["conjugator"]
    again = replay(_qword("equal", f"({cert})^(-1)({op.data['lhs']})({cert})", op.data["rhs"]))
    if again.code != 0:
        return "conjugacy certificate does not replay"
    return None


# -- vn-tables -----------------------------------------------------------------


V_TABLE_ORACLES = {1: ["a", "b"], 2: ["a", "b", "ab", "aB"]}


def vn_base(seed: int) -> str:
    """Two generator letters in alphabetical order; renaming them while
    keeping the order must not change the tables beyond the renaming."""
    x, y = sorted(random.Random(seed).sample("abcdefghijklmnopqrsuvxyz", 2))
    return x + y


def vn_blocks(seed: int) -> Iterator[List[Op]]:
    base = vn_base(seed)
    while True:
        yield [Op("vn", ["--json", "vn", "list", "--n", "3", "--base", base], (0,), {"base": base})]


def to_ab(base: str, s: str) -> str:
    return s.translate(str.maketrans(base + base.upper(), "abAB"))


def v3_digest(elements: List[str]) -> str:
    return hashlib.sha256(json.dumps(elements).encode()).hexdigest()


# sha256 of the V_3 element list (as json, base ab) printed by the seed
# commit.  A byte-identity regression reference, not an oracle: it proves
# nothing about the table, it only shows that the output changed.
V3_SEED_DIGEST = "08d8cde988eaa9ff6558b2b1c7714112eec72656b0282f95319a6e1514acef98"


def check_vn(op: Op, res: Result) -> Optional[str]:
    doc = res.doc()
    elements = [to_ab(op.data["base"], e) for e in doc["elements"]]
    if doc["count"] != len(elements) or doc["n"] != 3:
        return "count does not match the element list"
    if len(set(elements)) != len(elements):
        return "V_3 lists a class twice"
    # T_3 adds one generator per V_3 class to the 2 + 4 of T_2
    if doc["generator_count"] != 6 + len(elements):
        return "generator_count is not |T_2| + |V_3|"
    if v3_digest(elements) != V3_SEED_DIGEST:
        return "regression: V_3 text differs from the seed commit's (byte-identity reference)"
    return None


# -- free-scale ----------------------------------------------------------------


def rand_word(rng, n, k):
    out = []
    while len(out) < n:
        x = rng.choice((1, -1)) * rng.randint(1, k)
        if not (out and out[-1] == -x):
            out.append(x)
    return tuple(out)


def rand_primitive(rng, n, k):
    """Cyclically reduced, not a proper power."""
    while True:
        w = rand_word(rng, n, k)
        if w[0] != -w[-1] and not oracle.is_proper_power(w):
            return w


def parity_word(rng, n, k, odd):
    """Random reduced word whose a-exponent sum has the given parity."""
    while True:
        w = rand_word(rng, n, k)
        if (oracle.exponent_sums("abc"[:k], w)[0] % 2 == 1) == odd and w[0] != -w[-1]:
            return w


def planted_subgroup(rng, vertices, k, rank):
    """Generators u^2, g_1..g_{rank-1}: every g_i has even a-exponent sum and
    u odd, so the subgroup lies in the kernel of F -> Z/2 (a-parity) while u
    does not.  Hence u is not in H but u^2 is in H and in H^u: H is not
    malnormal, whatever the program says."""
    ulen = max(2, vertices // (2 * rank))
    u = parity_word(rng, ulen, k, odd=True)
    glen = max(2, (vertices - 2 * ulen) // max(1, rank - 1))
    gens = [oracle.free_reduce(u + u)] + [parity_word(rng, glen, k, odd=False) for _ in range(rank - 1)]
    return gens


def random_subgroup(rng, vertices, k, rank):
    glen = max(2, vertices // rank)
    return [rand_word(rng, glen, k) for _ in range(rank)]


# Per round of free-scale: fixed sizes, seeded content, shuffled order.
MALNORMAL_SIZES = ((24, 2, False), (60, 3, True), (150, 2, False), (220, 3, True), (400, 2, False))
# (word length, primitive root length): a fixed root length fixes which
# divisors extract_root tries, so a round's cost does not depend on the seed
ROOT_LENGTHS = ((120, 5), (500, 7), (2000, 9), (4000, 11))
CONJ_LENGTHS = ((120, True), (500, False), (2000, True), (4000, False))
NONCYCLIC_VERTICES = 160


class FreeScale:
    def __init__(self, seed: int, tmpdir: str, is_basis: Callable[[str, list], bool]):
        self.rng = random.Random(seed)
        self.tmpdir = tmpdir
        self.is_basis = is_basis  # input validation only: rejects non-bases
        self.files = 0

    def _write(self, obj) -> str:
        self.files += 1
        path = os.path.join(self.tmpdir, f"c{self.files}.json")
        with open(path, "w") as fh:
            json.dump(obj, fh)
        return path

    def _basis(self, make, base):
        while True:
            gens = make()
            if self.is_basis(base, gens):
                return gens

    def blocks(self) -> Iterator[List[Op]]:
        while True:
            yield self.round()

    def round(self) -> List[Op]:
        rng = self.rng
        ops: List[Op] = []
        for i, (v, rank, planted) in enumerate(MALNORMAL_SIZES):
            k = 2 + i % 2
            base = "abc"[:k]
            gens = (planted_subgroup if planted else random_subgroup)(rng, v, k, rank)
            texts = [oracle.text(base, g) for g in gens]
            ops.append(
                Op(
                    "malnormal",
                    ["--json", "subgroup", "malnormal", "--base", base, *texts],
                    (1,) if planted else (0, 1),
                    {"base": base, "gens": texts},
                )
            )
        for i, (n, rlen) in enumerate(ROOT_LENGTHS):
            k = 2 + i % 2
            base = "abc"[:k]
            r = rand_primitive(rng, rlen, k)
            c = rand_word(rng, rng.randint(0, 6), k)
            e = max(1, n // len(r))
            w = oracle.free_reduce(c + r * e + oracle.inverse(c))
            ops.append(
                Op("root", ["--json", "word", "root", "--base", base, oracle.text(base, w)], (0,),
                   {"base": base, "word": w, "exponent": e})
            )
        for i, (n, positive) in enumerate(CONJ_LENGTHS):
            k = 2 + i % 2
            base = "abc"[:k]
            w2 = rand_primitive(rng, n, k)
            if positive:
                j = rng.randrange(n // 4, 3 * n // 4)  # rotations tried before the match
                x = rand_word(rng, rng.randint(1, 8), k)
                w1 = oracle.free_reduce(oracle.inverse(x) + w2[j:] + w2[:j] + x)
            else:
                # one letter replaced by a positive letter of another
                # generator, or by its own inverse: the exponent sums differ
                j = rng.randrange(n)
                w1 = oracle.cyclic_core(w2[:j] + (w2[j] % k + 1,) + w2[j + 1 :])
            ops.append(
                Op("wconj",
                   ["--json", "word", "conj", "--base", base, oracle.text(base, w1), oracle.text(base, w2)],
                   (0,) if positive else (1,), {"base": base, "w1": w1, "w2": w2, "positive": positive})
            )
        ops += self._cyclic_constructions()
        ops += self._noncyclic_constructions()
        # a word of nonzero exponent sum is nontrivial in Z^2 = <a,b | abAB>
        while True:
            w = rand_word(rng, rng.randint(2, 3), 2)
            if any(oracle.exponent_sums("ab", w)):
                break
        ops.append(
            Op("area", ["--json", "word", "area", "--relator", "abAB", "--area-bound", "3", oracle.text("ab", w)],
               (2,), {})
        )
        rng.shuffle(ops)
        return ops

    def _cyclic_constructions(self) -> List[Op]:
        """Cyclic U = <c r^p c^-1>, V = <d s^q d^-1> with r, s primitive.
        HNN: hyperbolic iff min(p, q) = 1 and r is not conjugate to s^+-1.
        Amalgam: hyperbolic iff min(p, q) = 1 (Corollaries 1-3).
        Word lengths are fixed (roots 10 and 8, conjugators 3) so that the
        seed changes the letters, not the cost; cyclically reduced roots of
        different lengths are never conjugate."""
        rng = self.rng
        ops = []
        for p, q, conj_roots in ((1, 2, False), (2, 3, False), (1, 1, True)):
            r = rand_primitive(rng, 10, 2)
            if conj_roots:
                j = rng.randrange(len(r))
                s = r[j:] + r[:j]
                if rng.random() < 0.5:
                    s = oracle.inverse(s)
            else:
                s = rand_primitive(rng, 8, 2)
            c, d = rand_word(rng, 3, 2), rand_word(rng, 3, 2)
            u = oracle.free_reduce(c + r * p + oracle.inverse(c))
            v = oracle.free_reduce(d + s * q + oracle.inverse(d))
            hyperbolic = min(p, q) == 1 and not conj_roots
            path = self._write(
                {"kind": "hnn", "base": {"generators": ["a", "b"]},
                 "u_generators": [oracle.text("ab", u)], "v_generators": [oracle.text("ab", v)]}
            )
            ops.append(Op("hnn", ["--json", "check-hnn", path], (0,) if hyperbolic else (1,),
                          {"outcome": "hyperbolic" if hyperbolic else "not-hyperbolic"}))
        for p, q in ((1, 3), (2, 2)):
            r, s = rand_primitive(rng, 10, 2), rand_primitive(rng, 8, 2)
            hyperbolic = min(p, q) == 1
            path = self._write(
                {"kind": "amalgam", "left": {"generators": ["a", "b"]}, "right": {"generators": ["x", "y"]},
                 "u_generators": [oracle.text("ab", r * p)], "v_generators": [oracle.text("xy", s * q)]}
            )
            ops.append(Op("amalgam", ["--json", "check-amalgam", path], (0,) if hyperbolic else (1,),
                          {"outcome": "hyperbolic" if hyperbolic else "not-hyperbolic"}))
        return ops

    def _noncyclic_constructions(self) -> List[Op]:
        """Rank-3 planted subgroups on both sides: neither side is malnormal,
        so the separation test fails and the verdict must be inconclusive."""
        rng = self.rng
        mk = lambda: planted_subgroup(rng, NONCYCLIC_VERTICES, 2, 3)  # noqa: E731
        u, v = self._basis(mk, "ab"), self._basis(mk, "ab")
        hnn = self._write(
            {"kind": "hnn", "base": {"generators": ["a", "b"]},
             "u_generators": [oracle.text("ab", g) for g in u], "v_generators": [oracle.text("ab", g) for g in v]}
        )
        u, v = self._basis(mk, "ab"), self._basis(mk, "ab")
        am = self._write(
            {"kind": "amalgam", "left": {"generators": ["a", "b"]}, "right": {"generators": ["x", "y"]},
             "u_generators": [oracle.text("ab", g) for g in u], "v_generators": [oracle.text("xy", g) for g in v]}
        )
        outcome = {"outcome": "hypotheses-fail-inconclusive"}
        return [Op("hnn", ["--json", "check-hnn", hnn], (2,), outcome),
                Op("amalgam", ["--json", "check-amalgam", am], (2,), outcome)]


def check_free(op: Op, res: Result, contains: Callable[[str, list, tuple], bool]) -> Optional[str]:
    doc = res.doc()
    if op.kind == "malnormal":
        if doc["malnormal"]:
            return None  # no independent oracle for a positive verdict
        base, gens = op.data["base"], op.data["gens"]
        x = tuple(oracle.letters(base, doc["witness"]))
        u = tuple(oracle.letters(base, doc["common_element"]))
        ux = oracle.free_reduce(oracle.inverse(x) + u + x)
        if not u or contains(base, gens, x) or not contains(base, gens, u) or not contains(base, gens, ux):
            return "malnormality witness does not replay"
        return None
    if op.kind == "root":
        base = op.data["base"]
        root = tuple(oracle.letters(base, doc["root"]))
        e = doc["exponent"]
        if e != op.data["exponent"] or doc["primitive"] != (e == 1):
            return f"exponent {e}, expected {op.data['exponent']}"
        if oracle.free_reduce(root * e) != op.data["word"]:
            return "root^exponent is not the word"
        return None
    if op.kind == "wconj":
        if not op.data["positive"]:
            base = op.data["base"]
            if oracle.exponent_sums(base, op.data["w1"]) == oracle.exponent_sums(base, op.data["w2"]):
                return "generator error: the pair has equal exponent sums"
            return None if doc["conjugate"] is False else "distinct exponent sums reported conjugate"
        c = tuple(oracle.letters(op.data["base"], doc["conjugator"]))
        if oracle.free_reduce(oracle.inverse(c) + op.data["w1"] + c) != op.data["w2"]:
            return "conjugator does not replay"
        return None
    if op.kind in ("hnn", "amalgam"):
        if doc["outcome"] != op.data["outcome"]:
            return f"verdict {doc['outcome']!r}, expected {op.data['outcome']!r}"
        if doc["outcome"] == "not-hyperbolic" and doc["witness"].get("verified") is not True:
            return "negative verdict without a verified witness"
        return None
    if op.kind == "area":
        return None if doc["area"] is None and doc["status"] == "absent-within-bound" else "area found in Z^2 for a nontrivial word"
    return f"unknown op kind {op.kind}"


# -- README CLI examples, replayed once per run as untimed checks --------------


def _in_aa(w) -> bool:
    """Membership in <aa>: an even power of a."""
    return (set(w) <= {1} or set(w) <= {-1}) and len(w) % 2 == 0


def _aa_witness_ok(d) -> bool:
    x = oracle.free_reduce(oracle.letters("ab", d["witness"]))
    u = oracle.free_reduce(oracle.letters("ab", d["common_element"]))
    ux = oracle.free_reduce(oracle.inverse(x) + u + x)
    return bool(u) and _in_aa(u) and _in_aa(ux) and not _in_aa(x)


def readme_examples(tmpdir: str) -> List[tuple]:
    """(argv, expected exit, check on the JSON document)."""
    files = {
        "k.json": {"kind": "hnn", "base": {"generators": ["a", "b"]}, "u_generators": ["aa"], "v_generators": ["bb"]},
        "torus.json": {"kind": "amalgam", "left": {"generators": ["x"]}, "right": {"generators": ["y"]},
                       "u_generators": ["xx"], "v_generators": ["yyy"]},
        "tower.json": {"kind": "tower", "base": {"generators": ["a", "b"]}, "steps": [{"v": "ab", "m": 2, "name": "w"}]},
    }
    path = {}
    for name, obj in files.items():
        path[name] = os.path.join(tmpdir, name)
        with open(path[name], "w") as fh:
            json.dump(obj, fh)
    return [
        (["word", "reduce", "abBAa"], 0, lambda d: d["reduced"] == "a"),
        (["word", "conj", "Bab", "a"], 0, lambda d: d["conjugator"] == "B"),
        (["word", "root", "abab"], 0, lambda d: (d["root"], d["exponent"]) == ("ab", 2)),
        (["word", "area", "aaaaaa", "--base", "a", "--relator", "aaa", "--area-bound", "3"], 0, lambda d: d["area"] == 2),
        (["subgroup", "build", "aa", "ab"], 0, lambda d: d["rank"] == 2),
        (["subgroup", "member", "aaab", "aa", "ab"], 0, lambda d: d["member"] is True),
        # the README comment shows witness "a"; any x outside <aa> with a
        # common element is a valid witness, and the seed prints "A"
        (["subgroup", "malnormal", "aa"], 1, _aa_witness_ok),
        (["subgroup", "qc-const", "ab"], 0, lambda d: d["quasiconvexity_constant"] == "1"),
        (["check-hnn", path["k.json"]], 1, lambda d: d["outcome"] == "not-hyperbolic"),
        (["check-amalgam", path["torus.json"]], 1, lambda d: d["outcome"] == "not-hyperbolic"),
        (["tower", "show", path["tower.json"]], 0, lambda d: d["level"] == 1 and d["steps"][0]["m"] == 2),
        (["vn", "list", "--n", "1"], 0, lambda d: d["elements"] == V_TABLE_ORACLES[1]),
        (["vn", "list", "--n", "2"], 0, lambda d: d["elements"] == V_TABLE_ORACLES[2]),
        (["qword", "normalize", "(ab)^(3/2)"], 0, lambda d: d["canonical"] == "(ab)^(1/2)ab"),
        (["qword", "equal", "a^(2/2)", "a"], 0, lambda d: d["equal"] is True),
        (["qword", "conj", "(ba)^(1/2)", "(ab)^(1/2)"], 0, lambda d: d["status"] == "conjugate"),
    ]
