"""Command-line interface.

Exit codes: 0 = decided/computed, 1 = negative decision, 2 = absent within
the search bound, 3 = input error or resource cap (MemoryError and
RecursionError included), 4 = internal error (a certificate failed its
check, or any other exception, so no answer is printed); only `word area`
and an inconclusive check-hnn/check-amalgam verdict exit 2.  With --json
every result is a single JSON document (sorted keys, so byte-identical
across runs); rationals are always printed as exact "p/q" strings.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from . import constructions, qcompletion, stallings, tower, words
from .qcompletion import QSession, parse_qword
from .tower import Tower
from .words import Alphabet, CertificateError, Presentation, ResourceCapError, WordSyntaxError

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_ABSENT = 2
EXIT_INPUT = 3
EXIT_INTERNAL = 4


class InputError(Exception):
    """User-facing input problem with a machine-readable code."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


def _rat(x) -> str:
    return str(Fraction(x))


def _alphabet(text: str) -> Alphabet:
    try:
        return Alphabet(tuple(text))
    except ValueError as ex:
        raise InputError("parse", str(ex))


def _parse_word(alphabet: Alphabet, text: str):
    try:
        return alphabet.parse(text)
    except WordSyntaxError as ex:
        raise InputError("parse", str(ex))


class _Output:
    """Accumulates one result document; prints JSON or key: value lines."""

    def __init__(self, as_json: bool):
        self.as_json = as_json
        self.doc = {}

    def put(self, key, value):
        self.doc[key] = value

    def emit(self):
        if self.as_json:
            print(json.dumps(self.doc, sort_keys=True, indent=2))
        else:
            for key, value in self.doc.items():
                if isinstance(value, (dict, list)):
                    value = json.dumps(value, sort_keys=True)
                print(f"{key}: {value}")


# -- word --------------------------------------------------------------------


def _cmd_word_reduce(args, out: _Output) -> int:
    a = _alphabet(args.base)
    w = _parse_word(a, args.word)
    out.put("reduced", a.format(w))
    out.put("length", len(w))
    return EXIT_OK


def _cmd_word_conj(args, out: _Output) -> int:
    a = _alphabet(args.base)
    w1 = _parse_word(a, args.word1)
    w2 = _parse_word(a, args.word2)
    c = words.conjugacy_witness(w1, w2)
    out.put("conjugate", c is not None)
    if c is None:
        return EXIT_NEGATIVE
    out.put("conjugator", a.format(c))
    return EXIT_OK


def _cmd_word_root(args, out: _Output) -> int:
    a = _alphabet(args.base)
    w = _parse_word(a, args.word)
    cyc = words.cyclic_reduce(w)
    if not cyc.core:
        raise InputError("invalid-input", "the identity has no primitive root")
    root, exp = words.extract_root(cyc.core)
    out.put("root", a.format(words.conjugate(root, words.inverse(cyc.conjugator))))
    out.put("exponent", exp)
    out.put("primitive", exp == 1)
    return EXIT_OK


def _cmd_word_area(args, out: _Output) -> int:
    if args.area_bound < 0:
        raise InputError("invalid-input", "--area-bound must be at least 0")
    a = _alphabet(args.base)
    relators = tuple(words.cyclic_reduce(_parse_word(a, r)).core for r in args.relator)
    if not relators:
        raise InputError("usage", "word area needs at least one --relator")
    try:
        p = Presentation(a, relators)
    except ValueError as ex:  # a relator equal to the identity
        raise InputError("invalid-input", str(ex))
    w = _parse_word(a, args.word)
    area = words.dehn_area(p, w, args.area_bound)
    out.put("area_bound", args.area_bound)
    if area is None:
        out.put("area", None)
        out.put("status", "absent-within-bound")
        return EXIT_ABSENT
    out.put("area", area)
    out.put("status", "decided")
    return EXIT_OK


# -- subgroup ----------------------------------------------------------------


def _subgroup_core(args):
    a = _alphabet(args.base)
    gens = [_parse_word(a, g) for g in args.generators]
    return a, stallings.build_core(a, gens)


def _cmd_subgroup_build(args, out: _Output) -> int:
    a, g = _subgroup_core(args)
    out.put("rank", g.betti)
    out.put("vertices", g.num_vertices)
    out.put("basis", [a.format(b) for b in stallings.free_basis(g)])
    out.put("graph", g.serialize())
    return EXIT_OK


def _cmd_subgroup_member(args, out: _Output) -> int:
    a, g = _subgroup_core(args)
    w = _parse_word(a, args.word)
    member = stallings.contains(g, w)
    out.put("member", member)
    return EXIT_OK if member else EXIT_NEGATIVE


def _cmd_subgroup_malnormal(args, out: _Output) -> int:
    a, g = _subgroup_core(args)
    res = stallings.is_conjugate_separated(g)
    out.put("malnormal", res.holds)
    if not res.holds:
        out.put("witness", a.format(res.witness))
        out.put("common_element", a.format(res.common_element))
        return EXIT_NEGATIVE
    return EXIT_OK


def _cmd_subgroup_qc_const(args, out: _Output) -> int:
    _, g = _subgroup_core(args)
    out.put("quasiconvexity_constant", _rat(stallings.quasiconvexity_constant(g)))
    return EXIT_OK


# -- construction files ------------------------------------------------------
#
# A construction file is one JSON object whose "kind" names its reader.  A
# reader checks the JSON type of each field as it reads it (error code
# `schema`, naming the field by a JSON pointer after the file name) before
# it parses a word or builds a group, whose ValueError is `invalid-input`.

_JSON_TYPES = {dict: "an object", list: "an array", str: "a string", int: "an integer"}


def _typed(value, typ, at: str):
    if type(value) is not typ:  # so a bool is no integer and 2.0 is no integer
        raise InputError("schema", f"{at} must be {_JSON_TYPES[typ]}")
    return value


def _get(obj: dict, key: str, at: str, typ=str, default=None):
    """obj[key] of JSON type typ; a missing key gives `default`, if there is one."""
    at = f"{at}/{key}"
    if key not in obj:
        if default is None:
            raise InputError("schema", f"{at} is required")
        return default
    return _typed(obj[key], typ, at)


def _strings(obj: dict, key: str, at: str, default=None) -> list:
    items = _get(obj, key, at, list, default)
    return [_typed(w, str, f"{at}/{key}/{i}") for i, w in enumerate(items)]


def _presentation(obj: dict, key: str, at: str):
    """(generators, relator texts) of a presentation field."""
    p = _get(obj, key, at, dict)
    at = f"{at}/{key}"
    gens = _strings(p, "generators", at)
    if not gens:
        raise InputError("schema", f"{at}/generators must not be empty")
    for i, g in enumerate(gens):
        if not (len(g) == 1 and "a" <= g <= "z"):
            raise InputError("schema", f"{at}/generators/{i} must be one letter a-z")
    return gens, _strings(p, "relators", at, [])


def _iso(obj: dict, at: str) -> list:
    pairs = _get(obj, "iso", at, list, [])
    for i, pair in enumerate(pairs):
        if type(pair) is not list or len(pair) != 2 or any(type(w) is not str for w in pair):
            raise InputError("schema", f"{at}/iso/{i} must be an array of two strings")
    return pairs


def _build(gens, relators) -> Presentation:
    a = Alphabet(tuple(gens))
    return Presentation(a, tuple(map(a.parse, relators)))


def _read_edge(obj: dict, at: str, *factors: str):
    """The factor presentations (one HNN base, or an amalgam's left and
    right) and the u_generators, v_generators and iso words over them."""
    presentations = [_presentation(obj, key, at) for key in factors]
    u, v, iso = _strings(obj, "u_generators", at), _strings(obj, "v_generators", at), _iso(obj, at)
    groups = [_build(*p) for p in presentations]
    dom, cod = groups[0].alphabet, groups[-1].alphabet
    iso = tuple((dom.parse(x), cod.parse(y)) for x, y in iso)
    return groups, tuple(map(dom.parse, u)), tuple(map(cod.parse, v)), iso


def _read_hnn(obj: dict, at: str) -> constructions.HNNData:
    (base,), u, v, iso = _read_edge(obj, at, "base")
    return constructions.HNNData(base, u, v, iso)


def _read_amalgam(obj: dict, at: str) -> constructions.AmalgamData:
    (left, right), u, v, iso = _read_edge(obj, at, "left", "right")
    return constructions.AmalgamData(left, right, u, v, iso)


def _read_tower(obj: dict, at: str) -> Tower:
    gens, relators = _presentation(obj, "base", at)
    steps = []
    for i, step in enumerate(_get(obj, "steps", at, list)):
        sat = f"{at}/steps/{i}"
        step = _typed(step, dict, sat)
        v, m = _get(step, "v", sat), _get(step, "m", sat, int)
        name = _get(step, "name", sat) if "name" in step else None
        if m < 1:
            raise InputError("schema", f"{sat}/m must be at least 1")
        steps.append((v, m, name))
    a = Alphabet(tuple(gens))
    if relators:
        raise InputError("invalid-input", "tower base must be a free presentation")
    session = QSession(a)
    for i, (v, m, name) in enumerate(steps):
        try:
            # normalizing v may adjoin the roots it names: extend after it,
            # and when v lies in the tower as it was, extend that tower
            t = session.tower
            v = session.normalize(v)
            if tower.level_of(v) <= t.level:
                session.tower = t
                session.roots = {r: c for r, c in session.roots.items() if r.level <= t.level}
            session.tower = session.tower.extend_centralizer(v, m, name=name)
        except ValueError as ex:
            raise InputError("invalid-input", f"step {i}: {ex}")
    return session.tower


_READERS = {"hnn": _read_hnn, "amalgam": _read_amalgam, "tower": _read_tower}


def _read_construction(path: str, kind: str):
    """The HNNData, AmalgamData or Tower that a file of the given kind describes."""
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as ex:
        raise InputError("io", f"cannot read {path}: {ex}")
    except (ValueError, RecursionError) as ex:  # bad JSON or text encoding, deep nesting
        raise InputError("parse", f"{path}: {ex}")
    if type(obj) is not dict or obj.get("kind") != kind:
        raise InputError("schema", f"{path}: expected a JSON object of kind {kind!r}")
    try:
        return _READERS[kind](obj, f"{path}#")
    except ValueError as ex:
        raise InputError("invalid-input", str(ex))


# -- constructions -----------------------------------------------------------


def _verdict_exit(v: constructions.Verdict) -> int:
    if v.outcome == constructions.OUTCOME_HYPERBOLIC:
        return EXIT_OK
    if v.outcome == constructions.OUTCOME_NOT_HYPERBOLIC:
        return EXIT_NEGATIVE
    return EXIT_ABSENT


def _cmd_check(args, out: _Output) -> int:
    data = _read_construction(args.file, args.kind)
    check = constructions.check_separated_hnn if args.kind == "hnn" else constructions.check_amalgam
    try:
        verdict = check(data)
    except ValueError as ex:
        raise InputError("invalid-input", str(ex))
    for key, value in constructions.verdict_to_json(verdict).items():
        out.put(key, value)
    return _verdict_exit(verdict)


# -- tower -------------------------------------------------------------------


def _cmd_tower_show(args, out: _Output) -> int:
    t = _read_construction(args.file, "tower")
    out.put("base", list(t.base.names))
    out.put("level", t.level)
    steps = []
    for i, step in enumerate(t.steps):
        steps.append(
            {
                "name": step.name,
                "m": step.m,
                "v": tower.serialize(t, step.v),
                "root": tower.serialize(t, t.root(i + 1)),
            }
        )
    out.put("steps", steps)
    out.put("aliases", [[name, tower.serialize(t, e)] for name, e in t.aliases])
    return EXIT_OK


# -- vn ----------------------------------------------------------------------


def _cmd_vn_list(args, out: _Output) -> int:
    a = _alphabet(args.base)
    if args.n < 1:
        raise InputError("invalid-input", "--n must be at least 1")
    table, generator_count = qcompletion.vn_table(a, args.n, max_level=args.max_level)
    out.put("n", args.n)
    out.put("elements", list(table.texts))
    out.put("count", len(table.entries))
    out.put("generator_count", generator_count)
    return EXIT_OK


# -- qword -------------------------------------------------------------------


def _qsession(args) -> QSession:
    return QSession(_alphabet(args.base), max_level=args.max_level)


def _parse_q(session: QSession, text: str):
    try:
        return parse_qword(session.alphabet, text)
    except WordSyntaxError as ex:
        raise InputError("parse", str(ex))


def _cmd_qword_normalize(args, out: _Output) -> int:
    session = _qsession(args)
    q = _parse_q(session, args.expr)
    e = session.normalize(q)
    out.put("canonical", session.canonical_text(e))
    out.put("level", session.locate(e))
    out.put("depth", qcompletion.depth(q))
    return EXIT_OK


def _cmd_qword_equal(args, out: _Output) -> int:
    session = _qsession(args)
    q1 = _parse_q(session, args.expr1)
    q2 = _parse_q(session, args.expr2)
    eq = session.q_equal(q1, q2)
    out.put("equal", eq)
    out.put("canonical", session.canonical_text(session.normalize(q1)))
    return EXIT_OK if eq else EXIT_NEGATIVE


def _cmd_qword_conj(args, out: _Output) -> int:
    session = _qsession(args)
    q1 = _parse_q(session, args.expr1)
    q2 = _parse_q(session, args.expr2)
    status, c = session.q_conjugate(q1, q2)
    out.put("status", status)
    if status == tower.CONJUGATE:
        out.put("conjugator", tower.serialize(session.tower, c))
        return EXIT_OK
    return EXIT_NEGATIVE


# -- parser ------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as InputError, exit 3 like every input error
    (argparse itself would exit 2, which means absent within the bound)."""

    def error(self, message):
        raise InputError("usage", message)


@functools.cache  # built on the first run, once per process
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="freeq",
        description="Exact computation in free groups, free constructions, and Q-completions.",
    )
    parser.add_argument("--json", action="store_true", help="emit a JSON document")
    sub = parser.add_subparsers(dest="command", required=True)

    def base_flag(p):
        p.add_argument("--base", default="ab", help="base alphabet letters (default: ab)")

    word = sub.add_parser("word", help="free-group word operations")
    wsub = word.add_subparsers(dest="verb", required=True)
    p = wsub.add_parser("reduce", help="freely reduce a word")
    base_flag(p)
    p.add_argument("word")
    p.set_defaults(func=_cmd_word_reduce)
    p = wsub.add_parser("conj", help="decide conjugacy, with witness")
    base_flag(p)
    p.add_argument("word1")
    p.add_argument("word2")
    p.set_defaults(func=_cmd_word_conj)
    p = wsub.add_parser("root", help="primitive root and exponent")
    base_flag(p)
    p.add_argument("word")
    p.set_defaults(func=_cmd_word_root)
    p = wsub.add_parser("area", help="minimal relator area of a trivial word")
    base_flag(p)
    p.add_argument("word")
    p.add_argument("--relator", action="append", default=[], help="relator word (repeatable)")
    p.add_argument("--area-bound", type=int, default=8, help="search cap (default: 8)")
    p.set_defaults(func=_cmd_word_area)

    subgroup = sub.add_parser("subgroup", help="finitely generated subgroup operations")
    ssub = subgroup.add_subparsers(dest="verb", required=True)
    p = ssub.add_parser("build", help="core graph, rank, and intrinsic basis")
    base_flag(p)
    p.add_argument("generators", nargs="+")
    p.set_defaults(func=_cmd_subgroup_build)
    p = ssub.add_parser("member", help="subgroup membership of a word")
    base_flag(p)
    p.add_argument("word")
    p.add_argument("generators", nargs="+")
    p.set_defaults(func=_cmd_subgroup_member)
    p = ssub.add_parser("malnormal", help="conjugate separation (malnormality)")
    base_flag(p)
    p.add_argument("generators", nargs="+")
    p.set_defaults(func=_cmd_subgroup_malnormal)
    p = ssub.add_parser("qc-const", help="quasiconvexity constant")
    base_flag(p)
    p.add_argument("generators", nargs="+")
    p.set_defaults(func=_cmd_subgroup_qc_const)

    p = sub.add_parser("check-hnn", help="hyperbolicity of a separated HNN-extension")
    p.add_argument("file", help="construction JSON file (kind: hnn)")
    p.set_defaults(func=_cmd_check, kind="hnn")

    p = sub.add_parser("check-amalgam", help="hyperbolicity of an amalgam of free groups")
    p.add_argument("file", help="construction JSON file (kind: amalgam)")
    p.set_defaults(func=_cmd_check, kind="amalgam")

    twr = sub.add_parser("tower", help="iterated centralizer-extension towers")
    tsub = twr.add_subparsers(dest="verb", required=True)
    p = tsub.add_parser("show", help="build a tower from a file and print its steps")
    p.add_argument("file", help="construction JSON file (kind: tower)")
    p.set_defaults(func=_cmd_tower_show)

    vn = sub.add_parser("vn", help="root-class tables")
    vsub = vn.add_subparsers(dest="verb", required=True)
    p = vsub.add_parser("list", help="primitive conjugacy-class table at level n")
    base_flag(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-level", type=int, default=3, help="enumeration cap (default: 3)")
    p.set_defaults(func=_cmd_vn_list)

    qword = sub.add_parser("qword", help="Q-word normalization and decisions")
    qsub = qword.add_subparsers(dest="verb", required=True)

    def q_flags(p):
        base_flag(p)
        p.add_argument("--max-level", type=int, default=3, help="root-index cap (default: 3)")

    p = qsub.add_parser("normalize", help="canonical form of a Q-word")
    q_flags(p)
    p.add_argument("expr")
    p.set_defaults(func=_cmd_qword_normalize)
    p = qsub.add_parser("equal", help="decide equality of two Q-words")
    q_flags(p)
    p.add_argument("expr1")
    p.add_argument("expr2")
    p.set_defaults(func=_cmd_qword_equal)
    p = qsub.add_parser("conj", help="decide conjugacy of two Q-words")
    q_flags(p)
    p.add_argument("expr1")
    p.add_argument("expr2")
    p.set_defaults(func=_cmd_qword_conj)

    return parser


def _failure(ex: Exception):
    """(error code, exit code, message) of a command that raised ex: input
    errors and caps exit 3, a failed certificate exits 4.  As a backstop,
    MemoryError and RecursionError are caps and any other exception is
    internal, each named by its type, so no failure exits 1; that last is a
    bug, and its traceback goes to standard error."""
    if isinstance(ex, InputError):
        return ex.code, EXIT_INPUT, str(ex)
    if isinstance(ex, ResourceCapError):
        return "resource-cap", EXIT_INPUT, str(ex)
    if isinstance(ex, CertificateError):
        return "internal", EXIT_INTERNAL, str(ex)
    named = f"{type(ex).__name__}: {ex}" if str(ex) else type(ex).__name__
    if isinstance(ex, (MemoryError, RecursionError)):
        return "resource-cap", EXIT_INPUT, named
    import traceback  # not at start-up: only a bug gets here

    traceback.print_exception(ex)
    return "internal", EXIT_INTERNAL, named


def run(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    out = _Output("--json" in argv)  # as written, for a usage error
    try:
        args = _build_parser().parse_args(argv)
        out.as_json = args.json
        code = args.func(args, out)
    except Exception as ex:  # noqa: BLE001
        error, code, message = _failure(ex)
        out.doc = {"error": {"code": error, "message": message}}  # drops what the command put
    out.emit()
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
