"""Command-line surface: subcommand dispatch, exit codes, and deterministic
JSON output."""

import importlib.util
import json
import os
import random
import subprocess
import sys
import time

import pytest

import freeq
from freeq import cli, qcompletion, tower, words
from freeq.qcompletion import MAX_NESTING
from freeq.words import Alphabet

AB = Alphabet(("a", "b"))


def run(capsys, *argv):
    code = cli.run(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code = cli.run(["--json", *argv])
    out = capsys.readouterr().out
    return code, json.loads(out)


@pytest.fixture
def hnn_file(tmp_path):
    path = tmp_path / "k.json"
    path.write_text(
        json.dumps(
            {
                "kind": "hnn",
                "base": {"generators": ["a", "b"]},
                "u_generators": ["aa"],
                "v_generators": ["bb"],
            }
        )
    )
    return str(path)


@pytest.fixture
def amalgam_file(tmp_path):
    path = tmp_path / "am.json"
    path.write_text(
        json.dumps(
            {
                "kind": "amalgam",
                "left": {"generators": ["x"]},
                "right": {"generators": ["y"]},
                "u_generators": ["xx"],
                "v_generators": ["yyy"],
            }
        )
    )
    return str(path)


@pytest.fixture
def tower_file(tmp_path):
    path = tmp_path / "tower.json"
    path.write_text(
        json.dumps(
            {
                "kind": "tower",
                "base": {"generators": ["a", "b"]},
                "steps": [{"v": "ab", "m": 2, "name": "w"}],
            }
        )
    )
    return str(path)


def child_env():
    """The environment for a fresh interpreter that imports this freeq."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(freeq.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def run_module(module):
    """`python -m module --json word reduce abBA` in a fresh interpreter: its JSON."""
    proc = subprocess.run(
        [sys.executable, "-m", module, "--json", "word", "reduce", "abBA"],
        capture_output=True, text=True, env=child_env(), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestWord:
    def test_reduce(self, capsys):
        code, doc = run_json(capsys, "word", "reduce", "abBAa")
        assert code == 0
        assert doc["reduced"] == "a"

    def test_module_entry_point(self):
        # `python -m freeq.cli` runs the CLI, not just imports it
        assert run_module("freeq.cli") == {"length": 0, "reduced": "1"}

    def test_package_entry_point(self):
        assert run_module("freeq") == {"length": 0, "reduced": "1"}

    def test_import_loads_only_the_standard_library(self):
        # importing the CLI in a fresh interpreter loads no third-party module
        code = (
            "import json, sys; before = set(sys.modules); import freeq.cli; "
            "print(json.dumps(sorted(set(sys.modules) - before)))"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=child_env(), timeout=60)
        assert proc.returncode == 0, proc.stderr
        loaded = json.loads(proc.stdout)
        assert "freeq.cli" in loaded
        foreign = [m for m in loaded if m.split(".")[0] not in {"freeq", *sys.stdlib_module_names}]
        assert foreign == []

    def test_cold_import_loads_every_module_and_no_dataclasses(self):
        # the bench tracer looks up each of the seven modules in sys.modules,
        # and the value types are plain classes: no dataclasses, no inspect
        code = "import json, sys; import freeq.cli; print(json.dumps(sorted(sys.modules)))"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=child_env(), timeout=60)
        assert proc.returncode == 0, proc.stderr
        loaded = set(json.loads(proc.stdout))
        layers = ("cli", "qcompletion", "tower", "words", "stallings", "homs", "constructions")
        assert {f"freeq.{m}" for m in layers} <= loaded
        assert "dataclasses" not in loaded

    def test_tracer_targets_resolve(self):
        # `bench/run.py --trace 1` wraps each (module, attribute, class) of
        # the tracer's TARGETS; a name it cannot find breaks the run
        path = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "tracer.py")
        spec = importlib.util.spec_from_file_location("freeq_bench_tracer", path)
        tracer = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer)
        for module, attr, cls in tracer.TARGETS.values():
            owner = importlib.import_module(f"freeq.{module}")
            if cls is not None:
                owner = getattr(owner, cls)
                assert attr in vars(owner), (module, cls, attr)
            assert callable(getattr(owner, attr)), (module, cls, attr)

    def test_parser_built_once(self, capsys):
        run_json(capsys, "word", "reduce", "ab")
        assert cli._build_parser() is cli._build_parser()

    def test_conj_positive(self, capsys):
        code, doc = run_json(capsys, "word", "conj", "Bab", "a")
        assert code == 0
        assert doc["conjugate"] is True

    def test_conj_negative(self, capsys):
        code, doc = run_json(capsys, "word", "conj", "a", "b")
        assert code == 1
        assert doc["conjugate"] is False

    def test_root(self, capsys):
        code, doc = run_json(capsys, "word", "root", "abab")
        assert code == 0
        assert doc == {"root": "ab", "exponent": 2, "primitive": False}

    def test_area_decided(self, capsys):
        code, doc = run_json(
            capsys,
            "word", "area", "aaaaaa", "--base", "a", "--relator", "aaa",
            "--area-bound", "3",
        )
        assert code == 0
        assert doc["area"] == 2

    def test_area_absent(self, capsys):
        code, doc = run_json(
            capsys,
            "word", "area", "abAB", "--relator", "aaa", "--area-bound", "2",
        )
        assert code == 2
        assert doc["status"] == "absent-within-bound"

    def test_area_bound_below_zero(self, capsys):
        code, doc = run_json(capsys, "word", "area", "abAB", "--relator", "aaa", "--area-bound", "-1")
        assert code == 3
        assert doc["error"] == {"code": "invalid-input", "message": "--area-bound must be at least 0"}
        code, doc = run_json(capsys, "word", "area", "abAB", "--relator", "aaa", "--area-bound", "0")
        assert code == 2
        assert doc["status"] == "absent-within-bound"

    @pytest.mark.parametrize("relator", ["aA", "1"])
    def test_area_trivial_relator(self, capsys, relator):
        # an input error, exit 3, not a crash that exits 1
        argv = ("word", "area", "ab", "--relator", relator)
        code, doc = run_json(capsys, *argv)
        assert code == 3
        assert doc == {"error": {"code": "invalid-input", "message": "relator equal to identity"}}
        code, out = run(capsys, *argv)
        assert code == 3
        assert out.startswith("error: ") and "invalid-input" in out

    def test_conj_failed_check_is_internal(self, capsys, monkeypatch):
        # a witness that fails its replay is exit 4, never "not conjugate"
        monkeypatch.setattr(words, "conjugate", lambda w, by: ())
        code, doc = run_json(capsys, "word", "conj", "Bab", "a")
        assert code == 4
        message = "conjugator does not conjugate w1 to w2"
        assert doc == {"error": {"code": "internal", "message": message}}
        code, doc = run_json(capsys, "qword", "conj", "Bab", "a")
        assert code == 4 and doc["error"]["code"] == "internal"

    def test_parse_error(self, capsys):
        code, doc = run_json(capsys, "word", "reduce", "a?b")
        assert code == 3
        assert doc["error"]["code"] == "parse"


class TestSubgroup:
    def test_build(self, capsys):
        code, doc = run_json(capsys, "subgroup", "build", "aa", "ab")
        assert code == 0
        assert doc["rank"] == 2

    def test_member(self, capsys):
        code, _ = run_json(capsys, "subgroup", "member", "aaab", "aa", "ab")
        assert code == 0
        code, _ = run_json(capsys, "subgroup", "member", "a", "aa", "ab")
        assert code == 1

    def test_malnormal(self, capsys):
        code, _ = run_json(capsys, "subgroup", "malnormal", "ab")
        assert code == 0
        code, doc = run_json(capsys, "subgroup", "malnormal", "aa")
        assert code == 1
        assert "witness" in doc

    def test_qc_const_rational_format(self, capsys):
        code, doc = run_json(capsys, "subgroup", "qc-const", "ab")
        assert code == 0
        assert doc["quasiconvexity_constant"] == "1"

    def test_malnormal_over_the_pair_cap(self, capsys):
        # a cyclically reduced word of 5,000 letters has a core of 5,000
        # vertices, so its self fiber product would number 2.5e7 pairs
        rng = random.Random(24)
        w = [rng.choice("ab")]
        while len(w) < 5000:
            x = rng.choice("abAB")
            if x != w[-1].swapcase() and (len(w) < 4999 or x != w[0].swapcase()):
                w.append(x)
        t0 = time.perf_counter()
        code, doc = run_json(capsys, "subgroup", "malnormal", "".join(w))
        assert time.perf_counter() - t0 < 2.0
        assert code == 3
        assert doc["error"] == {
            "code": "resource-cap",
            "message": "fiber product of cores of 5000 and 5000 vertices exceeds 20000000 pairs",
        }


HNN = {"kind": "hnn", "base": {"generators": ["a", "b"]}, "u_generators": ["aa"], "v_generators": ["bb"]}
TORUS = {"kind": "amalgam", "left": {"generators": ["x"]}, "right": {"generators": ["y"]},
         "u_generators": ["xx"], "v_generators": ["yyy"]}
BS23 = {"kind": "hnn", "base": {"generators": ["x"]}, "u_generators": ["xx", "xX"], "v_generators": ["xxx", "1"]}


class TestConstructions:
    def test_check_hnn_counterexample(self, capsys, hnn_file):
        code, doc = run_json(capsys, "check-hnn", hnn_file)
        assert code == 1
        assert doc["outcome"] == "not-hyperbolic"
        assert doc["cited"] == "Corollary 1"

    def test_check_amalgam(self, capsys, amalgam_file):
        code, doc = run_json(capsys, "check-amalgam", amalgam_file)
        assert code == 1
        assert doc["outcome"] == "not-hyperbolic"

    def test_wrong_kind(self, capsys, hnn_file):
        code, doc = run_json(capsys, "check-amalgam", hnn_file)
        assert code == 3
        assert doc["error"]["code"] == "schema"

    def test_schema_violation(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"kind": "hnn", "base": {"generators": []}}))
        code, doc = run_json(capsys, "check-hnn", str(bad))
        assert code == 3
        assert doc["error"]["code"] == "schema"

    def test_missing_file(self, capsys):
        code, doc = run_json(capsys, "check-hnn", "/nonexistent.json")
        assert code == 3
        assert doc["error"]["code"] == "io"

    def test_byte_identical_repeats(self, capsys, hnn_file):
        _, out1 = run(capsys, "--json", "check-hnn", hnn_file)
        _, out2 = run(capsys, "--json", "check-hnn", hnn_file)
        assert out1 == out2

    @pytest.mark.parametrize("doc, identity_doc", [
        (HNN, {**HNN, "u_generators": ["aa", "1"], "v_generators": ["bb", "1"]}),
        (TORUS, {**TORUS, "u_generators": ["xx", "1"], "v_generators": ["yyy", "1"]}),
        ({**BS23, "u_generators": ["xx"], "v_generators": ["xxx"]}, BS23),
    ], ids=["k", "torus", "bs23"])
    def test_identity_generator_keeps_the_verdict(self, capsys, tmp_path, doc, identity_doc):
        # a generator pair that is trivial on both sides changes neither U, V
        # nor psi, so the file prints what it prints without that pair
        paths = []
        for name, d in (("plain.json", doc), ("identity.json", identity_doc)):
            paths.append(tmp_path / name)
            paths[-1].write_text(json.dumps(d))
        command = COMMANDS[doc["kind"]]
        for mode in ([], ["--json"]):
            plain, identity = (run(capsys, *mode, *command, str(path)) for path in paths)
            assert plain[0] == 1
            assert identity == plain

    def test_iso_on_trivial_subgroups(self, capsys, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({**HNN, "u_generators": ["1"], "v_generators": ["1"], "iso": [["a", "b"]]}))
        code, doc = run_json(capsys, "check-hnn", str(path))
        assert code == 3
        assert doc["error"] == {"code": "invalid-input", "message": "associated subgroup mapping is not an isomorphism"}


AMALGAM = {"kind": "amalgam", "left": {"generators": ["x"]}, "right": {"generators": ["y"]},
           "u_generators": ["xx"], "v_generators": ["yyy"], "iso": [["xx", "yyy"]]}
TOWER = {"kind": "tower", "base": {"generators": ["a", "b"]}, "steps": [{"v": "ab", "m": 2, "name": "w"}]}
COMMANDS = {"hnn": ["check-hnn"], "amalgam": ["check-amalgam"], "tower": ["tower", "show"]}
DROP = object()


def edit(doc, *path, value=DROP):
    """A copy of doc with the value at path (keys and indices) replaced or dropped."""
    doc = json.loads(json.dumps(doc))
    obj = doc
    for key in path[:-1]:
        obj = obj[key]
    if value is DROP:
        del obj[path[-1]]
    else:
        obj[path[-1]] = value
    return doc


def malformed_files():
    """(id, kind, document, error code) with one fault each: a `schema` fault
    in the structure, or an `invalid-input` fault in the content."""
    for doc, pres in ((HNN, "base"), (AMALGAM, "left"), (AMALGAM, "right"), (TOWER, "base")):
        for name, d in [
            ("missing", edit(doc, pres)),
            ("array", edit(doc, pres, value=["a"])),
            ("no-generators", edit(doc, pres, "generators")),
            ("empty-generators", edit(doc, pres, "generators", value=[])),
            ("generators-string", edit(doc, pres, "generators", value="ab")),
            ("two-letter-generator", edit(doc, pres, "generators", value=["ab"])),
            ("uppercase-generator", edit(doc, pres, "generators", value=["A"])),
            ("int-generator", edit(doc, pres, "generators", value=[1])),
            ("empty-generator", edit(doc, pres, "generators", value=[""])),
            ("newline-generator", edit(doc, pres, "generators", value=["a\n"])),
            ("relators-string", edit(doc, pres, "relators", value="ab")),
            ("int-relator", edit(doc, pres, "relators", value=[1])),
        ]:
            yield f"{doc['kind']}-{pres}-{name}", doc["kind"], d, "schema"
    for doc in (HNN, AMALGAM):
        for name, d in [
            ("no-u", edit(doc, "u_generators")),
            ("no-v", edit(doc, "v_generators")),
            ("u-string", edit(doc, "u_generators", value="aa")),
            ("v-null", edit(doc, "v_generators", value=[None])),
            ("iso-object", edit(doc, "iso", value={})),
            ("iso-string", edit(doc, "iso", value=["xx"])),
            ("iso-short", edit(doc, "iso", value=[["xx"]])),
            ("iso-long", edit(doc, "iso", value=[["xx", "yyy", "y"]])),
            ("iso-int", edit(doc, "iso", value=[["xx", 3]])),
        ]:
            yield f"{doc['kind']}-{name}", doc["kind"], d, "schema"
    other = {"hnn": AMALGAM, "amalgam": TOWER, "tower": HNN}
    for kind in COMMANDS:
        for name, d in [("array", []), ("string", "hnn"), ("no-kind", {}), ("unknown-kind", {"kind": "graph"}),
                        ("int-kind", {"kind": 1}), ("other-kind", other[kind])]:
            yield f"{kind}-{name}", kind, d, "schema"
    for name, value in [("no-steps", DROP), ("steps-object", {}), ("step-string", ["ab"])]:
        yield f"tower-{name}", "tower", edit(TOWER, "steps", value=value), "schema"
    for key, name, value in [
        ("v", "no-v", DROP), ("v", "v-array", ["ab"]), ("m", "no-m", DROP), ("m", "m-string", "2"),
        ("m", "m-zero", 0), ("m", "m-negative", -2), ("m", "m-bool", True), ("m", "m-fraction", 2.5),
        ("m", "m-float", 2.0), ("m", "m-null", None), ("name", "name-null", None), ("name", "name-int", 7),
    ]:
        yield f"tower-{name}", "tower", edit(TOWER, "steps", 0, key, value=value), "schema"
    for name, kind, d in [
        ("hnn-duplicate-generators", "hnn", edit(HNN, "base", "generators", value=["a", "a"])),
        ("amalgam-duplicate-generators", "amalgam", edit(AMALGAM, "left", "generators", value=["x", "x"])),
        ("tower-duplicate-generators", "tower", edit(TOWER, "base", "generators", value=["a", "b", "a"])),
        ("hnn-relators", "hnn", edit(HNN, "base", "relators", value=["abAB"])),
        ("amalgam-relators", "amalgam", edit(AMALGAM, "right", "relators", value=["yy"])),
        ("tower-relators", "tower", edit(TOWER, "base", "relators", value=["abAB"])),
        ("hnn-bad-relator", "hnn", edit(HNN, "base", "relators", value=["q"])),
        ("hnn-bad-u-word", "hnn", edit(HNN, "u_generators", value=["ac"])),
        ("amalgam-bad-v-word", "amalgam", edit(AMALGAM, "v_generators", value=["x"])),
        ("amalgam-bad-iso-word", "amalgam", edit(AMALGAM, "iso", value=[["yy", "yyy"]])),
        ("hnn-length-mismatch", "hnn", edit(HNN, "v_generators", value=["b", "a"])),
        ("amalgam-not-iso", "amalgam", edit(AMALGAM, "iso", value=[["xx", "yy"]])),
        ("tower-proper-power", "tower", edit(TOWER, "steps", 0, "v", value="abab")),
        ("tower-identity", "tower", edit(TOWER, "steps", 0, "v", value="1")),
        ("tower-longer-than-cyclic-core", "tower", edit(TOWER, "steps", 0, "v", value="aabA")),
        ("tower-longer-than-cyclic-core-level-1", "tower",
         edit(TOWER, "steps", value=TOWER["steps"] + [{"v": "a(ab)^(1/2)A", "m": 2}])),
        ("tower-unparsable-v", "tower", edit(TOWER, "steps", 0, "v", value="(a")),
        ("tower-unknown-letter", "tower", edit(TOWER, "steps", 0, "v", value="c")),
    ]:
        yield name, kind, d, "invalid-input"


MALFORMED = list(malformed_files())


class TestConstructionFiles:
    @pytest.mark.parametrize("kind, doc, error", [row[1:] for row in MALFORMED], ids=[row[0] for row in MALFORMED])
    def test_malformed(self, capsys, tmp_path, kind, doc, error):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        code, out = run_json(capsys, *COMMANDS[kind], str(path))
        assert code == 3
        assert out["error"]["code"] == error

    def test_schema_message_names_the_field(self, capsys, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(edit(TOWER, "steps", 0, "m", value=2.0)))
        _, out = run_json(capsys, "tower", "show", str(path))
        assert out["error"]["message"] == f"{path}#/steps/0/m must be an integer"

    @pytest.mark.parametrize("data", [b"[" * 100000, b"\xff\xfe{", b'{"kind": "hnn", "m": 1' + b"0" * 5000 + b"}"],
                             ids=["deep-nesting", "not-utf8", "long-integer"])
    def test_unreadable_json(self, capsys, tmp_path, data):
        path = tmp_path / "c.json"
        path.write_bytes(data)
        code, out = run_json(capsys, "check-hnn", str(path))
        assert code == 3
        assert out["error"]["code"] == "parse"

    def test_f4_basis_is_decided(self, capsys, tmp_path):
        # the u-words are a basis of F_4 that only length-keeping Nielsen
        # moves reduce, so the iso check needs a complete inversion
        path = tmp_path / "f4.json"
        path.write_text(json.dumps({
            "kind": "hnn", "base": {"generators": ["a", "b", "c", "d"]},
            "u_generators": ["ad", "adBadBA", "DACDA", "DbDACDA"], "v_generators": ["a", "b", "c", "d"],
        }))
        code, out = run_json(capsys, "check-hnn", str(path))
        assert code == 2
        assert out["outcome"] == "hypotheses-fail-inconclusive"
        assert out["details"]["u_rank"] == 4

    def test_fuzz_exits_cleanly(self, capsys, tmp_path):
        # seeded mutations of valid files end in an exit code 0-4, never an exception
        t0 = time.perf_counter()
        rng = random.Random(121)
        path = tmp_path / "c.json"
        values = [None, True, 0, 1, 2, -1, 2.0, 1e300, "", "a", "A", "aa", "ab", "(a", "a^(1/2)", "é",
                  [], ["a"], ["a", "a"], [["a", "b"]], {}, {"generators": ["a"]}]
        count = 0
        for _ in range(400):
            kind = rng.choice(list(COMMANDS))
            doc = json.loads(json.dumps({"hnn": HNN, "amalgam": AMALGAM, "tower": TOWER}[kind]))
            for _ in range(rng.randint(1, 3)):
                obj = doc
                while isinstance(obj, (dict, list)) and obj and rng.random() < 0.6:
                    key = rng.choice(list(obj)) if isinstance(obj, dict) else rng.randrange(len(obj))
                    if not isinstance(obj[key], (dict, list)) or not obj[key]:
                        break
                    obj = obj[key]
                if not isinstance(obj, (dict, list)) or not obj:
                    continue
                key = rng.choice(list(obj)) if isinstance(obj, dict) else rng.randrange(len(obj))
                if rng.random() < 0.2:
                    del obj[key]
                else:
                    obj[key] = rng.choice(values)
            text = json.dumps(doc)
            if rng.random() < 0.2:
                i = rng.randrange(len(text))
                text = text[:i] + text[i + rng.randint(1, 3):]
            path.write_text(text)
            try:
                code = cli.run(["--json", *COMMANDS[kind], str(path)])
            except Exception as ex:  # noqa: BLE001
                pytest.fail(f"{text!r:.200} raised {ex!r:.200}")
            capsys.readouterr()
            assert code in range(5), text
            count += 1
        assert count == 400
        assert time.perf_counter() - t0 < 10.0


class TestTower:
    def test_show(self, capsys, tower_file):
        code, doc = run_json(capsys, "tower", "show", tower_file)
        assert code == 0
        assert doc["level"] == 1
        assert doc["steps"][0]["root"] == "(ab)^(1/2)"

    def test_invalid_step(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps(
                {
                    "kind": "tower",
                    "base": {"generators": ["a", "b"]},
                    "steps": [{"v": "abab", "m": 2}],
                }
            )
        )
        code, doc = run_json(capsys, "tower", "show", str(bad))
        assert code == 3
        assert doc["error"]["code"] == "invalid-input"

    def test_resource_cap(self, capsys, tmp_path):
        # a^(1/5) needs root index 4 over the default max_level of 3
        deep = tmp_path / "deep.json"
        deep.write_text(
            json.dumps(
                {
                    "kind": "tower",
                    "base": {"generators": ["a", "b"]},
                    "steps": [{"v": "a^(1/5)", "m": 2}],
                }
            )
        )
        code, doc = run_json(capsys, "tower", "show", str(deep))
        assert code == 3
        assert doc == {
            "error": {
                "code": "resource-cap",
                "message": "denominator 5 needs root index 4 > max_level 3 for class a",
            }
        }

    def test_step_over_a_root_it_adjoins(self, capsys, tmp_path):
        # (ab)^(1/4) needs a square root of the step's root (ab)^(1/2): the
        # session reading the file adjoins it, then the step's cube root
        path = tmp_path / "t.json"
        path.write_text(json.dumps(edit(TOWER, "steps", value=[{"v": "ab", "m": 2}, {"v": "(ab)^(1/4)", "m": 3}])))
        code, out = run(capsys, "tower", "show", str(path))
        assert code == 0
        assert out == (
            'base: ["a", "b"]\n'
            "level: 3\n"
            'steps: [{"m": 2, "name": "w1", "root": "(ab)^(1/2)", "v": "ab"}, '
            '{"m": 2, "name": "r2[(ab)^(1/2)]", "root": "((ab)^(1/2))^(1/2)", "v": "(ab)^(1/2)"}, '
            '{"m": 3, "name": "w3", "root": "(((ab)^(1/2))^(1/2))^(1/3)", "v": "((ab)^(1/2))^(1/2)"}]\n'
            "aliases: []\n"
        )

    def test_drops_roots_v_does_not_need(self, capsys, tmp_path):
        # ((ab)^(1/2))^2 is ab: the square root of ab it names is not kept,
        # and the session forgets it, so the chain over w1 = (a)^(1/2),
        # at the level that root had, starts at m = 2
        path = tmp_path / "t.json"
        for steps, want in [
            ([("((ab)^(1/2))^2", 2)], [("w1", "ab")]),
            (
                [("(ab)^(1/2)(ab)^(-1/2)a", 2), ("(a)^(1/4)", 3)],
                [("w1", "a"), ("r2[(a)^(1/2)]", "(a)^(1/2)"), ("w3", "((a)^(1/2))^(1/2)")],
            ),
        ]:
            path.write_text(json.dumps(edit(TOWER, "steps", value=[{"v": v, "m": m} for v, m in steps])))
            code, doc = run_json(capsys, "tower", "show", str(path))
            assert code == 0
            assert [(st["name"], st["v"]) for st in doc["steps"]] == want

    def test_restates_t3(self, capsys, tmp_path):
        # T_2's four steps, then each V_3 entry at m = 3: tower_level's own
        # steps, some of them (a(ab)^(1/2)) not cyclically reduced
        t2 = qcompletion.tower_level(AB, 2).tower
        v3 = list(qcompletion.tower_level(AB, 3).tables[2].texts)
        steps = [{"v": tower.serialize(t2, st.v), "m": st.m} for st in t2.steps] + [{"v": v, "m": 3} for v in v3]
        path = tmp_path / "t3.json"
        path.write_text(json.dumps(edit(TOWER, "steps", value=steps)))
        code, doc = run_json(capsys, "tower", "show", str(path))
        assert code == 0
        assert doc["level"] == 92
        assert [st["v"] for st in doc["steps"][4:]] == v3
        assert "a(ab)^(1/2)" in v3


class TestBackstop:
    """An exception no command raises on purpose still ends in an honest exit
    code and an error document, never exit 1 or a traceback on stdout."""

    def raise_from(self, monkeypatch, owner, name, ex):
        def fail(*args, **kwargs):
            raise ex

        monkeypatch.setattr(owner, name, fail)

    @pytest.mark.parametrize(
        "ex, message",
        [(MemoryError(), "MemoryError"), (RecursionError("too deep"), "RecursionError: too deep")],
    )
    def test_memory_and_recursion_are_caps(self, capsys, monkeypatch, ex, message):
        self.raise_from(monkeypatch, words, "dehn_area", ex)
        argv = ("word", "area", "abAB", "--relator", "abAB")
        code, doc = run_json(capsys, *argv)
        assert code == 3
        assert doc == {"error": {"code": "resource-cap", "message": message}}
        code, out = run(capsys, *argv)
        assert code == 3
        assert out == 'error: {"code": "resource-cap", "message": "%s"}\n' % message

    def test_other_exceptions_are_internal(self, capsys, monkeypatch):
        # qword equal puts "equal" before it reads the canonical text: the
        # error document holds the error alone
        self.raise_from(monkeypatch, qcompletion.QSession, "canonical_text", ValueError("boom"))
        argv = ("qword", "equal", "a^(2/2)", "a")
        code = cli.run(["--json", *argv])
        captured = capsys.readouterr()
        assert code == 4
        assert json.loads(captured.out) == {"error": {"code": "internal", "message": "ValueError: boom"}}
        assert "Traceback" in captured.err  # a bug: its traceback goes to stderr
        code, out = run(capsys, *argv)
        assert code == 4
        assert out == 'error: {"code": "internal", "message": "ValueError: boom"}\n'


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["word", "reduce"], "the following arguments are required: word"),
            (["vn", "list", "--n", "x"], "argument --n: invalid int value: 'x'"),
            (["bogus"], "argument command: invalid choice: 'bogus'"),
        ],
    )
    def test_exit_3_with_an_error_document(self, capsys, argv, message):
        # argparse's own exit 2 would read as absent-within-bound
        code, doc = run_json(capsys, *argv)
        assert code == 3
        assert doc["error"]["code"] == "usage"
        assert doc["error"]["message"].startswith(message)
        code, out = run(capsys, *argv)
        assert code == 3
        assert out.startswith('error: {"code": "usage"')

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.run(["vn", "list", "--help"])
        assert exc.value.code == 0
        assert "--max-level" in capsys.readouterr().out


class TestVn:
    def test_list_v2(self, capsys):
        code, doc = run_json(capsys, "vn", "list", "--n", "2")
        assert code == 0
        assert doc["elements"] == ["a", "b", "ab", "aB"]
        assert doc["generator_count"] == 6

    def test_list_v1(self, capsys):
        # T_1's m = 1 steps are aliases: no generator beyond the base
        code, doc = run_json(capsys, "vn", "list", "--n", "1")
        assert code == 0
        assert doc["elements"] == ["a", "b"]
        assert doc["generator_count"] == 2

    def test_list_v3_counts_t3_without_building_it(self, capsys):
        t3 = qcompletion.tower_level(AB, 3)
        code, doc = run_json(capsys, "vn", "list", "--n", "3")
        assert code == 0
        assert doc["elements"] == list(t3.tables[2].texts)
        assert doc["count"] == 88
        assert doc["generator_count"] == t3.generator_count == 94

    def test_max_level_caps_n(self, capsys):
        t0 = time.perf_counter()
        code, doc = run_json(capsys, "vn", "list", "--n", "4")
        assert time.perf_counter() - t0 < 1.0
        assert code == 3
        assert doc["error"] == {"code": "resource-cap", "message": "tower level 4 exceeds max_level 3"}

    def test_product_cap(self, capsys):
        # V_4 over the 94 generators of T_3 would form 188^4 products
        t0 = time.perf_counter()
        code, doc = run_json(capsys, "vn", "list", "--n", "4", "--max-level", "4")
        assert time.perf_counter() - t0 < 5.0
        assert code == 3
        assert doc["error"] == {
            "code": "resource-cap",
            "message": "V_4 over 188 letters would form 188^4 products, more than 1000000",
        }

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_n_below_one(self, capsys, n):
        code, doc = run_json(capsys, "vn", "list", "--n", n)
        assert code == 3
        assert doc["error"] == {"code": "invalid-input", "message": "--n must be at least 1"}


class TestQword:
    def test_normalize(self, capsys):
        code, doc = run_json(capsys, "qword", "normalize", "(ab)^(3/2)")
        assert code == 0
        assert doc["canonical"] == "(ab)^(1/2)ab"
        assert doc["level"] == 2

    def test_equal(self, capsys):
        code, _ = run_json(capsys, "qword", "equal", "a^(2/2)", "a")
        assert code == 0
        code, _ = run_json(capsys, "qword", "equal", "a", "b")
        assert code == 1

    def test_conj_tristate(self, capsys):
        code, doc = run_json(capsys, "qword", "conj", "Bab", "a")
        assert code == 0
        assert doc["status"] == "conjugate"
        code, doc = run_json(capsys, "qword", "conj", "a", "b")
        assert code == 1
        assert doc["status"] == "distinct"

    def test_conj_different_vectors(self, capsys):
        # exponent vectors (1/2, 3/2) and (3/2, 1/2): distinct, not absent
        code, doc = run_json(capsys, "qword", "conj", "(ab)^(1/2)b", "(ab)^(1/2)a")
        assert code == 1
        assert doc == {"status": "distinct"}

    def test_conj_distinct_without_bound(self, capsys):
        # aaB and aBa are conjugate in F only by <aaB>a, which holds no power
        # of ab: no twisted rotation matches, so distinct, never absent
        code, doc = run_json(capsys, "qword", "conj", "(ab)^(1/2)aaB", "(ab)^(1/2)aBa")
        assert code == 1
        assert doc == {"status": "distinct"}

    def test_normalize_agrees_across_sessions(self, capsys):
        # equal elements normalized in separate sessions print one canonical
        # text: the second conjugates the first's core by b^(11/6)
        first = "(b^(-7/4)aaaaa)^(1/2)"
        second = "(b)^(11/6)((b)^(-11/6)(b)^(-7/4)aaaaa(b)^(11/6))^(1/2)(b)^(-11/6)"
        texts = []
        for expr in (first, second):
            code, doc = run_json(capsys, "qword", "normalize", expr, "--max-level", "4")
            assert code == 0
            texts.append(doc["canonical"])
        assert texts[0] == texts[1] == "AAAAA(aaaaa(((b)^(1/2))^(1/3))^(1/2)((b)^(1/2))^(1/3)BB)^(1/2)aaaaa"
        code, doc = run_json(capsys, "qword", "equal", first, second, "--max-level", "4")
        assert code == 0 and doc["equal"] is True

    def test_level_cap(self, capsys):
        # a prime denominator needs a chain of root indices 2, 3, ..., 251
        t0 = time.perf_counter()
        code, doc = run_json(capsys, "qword", "normalize", "(ab)^(1/251)", "--max-level", "100000")
        assert time.perf_counter() - t0 < 1.0
        assert code == 3
        assert doc["error"] == {"code": "resource-cap", "message": f"tower would exceed {tower.MAX_LEVEL} levels"}

    @pytest.mark.parametrize(
        "expr, canonical",
        [
            # the core sits at the level of the index-8 root of ab, where v is
            # the index-7 root: its chain of roots has index product 5,040
            (
                "((ab)^(1/16)a)^(1/2)",
                "A(a(((((ab)^(1/2))^(1/3))^(1/4))^(1/5))^(1/2)((((ab)^(1/2))^(1/3))^(1/4))"
                "^(2/5)(((ab)^(1/2))^(1/3))^(1/4))^(1/2)a",
            ),
            # index product 720; the least twist lies at j = 102
            (
                "((ab)^(1/7)a)^(1/2)",
                "A(a((((((ab)^(1/2))^(1/3))^(1/4))^(1/5))^(1/6))^(6/7)((((ab)^(1/2))^(1/3))"
                "^(1/4))^(2/5)(((ab)^(1/2))^(1/3))^(3/4))^(1/2)a",
            ),
        ],
    )
    def test_deep_chain_twist(self, capsys, expr, canonical):
        t0 = time.perf_counter()
        code, doc = run_json(capsys, "qword", "normalize", expr, "--max-level", "8")
        assert time.perf_counter() - t0 < 10.0
        assert code == 0
        assert doc["canonical"] == canonical

    def test_root_power_below_cap(self, capsys):
        # normalizing carries v^(10!) for v the index-10 root of the ab
        # chain; that power is the word ab, far below the power cap
        args = ["--max-level", "11"]
        code, doc = run_json(capsys, "qword", "normalize", "b(ab)^(1/11)a(ab)^(1/11)", *args)
        assert code == 0
        assert doc["level"] == 11
        code, again = run_json(capsys, "qword", "normalize", doc["canonical"], *args)
        assert code == 0
        assert again["canonical"] == doc["canonical"]

    def test_resource_cap(self, capsys):
        code, doc = run_json(capsys, "qword", "normalize", "a^(1/5)", "--max-level", "2")
        assert code == 3
        assert doc["error"]["code"] == "resource-cap"

    @pytest.mark.parametrize("expr", ["(ab)^(100000000/3)", "a^(30000000)"])
    def test_power_cap(self, capsys, expr):
        t0 = time.perf_counter()
        code, doc = run_json(capsys, "qword", "normalize", expr)
        assert time.perf_counter() - t0 < 1.0
        assert code == 3
        assert doc["error"]["code"] == "resource-cap"

    def test_internal_error(self, capsys, monkeypatch):
        # a certificate that fails its check is exit 4, never an answer
        monkeypatch.setattr(tower, "equal", lambda t, a, b: False)
        code, doc = run_json(capsys, "qword", "conj", "Bab", "a")
        assert code == 4
        assert doc == {
            "error": {"code": "internal", "message": "conjugator does not conjugate f1 to f2"}
        }
        code, out = run(capsys, "qword", "conj", "Bab", "a")
        assert code == 4
        assert "conjugator:" not in out and "verified" not in out and "internal" in out

    def test_syntax_error(self, capsys):
        code, doc = run_json(capsys, "qword", "normalize", "(a")
        assert code == 3
        assert doc["error"]["code"] == "parse"

    def test_deep_nesting(self, capsys):
        code, doc = run_json(capsys, "qword", "normalize", "(" * 2000 + "a" + ")" * 2000)
        assert code == 3
        assert doc["error"]["code"] == "parse"

    def test_human_output(self, capsys):
        code, out = run(capsys, "qword", "normalize", "(ab)^(3/2)")
        assert code == 0
        assert "canonical: (ab)^(1/2)ab" in out

    @pytest.mark.parametrize(
        "expr, position",
        [("a^" + "1" * 5000, 2), ("a^(1/" + "1" * 5000 + ")", 5)],
        ids=["numerator", "denominator"],
    )
    def test_huge_exponent_literal(self, capsys, expr, position):
        # past Python's int-parsing digit limit: a parse error at the digits
        code, doc = run_json(capsys, "qword", "normalize", expr)
        assert code == 3
        assert doc["error"]["code"] == "parse"
        assert doc["error"]["message"].endswith(f"at position {position}")


def hostile_qwords(rng):
    """Seeded hostile Q-word text: mutated valid words, nesting around
    MAX_NESTING, digit runs past the int-parsing limit, stray characters."""
    valid = ["(ab)^(3/2)", "a^(2/2)", "(ba)^(1/2)", "(b a b^(-1))^(3/4)", "abAB",
             "((ab)^(1/2)a)^(1/2)", "(ab)^(1/2)b", "b^(-7/4)aaaaa", "1"]
    stray = "ab()^/-1 23ABxyz$\t\u00e9\x00{}"
    for _ in range(200):
        text = list(rng.choice(valid))
        for _ in range(rng.randint(1, 4)):
            i = rng.randrange(len(text) + 1)
            op = rng.randrange(3)
            if op == 0:
                del text[i : i + 1]
            elif op == 1:
                text.insert(i, rng.choice(stray))
            else:
                text[i:i] = text[i : i + rng.randint(1, 3)]
        yield "".join(text)
    for depth in (MAX_NESTING - 1, MAX_NESTING, MAX_NESTING + 1):
        yield "(" * depth + "a" + ")" * depth
        yield "(" * depth + "ab" + ")^2" * depth
        yield "(" * depth + "ab" + ")^(1/2)" * depth
    digits = "".join(rng.choice("0123456789") for _ in range(5000))
    for n in (4300, 4301, 5000):
        num = "9" + digits[: n - 1]
        yield "a^" + num
        yield "a^(-" + num + ")"
        yield "a^(1/" + num + ")"
        yield f"(ab)^({num}/{num})"
        yield "((a)^(1/2))^" + num
    yield "a" + "1" * 5000
    yield from ["", " ", "^", "a^", "a^(", "a^(1/0)", "a^(/2)", "a^--1", ")(", "((", "a^1/", "\x00", "é"]


class TestQwordFuzz:
    def test_hostile_input_exits_cleanly(self, capsys):
        # every input ends in an exit code 0-4, never an exception
        t0 = time.perf_counter()
        rng = random.Random(120)
        count = 0
        for expr in hostile_qwords(rng):
            other = rng.choice(["a", "(ab)^(1/2)", expr])
            for argv in (["normalize", "--", expr], ["equal", "--", expr, other], ["conj", "--", other, expr]):
                try:
                    code = cli.run(["--json", "qword", *argv])
                except Exception as ex:  # noqa: BLE001
                    pytest.fail(f"{argv!r:.200} raised {ex!r:.200}")
                capsys.readouterr()
                assert code in range(5), argv
                count += 1
        assert count > 700
        assert time.perf_counter() - t0 < 10.0


class TestQwordLongInput:
    def test_long_words_in_budget(self, capsys):
        # a run of plain letters is one free reduction and a word's least
        # rotation is read off its doubled text: neither is quadratic
        rng = random.Random(121)

        def word(n):
            out = []
            while len(out) < n:
                x = rng.choice("abAB")
                if not out or out[-1] != x.swapcase():
                    out.append(x)
            return "".join(out)

        long_word, w = word(20000), word(5000)
        for expr in (long_word, f"({w})^(1/2)"):
            t0 = time.perf_counter()
            code, _ = run(capsys, "qword", "normalize", expr)
            assert code == 0
            assert time.perf_counter() - t0 < 5.0
        code, doc = run_json(capsys, "qword", "equal", f"(({w})^(1/2))^2", w)
        assert code == 0 and doc["equal"] is True
