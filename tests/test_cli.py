import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

from genutil import weakening_chain
from hxproof import jsonio
from hxproof.cli import main
from hxproof.kernel import AX, Derivation, freeze_inst, sequent
from hxproof.syntax import At, Prop
from test_cutelim import stuck_permutation_cut

GOLDEN = pathlib.Path(__file__).resolve().parents[1] / "golden"
SRC = GOLDEN.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_roundtrip(capsys):
    code, out, _ = run(capsys, "parse", "@i (p -> q)")
    assert code == 0 and out.strip() == "@i (p -> q)"


def test_parse_json_deterministic(capsys):
    code1, out1, _ = run(capsys, "parse", "--emit", "json", "p & q")
    code2, out2, _ = run(capsys, "parse", "--emit", "json", "p & q")
    assert code1 == code2 == 0 and out1 == out2
    blob = json.loads(out1)
    assert blob["tag"] == "imp"


# sha256 of the nested objects the CLI writes: a formula using every
# expression tag, and the end-sequent of a checked golden
@pytest.mark.parametrize("argv,digest", [
    (("parse", "--emit", "json", "@i (<a j: (p?) =c b> -> <a>(k -> false))"),
     "7169efa911b098235251fe36b6a410bfdb3a43ca53e1a9942ec322591cdbc42b"),
    (("check", str(GOLDEN / "nom2.json"), "--emit", "json"),
     "b4af11abfa65b120fb9f18e778ad898ced36d501bc7c2577e041c0c7f4724508"),
], ids=["parse", "check"])
def test_nested_json_output_is_pinned(capsys, argv, digest):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "parse", "p ->")
    assert code == 3 and "error" in err


@pytest.mark.parametrize("argv", [
    ("prove", "p |- p"),                       # not a restricted member
    ("eval", "--graph", str(GOLDEN / "example1-graph.json"),
     "--at", "nX", "<friends>Person"),         # unknown node
], ids=["prove-unrestricted", "eval-unknown-node"])
def test_bad_input_exits_3_with_one_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("prove", "|- @i p", "--bogus"),
    ("prove", "|- @i p", "--max-depth", "x"),
    (),
], ids=["unknown-flag", "bad-value", "missing-command"])
def test_usage_error_exits_3_with_one_line(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    out = capsys.readouterr()
    assert exc.value.code == 3 and out.out == ""
    assert out.err.startswith("error: ") and out.err.count("\n") == 1


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["prove", "--help"])
    assert exc.value.code == 0 and "usage:" in capsys.readouterr().out


def _drop_inst(blob):
    del blob["nodes"][-1]["inst"]


def _unknown_tag(blob):
    blob["exprs"][0][0] = "box"


def _kind_mismatch(blob):
    blob["nodes"][-1]["inst"]["phi"] = "i"


@pytest.mark.parametrize("mutate", [_drop_inst, _unknown_tag, _kind_mismatch],
                         ids=["missing-field", "unknown-tag", "kind-mismatch"])
def test_check_undecodable_json_exits_3_with_one_line(tmp_path, capsys, mutate):
    blob = json.loads((GOLDEN / "nom2.json").read_text())
    mutate(blob)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(blob))
    code, out, err = run(capsys, "check", str(bad))
    assert code == 3 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("content", [
    b"\xff\xfe\x00bin",
    b"[" + b"1" * 5000 + b"]",
], ids=["not-utf8", "integer-too-long"])
@pytest.mark.parametrize("argv", [
    ("check", "{bad}"),
    ("cutfree", "{bad}"),
    ("eval", "--graph", "{bad}", "<a>p"),
    ("eval", "--model", "{bad}", "<a>p"),
    ("entail", "--model", "{bad}", "@i p |- @i p"),
    ("corpus", "{dir}"),
], ids=["check", "cutfree", "eval-graph", "eval-model", "entail-model",
        "corpus"])
def test_a_file_json_cannot_read_exits_3_with_one_line(tmp_path, capsys,
                                                        argv, content):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    argv = [a.format(bad=bad, dir=tmp_path) for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert err.startswith(f"error: cannot read {bad}: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def _deep_value(depth):
    """The nom2 golden with its `nodes` replaced by a list nested `depth`
    levels deep, as text."""
    blob = json.loads((GOLDEN / "nom2.json").read_text())
    blob["nodes"] = "DEEP"
    return json.dumps(blob).replace('"DEEP"', "[" * depth + "]" * depth)


def _deep_formula(depth):
    """A format-2 (Ax) leaf on @i (false -> ... -> p), `depth` implications
    deep, one exprs row per level."""
    exprs = [["bot"], ["prop", "p"]]
    exprs += [["imp", 0, t] for t in range(1, depth + 1)]
    exprs += [["at", "i", depth + 1]]
    top = depth + 2
    leaf = {"rule": "Ax", "inst": {"phi": top}, "children": [],
            "conclusion": [[top], [top]]}
    return json.dumps({"format": 2, "exprs": exprs, "nodes": [leaf]})


# the first is too deep for the JSON reader; the second is refused by the
# decoder's nesting bound (jsonio.MAX_NESTING)
@pytest.mark.parametrize("text,message", [
    (_deep_value(1000), "error: cannot read"),
    (_deep_formula(600), "nested more than"),
], ids=["derivation-1000", "formula-600"])
def test_deeply_nested_input_exits_3_with_one_line(tmp_path, capsys, text,
                                                    message):
    deep = tmp_path / "deep.json"
    deep.write_text(text)
    for argv in (("check", str(deep)), ("cutfree", str(deep))):
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err


def test_a_5000_level_file_checks_and_eliminates(tmp_path, capsys):
    # a weakening chain: format 2 nests no JSON container per level
    d = weakening_chain(5000)
    assert d.height == 5000
    deep = tmp_path / "deep.json"
    deep.write_text(jsonio.dumps_canonical(jsonio.derivation_to_json(d)))
    assert jsonio.derivation_from_json(json.loads(deep.read_text())) == d
    code, out, _ = run(capsys, "check", str(deep))
    assert code == 0 and out.strip() == "ok"
    out_path = tmp_path / "out.json"
    code, _, _ = run(capsys, "cutfree", str(deep), "--out", str(out_path))
    assert code == 0
    # a cut-free tree comes back unchanged, so its file does too
    assert out_path.read_text() == deep.read_text()


@pytest.mark.parametrize("command,flag,blob", [
    ("eval", "--graph", {"nodes": [{"id": "n1"}, {"id": "n2"}],
                         "edges": [{"from": "n1", "to": "n2"}]}),
    ("eval", "--model", {"nodes": ["n1", "n2"], "rels": {"a": [["n1"]]}}),
    ("entail", "--graph", {"edges": []}),
    ("entail", "--model", {"rels": {}}),
], ids=["edge-without-label", "one-node-pair", "graph-without-nodes",
        "model-without-nodes"])
def test_malformed_model_file_exits_3_with_one_line(tmp_path, capsys,
                                                     command, flag, blob):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(blob))
    query = "<a>p" if command == "eval" else "@i p |- @i p"
    code, out, err = run(capsys, command, flag, str(bad), query)
    assert code == 3 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_eval_example1(capsys):
    code, out, _ = run(capsys, "eval", "--model",
                       str(GOLDEN / "example1-model.json"), "--at", "n1",
                       "Person")
    assert code == 0 and out.strip() == "true"
    code, out, _ = run(capsys, "eval", "--model",
                       str(GOLDEN / "example1-model.json"), "--at", "n4",
                       "Person")
    assert code == 1 and out.strip() == "false"


def test_eval_notes_defaulted_nominals(capsys):
    model = str(GOLDEN / "example1-model.json")
    code, out, err = run(capsys, "eval", "--model", model, "@i1 Person")
    assert code == 0 and out.strip() == "true" and err == ""
    code, out, err = run(capsys, "eval", "--model", model,
                         "@ghost Person -> @i1 <eps =name k:>")
    assert code == 0 and out.strip() == "true"  # both at the least node, n1
    assert err == "note: defaulted nominals ['ghost', 'k']\n"


def test_eval_from_graph(capsys):
    code, out, _ = run(capsys, "eval", "--graph",
                       str(GOLDEN / "example1-graph.json"), "--at", "n2",
                       "<i1: born (Date?) =val i1: friends born (Date?)>")
    assert code == 0 and out.strip() == "true"


def test_eval_all_lists_every_node_where_it_holds(capsys):
    graph = str(GOLDEN / "example1-graph.json")
    code, out, _ = run(capsys, "eval", "--graph", graph, "--all",
                       "<i1: born (Date?) =val i1: friends born (Date?)>")
    assert code == 0 and out == "n1 n2 n3 n4 n5 n6\n"
    code, out, _ = run(capsys, "eval", "--graph", graph, "--all",
                       "--emit", "json", "Date")
    assert code == 0 and json.loads(out) == {"nodes": ["n4", "n5", "n6"]}
    code, out, _ = run(capsys, "eval", "--graph", graph, "--all", "false")
    assert code == 1 and out == "\n"
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--graph", graph, "--all", "--at", "n1", "Date"])
    assert exc.value.code == 3


def test_entail(capsys):
    code, _, _ = run(capsys, "entail", "--model",
                     str(GOLDEN / "example1-model.json"),
                     "@i1 Person |- @i1 Person, @i2 Date")
    assert code == 0
    code, _, _ = run(capsys, "entail", "--model",
                     str(GOLDEN / "example1-model.json"), "|- @i1 Date")
    assert code == 1


def test_prove_exit_codes(capsys):
    assert run(capsys, "prove", "|- @i (p -> p)")[0] == 0
    assert run(capsys, "prove", "|- @i p")[0] == 1
    assert run(capsys, "prove", "--countermodel-nodes", "0", "|- @i p")[0] == 2


def test_prove_unknown_names_the_bound_that_stopped_it(capsys):
    code, out, _ = run(capsys, "prove", "--countermodel-nodes", "0",
                       "|- @i p")
    assert code == 2 and out == "unknown (saturated)\n"
    code, out, _ = run(capsys, "prove", "--max-depth", "1",
                       "|- @i (p -> (q -> p))")
    assert code == 2 and out == "unknown (depth)\n"


def test_a_proof_too_large_to_write_exits_3_with_one_line(capsys):
    # the proof is found, but its formula's row spells out to more than
    # jsonio.MAX_EXPR_SIZE, which the reader would refuse
    name = "x" * jsonio.MAX_EXPR_SIZE
    code, out, err = run(capsys, "prove", f"|- @i ({name} -> {name})")
    assert code == 3 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "nodes and name characters" in err


@pytest.mark.parametrize("nodes", ["5", "-1"])
def test_prove_countermodel_bound_out_of_range_exits_3(capsys, monkeypatch,
                                                       nodes):
    # refused before any search: a five-node enumeration would not finish
    def no_search(*args):
        raise AssertionError("search started")
    monkeypatch.setattr("hxproof.cli.prove", no_search)
    code, out, err = run(capsys, "prove", "--countermodel-nodes", nodes,
                         "@i p |- @i q")
    assert code == 3 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("flag", ["--max-depth", "--fresh-budget"])
def test_prove_negative_search_bound_exits_3(capsys, monkeypatch, flag):
    def no_search(*args):
        raise AssertionError("search started")
    monkeypatch.setattr("hxproof.cli.prove", no_search)
    code, out, err = run(capsys, "prove", flag, "-1", "--countermodel-nodes",
                         "0", "|- @i (p -> p)")
    assert code == 3 and out == ""
    assert err == f"error: {flag} must not be negative\n"


def test_prove_prints_the_same_countermodel_under_any_hash_seed():
    # models of 6, 3 and 4 nodes read off failed branches: nominal classes,
    # relations, valuations, comparison classes, and nodes that only
    # eigen-nominals name
    goals = ["@j <a =c eps> |- @i <a>(q -> i), @k (<a !=c a> -> <eps =c j:>)",
             "@i j, @j <a>k, @k p, <k: =c m:>, @m <b>i |- @m q, @i <a>m",
             "@i <a>(p & <b>q), <i: =c j:> |- @j <a =c b>, @i <a><b>p"]

    def emitted(seed):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(SRC))
        out = []
        for g in goals:
            p = subprocess.run(
                [sys.executable, "-m", "hxproof.cli", "prove", "--emit",
                 "json", g], env=env, capture_output=True, text=True,
                timeout=60)
            assert p.returncode == 1, p.stderr
            out.append(p.stdout)
        return out

    first = emitted("0")
    assert [json.loads(o)["status"] for o in first] == ["refuted"] * 3
    assert [len(json.loads(o)["countermodel"]["nodes"]) for o in first] \
        == [6, 3, 4]
    assert emitted("1") == first


def test_prove_emits_checked_derivation(capsys):
    code, out, _ = run(capsys, "prove", "--emit", "json",
                       "|- @i <eps =c eps>")
    assert code == 0
    blob = json.loads(out)
    d = jsonio.derivation_from_json(blob["derivation"])
    from hxproof.kernel import check_derivation
    assert check_derivation(d) == []


def test_prove_hylo_fragment(capsys):
    code, _, _ = run(capsys, "prove", "--fragment", "hylo", "|- @i (p | ~p)")
    assert code == 0
    code, _, err = run(capsys, "prove", "--fragment", "hylo",
                       "|- @i <eps =c eps>")
    assert code == 3 and "error" in err


def test_check_goldens(capsys):
    for name in ("reflexivity", "symmetry", "transitivity", "paste", "nom2"):
        code, out, _ = run(capsys, "check", str(GOLDEN / f"{name}.json"))
        assert code == 0 and out.strip() == "ok"


def test_check_fragment_hylo_tests_every_conclusion(capsys):
    # a derivation that checks is then tested node by node against the
    # basic hybrid fragment: one line per conclusion that leaves it
    code, out, _ = run(capsys, "check", str(GOLDEN / "nom2.json"),
                       "--fragment", "hylo")
    assert code == 0 and out.strip() == "ok"
    code, out, _ = run(capsys, "check", str(GOLDEN / "reflexivity.json"),
                       "--fragment", "hylo")
    lines = out.splitlines()
    assert code == 1 and len(lines) == 4
    assert all(line.startswith("outside the basic hybrid fragment: ")
               for line in lines)


def test_check_mutated_golden_fails(tmp_path, capsys):
    blob = json.loads((GOLDEN / "symmetry.json").read_text())
    node = blob["nodes"][0]                   # the leftmost leaf
    node["rule"] = "EqT"
    node["inst"] = {"i": "i", "c": "c"}
    bad = tmp_path / "mutated.json"
    bad.write_text(json.dumps(blob))
    code, out, _ = run(capsys, "check", str(bad))
    assert code == 1 and "ok" not in out.splitlines()[0]


def test_cutfree_command(tmp_path, capsys):
    for name in ("nom2", "inv-atL"):
        out_path = tmp_path / f"{name}-out.json"
        code, _, err = run(capsys, "cutfree", str(GOLDEN / f"{name}.json"),
                           "--out", str(out_path), "--trace")
        assert code == 0
        blob = json.loads(out_path.read_text())
        d = jsonio.derivation_from_json(blob)
        assert all(node.rule != "Cut" for _, node in d.walk())
        assert err.strip()  # trace lines on stderr


def test_cutfree_checks_its_output_before_writing_it(tmp_path, capsys,
                                                    monkeypatch):
    def broken(d, trace=None):
        # the end-sequent kept, the proof replaced by an unjustified leaf
        return Derivation(d.conclusion, "EqT", (), ())
    monkeypatch.setattr("hxproof.cli.eliminate_cuts", broken)
    out_path = tmp_path / "out.json"
    code, out, err = run(capsys, "cutfree", str(GOLDEN / "inv-atL.json"),
                         "--out", str(out_path))
    assert code == 1 and out == "" and not out_path.exists()
    assert err.startswith("eliminated derivation does not check")
    assert err.count("\n") == 1


@pytest.mark.parametrize("where", ["missing-dir", "a-dir"])
def test_cutfree_unwritable_out_exits_3_with_one_line(tmp_path, capsys,
                                                      where):
    out_path = tmp_path / "missing" / "out.json" if where == "missing-dir" \
        else tmp_path
    code, out, err = run(capsys, "cutfree", str(GOLDEN / "inv-atL.json"),
                         "--out", str(out_path))
    assert code == 3 and out == ""
    assert err.startswith(f"error: cannot write {out_path}: ")
    assert err.count("\n") == 1


def test_corpus_pass_and_fail(tmp_path, capsys):
    code, out, _ = run(capsys, "corpus", str(GOLDEN))
    assert code == 0
    assert out.count(": ok") == 6

    bad_dir = tmp_path / "corpus"
    bad_dir.mkdir()
    (bad_dir / "good.json").write_text((GOLDEN / "nom2.json").read_text())
    blob = json.loads((GOLDEN / "nom2.json").read_text())
    blob["nodes"][-1]["conclusion"][0] = []
    (bad_dir / "bad.json").write_text(json.dumps(blob))
    code, out, _ = run(capsys, "corpus", str(bad_dir))
    assert code == 1 and "FAIL" in out

    empty = tmp_path / "empty"
    empty.mkdir()
    code, _, err = run(capsys, "corpus", str(empty))
    assert code == 0 and "warning" in err


# every bad file kind, as what to put at the path given (None: nothing)
_BAD_FILES = {
    "missing": None,
    "directory": "dir",
    "empty": b"",
    "not-utf8": b"\xff\xfe{}",
    "truncated": b'{"format": 2, "exprs": [["prop", ',
    "too-deep": b"[" * 100_000 + b"]" * 100_000,
    "top-level-list": b"[]",
    "top-level-int": b"5",
    "top-level-field": json.dumps(
        {"format": 2, "exprs": 5, "nodes": 5, "rels": 5, "cmp": 5, "g": 5,
         "val": 5, "edges": 5}).encode(),
}
_FILE_COMMANDS = [
    ("check", "{f}"), ("check", "{f}", "--fragment", "hylo"),
    ("cutfree", "{f}"), ("corpus", "{d}"),
    ("eval", "--model", "{f}", "<a>p"), ("eval", "--graph", "{f}", "<a>p"),
    ("entail", "--model", "{f}", "@i p |- @i p"),
    ("entail", "--graph", "{f}", "@i p |- @i p"),
]
# the file kind each command reads, as the top-level message names it
_KIND_READ = {"check": "a derivation", "cutfree": "a derivation",
              "corpus": "a derivation", "--model": "a model",
              "--graph": "a data graph"}
# goals that end at once at any bound: an axiom, and one that saturates
_QUICK_GOALS = ("@i p |- @i p", "@i <a>p |- @i q")


def _main_outcome(capsys, argv):
    """(exit code, stderr) of one in-process run."""
    try:
        code = main(list(argv))
    except SystemExit as e:
        code = e.code
    return code, capsys.readouterr().err


def test_the_cli_is_total_over_bad_files_and_numbers(tmp_path, capsys):
    # every command that reads a file, on each bad file kind, and `prove`
    # (also `parse`, which reads neither) with each numeric option negative,
    # huge and not an integer: an exit code of 0-3, never a traceback, and
    # one stderr line on exit 3; a top-level value that is not an object is
    # refused by its type, in the words of the file kind the command reads
    runs, lines = [], {}
    for kind, content in _BAD_FILES.items():
        home = tmp_path / kind
        home.mkdir()
        f = home / "x.json"
        if content == "dir":
            f.mkdir()
        elif content is not None:
            f.write_bytes(content)
        d = home if content is not None else tmp_path / "absent"
        for argv in _FILE_COMMANDS:
            runs.append([a.format(f=f, d=d) for a in argv])
            if kind.startswith("top-level-") and kind != "top-level-field":
                what = _KIND_READ.get(argv[0]) or _KIND_READ[argv[1]]
                lines[tuple(runs[-1])] = (
                    f"error: {what} is a JSON object, not "
                    f"{'a list' if content == b'[]' else 'an int'}\n")
    for flag in ("--max-depth", "--fresh-budget", "--countermodel-nodes"):
        for value in ("-1", "1000000000000", "9" * 5000, "1.5"):
            for goal in _QUICK_GOALS:
                for fragment in ("full", "hylo"):
                    runs.append(["prove", goal, flag, value,
                                 "--fragment", fragment])
    runs += [["parse", "p ->"], ["parse", "@i " * 5000 + "p"], []]
    bad = []
    for argv in runs:
        code, err = _main_outcome(capsys, argv)
        if code not in (0, 1, 2, 3) or "Traceback" in err or (
                code == 3 and err.count("\n") != 1) or (
                tuple(argv) in lines and (code, err) != (3, lines[tuple(argv)])):
            bad.append((argv[:4], code, err[:200]))
    assert not bad
    assert len(lines) == 2 * len(_FILE_COMMANDS)
    assert len(runs) > 100


def test_each_refusal_of_a_well_formed_input_is_one_line(tmp_path, capsys):
    # a derivation that does not check, and a cut that no step reduces, make
    # `cutfree` exit 1; input too deep to parse, a derivation of no nodes
    # and a model of no nodes exit 3
    p, q = At("i", Prop("p")), At("i", Prop("q"))
    files = {
        "unchecked.json": jsonio.derivation_to_json(Derivation(
            sequent({p}, {q}), AX, freeze_inst({"phi": p}))),
        "stuck.json": jsonio.derivation_to_json(stuck_permutation_cut()),
        "no-nodes.json": {"format": 2, "exprs": [], "nodes": []},
        "no-model-nodes.json": {"nodes": []},
    }
    for name, blob in files.items():
        (tmp_path / name).write_text(jsonio.dumps_canonical(blob))
    for argv, code, err in [
        (("cutfree", "unchecked.json"), 1,
         "input derivation does not check\n"),
        (("cutfree", "stuck.json"), 1, "cut elimination failed: stuck cut "
         "at root: permuted premiss does not fit ImpL\n"),
        (("parse", "(" * 3000 + "p" + ")" * 3000), 3,
         "error: input nested too deeply\n"),
        (("check", "no-nodes.json"), 3,
         "error: a derivation needs at least one node\n"),
        (("eval", "--model", "no-model-nodes.json", "p"), 3,
         "error: node set must be non-empty\n"),
    ]:
        argv = [str(tmp_path / a) if a in files else a for a in argv]
        assert _main_outcome(capsys, argv) == (code, err), argv[:2]
