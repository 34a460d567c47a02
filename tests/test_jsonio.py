"""The canonical writer against its oracle, the stdlib's indented encoder."""

import json
import pathlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genutil import rand_derivation
from hxproof import jsonio
from hxproof.cli import main
from hxproof.goldens import prove_axiom_suite
from hxproof.jsonio import MAX_NESTING, DecodeError, dumps_canonical
from hxproof.kernel import (
    AX, IMP_R, Derivation, axiom, check_derivation, cut, freeze_inst,
    sequent, weaken, weaken_to,
)
from hxproof.syntax import At, Implies, Prop

GOLDEN = pathlib.Path(__file__).resolve().parents[1] / "golden"
GOLDEN_FILES = sorted(GOLDEN.glob("*.json"))
# two goldens as written before nodes left out the conclusions their parents
# imply: every node states its sequent and a `principal` list
FULL_LAYOUT = pathlib.Path(__file__).resolve().parent / "data"


def oracle(obj):
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("path", GOLDEN_FILES, ids=[p.stem for p in GOLDEN_FILES])
def test_golden_files_encode_as_the_oracle(path):
    text = path.read_text()
    blob = json.loads(text)
    assert dumps_canonical(blob) == oracle(blob) == text
    if "model" in path.stem or "graph" in path.stem:
        return
    again = jsonio.derivation_to_json(jsonio.derivation_from_json(blob))
    assert dumps_canonical(again) == oracle(again) == text


def test_goldens_regenerate_byte_for_byte():
    suite = prove_axiom_suite()
    assert len(suite) == 5
    for name, d in suite.items():
        text = (GOLDEN / f"{name}.json").read_text()
        assert dumps_canonical(jsonio.derivation_to_json(d)) == text, name


def test_drawn_derivations_encode_as_the_oracle():
    rng = random.Random(20250810)
    for steps in range(2, 22):
        obj = jsonio.derivation_to_json(rand_derivation(rng, steps=steps))
        assert dumps_canonical(obj) == oracle(obj)


SHARED = {"tag": "at", "nom": "i", "body": {"tag": "prop", "name": "p"}}
SHARED_LIST = [SHARED, {"outer": SHARED}, []]
AWKWARD = st.sampled_from(
    ['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "é", "€", " ", "😀", "a"])
TEXT = st.text(AWKWARD | st.characters(), max_size=8)
SCALARS = (st.none() | st.booleans() | st.integers() | st.floats()
           | st.sampled_from([-0.0, 1e300, 1e-300, 0.1]) | TEXT)
VALUES = st.recursive(
    SCALARS | st.just(SHARED) | st.just(SHARED_LIST) | st.just({}) | st.just([]),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(TEXT, inner, max_size=4)),
    max_leaves=24)


@settings(max_examples=200, deadline=None)
@given(VALUES)
def test_values_encode_as_the_oracle(obj):
    assert dumps_canonical(obj) == oracle(obj)


@pytest.mark.parametrize("obj", [{1: "a"}, {"a": [{None: 0}]}, {("k",): 0}])
def test_non_str_key_is_a_type_error(obj):
    with pytest.raises(TypeError):
        dumps_canonical(obj)


def _deep_member(depth):
    """The JSON object of @i (false -> ... -> p), `depth` implications deep."""
    body = {"tag": "prop", "name": "p"}
    for _ in range(depth):
        body = {"tag": "imp", "lhs": {"tag": "bot"}, "rhs": body}
    return {"tag": "at", "nom": "i", "body": body}


def _deep_leaf(depth):
    """An (Ax) leaf on @i (false -> ... -> p), `depth` implications deep."""
    at = _deep_member(depth)
    return {"rule": "Ax", "principal": [], "children": [],
            "inst": {"phi": {"kind": "node", "expr": at}},
            "conclusion": {"ante": [at], "cons": [at]}}


def test_formula_at_the_nesting_bound_decodes_checks_and_encodes():
    # @i, the implications and p: MAX_NESTING levels in all
    d = jsonio.derivation_from_json(_deep_leaf(MAX_NESTING - 2))
    [violation] = check_derivation(d)
    assert "axiom expression has the wrong form" in violation.message
    text = dumps_canonical(jsonio.derivation_to_json(d))
    assert jsonio.derivation_from_json(json.loads(text)) == d


def test_formula_past_the_nesting_bound_is_a_decode_error():
    with pytest.raises(DecodeError, match="nested more than"):
        jsonio.derivation_from_json(_deep_leaf(MAX_NESTING - 1))
    with pytest.raises(DecodeError, match="nested more than"):
        jsonio.derivation_from_json(_deep_leaf(600))


# ---------------------------------------------------------------------------
# the decoder: height and totality
# ---------------------------------------------------------------------------

def test_a_derivation_of_any_height_round_trips_through_json_objects():
    # both directions walk the levels over a stack; json.loads and
    # dumps_canonical still recurse, so the text of this tree does not load
    p = At("i", Prop("p"))
    extra = {At(f"i{t}", Prop("p")) for t in range(1200)}
    d = weaken_to(axiom(AX, sequent({p}, {p}), {"phi": p}),
                  sequent({p} | extra, {p}))
    assert d.height == 1201
    back = jsonio.derivation_from_json(jsonio.derivation_to_json(d))
    assert back.height == d.height
    assert ([(n.conclusion, n.rule, n.inst) for _, n in back.walk()]
            == [(n.conclusion, n.rule, n.inst) for _, n in d.walk()])


DERIVATION_FILES = [p for p in GOLDEN_FILES
                    if "model" not in p.stem and "graph" not in p.stem]
DERIVATION_TEXTS = [p.read_text() for p in DERIVATION_FILES]
WORDS = st.sampled_from([
    "tag", "name", "nom", "body", "lhs", "rhs", "mod", "left", "right",
    "kind", "cmp", "expr", "value", "rule", "inst", "conclusion", "children",
    "ante", "cons", "prop", "bot", "imp", "at", "dia", "jump", "test",
    "concat", "nominal", "modality", "comparison", "cmpkind", "path", "node",
    "eq", "neq", "i", "phi", "Ax", "WL"])
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=4) | WORDS,
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(WORDS | st.text(max_size=3), inner,
                                     max_size=4)),
    max_leaves=10)
# Python values no JSON text yields: sets, an object, an int too long for
# repr, and a member nested far past the decoder's bound
ODD_VALUES = [set(), {"at"}, object(), 10 ** 5000, _deep_member(2100)]


def _slots(blob):
    """(container, key or index) for every value inside `blob`, and one
    holding `blob` itself."""
    root = [blob]
    out, stack = [], [root]
    while stack:
        v = stack.pop()
        keys = list(v) if isinstance(v, dict) else range(len(v))
        for k in keys:
            out.append((v, k))
            if isinstance(v[k], (dict, list)):
                stack.append(v[k])
    return root, out


def _decodes_or_fails_cleanly(blob):
    try:
        d = jsonio.derivation_from_json(blob)
    except DecodeError:
        return
    assert isinstance(d, Derivation)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(DERIVATION_TEXTS), st.data())
def test_any_value_at_any_field_decodes_or_is_a_decode_error(text, data):
    root, slots = _slots(json.loads(text))
    parent, key = data.draw(st.sampled_from(slots))
    parent[key] = data.draw(JSON_VALUES | st.sampled_from(ODD_VALUES))
    _decodes_or_fails_cleanly(root[0])


@pytest.mark.parametrize("odd", ODD_VALUES,
                         ids=["set", "str-set", "object", "long-int", "deep"])
def test_values_no_json_text_yields_are_decode_errors_at_every_field(odd):
    root, slots = _slots(json.loads(DERIVATION_TEXTS[0]))
    for parent, key in slots:
        kept = parent[key]
        parent[key] = odd
        _decodes_or_fails_cleanly(root[0])
        parent[key] = kept


def test_a_metavariable_that_is_not_a_str_is_a_decode_error():
    # a JSON object's keys are strings; a Python caller's need not be, and
    # freezing an instantiation sorts its keys
    blob = _deep_leaf(1)
    blob["inst"][1] = blob["inst"]["phi"]
    with pytest.raises(DecodeError, match="metavariable is not a str"):
        jsonio.derivation_from_json(blob)


def _reordered(value, rng):
    """A copy of the JSON value `value` in which every object is a new
    dict with its keys in a drawn order."""
    if isinstance(value, list):
        return [_reordered(v, rng) for v in value]
    if isinstance(value, dict):
        items = list(value.items())
        rng.shuffle(items)
        return {k: _reordered(v, rng) for k, v in items}
    return value


def _stated_formulas(blob):
    """Every formula object the derivation object `blob` states: the members
    of its stated conclusions and its node instantiation values."""
    out, stack = [], [blob]
    while stack:
        node = stack.pop()
        for members in node.get("conclusion", {}).values():
            out += members
        out += [v["expr"] for v in node["inst"].values() if v["kind"] == "node"]
        stack += node["children"]
    return out


def test_equal_members_decode_alike_in_any_key_order_or_sharing():
    d = rand_derivation(random.Random(7), steps=12)
    canonical = jsonio.derivation_to_json(d)
    messy = _reordered(canonical, random.Random(1))
    members = _stated_formulas(messy)
    members[0]["note"] = "ignored"
    orders = {}
    for m in members:
        orders.setdefault(json.dumps(m, sort_keys=True), set()).add(tuple(m))
    assert any(len(keys) > 1 for keys in orders.values())
    assert jsonio.derivation_from_json(messy) == d
    assert jsonio.derivation_from_json(canonical) == d


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(1, 16))
def test_drawn_derivations_decode_to_themselves(rng, steps):
    d = rand_derivation(rng, steps=steps)
    obj = jsonio.derivation_to_json(d)
    assert jsonio.derivation_from_json(obj) == d
    assert jsonio.derivation_from_json(json.loads(dumps_canonical(obj))) == d


# ---------------------------------------------------------------------------
# the layout: which conclusions a file states
# ---------------------------------------------------------------------------

def _stated_paths(blob):
    """The paths of the nodes of `blob` that state a `conclusion`."""
    out, stack = set(), [((), blob)]
    while stack:
        path, node = stack.pop()
        if "conclusion" in node:
            out.add(path)
        stack += [((*path, t), c) for t, c in enumerate(node["children"])]
    return out


@pytest.mark.parametrize("name", ["inv-atL", "reflexivity"])
def test_full_layout_files_decode_to_the_goldens(name):
    full = json.loads((FULL_LAYOUT / f"{name}.json").read_text())
    assert "principal" in full and "conclusion" in full["children"][0]
    compact = json.loads((GOLDEN / f"{name}.json").read_text())
    assert jsonio.derivation_from_json(full) \
        == jsonio.derivation_from_json(compact)


P_, Q_, R_ = At("i", Prop("p")), At("i", Prop("q")), At("i", Prop("r"))


def _ax(phi):
    return axiom(AX, sequent({phi}, {phi}), {"phi": phi})


def test_conclusions_are_stated_where_the_parent_does_not_imply_them():
    # a Cut's premisses; the premiss of a weakening whose formula was there
    left = weaken(_ax(Q_), "right", P_)
    right = weaken(_ax(P_), "left", P_)
    d = weaken(cut(left, right, P_), "left", R_)
    assert _stated_paths(jsonio.derivation_to_json(d)) \
        == {(), (0, 0), (0, 1), (0, 1, 0)}
    # a child that does not match its parent's premisses: under an ImpR
    # over an unrelated leaf, and under one whose principal is missing
    inst = freeze_inst({"i": "i", "phi": Prop("p"), "psi": Prop("q")})
    misfits = [Derivation(sequent((), {concl}), IMP_R, inst, (_ax(R_),))
               for concl in (At("i", Implies(Prop("p"), Prop("q"))),
                             At("i", Prop("s")))]
    for tree in misfits:
        assert _stated_paths(jsonio.derivation_to_json(tree)) == {(), (0,)}
    for tree in (d, *misfits):
        obj = jsonio.derivation_to_json(tree)
        assert jsonio.derivation_from_json(obj) == tree
        assert jsonio.derivation_from_json(
            json.loads(dumps_canonical(obj))) == tree


def test_a_cut_premiss_without_its_conclusion_is_a_decode_error(
        tmp_path, capsys):
    blob = json.loads((GOLDEN / "inv-atL.json").read_text())
    stack = [blob]
    while stack:
        node = stack.pop()
        if node["rule"] == "Cut":
            break
        stack += node["children"]
    del node["children"][1]["conclusion"]
    with pytest.raises(DecodeError, match="'Cut' above does not imply"):
        jsonio.derivation_from_json(blob)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(blob))
    code = main(["check", str(bad)])
    out = capsys.readouterr()
    assert code == 3 and out.out == ""
    assert out.err.startswith("error: ") and out.err.count("\n") == 1


@pytest.mark.parametrize("text", DERIVATION_TEXTS,
                         ids=[p.stem for p in DERIVATION_FILES])
def test_dropping_a_root_member_fails_to_decode_or_to_check(text):
    # every member of an end-sequent is used; one that is not could be
    # dropped from a file whose other nodes leave out their conclusions
    root = json.loads(text)["conclusion"]
    for side in ("ante", "cons"):
        for t in range(len(root[side])):
            blob = json.loads(text)
            del blob["conclusion"][side][t]
            try:
                d = jsonio.derivation_from_json(blob)
            except DecodeError:
                continue
            assert check_derivation(d), (side, t)
