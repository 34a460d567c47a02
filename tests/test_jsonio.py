"""Derivation files (format 2) and the canonical writer against its
oracle."""

import functools
import itertools
import json
import pathlib
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import format2_oracle
from genutil import rand_derivation, weakening_chain
from hxproof import jsonio
from hxproof import syntax as sx
from hxproof.cli import main
from hxproof.derived import replace
from hxproof.goldens import prove_axiom_suite
from hxproof.jsonio import (
    MAX_EXPR_SIZE, MAX_NESTING, DecodeError, dumps_canonical,
)
from hxproof.kernel import (
    AX, CUT, IMP_R, Derivation, axiom, check_derivation, cut,
    freeze_inst, sequent, weaken,
)
from hxproof.syntax import At, CmpKind, Implies, Prop

GOLDEN = pathlib.Path(__file__).resolve().parents[1] / "golden"
GOLDEN_FILES = sorted(GOLDEN.glob("*.json"))


def oracle(obj):
    """The canonical text rule, spelt out with the stdlib: an object outside
    any list gets one member per line, indented two spaces a level, keys
    sorted; a list gets one item per line, each compact with sorted keys."""
    return _layout(obj, "") + "\n"


def _layout(obj, indent):
    inner = indent + "  "
    if isinstance(obj, dict) and obj:
        lines = [f"{inner}{json.dumps(k)}: {_layout(obj[k], inner)}"
                 for k in sorted(obj)]
        return "{\n" + ",\n".join(lines) + f"\n{indent}}}"
    if isinstance(obj, (list, tuple)) and obj:
        lines = [inner + json.dumps(v, sort_keys=True, separators=(",", ":"))
                 for v in obj]
        return "[\n" + ",\n".join(lines) + f"\n{indent}]"
    return json.dumps(obj)


def _same_value(text, obj):
    """`text` reads back as `obj`, tuples read as lists."""
    return (json.dumps(json.loads(text), sort_keys=True)
            == json.dumps(obj, sort_keys=True))


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
    text = dumps_canonical(obj)
    assert text == oracle(obj)
    assert _same_value(text, obj)


@pytest.mark.parametrize("obj", [{1: "a"}, {"a": [{None: 0}]}, {("k",): 0}])
def test_non_str_key_is_a_type_error(obj):
    with pytest.raises(TypeError):
        dumps_canonical(obj)


@pytest.mark.parametrize(
    "obj", [[{1.5: 0}], [[{"k": {True: 0}}]], [{"x": 0, "y": [{-7: 0}]}]])
def test_a_non_str_key_inside_a_list_item_is_a_type_error(obj):
    # the C encoder would write these keys as strings
    with pytest.raises(TypeError):
        dumps_canonical(obj)


def test_str_keys_that_read_like_numbers_are_written():
    obj = [{"1": 0, "null": [{"-2.5e3": 1, "true": 2}]}]
    assert dumps_canonical(obj) == oracle(obj)


def _deep_member(depth):
    """The JSON object of @i (false -> ... -> p), `depth` implications deep."""
    body = {"tag": "prop", "name": "p"}
    for _ in range(depth):
        body = {"tag": "imp", "lhs": {"tag": "bot"}, "rhs": body}
    return {"tag": "at", "nom": "i", "body": body}


# ---------------------------------------------------------------------------
# the decoder: height and totality
# ---------------------------------------------------------------------------

def _copy(d):
    """A node-for-node copy of `d` that shares no node with it."""
    copies = {}
    for _, node in reversed(list(d.walk())):   # every node after its subtree
        copies[id(node)] = Derivation(
            node.conclusion, node.rule, node.inst,
            tuple(copies[id(c)] for c in node.children))
    return copies[id(d)]


def test_a_derivation_of_any_height_round_trips_through_json_objects():
    # both directions walk the levels over a stack, and format 2 nests no
    # container per level, so the text of this tree loads as well
    d = weakening_chain(1201, distinct=1200)
    assert d.height == 1201
    back = jsonio.derivation_from_json(jsonio.derivation_to_json(d))
    assert back.height == d.height
    assert ([(n.conclusion, n.rule, n.inst) for _, n in back.walk()]
            == [(n.conclusion, n.rule, n.inst) for _, n in d.walk()])
    text = dumps_canonical(jsonio.derivation_to_json(d))
    assert jsonio.derivation_from_json(json.loads(text)) == d


def test_derivations_hash_at_any_height():
    a = weakening_chain(5000)
    b = _copy(a)
    assert b is not a and hash(a) == hash(b)
    assert len({a, b}) == 1


def test_derivations_compare_at_any_height():
    a = weakening_chain(5000)
    b = _copy(a)
    assert b is not a and b.children[0] is not a.children[0]
    assert a == b
    leaf = (0,) * 4999
    bottom = functools.reduce(lambda node, t: node.children[t], leaf, b)
    other = replace(b, leaf, Derivation(bottom.conclusion, "Open", ()))
    assert a != other and other != a


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


def _outcome(decode, blob):
    """What `decode` makes of `blob`: ("ok", derivation) or ("error", the
    DecodeError's message)."""
    try:
        return "ok", decode(blob)
    except DecodeError as e:
        return "error", str(e)


def _decodes_or_fails_cleanly(blob):
    # the same derivation as the reference reader, or the same refusal
    got = _outcome(jsonio.derivation_from_json, blob)
    assert got == _outcome(format2_oracle.derivation_from_json, blob)
    assert got[0] == "error" or isinstance(got[1], Derivation)


# values a format-2 file holds: row indices in and out of range, rows and
# conclusions of other shapes
ROW_VALUES = (st.integers(-2, 45) | st.lists(st.integers(-1, 45), max_size=3)
              | st.lists(st.lists(st.integers(-1, 45), max_size=3),
                         min_size=1, max_size=3)
              | st.tuples(st.sampled_from(sorted(jsonio._ROWS)), WORDS,
                          st.integers(-1, 45)).map(list))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(DERIVATION_TEXTS), st.data())
def test_any_value_at_any_format_2_field_decodes_or_is_a_decode_error(
        text, data):
    root, slots = _slots(json.loads(text))
    for _ in range(data.draw(st.integers(1, 3))):
        parent, key = data.draw(st.sampled_from(slots))
        parent[key] = data.draw(ROW_VALUES | JSON_VALUES
                                | st.sampled_from(ODD_VALUES))
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


# ---------------------------------------------------------------------------
# format 2: rows that name rows
# ---------------------------------------------------------------------------

def _flat_file(exprs, nodes):
    return {"format": 2, "exprs": exprs, "nodes": nodes}


def _doublings(n):
    """exprs rows for p, n rows each implying the row before from itself,
    and @i over the last: the last row spells out to 2^(n+1) nodes."""
    return ([["prop", "p"]] + [["imp", k, k] for k in range(n)]
            + [["at", "i", n]])


@pytest.mark.parametrize("blob,message", [
    ({"rule": "Ax", "inst": {}, "children": []}, "missing field 'format'"),
    ([], "^a derivation is a JSON object, not a list$"),
    (None, "^a derivation is a JSON object, not null$"),
    (5, "^a derivation is a JSON object, not an int$"),
    ({"format": 1, "exprs": [], "nodes": []}, "unknown derivation format: 1"),
    ({"format": "2"}, "unknown derivation format: '2'"),
    ({"format": True}, "unknown derivation format: True"),
], ids=["nested", "list", "null", "int", "format-1", "str", "bool"])
def test_an_object_that_is_not_format_2_is_a_decode_error(blob, message):
    with pytest.raises(DecodeError, match=message):
        jsonio.derivation_from_json(blob)


def _row_faults():
    """(tag, fault, row, message) for each fault a row of each `_ROWS` tag
    can have, the row being row 2, after a node row (0) and a path row (1):
    a field too many or too few, a name that is not a str, a child that is
    no earlier row or one of the other sort, and an unknown comparison
    kind; and, with faults in two fields in a row, the refusal of the
    first."""
    sample = {"name": "n", "kind": "eq", "node": 0, "path": 1}
    for tag, (_, fields) in jsonio._ROWS.items():
        good = [tag, *(sample[sort] for _, sort in fields)]
        arity = f"; {tag!r} takes {len(fields)}"
        yield tag, "good", good, None
        yield tag, "field-too-many", good + [0], \
            f"exprs row 2 has {len(fields) + 1} field(s){arity}"
        if fields:
            yield tag, "field-too-few", good[:-1], \
                f"exprs row 2 has {len(fields) - 1} field(s){arity}"
        faults = []
        for k, (key, sort) in enumerate(fields, 1):
            if sort == "name":
                cases = [(5, "exprs row 2 has a name that is not a str: 5")]
            elif sort == "kind":
                cases = [("ge", "unknown comparison kind: 'ge'")]
            else:
                other = sample["path" if sort == "node" else "node"]
                cases = [(v, f"{v!r} does not name an earlier exprs row")
                         for v in (2, 3, -1, True, 0.0, "0")]
                cases.append(
                    (other, f"exprs row {other} is not a {sort} expression"))
            for n, (v, message) in enumerate(cases):
                bad = list(good)
                bad[k] = v
                yield tag, f"{key}-{n}", bad, message
            faults.append((k, cases[0][0], cases[-1][0], cases[0][1]))
        for (first, v, _, message), (then, _, w, _) in zip(faults, faults[1:]):
            bad = list(good)
            bad[first], bad[then] = v, w
            yield tag, f"fields-{first}-and-{then}", bad, message


ROW_FAULTS = list(_row_faults())


@pytest.mark.parametrize("tag,fault,row,message", ROW_FAULTS,
                         ids=[f"{tag}-{fault}" for tag, fault, *_ in ROW_FAULTS])
def test_each_row_fault_of_each_tag_is_refused_by_name(tag, fault, row,
                                                       message):
    leaf = {"rule": "Open", "inst": {}, "children": [], "conclusion": [[], []]}
    blob = _flat_file([["prop", "p"], ["mod", "a"], row], [leaf])
    got = _outcome(jsonio.derivation_from_json, blob)
    assert got == _outcome(format2_oracle.derivation_from_json, blob)
    assert got[0] == ("ok" if message is None else "error")
    assert message is None or got[1] == message


@pytest.mark.parametrize("row,message", [
    ({"rule": 1, "inst": {"phi": -1}}, "field 'rule' is not a str: 1"),
    ({"rule": "Ax", "inst": [], "children": 0}, "field 'inst' is not a dict: []"),
    ({"rule": "Ax", "inst": {"phi": -1}},
     "-1 does not name an earlier exprs row"),
    ({"rule": "Ax", "inst": {"phi": 0}, "children": {}},
     "field 'children' is not a list: {}"),
    ({"rule": "Ax", "inst": {"phi": 0}}, "missing field 'children'"),
    ([], "missing field 'rule'"),
], ids=["rule", "inst", "inst-value", "children", "no-children", "list"])
def test_node_row_fields_are_refused_in_their_order(row, message):
    blob = _flat_file([["prop", "p"]], [row])
    got = _outcome(jsonio.derivation_from_json, blob)
    assert got == _outcome(format2_oracle.derivation_from_json, blob)
    assert got == ("error", message)


def _counted_decode(blob, most):
    """The derivation `blob` encodes, read while counting the expressions
    built: each call of `syntax._intern` builds one that no earlier call
    built. The call past `most` fails before it builds, so a reader that
    builds a row before it refuses the row fails here, at once, rather than
    building a tree of 2^n nodes."""
    built, intern = 0, sx._intern

    def counted(*args):
        nonlocal built
        built += 1
        assert built <= most, f"more than {most} expressions built"
        return intern(*args)

    with mock.patch.object(sx, "_intern", counted):
        return jsonio.derivation_from_json(blob)


# single characters no other test names anything by, so that every row of
# a file made with one is built when read, and counted
_FRESH = (chr(c) for c in itertools.count(0x4E00))


def test_a_node_row_named_twice_is_a_decode_error():
    # 64 Cuts, each naming the row before it twice: as a tree, 2^64 leaves
    rows = [{"rule": "Ax", "inst": {"phi": 1}, "children": [],
             "conclusion": [[1], [1]]}]
    rows += [{"rule": "Cut", "inst": {"phi": 1}, "children": [t, t],
              "conclusion": [[1], [1]]} for t in range(64)]
    blob = _flat_file([["prop", "p"], ["at", "i", 0]], rows)
    with pytest.raises(DecodeError, match="node 0 is named as a child twice"):
        _counted_decode(blob, 2)


@pytest.mark.parametrize("children", [[[], [], [0]], [[0]], [[1], []]],
                         ids=["orphan", "own-child", "later-child"])
def test_node_rows_that_are_not_a_post_order_tree_are_decode_errors(
        children):
    rows = [{"rule": "WL", "inst": {"phi": 1}, "children": kids,
             "conclusion": [[1], [1]]} for kids in children]
    with pytest.raises(DecodeError, match="node"):
        jsonio.derivation_from_json(
            _flat_file([["prop", "p"], ["at", "i", 0]], rows))


def _doubling_leaf(n, name=None):
    """An (Ax) leaf on the last of `_doublings(n)`, with `name` for p, by
    default a fresh one."""
    exprs = _doublings(n)
    exprs[0][1] = name or next(_FRESH)
    leaf = {"rule": "Ax", "inst": {"phi": n + 1}, "children": [],
            "conclusion": [[n + 1], [n + 1]]}
    return _flat_file(exprs, [leaf])


def _doubling_size(n):
    """What the rows of `_doublings(n)` spell out to, nodes and name
    characters: p is 2, each implication 1 + twice the row before, and @i
    2 + the last implication."""
    return 3 * 2 ** n + 1


def test_an_expression_row_past_the_size_bound_is_a_decode_error():
    n = 12
    assert _doubling_size(n) <= MAX_EXPR_SIZE < 3 * 2 ** (n + 1) - 1
    [violation] = check_derivation(_counted_decode(_doubling_leaf(n), n + 2))
    assert "axiom expression has the wrong form" in violation.message
    # row n + 1 is past the bound and is refused before it is built, after
    # rows 0 to n; built, the rows below it would be megabytes
    past = f"more than {MAX_EXPR_SIZE} nodes and name characters"
    with pytest.raises(DecodeError, match=past):
        _counted_decode(_doubling_leaf(20), n + 1)
    # 64 rows of (k -> k) spell out to 2^65 nodes; the print key of each
    # would be rendered in full as the row is built
    with pytest.raises(DecodeError, match=past):
        _counted_decode(_doubling_leaf(64), n + 1)


def test_a_long_name_under_doubling_rows_is_a_decode_error():
    # each name counts by its characters: under 12 doublings a name prints
    # 4,096 times in one key, so a name of a million characters would make
    # it gigabytes; this one is kept short enough that a decoder without
    # the bound fails the test rather than the machine
    past = f"more than {MAX_EXPR_SIZE} nodes and name characters"
    name = next(_FRESH) * (MAX_EXPR_SIZE // 8)
    # rows 0 to 2 spell out to under 8 times the name, and row 3 to more
    with pytest.raises(DecodeError, match=past):
        _counted_decode(_doubling_leaf(12, name), 3)
    assert _counted_decode(_doubling_leaf(2, name), 4)
    with pytest.raises(DecodeError, match=past):
        _counted_decode(_doubling_leaf(0, next(_FRESH) * MAX_EXPR_SIZE), 0)


_BUDGET = "the rows spell out to more than"


def test_rows_past_the_file_budget_are_a_decode_error():
    # each row is within MAX_EXPR_SIZE, but 2,000 rows each naming a long
    # row under another nominal spell out to far more than the file holds
    exprs = [["prop", next(_FRESH) * (MAX_EXPR_SIZE - 10)]]
    exprs += [["at", f"i{k}", 0] for k in range(2000)]
    leaf = {"rule": "Ax", "inst": {"phi": 1}, "children": [],
            "conclusion": [[1], [1]]}
    # the first row past the budget: the prop spells out to 1 + its name
    # and charges 2 + it, an @ row to 1 + its nominal + the prop and
    # charges 3 + its nominal; rows up to it are built, it is not
    first = 1 + len(exprs[0][1])
    spelt, own, past = first, 1 + first, 0
    while spelt <= jsonio.TABLE_ALLOWANCE + jsonio.TABLE_FACTOR * own:
        past += 1
        spelt += first + 1 + len(exprs[past][1])
        own += 3 + len(exprs[past][1])
    assert 50 < past < 100
    with pytest.raises(DecodeError, match=_BUDGET):
        _counted_decode(_flat_file(exprs, [leaf]), past)
    # the first rows are within the allowance
    count = jsonio.TABLE_ALLOWANCE // MAX_EXPR_SIZE
    assert _counted_decode(_flat_file(exprs[:count], [leaf]), count)


def test_node_rows_past_the_file_budget_are_a_decode_error():
    # a chain of DiaR rows over one long formula, each under a nominal of
    # its own: replaying their premisses would build @j phi for every j
    exprs = [["prop", next(_FRESH) * (MAX_EXPR_SIZE - 10)]]
    rows = [{"rule": "DiaR", "children": [t - 1] if t else [],
             "inst": {"i": "i", "a": "a", "phi": 0, "j": f"j{t}"}}
            for t in range(2000)]
    rows[-1]["conclusion"] = [[], []]
    # refused before any premiss is built: only the prop row is
    with pytest.raises(DecodeError, match=_BUDGET):
        _counted_decode(_flat_file(exprs, rows), 1)


def _long_leaf(chars):
    """An (Ax) leaf on @i p, where p's name makes @i p spell out to
    `chars`."""
    phi = At("i", Prop("x" * (chars - 3)))
    return axiom(AX, sequent([phi], [phi]), {"phi": phi})


def test_the_writer_refuses_what_the_reader_would():
    # at the bound a tree round-trips; past it the writer raises
    d = _long_leaf(MAX_EXPR_SIZE)
    text = dumps_canonical(jsonio.derivation_to_json(d))
    assert jsonio.derivation_from_json(json.loads(text)) == d
    with pytest.raises(jsonio.EncodeError, match="nodes and name characters"):
        jsonio.derivation_to_json(_long_leaf(MAX_EXPR_SIZE + 1))
    # a balanced formula past the bound, within MAX_NESTING
    phi = Prop("p")
    for _ in range(13):
        phi = Implies(phi, phi)
    phi = At("i", phi)
    big = Derivation(sequent([phi], [phi]), AX, freeze_inst({"phi": phi}))
    with pytest.raises(jsonio.EncodeError, match="nodes and name characters"):
        jsonio.derivation_to_json(big)
    # many rows each within the bound, past the file's budget
    phis = [At(f"i{k}", Prop("x" * (MAX_EXPR_SIZE - 10))) for k in range(200)]
    wide = Derivation(sequent(phis, phis[:1]), AX, freeze_inst({"phi": phis[0]}))
    with pytest.raises(jsonio.EncodeError, match=_BUDGET):
        jsonio.derivation_to_json(wide)


class _Name(str):
    """A name of a class of its own."""


def test_a_value_of_the_wrong_sort_is_refused_when_written():
    p = At("i", Prop("p"))
    for key, value in [("alpha", p), ("phi", "p"), ("i", p), ("kind", "eq"),
                       ("kind", _Name("eq")), ("i", CmpKind.EQ)]:
        d = Derivation(sequent([p], [p]), "Open", freeze_inst({key: value}))
        for write in (jsonio.derivation_to_json,
                      format2_oracle.derivation_to_json):
            with pytest.raises(TypeError, match=f"^metavariable {key} holds"):
                write(d)
    # a value of a subclass of the class a metavariable holds is written as
    # one of that class
    d = Derivation(sequent([p], [p]), "Open",
                   freeze_inst({"i": _Name("i"), "phi": p}))
    assert jsonio.derivation_to_json(d) \
        == format2_oracle.derivation_to_json(d)
    assert jsonio.derivation_to_json(d)["nodes"][0]["inst"]["i"] == "i"


def _implications_at_the_bound():
    """The rows of @i (p -> (p -> ... (bot -> p))): each row is nested one
    level deeper than the row it names, MAX_NESTING levels in all."""
    exprs = [["bot"], ["prop", "p"]]
    exprs += [["imp", 0, t] for t in range(1, MAX_NESTING - 1)]
    exprs += [["at", "i", len(exprs) - 1]]
    return exprs


def _ax_row(top):
    return {"rule": "Ax", "inst": {"phi": top}, "children": [],
            "conclusion": [[top], [top]]}


def test_formula_at_the_nesting_bound_decodes_checks_and_encodes():
    exprs = _implications_at_the_bound()
    d = jsonio.derivation_from_json(_flat_file(exprs, [_ax_row(len(exprs) - 1)]))
    [violation] = check_derivation(d)
    assert "axiom expression has the wrong form" in violation.message
    text = dumps_canonical(jsonio.derivation_to_json(d))
    assert jsonio.derivation_from_json(json.loads(text)) == d


def test_an_expression_row_past_the_nesting_bound_is_a_decode_error():
    exprs = _implications_at_the_bound()
    top = len(exprs) - 1
    exprs[-1:] = [["imp", 0, top - 1], ["at", "i", top]]
    with pytest.raises(DecodeError, match="nested more than"):
        jsonio.derivation_from_json(_flat_file(exprs, [_ax_row(top + 1)]))


def _tests_in_comparisons(pairs):
    """A format-2 (Ax) leaf on @i <(<(p?) =c a>?) =c a>, the comparison
    nested `pairs` times: each pair of rows, a test path and a comparison,
    is two levels."""
    exprs, body = [["prop", "p"], ["mod", "a"]], 0
    for _ in range(pairs):
        exprs += [["test", body], ["cmp", len(exprs), "eq", "c", 1]]
        body = len(exprs) - 1
    exprs.append(["at", "i", body])
    top = len(exprs) - 1
    return _flat_file(exprs, [{"rule": "Ax", "inst": {"phi": top},
                               "children": [], "conclusion": [[top], [top]]}])


def test_formula_past_the_nesting_bound_is_a_decode_error():
    # the levels of path rows count as well: p, then two per pair, then @i
    assert 2 + 2 * 249 == MAX_NESTING
    assert jsonio.derivation_from_json(_tests_in_comparisons(249))
    for pairs in (250, 600):
        with pytest.raises(DecodeError, match="nested more than"):
            jsonio.derivation_from_json(_tests_in_comparisons(pairs))


def test_a_metavariable_that_is_not_a_str_is_a_decode_error():
    # a JSON object's keys are strings; a Python caller's need not be, and
    # freezing an instantiation sorts its keys
    flat = jsonio.derivation_to_json(_ax(P_))
    flat["nodes"][0]["inst"][1] = flat["nodes"][0]["inst"]["phi"]
    with pytest.raises(DecodeError, match="metavariable is not a str"):
        jsonio.derivation_from_json(flat)


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(1, 16))
def test_drawn_derivations_decode_to_themselves(rng, steps):
    d = rand_derivation(rng, steps=steps)
    obj = jsonio.derivation_to_json(d)
    assert obj == format2_oracle.derivation_to_json(d)
    assert jsonio.derivation_from_json(obj) == d
    assert jsonio.derivation_from_json(json.loads(dumps_canonical(obj))) == d


# ---------------------------------------------------------------------------
# the layout: which conclusions a file states
# ---------------------------------------------------------------------------

def _stated_paths(blob):
    """The paths of the nodes of the format-2 object `blob` that state a
    `conclusion`."""
    rows = blob["nodes"]
    out, stack = set(), [((), len(rows) - 1)]
    while stack:
        path, t = stack.pop()
        if "conclusion" in rows[t]:
            out.add(path)
        stack += [((*path, k), c) for k, c in enumerate(rows[t]["children"])]
    return out


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
    [node] = [row for row in blob["nodes"] if row["rule"] == CUT]
    del blob["nodes"][node["children"][1]]["conclusion"]
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
    root = json.loads(text)["nodes"][-1]["conclusion"]
    for side in (0, 1):
        for t in range(len(root[side])):
            blob = json.loads(text)
            del blob["nodes"][-1]["conclusion"][side][t]
            try:
                d = jsonio.derivation_from_json(blob)
            except DecodeError:
                continue
            assert check_derivation(d), (side, t)
