"""The canonical writer against its oracle, the stdlib's indented encoder."""

import json
import pathlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genutil import rand_derivation
from hxproof import jsonio
from hxproof.goldens import prove_axiom_suite
from hxproof.jsonio import MAX_NESTING, DecodeError, dumps_canonical
from hxproof.kernel import check_derivation

GOLDEN = pathlib.Path(__file__).resolve().parents[1] / "golden"
GOLDEN_FILES = sorted(GOLDEN.glob("*.json"))


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


def test_equal_formulas_share_one_object():
    obj = jsonio.derivation_to_json(rand_derivation(random.Random(7), steps=12))
    assert obj["children"]
    ids = {}
    stack = [obj]
    while stack:
        node = stack.pop()
        for m in node["conclusion"]["ante"] + node["conclusion"]["cons"]:
            ids.setdefault(json.dumps(m, sort_keys=True), set()).add(id(m))
        stack += node["children"]
    assert all(len(s) == 1 for s in ids.values())


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


def _deep_leaf(depth):
    """An (Ax) leaf on @i (false -> ... -> p), `depth` implications deep."""
    body = {"tag": "prop", "name": "p"}
    for _ in range(depth):
        body = {"tag": "imp", "lhs": {"tag": "bot"}, "rhs": body}
    at = {"tag": "at", "nom": "i", "body": body}
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
