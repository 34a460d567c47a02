import dataclasses
import gc
import itertools
import json
import pathlib
import random
import sys
import weakref
from collections import Counter

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import pairwise
from genutil import rand_model, rand_node, rand_sequent, SIG
from hxproof import hylo, syntax as sx
from hxproof.jsonio import DecodeError
from hxproof.hylo import is_hylo
from hxproof.kernel import sequent
from hxproof.model import (
    DataGraph, HybridDataModel, ModelError, UnknownNode,
    check_sequent_validity, eval_node, find_countermodel, ingest_datagraph,
    model_from_json, model_to_json, satisfies_set, satisfying_nodes,
)
from hxproof.model import (
    MAX_COUNTERMODEL_NODES, POINT, _Compiler, _Concat, _compiled,
    _g_assignments,
    _partition_from_classes, _partitions, _passes, _run, _signature,
    _size_tables,
)
from hxproof.syntax import (
    At, Atom, BOT, CmpKind, Compare, Jump, Nominal, Prop, Test, concat,
    eps, neg, parse_node,
)

GOLDEN = pathlib.Path(__file__).resolve().parents[1] / "golden"


@pytest.fixture(scope="module")
def example1():
    graph = json.loads((GOLDEN / "example1-graph.json").read_text())
    return ingest_datagraph(DataGraph.from_json(graph))


@pytest.fixture(scope="module")
def queries():
    table = sx.SymbolTable()
    return {
        "q1": parse_node(
            "<i1: born (Date?) =val i1: friends born (Date?)>", table),
        "q2": parse_node(
            "[i2: born (Date?) !=val i2: friends born (Date?)]", table),
        "q3": parse_node(
            "<i1: (Person?) =name i2: (Person?)> & "
            "<i1: born (Date?) !=val i2: born (Date?)>", table),
    }


# ---------------------------------------------------------------------------
# worked example
# ---------------------------------------------------------------------------

def test_example1_model_exact(example1):
    m = example1
    assert m.nodes == frozenset({"n1", "n2", "n3", "n4", "n5", "n6"})
    assert m.rels["friends"] == frozenset(
        {("n1", "n2"), ("n2", "n1"), ("n2", "n3"), ("n3", "n2")})
    assert m.rels["born"] == frozenset(
        {("n1", "n4"), ("n2", "n5"), ("n3", "n6")})
    assert m.same_class("name", "n1", "n3")
    assert not m.same_class("name", "n1", "n2")
    assert m.same_class("val", "n4", "n5")
    assert not m.same_class("val", "n4", "n6")
    assert m.g == {"i1": "n1", "i2": "n3"}
    assert m.val["Person"] == frozenset({"n1", "n2", "n3"})
    assert m.val["Date"] == frozenset({"n4", "n5", "n6"})


def test_example1_queries_true_everywhere(example1, queries):
    for q in queries.values():
        assert all(eval_node(example1, n, q) for n in example1.nodes)


def test_example1_query1_shifted_to_i2_is_false(example1, queries):
    table = sx.SymbolTable()
    q = parse_node("<i2: born (Date?) =val i2: friends born (Date?)>", table)
    assert all(not eval_node(example1, n, q) for n in example1.nodes)


def test_eval_path_cases(example1):
    assert pairwise.eval_path(example1, "n1", "n2", Atom("friends"))
    assert not pairwise.eval_path(example1, "n1", "n3", Atom("friends"))
    assert pairwise.eval_path(example1, "n4", "n1", Jump("i1"))
    assert pairwise.eval_path(example1, "n2", "n2", eps())
    assert not pairwise.eval_path(example1, "n2", "n3", eps())
    assert pairwise.eval_path(example1, "n1", "n5",
                              concat(Atom("friends"), Atom("born")))
    with pytest.raises(UnknownNode):
        pairwise.eval_path(example1, "n1", "zzz", Atom("friends"))


def test_eval_node_cases(example1):
    assert not eval_node(example1, "n1", BOT)
    assert eval_node(example1, "n1", Prop("Person"))
    assert eval_node(example1, "n4", Nominal("i1")) is False
    assert eval_node(example1, "n4", At("i1", Prop("Person")))


def test_neq_compare_is_not_negated_eq():
    # one endpoint pair related, another unrelated: both forms hold
    m = HybridDataModel.make(
        ["x", "y", "z"], rels={"a": [("x", "y"), ("x", "z")]},
        cmps={"c": [["x", "y"]]}, g={"i": "x"}, val={})
    phi_eq = Compare(eps(), CmpKind.EQ, "c", Atom("a"))
    phi_neq = Compare(eps(), CmpKind.NEQ, "c", Atom("a"))
    assert eval_node(m, "x", phi_eq)
    assert eval_node(m, "x", phi_neq)


def test_box_compare_vacuous_and_agreement(example1):
    # unsatisfiable left path: universal comparison holds vacuously
    dead = Atom("nowhere")
    assert pairwise.eval_box_compare(example1, "n1", dead, Atom("born"),
                                     CmpKind.EQ, "val")
    # query 2 read directly as a universal
    p1 = concat(Jump("i2"), Atom("born"), Test(Prop("Date")))
    p2 = concat(Jump("i2"), Atom("friends"), Atom("born"), Test(Prop("Date")))
    for n in example1.nodes:
        assert pairwise.eval_box_compare(example1, n, p1, p2, CmpKind.NEQ,
                                         "val")


@settings(max_examples=500, deadline=None)
@given(st.integers(0, 10**9), st.integers(0, 3))
def test_box_compare_agrees_with_expansion(seed, depth):
    rng = random.Random(seed)
    m = rand_model(rng, max_nodes=6)
    alpha, beta = (sx.Test(rand_node(rng, SIG, 1)) if rng.random() < 0.3
                   else sx.Atom("a") for _ in range(2))
    kind = rng.choice([CmpKind.EQ, CmpKind.NEQ])
    node = rng.choice(sorted(m.nodes))
    direct = pairwise.eval_box_compare(m, node, alpha, beta, kind, "c")
    expanded = eval_node(m, node, neg(Compare(alpha, kind.flip(), "c", beta)))
    assert direct == expanded


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10**9))
def test_compare_agrees_with_pair_enumeration_oracle(seed):
    # independent oracle: enumerate endpoint pairs with eval_path directly
    rng = random.Random(seed)
    m = rand_model(rng, max_nodes=6)
    alpha = rng.choice([sx.Atom("a"), sx.Jump("i"), sx.eps()])
    beta = rng.choice([sx.Atom("a"), sx.concat(sx.Atom("a"), sx.Atom("a"))])
    kind = rng.choice([CmpKind.EQ, CmpKind.NEQ])
    node = rng.choice(sorted(m.nodes))
    want = kind is CmpKind.EQ
    oracle = any(
        pairwise.eval_path(m, node, x, alpha)
        and pairwise.eval_path(m, node, y, beta)
        and m.same_class("c", x, y) == want
        for x in m.nodes for y in m.nodes)
    assert eval_node(m, node, Compare(alpha, kind, "c", beta)) == oracle


def test_satisfies_set(example1, queries):
    assert satisfies_set(example1, "n1", set())
    assert not satisfies_set(example1, "n1", {BOT})
    assert satisfies_set(example1, "n1", set(queries.values()))


# "d" is in no random model (it compares as the identity partition), "u" is
# placed by none (it names the default node), and "b" and "r" are empty
ABSENT_SIG = {"props": ("p", "q", "r"), "noms": ("i", "j", "k", "u"),
              "mods": ("a", "b"), "cmps": ("c", "d")}


@settings(max_examples=500, deadline=None)
@given(st.integers(0, 10**9), st.integers(0, 3))
def test_eval_node_agrees_with_pairwise_oracle(seed, depth):
    # at every node, and as the set of all nodes where phi holds
    rng = random.Random(seed)
    m = rand_model(rng, max_nodes=6)
    phi = rand_node(rng, ABSENT_SIG, depth)
    holds = {n for n in m.nodes if pairwise.eval_node(m, n, phi)}
    for n in m.nodes:
        assert eval_node(m, n, phi) == (n in holds), (n, phi)
    assert satisfying_nodes(m, phi) == holds, phi


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10**9))
def test_sequent_validity_agrees_with_pairwise_oracle(seed):
    # one program serves every member of the sequent
    rng = random.Random(seed)
    m = rand_model(rng, max_nodes=6)
    s = rand_sequent(rng, ABSENT_SIG)
    assert check_sequent_validity(m, s) == \
        pairwise.check_sequent_validity(m, s)
    here = m.default_node
    assert satisfies_set(m, here, s.ante) == \
        all(pairwise.eval_node(m, here, phi) for phi in s.ante)


def test_eval_node_refuses_a_path_and_an_unknown_node(example1):
    with pytest.raises(TypeError):
        eval_node(example1, "n1", Atom("friends"))
    with pytest.raises(TypeError):
        satisfying_nodes(example1, Atom("friends"))
    with pytest.raises(UnknownNode):
        eval_node(example1, "zzz", Prop("Person"))


def test_one_query_on_models_of_one_size():
    # programs are cached per query and node count, so models of one size
    # share them; each call still reads its own model's components
    rng = random.Random(5)
    models = []
    while len(models) < 4:
        m = rand_model(rng, max_nodes=4)
        if len(m.nodes) == 4:
            models.append(m)
    phis = [rand_node(rng, ABSENT_SIG, 3) for _ in range(30)]
    for phi in phis:
        for m in models:
            holds = {n for n in m.nodes if pairwise.eval_node(m, n, phi)}
            assert {n for n in m.nodes if eval_node(m, n, phi)} == holds
            assert satisfying_nodes(m, phi) == holds


def test_a_reassigned_model_field_is_read_afresh():
    # a model is frozen, so a variant with a field replaced is a new model,
    # and nothing derived from the first one carries over to it
    m = HybridDataModel.make(["x", "y"], rels={"a": [("x", "y")]},
                             cmps={"c": [["x", "y"]]}, g={"i": "y"},
                             val={"p": ["y"]})
    table = sx.SymbolTable()
    phis = [parse_node(text, table)
            for text in ("<a>p", "<a =c eps>", "i", "@i p")]

    def answers(m):
        got = [[eval_node(m, n, phi) for n in ("x", "y")] for phi in phis]
        assert got == [[pairwise.eval_node(m, n, phi) for n in ("x", "y")]
                       for phi in phis]
        return got

    assert answers(m) == [[True, False], [True, False], [False, True],
                          [True, True]]
    m = dataclasses.replace(m, val={"p": frozenset()})
    assert answers(m) == [[False, False], [True, False], [False, True],
                          [False, False]]
    m = dataclasses.replace(m, val={"p": {"y"}},       # a plain set reads
                            rels={"a": {("y", "y")}})  # as well
    assert answers(m) == [[False, True], [False, True], [False, True],
                          [True, True]]
    m = dataclasses.replace(m, cmp_class={"c": {"x": 0, "y": 1}},
                            rels={"a": frozenset({("x", "y")})}, g={"i": "x"})
    assert answers(m) == [[True, False], [False, False], [True, False],
                          [False, False]]


def test_a_model_field_cannot_be_assigned():
    m = HybridDataModel.make(["x", "y"], rels={"a": [("x", "y")]},
                             cmps={"c": [["x", "y"]]}, g={"i": "y"},
                             val={"p": ["y"]})
    for f in dataclasses.fields(m):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(m, f.name, getattr(m, f.name))
    with pytest.raises(TypeError):
        m.rels["b"] = frozenset()
    with pytest.raises(TypeError):
        m.cmp_class["c"]["x"] = 5


def test_equal_models_hash_equal_as_set_members_and_dict_keys():
    m = HybridDataModel.make(["x", "y"], rels={"a": [("x", "y")]},
                             cmps={"c": [["x", "y"]]}, g={"i": "y"},
                             val={"p": ["y"]})
    assert eval_node(m, "x", parse_node("<a>p", sx.SymbolTable()))
    same = HybridDataModel(nodes={"y", "x"}, rels={"a": {("x", "y")}},
                           cmp_class={"c": {"x": 0, "y": 0}}, g={"i": "y"},
                           val={"p": {"y"}})
    other = dataclasses.replace(same, val={"p": {"x"}})
    assert m == same and hash(m) == hash(same) and m != other
    assert len({m, same, other}) == 2
    assert {m: "found"}[same] == "found" and other not in {m: "found"}


def test_changing_what_a_model_was_built_from_changes_no_answer():
    table = sx.SymbolTable()
    phis = [parse_node(text, table) for text in (
        "<a>p", "<a><a>p", "<a =c a a>", "<eps !=c a>", "i", "@i <a>p")]

    def answers(m):
        return [[eval_node(m, n, phi) for n in sorted(m.nodes)]
                for phi in phis]

    nodes = ["x", "y", "z"]
    rels = {"a": {("x", "y"), ("y", "z")}}
    cmps = {"c": [["x", "z"]]}
    g = {"i": "y"}
    val = {"p": {"z"}}
    m = HybridDataModel.make(nodes, rels=rels, cmps=cmps, g=g, val=val)
    class_of = {"x": 0, "y": 1, "z": 0}
    direct = HybridDataModel(nodes=set(nodes), rels=rels,
                             cmp_class={"c": class_of}, g=g, val=val)
    before = answers(m)
    assert answers(direct) == before
    nodes.append("w")
    rels["a"].add(("x", "x"))
    rels["b"] = {("x", "y")}
    cmps["c"][0].append("y")
    class_of["y"] = 0
    g["i"] = "x"
    val["p"].add("x")
    for m in (m, direct):
        assert answers(m) == before
        assert m.nodes == {"x", "y", "z"} and m.g == {"i": "y"}
        assert m.val["p"] == {"z"} and m.rels["a"] == {("x", "y"), ("y", "z")}
        assert "b" not in m.rels and not m.same_class("c", "x", "y")


def test_a_queried_model_is_freed_with_its_derived_masks():
    # no memo outside the model keeps the masks read from it
    m = HybridDataModel.make([f"n{t}" for t in range(8)],
                             rels={"a": [("n0", "n1"), ("n1", "n2")]},
                             cmps={"c": [["n0", "n2"]]}, val={"p": ["n2"]})
    phi = parse_node("<a a =c eps> & <a><a>p", sx.SymbolTable())
    assert eval_node(m, "n0", phi)
    assert satisfying_nodes(m, phi) == {"n0"}
    succ = m._derived["rels", "a"]
    ref = weakref.ref(m)
    del m
    gc.collect()
    assert ref() is None
    # held by this frame and getrefcount's argument only
    assert sys.getrefcount(succ) <= 2


def test_a_comparison_builds_its_class_masks_once_per_model(monkeypatch):
    built = []

    def counted(model, key):
        built.append(key)
        return derive(model, key)

    derive = HybridDataModel._derive
    monkeypatch.setattr(HybridDataModel, "_derive", counted)
    m = HybridDataModel.make(["x", "y", "z"], rels={"a": [("x", "y")]},
                             cmps={"c": [["y", "z"]]})
    phi = parse_node("<a =c a>", sx.SymbolTable())
    for t in range(100):
        assert eval_node(m, "xyz"[t % 3], phi) == (t % 3 == 0)
    assert built.count(("cmp_class", "c")) == 1
    assert built.count(("rels", "a")) == 1
    other = HybridDataModel.make(["x", "y", "z"], cmps={"c": [["y", "z"]]})
    eval_node(other, "x", phi)
    assert built.count(("cmp_class", "c")) == 2


def test_a_class_map_must_class_every_node_of_the_model_and_no_other():
    with pytest.raises(ModelError, match="gives node 'b' no class"):
        HybridDataModel(nodes={"a", "b"}, rels={}, cmp_class={"c": {"a": 0}},
                        g={}, val={})
    with pytest.raises(UnknownNode, match="unknown node 'zz'"):
        HybridDataModel(nodes={"a", "b"}, rels={},
                        cmp_class={"c": {"a": 0, "b": 1, "zz": 0}},
                        g={}, val={})


def test_a_default_node_outside_the_model_is_refused():
    m = HybridDataModel.make(["a", "b"])
    with pytest.raises(UnknownNode, match="unknown node 'zz'"):
        dataclasses.replace(m, default_node="zz")
    with pytest.raises(UnknownNode, match="unknown node 'a'"):
        dataclasses.replace(m, nodes={"b"})


def test_same_class_refuses_an_unknown_node():
    m = HybridDataModel.make(["a", "b"], cmps={"c": [["a", "b"]]})
    assert m.same_class("c", "a", "b") and m.same_class("d", "a", "a")
    for c in ("c", "d"):
        with pytest.raises(UnknownNode, match="unknown node 'zzz'"):
            m.same_class(c, "a", "zzz")
        with pytest.raises(UnknownNode, match="unknown node 'zzz'"):
            m.same_class(c, "zzz", "a")


def test_a_node_listed_twice_in_the_classes_is_refused_by_its_own_message():
    # twice in one block, and once in each of two blocks
    with pytest.raises(ModelError,
                       match="^node 'a' appears twice in one comparison class$"):
        model_from_json({"nodes": ["a", "b"], "cmp": {"c": [["a", "b", "a"]]}})
    with pytest.raises(ModelError,
                       match="^node 'a' appears in two comparison classes$"):
        model_from_json({"nodes": ["a", "b"], "cmp": {"c": [["a"], ["b", "a"]]}})


def test_point_evaluation_fills_only_the_starts_reachable_from_the_node():
    # a path's endpoint masks are filled per start, on demand: at n00 of a
    # 40-node chain, `a a a` is read at the starts the node reaches in at
    # most two steps, over the whole model at every start
    nodes = [f"n{t:02d}" for t in range(40)]
    m = HybridDataModel.make(nodes, rels={"a": list(zip(nodes, nodes[1:]))})
    phi = parse_node("<a a a =c eps>", sx.SymbolTable())

    def filled(env):
        return set().union(*(v.keys() for v in env.values()
                             if isinstance(v, _Concat)))

    env, holds, _ = _run(m, ((phi, True),), "n00")
    assert not holds and not pairwise.eval_node(m, "n00", phi)
    starts = filled(env)
    assert 0 in starts and starts <= {0, 1, 2}
    env, _, _ = _run(m, phi)
    assert filled(env) == set(range(40))


@pytest.mark.parametrize("n", [1000, 16000])
def test_a_point_query_builds_only_the_successor_masks_it_reaches(n):
    # `<a>` asked at one node is computed at the nodes it reaches: three
    # diamonds read the successor masks of the node and of the nodes one and
    # two steps away, at most 1 + 3 + 9 of an out-degree-3 graph at any size
    rng = random.Random(n)
    nodes = [f"v{t}" for t in range(n)]
    succ = {v: rng.sample(nodes, 3) for v in nodes}
    p = set(rng.sample(nodes, n // 10))
    m = HybridDataModel.make(nodes, val={"p": p}, rels={
        "a": [(v, w) for v in nodes for w in succ[v]]})
    table = sx.SymbolTable()
    assert eval_node(m, "v7", parse_node("<a><a><a>true", table))
    assert len(m._derived["rels", "a"]) <= 13
    # the inner diamond is needed at every successor, not only at one
    phi = parse_node("<a><a>p", table)
    for v in nodes[:30]:
        assert eval_node(m, v, phi) == any(x in p for w in succ[v]
                                           for x in succ[w])


# ---------------------------------------------------------------------------
# partitions and the comparison invariant
# ---------------------------------------------------------------------------

def test_partition_is_equivalence():
    rng = random.Random(3)
    for _ in range(20):
        m = rand_model(rng, max_nodes=5)
        pairs = pairwise.cmp_pairs(m, "c")
        nodes = sorted(m.nodes)
        for x in nodes:
            assert (x, x) in pairs
        for x, y in pairs:
            assert (y, x) in pairs
        for x, y in pairs:
            for y2, z in pairs:
                if y2 == y:
                    assert (x, z) in pairs


def test_single_node_no_attrs_gets_identity_partition():
    m = ingest_datagraph(DataGraph(nodes=[{"id": "n1"}], edges=[]))
    assert m.same_class("anything", "n1", "n1")


def test_shared_attribute_three_nodes_one_class():
    dg = DataGraph(nodes=[{"id": f"n{t}", "attrs": {"c": 7}} for t in range(3)],
                   edges=[])
    m = ingest_datagraph(dg)
    assert m.same_class("c", "n0", "n1") and m.same_class("c", "n1", "n2")


def test_ingest_rejects_duplicate_index():
    dg = DataGraph(nodes=[{"id": "n1", "index": "i"},
                          {"id": "n2", "index": "i"}], edges=[])
    with pytest.raises(ModelError):
        ingest_datagraph(dg)


def test_unassigned_nominal_names_the_default_node():
    m = HybridDataModel.make(["x", "y"])
    assert eval_node(m, min(m.nodes), Nominal("ghost"))


def test_model_json_roundtrip(example1):
    blob = model_to_json(example1)
    again = model_from_json(blob)
    assert again.nodes == example1.nodes
    assert again.rels == example1.rels
    assert again.g == example1.g
    for c in ("name", "val"):
        for x in example1.nodes:
            for y in example1.nodes:
                assert again.same_class(c, x, y) == example1.same_class(c, x, y)


def test_a_null_attribute_is_absent(monkeypatch):
    # i and j both have `"c": null`: each sits in a class of its own, as a
    # node without c does, so `<i: =c j:>` fails in hxproof and in the
    # benchmark's oracle alike
    monkeypatch.syspath_prepend(str(GOLDEN.parent / "perfbench"))
    from oracle import GraphOracle
    graph = {"nodes": [{"id": "a", "index": "i", "attrs": {"c": None}},
                       {"id": "b", "index": "j", "attrs": {"c": None}},
                       {"id": "d", "index": "k", "attrs": {"c": 1}},
                       {"id": "e", "index": "l"}]}
    m = ingest_datagraph(DataGraph.from_json(graph))
    oracle, table = GraphOracle(graph), sx.SymbolTable()
    for text, holds in [("<i: =c j:>", False), ("<i: !=c j:>", True),
                        ("<i: =c i:>", True), ("<i: =c l:>", False),
                        ("<k: =c k:>", True), ("<i: !=c k:>", True)]:
        q = parse_node(text, table)
        for n in sorted(m.nodes):
            assert eval_node(m, n, q) == oracle.holds(q, n) == holds, text
    assert not m.same_class("c", "a", "b")


def test_every_unknown_node_fault_names_the_least_unknown_node():
    for kwargs, message in [
            ({"rels": {"r": [("a", "zz"), ("b", "a")]}},
             "relation r uses unknown node 'b'"),
            ({"cmps": {"c": [["zz", "b"]]}},
             "comparison class mentions unknown node 'zz'"),
            ({"g": {"i": "zz"}}, "nominal i assigned to unknown node 'zz'"),
            ({"val": {"p": {"zz", "a", "b"}}},
             "valuation of p uses unknown node 'b'")]:
        with pytest.raises(UnknownNode, match=f"^{message}$"):
            HybridDataModel.make(["a"], **kwargs)


def test_a_node_listed_twice_is_a_model_error():
    with pytest.raises(ModelError, match="^duplicate node 'a'$"):
        model_from_json({"nodes": ["a", "b", "a"]})
    with pytest.raises(ModelError, match="^duplicate node id 'a'$"):
        ingest_datagraph(DataGraph.from_json(
            {"nodes": [{"id": "a"}, {"id": "b"}, {"id": "a"}]}))


_GOOD_FILES = {
    "model": {"nodes": ["a", "b"], "rels": {"r": [["a", "b"]]},
              "cmp": {"c": [["a", "b"]]}, "g": {"i": "a"}, "val": {"p": ["a"]}},
    "graph": {"nodes": [{"id": "a", "labels": ["P"], "index": "i",
                         "attrs": {"c": 1}}],
              "edges": [{"from": "a", "label": "r", "to": "a"}]},
}
_DELETE = object()
# (file kind, the place of the fault, the value put there or _DELETE, the
# DecodeError's message or None): the top-level type, and each field left
# out and of the wrong type, down to the entries of lists
_FILE_FAULTS = [
    ("model", (), [], "a model is a JSON object, not a list"),
    ("model", (), None, "a model is a JSON object, not null"),
    ("model", (), 5, "a model is a JSON object, not an int"),
    ("model", ("nodes",), _DELETE, "missing field 'nodes' of the model"),
    ("model", ("nodes",), {}, "field 'nodes' of the model is not a list: {}"),
    ("model", ("nodes", 1), 5, "entry 1 of 'nodes' is not a str: 5"),
    ("model", ("rels",), _DELETE, None),
    ("model", ("rels",), [], "field 'rels' of the model is not a dict: []"),
    ("model", ("rels", "r"), 5, "field 'r' of 'rels' is not a list: 5"),
    ("model", ("rels", "r", 0), "a",
     "entry 0 of 'r' of 'rels' is not a list: 'a'"),
    ("model", ("rels", "r", 0), ["a"],
     "entry 0 of 'r' of 'rels' is not a pair: ['a']"),
    ("model", ("rels", "r", 0, 1), 5,
     "entry 1 of entry 0 of 'r' of 'rels' is not a str: 5"),
    ("model", ("cmp",), _DELETE, None),
    ("model", ("cmp",), 5, "field 'cmp' of the model is not a dict: 5"),
    ("model", ("cmp", "c"), "a", "field 'c' of 'cmp' is not a list: 'a'"),
    ("model", ("cmp", "c", 0), {}, "entry 0 of 'c' of 'cmp' is not a list: {}"),
    ("model", ("cmp", "c", 0, 1), None,
     "entry 1 of entry 0 of 'c' of 'cmp' is not a str: None"),
    ("model", ("g",), _DELETE, None),
    ("model", ("g",), ["a"], "field 'g' of the model is not a dict: ['a']"),
    ("model", ("g", "i"), ["a"], "field 'i' of 'g' is not a str: ['a']"),
    ("model", ("val",), _DELETE, None),
    ("model", ("val",), "p", "field 'val' of the model is not a dict: 'p'"),
    ("model", ("val", "p"), "a", "field 'p' of 'val' is not a list: 'a'"),
    ("model", ("val", "p", 0), 1.5, "entry 0 of 'p' of 'val' is not a str: 1.5"),
    ("graph", (), [], "a data graph is a JSON object, not a list"),
    ("graph", (), "g", "a data graph is a JSON object, not a str"),
    ("graph", ("nodes",), _DELETE, "missing field 'nodes' of the graph"),
    ("graph", ("nodes",), 5, "field 'nodes' of the graph is not a list: 5"),
    ("graph", ("nodes", 0), "a", "missing field 'id' of node 0"),
    ("graph", ("nodes", 0, "id"), _DELETE, "missing field 'id' of node 0"),
    ("graph", ("nodes", 0, "id"), 5, "field 'id' of node 0 is not a str: 5"),
    ("graph", ("nodes", 0, "labels"), _DELETE, None),
    ("graph", ("nodes", 0, "labels"), "P",
     "field 'labels' of node 0 is not a list: 'P'"),
    ("graph", ("nodes", 0, "labels", 0), 5,
     "entry 0 of 'labels' of node 0 is not a str: 5"),
    ("graph", ("nodes", 0, "index"), _DELETE, None),
    ("graph", ("nodes", 0, "index"), None, None),
    ("graph", ("nodes", 0, "index"), 5,
     "field 'index' of node 0 is not a str or null: 5"),
    ("graph", ("nodes", 0, "attrs"), _DELETE, None),
    ("graph", ("nodes", 0, "attrs"), [],
     "field 'attrs' of node 0 is not a dict: []"),
    ("graph", ("nodes", 0, "attrs", "c"), None, None),
    ("graph", ("nodes", 0, "attrs", "c"), [1],
     "field 'c' of 'attrs' of node 0 is not a str or int or float or null: "
     "[1]"),
    ("graph", ("edges",), _DELETE, None),
    ("graph", ("edges",), {}, "field 'edges' of the graph is not a list: {}"),
    ("graph", ("edges", 0), [], "missing field 'from' of edge 0"),
    ("graph", ("edges", 0, "label"), _DELETE, "missing field 'label' of edge 0"),
    ("graph", ("edges", 0, "to"), 5, "field 'to' of edge 0 is not a str: 5"),
]


@pytest.mark.parametrize(
    "kind,place,value,message", _FILE_FAULTS,
    ids=[f"{kind}-{'-'.join(map(str, place)) or 'top'}-"
         f"{'deleted' if value is _DELETE else type(value).__name__}"
         for kind, place, value, _ in _FILE_FAULTS])
def test_each_model_and_graph_file_fault_is_refused_by_place(kind, place,
                                                             value, message):
    blob = root = [json.loads(json.dumps(_GOOD_FILES[kind]))]
    *way, last = (0,) + place
    for key in way:
        blob = blob[key]
    if value is _DELETE:
        del blob[last]
    else:
        blob[last] = value
    decode = model_from_json if kind == "model" else DataGraph.from_json
    if message is None:
        decode(root[0])
    else:
        with pytest.raises(DecodeError) as caught:
            decode(root[0])
        assert str(caught.value) == message


# ---------------------------------------------------------------------------
# sequent validity and countermodels
# ---------------------------------------------------------------------------

def test_validity_unsatisfiable_antecedent():
    rng = random.Random(9)
    s = sequent({At("i", BOT)}, {At("i", Prop("p"))})
    for _ in range(10):
        assert check_sequent_validity(rand_model(rng), s)


def test_validity_reflexivity_sequent():
    rng = random.Random(10)
    s = sequent((), {At("i", Compare(eps(), CmpKind.EQ, "c", eps()))})
    for _ in range(20):
        assert check_sequent_validity(rand_model(rng), s)


def test_countermodel_simple():
    m = find_countermodel(sequent((), {At("i", Prop("p"))}), 1)
    assert m is not None and len(m.nodes) == 1
    assert not check_sequent_validity(m, sequent((), {At("i", Prop("p"))}))


def test_countermodel_none_for_valid():
    s = sequent((), {At("i", Compare(eps(), CmpKind.EQ, "c", eps()))})
    assert find_countermodel(s, 2) is None


def test_countermodel_refuses_more_than_four_nodes(monkeypatch):
    # refused before any table is built: five nodes mean 2^25 relations
    def no_tables(n_count):
        raise AssertionError("enumeration started")
    monkeypatch.setattr("hxproof.model._size_tables", no_tables)
    s = sequent({At("i", sx.Diamond("a", Nominal("j"))), At("j", Prop("p"))},
                {At("i", sx.Diamond("a", Prop("p")))})
    for bad in (0, MAX_COUNTERMODEL_NODES + 1):
        with pytest.raises(ValueError):
            find_countermodel(s, bad)


def test_size_tables_list_masks_in_subset_order():
    # the same model comes first as with node/pair subsets and partitions;
    # a partition is listed as the class mask of each node
    for n_count in (1, 2, 3):
        nodes, valuations, relations, partitions = _size_tables(n_count)
        pairs = [(x, y) for x in nodes for y in nodes]
        subsets = [s for r in range(len(pairs) + 1)
                   for s in itertools.combinations(pairs, r)]
        assert relations == tuple(
            tuple(sum(1 << nodes.index(y) for x2, y in s if x2 == x)
                  for x in nodes) for s in subsets)
        assert valuations == tuple(
            sum(1 << nodes.index(x) for x in s) for r in range(n_count + 1)
            for s in itertools.combinations(nodes, r))
        assert partitions == tuple(
            tuple(sum(1 << nodes.index(y) for y in block)
                  for x in nodes for block in blocks if x in block)
            for blocks in _partitions(list(nodes)))


@settings(max_examples=500, deadline=None)
@given(st.integers(0, 10**9), st.integers(0, 3))
def test_program_at_random_levels_agrees_with_pairwise_oracle(seed, depth):
    # the countermodel search's programs, with the components at random
    # levels so that steps read slots that shallower levels filled, decide
    # a demand at a random node as the oracle does
    rng = random.Random(seed)
    m = rand_model(rng, max_nodes=3)
    phi = rand_node(rng, ABSENT_SIG, depth)
    nodes = sorted(m.nodes)

    def mask(holds):
        return sum(1 << x for x, n in enumerate(nodes) if holds(n))

    value = {("g", i): mask(lambda n: m.node_of(i) == n)
             for i in ABSENT_SIG["noms"]}
    for a in ABSENT_SIG["mods"]:
        value["rels", a] = tuple(mask(lambda y: pairwise.related(m, a, x, y))
                                 for x in nodes)
    for c in ABSENT_SIG["cmps"]:
        value["cmp_class", c] = tuple(mask(lambda y: m.same_class(c, x, y))
                                      for x in nodes)
    for p in ABSENT_SIG["props"]:
        value["val", p] = mask(lambda n: pairwise.holds(m, p, n))
    keys = list(value)
    rng.shuffle(keys)
    compiler = _Compiler(len(nodes), {key: rng.randrange(len(keys) + 1)
                                      for key in keys})
    x, want = rng.randrange(len(nodes)), rng.random() < 0.5
    compiler.demand(phi, want)
    env = [None] * compiler.size
    env[POINT] = 1 << x
    for k, key in compiler.components.items():
        env[k] = value[key]
    holds = all(_passes(env, program) for program in compiler.programs)
    assert holds == (pairwise.eval_node(m, nodes[x], phi) == want)


def test_countermodel_search_leaves_no_reference_cycle():
    # the search's generators and programs are freed by reference count
    s = sequent({At("i", sx.Diamond("a", Nominal("j"))), At("j", Prop("p"))},
                {At("k", sx.Diamond("a", Prop("q")))})
    gc.collect()
    gc.disable()
    try:
        assert find_countermodel(s, 2) is not None
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_countermodel_two_nodes():
    s = sequent({At("i", sx.Diamond("a", Prop("p")))}, {At("i", Prop("p"))})
    m = find_countermodel(s, 2)
    assert m is not None and len(m.nodes) == 2
    assert not check_sequent_validity(m, s)


# ---------------------------------------------------------------------------
# independent oracle: the three-tier enumerator find_countermodel replaced
# ---------------------------------------------------------------------------

def _deps(expr):
    subs = list(sx.subexpressions(expr))
    uses_v = any(isinstance(s, Prop) for s in subs)
    uses_r = any(isinstance(s, (Atom, sx.Diamond)) for s in subs)
    return uses_v, uses_r


def _blocks_of(class_of):
    blocks = {}
    for n, cid in class_of.items():
        blocks.setdefault(cid, []).append(n)
    return [sorted(b) for b in blocks.values()]


def naive_countermodel(seq, max_nodes):
    """Exhaustive search in three tiers: demands reading neither valuations
    nor relations, then valuations, then relations (full products each)."""
    if max_nodes < 1:
        raise ValueError("max_nodes must be at least 1")
    props, noms, mods, cmps = _signature(seq)
    # refutation demands: all of ante true, all of cons false
    demands = [(phi, True) for phi in sorted(seq.ante, key=sx.print_node)] + \
              [(phi, False) for phi in sorted(seq.cons, key=sx.print_node)]
    base = [d for d in demands if _deps(d[0]) == (False, False)]
    with_v = [d for d in demands if _deps(d[0]) == (True, False)]
    with_r = [d for d in demands if _deps(d[0])[1]]

    for n_count in range(1, max_nodes + 1):
        nodes = [f"n{t}" for t in range(1, n_count + 1)]
        here = nodes[0]
        pair_list = [(x, y) for x in nodes for y in nodes]
        all_partitions = [
            {c: _partition_from_classes(frozenset(nodes), blocks)
             for c, blocks in zip(cmps, parts)}
            for parts in itertools.product(list(_partitions(nodes)),
                                           repeat=len(cmps))]
        v_choices = [
            {p: frozenset(ns) for p, ns in zip(props, choice)}
            for choice in itertools.product(
                *[list(itertools.chain.from_iterable(
                    itertools.combinations(nodes, r)
                    for r in range(n_count + 1)))
                  for _ in props])]
        r_subsets = [frozenset(s) for s in itertools.chain.from_iterable(
            itertools.combinations(pair_list, r)
            for r in range(len(pair_list) + 1))]
        r_choices = [dict(zip(mods, combo)) for combo in
                     itertools.product(r_subsets, repeat=len(mods))]

        m = pairwise.ScratchModel(nodes)
        for g in _g_assignments(noms, nodes):
            m.g = g
            for cmp_map in all_partitions:
                m.cmp_class = cmp_map
                m.rels, m.val = {}, {}
                if not all(pairwise.eval_node(m, here, phi) == want
                           for phi, want in base):
                    continue
                for val in v_choices:
                    m.val = val
                    m.rels = {}
                    if not all(pairwise.eval_node(m, here, phi) == want
                               for phi, want in with_v):
                        continue
                    if not with_r:
                        return HybridDataModel.make(
                            nodes, rels={a: set() for a in mods},
                            cmps={c: _blocks_of(cmp_map[c]) for c in cmps},
                            g=m.g, val=val)
                    for rels in r_choices:
                        m.rels = rels
                        if all(pairwise.eval_node(m, here, phi) == want
                               for phi, want in with_r):
                            return HybridDataModel.make(
                                nodes, rels=rels,
                                cmps={c: _blocks_of(cmp_map[c]) for c in cmps},
                                g=m.g, val=val)
    return None


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10**9), st.integers(1, 2))
def test_countermodel_agrees_with_naive_oracle(seed, max_nodes):
    s = rand_sequent(random.Random(seed))
    m = find_countermodel(s, max_nodes)
    oracle = naive_countermodel(s, max_nodes)
    assert (m is None) == (oracle is None)
    if m is not None:
        assert check_sequent_validity(m, s) is False
        # sizes ascend and each is searched exhaustively
        assert len(m.nodes) == len(oracle.nodes)


def test_nested_iff_chain_is_walked_as_a_dag(monkeypatch):
    # `<->` states each side twice, so @i (p <-> (p <-> ... )) with 20 p's
    # is a tree of about 2^20 nodes over a DAG of 97 distinct
    # subexpressions: is_hylo visits each once, and each compiled program
    # (one per query, and one per size in the countermodel search) has at
    # most one `_build` step per subexpression. A counter stops a tree walk
    # at its 201st (the tree walk took 22.9 s in is_hylo alone)
    chain = "@i " + "(p <-> " * 19 + "p" + ")" * 19
    phi = parse_node(chain, sx.SymbolTable())
    s = sequent((), {phi})
    m = HybridDataModel.make(["x", "y"], val={"p": ["x"]}, g={"i": "y"})
    visits, builds = [], Counter()
    walk, build = hylo.subexpressions, _Compiler._build

    def visited(e):
        visits.append(0)
        for sub in walk(e):
            visits[-1] += 1
            assert visits[-1] <= 200
            yield sub

    def built(compiler, e, need):
        builds[compiler] += 1
        assert builds[compiler] <= 200
        return build(compiler, e, need)

    monkeypatch.setattr(hylo, "subexpressions", visited)
    monkeypatch.setattr(_Compiler, "_build", built)
    _compiled.cache_clear()
    assert is_hylo(s)
    assert eval_node(m, "x", phi) is check_sequent_validity(m, s)
    find_countermodel(s, 1)
    find_countermodel(s, 3)
    assert visits == [97]
    assert len(builds) == 6 and max(builds.values()) <= 97


def test_a_query_reads_only_the_components_it_mentions(example1, queries):
    m = model_from_json(model_to_json(example1))
    m = dataclasses.replace(m, rels={**m.rels, "unread": {("n1", "n1")}},
                            val={**m.val, "unread": {"n1"}},
                            cmp_class={**m.cmp_class,
                                       "unread": {n: 0 for n in m.nodes}})
    for q in queries.values():
        assert all(eval_node(m, n, q) for n in sorted(m.nodes))
    s = sequent({At("i1", queries["q1"])}, {At("i2", queries["q3"])})
    assert check_sequent_validity(m, s)
    assert satisfies_set(m, "n1", set(queries.values()))
    read = {key[1] for key in m._derived if isinstance(key, tuple)}
    assert read == {"born", "friends", "val", "name", "Date", "Person",
                    "i1", "i2"}


def test_countermodel_none_when_antecedent_cannot_hold():
    # @k <a !=c (false?)> never holds, so no model refutes the sequent; every
    # demand reading the relation is checked before any valuation is chosen
    s = sequent(*sx.parse_sequent_parts(
        "@i (<eps !=c eps> -> <a>p), @j @k @i q, @k <a !=c (false?)> "
        "|- @i ~(j -> k)"))
    assert find_countermodel(s, 3) is None
