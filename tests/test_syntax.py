import gc
import pickle
import random

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from genutil import rand_node, rand_path, rand_sequent
from hxproof import jsonio
from hxproof import syntax as sx
from hxproof.kernel import AX, Derivation, freeze_inst, sequent
from hxproof.syntax import (
    At, Atom, BOT, Bottom, CmpKind, Compare, Concat, Diamond, Implies, Jump,
    Nominal, Prop, Test, SymbolTable, SymbolSpaceError, SyntaxError_,
    concat, conj, disj, eps, iff, neg, nominals_of,
    parse_node, parse_path, print_node, rename_nominal, size, top,
)

# ---------------------------------------------------------------------------
# hypothesis strategies following the identifier conventions
# ---------------------------------------------------------------------------

props = st.sampled_from(["p", "q", "Person", "Date", "r2"])
noms = st.sampled_from(["i", "j", "k", "i1", "n0", "m'"])
mods = st.sampled_from(["a", "b", "born", "friends"])
cmps = st.sampled_from(["c", "val", "d1"])
kinds = st.sampled_from([CmpKind.EQ, CmpKind.NEQ])


def paths(node_strat, depth):
    base = st.one_of(
        st.builds(Atom, mods),
        st.builds(Jump, noms),
    )
    if depth <= 0:
        return base
    sub = paths(node_strat, depth - 1)
    return st.one_of(
        base,
        st.builds(Test, node_strat),
        st.builds(Concat, sub, sub),
    )


def nodes(depth):
    base = st.one_of(st.builds(Prop, props), st.builds(Nominal, noms),
                     st.just(BOT))
    if depth <= 0:
        return base
    sub = nodes(depth - 1)
    return st.one_of(
        base,
        st.builds(Implies, sub, sub),
        st.builds(At, noms, sub),
        st.builds(Diamond, mods, sub),
        st.builds(Compare, paths(sub, 1), kinds, cmps, paths(sub, 1)),
    )


node_exprs = nodes(3)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_example_query():
    e = parse_node("@i1 <i1: born (Date?) =val i1: friends born (Date?)>")
    assert isinstance(e, At) and e.nom == "i1"
    body = e.body
    assert isinstance(body, Compare) and body.kind is CmpKind.EQ
    assert body.cmp == "val"
    assert body.left == concat(Jump("i1"), Atom("born"), Test(Prop("Date")))
    assert body.right == concat(Jump("i1"), Atom("friends"), Atom("born"),
                                Test(Prop("Date")))


def test_parse_atoms():
    assert parse_node("p") == Prop("p")
    assert parse_node("~p") == Implies(Prop("p"), BOT)
    assert parse_node("i") == Nominal("i")
    assert parse_node("false") == BOT
    assert parse_node("true") == top()


def test_parse_sugar_expands():
    assert parse_node("p & q") == conj(Prop("p"), Prop("q"))
    assert parse_node("p | q") == disj(Prop("p"), Prop("q"))
    assert parse_node("p <-> q") == iff(Prop("p"), Prop("q"))
    assert parse_node("[a]p") == neg(Diamond("a", neg(Prop("p"))))
    assert parse_node("[a =c b]") == neg(
        Compare(Atom("a"), CmpKind.NEQ, "c", Atom("b")))
    assert parse_node("<eps>p") == conj(top(), Prop("p"))
    assert parse_node("<j:>p") == At("j", Prop("p"))


def test_parse_precedence():
    assert parse_node("p -> q -> r2") == \
        Implies(Prop("p"), Implies(Prop("q"), Prop("r2")))
    assert parse_node("@i p -> q") == Implies(At("i", Prop("p")), Prop("q"))
    assert parse_node("@i (p -> q)") == At("i", Implies(Prop("p"), Prop("q")))
    assert parse_node("p & q | r2") == disj(conj(Prop("p"), Prop("q")), Prop("r2"))


def test_parse_errors_carry_position():
    with pytest.raises(SyntaxError_) as e:
        parse_node("p -> ")
    assert "column" in str(e.value)
    with pytest.raises(SyntaxError_):
        parse_node("<a p")
    with pytest.raises(SyntaxError_):
        parse_node("@ <a>p")


def test_symbol_space_violation():
    table = SymbolTable()
    parse_node("@i p", table)
    with pytest.raises(SymbolSpaceError):
        parse_node("<p> q", table)  # p reused as a modality
    with pytest.raises(SymbolSpaceError):
        table.register("i", "prop")


def test_parse_sequent_parts():
    ante, cons = sx.parse_sequent_parts("@i p, <i: =c j:> |- @i q")
    assert At("i", Prop("p")) in ante
    assert Compare(Jump("i"), CmpKind.EQ, "c", Jump("j")) in ante
    assert cons == [At("i", Prop("q"))]
    empty_l, one_r = sx.parse_sequent_parts("|- @i p")
    assert empty_l == [] and len(one_r) == 1


@given(node_exprs)
def test_expansion_contains_primitives_only(e):
    for sub in sx.subexpressions(e):
        assert isinstance(sub, (Prop, Nominal, Bottom, Implies, At, Diamond,
                                Compare, Atom, Jump, Test, Concat))


def _tree(e):
    """Every subexpression occurrence, one per node of the tree."""
    yield e
    for child in (getattr(e, f) for f in e.__match_args__):
        if isinstance(child, sx.Expr):
            yield from _tree(child)


@given(node_exprs)
def test_subexpressions_yields_each_distinct_one_once(e):
    subs = list(sx.subexpressions(e))
    assert subs[0] is e
    assert len(subs) == len(set(subs)) and set(subs) == set(_tree(e))


# ---------------------------------------------------------------------------
# size
# ---------------------------------------------------------------------------

def test_size_base_cases():
    assert size(Prop("p")) == 1
    assert size(Diamond("a", BOT)) == 2
    assert size(eps()) == 4  # test node + the three nodes of false -> false


def test_size_concat_adds_no_node():
    a, b = Atom("a"), Jump("i")
    assert size(Concat(a, b)) == size(a) + size(b)


@given(nodes(3))
def test_size_strictly_decreases_to_subexpressions(e):
    for sub in sx.subexpressions(e):
        if sub is not e and not isinstance(sub, Concat):
            assert size(sub) < size(e) or isinstance(e, Concat)


# ---------------------------------------------------------------------------
# nominals, renaming, flip
# ---------------------------------------------------------------------------

def test_nominals_of():
    assert nominals_of(parse_node("@i <a> j")) == {"i", "j"}
    assert nominals_of(parse_node("@k2 <i: a =c j:>")) == {"i", "j", "k2"}
    assert nominals_of(Prop("p")) == set()


def test_rename_nominal():
    e = parse_node("@i <a> j")
    assert rename_nominal(e, "j", "k") == parse_node("@i <a> k")
    assert rename_nominal(e, "i", "i") == e
    assert rename_nominal(Jump("i"), "i", "m") == Jump("m")


def test_flip_involution():
    for k in CmpKind:
        assert k.flip().flip() is k
    assert CmpKind.EQ.flip() is CmpKind.NEQ


# ---------------------------------------------------------------------------
# printing and roundtrips
# ---------------------------------------------------------------------------

def test_print_examples():
    assert print_node(Prop("p")) == "p"
    assert print_node(top()) == "true"
    assert print_node(neg(Prop("p"))) == "~p"
    assert print_node(eps() and parse_node("<eps =c eps>")) == "<eps =c eps>"


def test_roundtrip_example_queries():
    table = SymbolTable()
    queries = [
        "@i1 <i1: born (Date?) =val i1: friends born (Date?)>",
        "[i2: born (Date?) !=val i2: friends born (Date?)]",
        "<i1: (Person?) =name i2: (Person?)> & "
        "<i1: born (Date?) !=val i2: born (Date?)>",
    ]
    for q in queries:
        e = parse_node(q, table)
        assert parse_node(print_node(e), table) == e


@settings(max_examples=1000, deadline=None)
@given(node_exprs)
def test_roundtrip_random_asts(e):
    assert parse_node(print_node(e)) == e


@given(node_exprs)
def test_json_roundtrip(e):
    # an (Ax) leaf on @i e, through the rows of derivation format 2
    phi = At("i", e)
    d = Derivation(sequent([phi], [phi]), AX, freeze_inst({"phi": phi}))
    assert jsonio.derivation_from_json(jsonio.derivation_to_json(d)) == d


def test_left_nested_concat_roundtrips():
    p = Concat(Concat(Atom("a"), Atom("b")), Atom("born"))
    printed = sx.print_path(p)
    assert parse_path(printed) == p


def test_fresh_nominals_distinct():
    a, b = sx.fresh_nominals(2, {"i"})
    assert a != b and a.startswith("_n") and b.startswith("_n")
    assert sx.fresh_nominals(1, {"_n0"}) != ["_n0"]


# ---------------------------------------------------------------------------
# hash-consing
# ---------------------------------------------------------------------------

seeds = st.integers(0, 2**32)
drawn_nodes = seeds.map(lambda seed: rand_node(random.Random(seed), depth=3))
drawn_paths = seeds.map(lambda seed: rand_path(random.Random(seed), depth=2))


def _rebuilt(e):
    """A structural copy of e, made bottom-up through the constructors."""
    if not isinstance(e, sx.Expr):
        return e
    return type(e)(*(_rebuilt(getattr(e, f)) for f in e.__match_args__))


@settings(max_examples=300, deadline=None)
@given(seeds, st.booleans())
def test_building_twice_gives_one_object(seed, path):
    draw = rand_path if path else rand_node
    e = draw(random.Random(seed), depth=3)
    assert draw(random.Random(seed), depth=3) is e
    assert _rebuilt(e) is e
    assert pickle.loads(pickle.dumps(e)) is e


@settings(max_examples=300, deadline=None)
@given(drawn_nodes, drawn_paths)
def test_printing_and_parsing_gives_the_same_object(e, p):
    assert parse_node(print_node(e)) is e
    assert parse_path(sx.print_path(p)) is p


@settings(max_examples=300, deadline=None)
@given(drawn_nodes | drawn_paths)
def test_equal_expressions_hash_by_identity(e):
    copy = _rebuilt(e)
    assert copy == e and hash(copy) == hash(e)
    # interning makes equal expressions one object, so the interpreter's
    # identity hash is exact, and it is the one an expression uses
    assert copy is e
    assert type(e).__hash__ is object.__hash__
    assert sx.CmpKind.__hash__ is object.__hash__


@settings(max_examples=200, deadline=None)
@given(drawn_nodes, seeds)
def test_returned_nominal_sets_are_copies(e, seed):
    seq = rand_sequent(random.Random(seed))
    for get in (lambda: nominals_of(e), seq.nominals):
        first = get()
        want = set(first)
        first.add("_mutated")
        first.discard(next(iter(want), None))
        assert get() == want


def test_dropped_expressions_leave_the_intern_table():
    gc.collect()
    before = len(sx._INTERNED)
    kept = [At(f"i{t}", Implies(Prop(f"p{t}"), BOT)) for t in range(1000)]
    assert len(sx._INTERNED) >= before + 3000
    del kept
    gc.collect()
    assert len(sx._INTERNED) <= before


# One well-formed field tuple per AST class.
_WELL_FORMED = {
    Atom: ("a",), Jump: ("j",), Test: (Prop("p"),),
    Concat: (Atom("a"), Atom("b")), Prop: ("p",), Nominal: ("i",),
    Bottom: (), Implies: (Prop("p"), BOT), At: ("i", Prop("p")),
    Diamond: ("a", Prop("p")), Compare: (Atom("a"), CmpKind.EQ, "c", Jump("j")),
}
_FIELD_VALUES = ("p", CmpKind.EQ, Atom("a"), Prop("p"), None, 1, ["x"], {"x": 1})


def _sort(v):
    if isinstance(v, (Atom, Jump, Test, Concat)):
        return "path"
    return "node" if isinstance(v, sx.Expr) else type(v).__name__


def _malformed(cls, fields):
    """Each field replaced by every value of another sort (the unhashable
    values among them), and one field too many."""
    for pos, good in enumerate(fields):
        for bad in _FIELD_VALUES:
            if _sort(bad) != _sort(good):
                yield fields[:pos] + (bad,) + fields[pos + 1:]
    yield (*fields, "x")


def test_malformed_fields_raise_and_leave_the_table_alone():
    # the dataclass decorator leaves behind the class it replaced by one with slots
    assert set(_WELL_FORMED) == {c for c in sx.Expr.__subclasses__()
                                 if c is getattr(sx, c.__name__)}
    gc.collect()
    gc.disable()                 # no collection may shrink the table meanwhile
    try:
        for cls, fields in _WELL_FORMED.items():
            assert type(cls(*fields)) is cls
            for bad in _malformed(cls, fields):
                before = len(sx._INTERNED)
                with pytest.raises(TypeError, match=rf"^{cls.__name__}\b"):
                    cls(*bad)
                assert len(sx._INTERNED) == before, (cls, bad)
    finally:
        gc.enable()
