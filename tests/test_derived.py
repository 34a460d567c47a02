import random

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from genutil import rand_node, SIG
from hxproof.derived import (
    MacroError, and_left, and_right, axg, cmp_flip, cmp_tauto, expand_macro,
    general_dia_left, general_dia_right, iff_right, top_left, transfer,
)
from hxproof.kernel import (
    CUT, axiom, check_derivation, graft, open_leaves, sequent,
)
from hxproof.syntax import (
    At, Atom, CmpKind, Compare, Diamond, Jump, Nominal,
    Prop, Test, concat, conj, dia, eps, iff, top,
)

P, Q = Prop("p"), Prop("q")


def closable_stub(leaf):
    """Close an open leaf by planting its own members as an axiom pair."""
    for e in sorted(leaf.ante & leaf.cons, key=str):
        from hxproof.kernel import ax_shape
        if ax_shape(e):
            return axiom("Ax", leaf, {"phi": e})
    raise AssertionError(f"stub cannot close {leaf}")


# ---------------------------------------------------------------------------
# generalized axiom
# ---------------------------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10**9), st.integers(0, 3))
def test_axg_closes_for_random_expressions(seed, depth):
    rng = random.Random(seed)
    phi = rand_node(rng, SIG, depth)
    goal = sequent({At("i", phi)}, {At("i", phi)})
    d = axg(goal, "i", phi)
    assert check_derivation(d) == []
    assert not open_leaves(d)


def test_axg_on_conjunction_with_context():
    phi = conj(P, Q)
    goal = sequent({At("i", phi), At("m", Q)}, {At("m", P), At("i", phi)})
    d = axg(goal, "i", phi)
    assert check_derivation(d) == []


def test_axg_requires_both_sides():
    with pytest.raises(MacroError):
        axg(sequent({At("i", P)}, ()), "i", P)


def test_axg_structural_recursion_terminates_on_nested_compares():
    phi = Compare(Test(Compare(Atom("a"), CmpKind.NEQ, "c", Atom("a"))),
                  CmpKind.EQ, "c", Jump("j"))
    goal = sequent({At("i", phi)}, {At("i", phi)})
    assert check_derivation(axg(goal, "i", phi)) == []


# ---------------------------------------------------------------------------
# fragment macros
# ---------------------------------------------------------------------------

def test_and_left_fragment():
    goal = sequent({At("i", conj(P, Q)), At("m", P)}, {At("m", Q)})
    frag = and_left(goal, "i", P, Q)
    assert check_derivation(frag, allow_open=True) == []
    opens = [s for _, s in open_leaves(frag)]
    assert opens == [goal.drop_ante(At("i", conj(P, Q)))
                         .add_ante(At("i", P), At("i", Q))]


def test_and_right_fragment():
    goal = sequent({At("m", P)}, {At("i", conj(P, Q)), At("m", Q)})
    frag = and_right(goal, "i", P, Q)
    assert check_derivation(frag, allow_open=True) == []
    opens = {s for _, s in open_leaves(frag)}
    rest = goal.drop_cons(At("i", conj(P, Q)))
    assert opens == {rest.add_cons(At("i", P)), rest.add_cons(At("i", Q))}


def test_iff_right_fragment():
    goal = sequent((), {At("i", iff(P, Q))})
    frag = iff_right(goal, "i", P, Q)
    assert check_derivation(frag, allow_open=True) == []
    opens = {s for _, s in open_leaves(frag)}
    assert opens == {sequent({At("i", P)}, {At("i", Q)}),
                     sequent({At("i", Q)}, {At("i", P)})}


def test_top_left_fragment():
    goal = sequent({At("m", P)}, {At("m", Q)})
    frag = top_left(goal, "i")
    assert check_derivation(frag, allow_open=True) == []
    opens = [s for _, s in open_leaves(frag)]
    assert opens == [goal.add_ante(At("i", top()))]


@pytest.mark.parametrize("kind", [CmpKind.EQ, CmpKind.NEQ])
def test_cmp_flip_fragment(kind):
    principal = Compare(Jump("x"), kind, "c", Jump("y"))
    flipped = Compare(Jump("y"), kind, "c", Jump("x"))
    goal = sequent({principal, At("m", P)}, {At("m", Q)})
    frag = cmp_flip(goal, "x", kind, "c", "y")
    assert check_derivation(frag, allow_open=True) == []
    opens = [s for _, s in open_leaves(frag)]
    assert opens == [goal.drop_ante(principal).add_ante(flipped)]


@pytest.mark.parametrize("kind", [CmpKind.EQ, CmpKind.NEQ])
def test_cmp_flip_twice_returns_to_start(kind):
    principal = Compare(Jump("x"), kind, "c", Jump("y"))
    goal = sequent({principal}, {At("m", Q)})
    frag = cmp_flip(goal, "x", kind, "c", "y")
    [(path, leaf)] = open_leaves(frag)
    frag2 = cmp_flip(leaf, "y", kind, "c", "x")
    opens2 = [s for _, s in open_leaves(frag2)]
    assert opens2 == [goal]  # the derived premiss is the original sequent
    whole = graft(frag, {leaf: frag2})
    assert check_derivation(whole, allow_open=True) == []


def test_cmp_tauto_both_kinds():
    for kind in CmpKind:
        e = Compare(Jump("x"), kind, "c", Jump("y"))
        goal = sequent({e, At("m", P)}, {e})
        assert check_derivation(cmp_tauto(goal, "x", kind, "c", "y")) == []


# ---------------------------------------------------------------------------
# generalized substitution
# ---------------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**9), st.integers(0, 2))
def test_transfer_closes(seed, depth):
    rng = random.Random(seed)
    phi = rand_node(rng, SIG, depth)
    goal = sequent({At("i", Nominal("j")), At("i", phi)}, {At("j", phi)})
    d = transfer(goal, "i", "j", phi)
    assert check_derivation(d) == []


def test_transfer_with_comparison_uses_cut():
    phi = Compare(Atom("a"), CmpKind.EQ, "c", Atom("a"))
    goal = sequent({At("i", Nominal("j")), At("i", phi)}, {At("j", phi)})
    d = transfer(goal, "i", "j", phi)
    assert check_derivation(d) == []
    assert CUT in d.rules_used()
    # the evidence of jump-headed paths is the same at i and j: no cut
    phi = Compare(Jump("k"), CmpKind.EQ, "c", concat(Jump("k"), Atom("a")))
    goal = sequent({At("i", Nominal("j")), At("i", phi)}, {At("j", phi)})
    d = transfer(goal, "i", "j", phi)
    assert check_derivation(d) == []
    assert CUT not in d.rules_used()


# ---------------------------------------------------------------------------
# generalized diamonds
# ---------------------------------------------------------------------------

def test_general_dia_left_jump():
    e = At("i", dia(Jump("j"), P))
    goal = sequent({e}, {At("m", Q)})
    frag = general_dia_left(goal, "i", Jump("j"), P)
    assert check_derivation(frag, allow_open=True) == []
    opens = [s for _, s in open_leaves(frag)]
    assert opens == [goal.drop_ante(e).add_ante(At("j", P))]


def test_general_dia_left_eps_strips_to_body():
    e = At("i", dia(eps(), P))
    goal = sequent({e}, {At("m", Q)})
    frag = general_dia_left(goal, "i", eps(), P)
    assert check_derivation(frag, allow_open=True) == []
    opens = [s for _, s in open_leaves(frag)]
    assert opens == [goal.drop_ante(e).add_ante(At("i", P))]


def test_general_dia_left_two_atoms_two_fresh():
    path = concat(Atom("a"), Atom("b"))
    e = At("i", dia(path, P))
    goal = sequent({e}, {At("m", Q)})
    frag = general_dia_left(goal, "i", path, P)
    assert check_derivation(frag, allow_open=True) == []
    [(unused, leaf)] = open_leaves(frag)
    dials = [n for _, n in frag.walk() if n.rule == "DiaL"]
    assert len(dials) == 2
    fresh = {n.inst_dict["j"] for n in dials}
    assert len(fresh) == 2 and all(x.startswith("_n") for x in fresh)
    # the decomposed evidence chain ends at the body
    assert any(isinstance(m, At) and m.body == P for m in leaf.ante)


def test_general_dia_right_atom_and_jump():
    e = At("i", dia(Atom("a"), P))
    goal = sequent({At("i", Diamond("a", Nominal("w")))}, {e})
    frag = general_dia_right(goal, "i", Atom("a"), P, witnesses=["w"])
    assert check_derivation(frag, allow_open=True) == []

    e2 = At("i", dia(Jump("m"), P))
    goal2 = sequent((), {e2})
    frag2 = general_dia_right(goal2, "i", Jump("m"), P)
    assert check_derivation(frag2, allow_open=True) == []
    opens = [s for _, s in open_leaves(frag2)]
    assert opens == [goal2.drop_cons(e2).add_cons(At("m", P))]


# ---------------------------------------------------------------------------
# named dispatch and stub closure
# ---------------------------------------------------------------------------

def test_expand_macro_dispatch_and_stub_closure():
    goal = sequent({At("i", conj(P, Q)), At("m", P)}, {At("m", P)})
    frag = expand_macro("AndL", goal, {"i": "i", "phi": P, "psi": Q})
    closed = graft(frag, closable_stub)
    assert check_derivation(closed) == []
    with pytest.raises(MacroError):
        expand_macro("NoSuchRule", goal, {})


def test_expand_macro_schema_mismatch():
    goal = sequent({At("m", P)}, {At("m", P)})
    with pytest.raises(MacroError):
        expand_macro("AndL", goal, {"i": "i", "phi": P, "psi": Q})
