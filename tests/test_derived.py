import hashlib
import random

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from genutil import rand_node, SIG
from hxproof.derived import (
    MacroError, and_left, and_right, axg, cmp_flip, identity, iff_right,
    transfer,
)
from hxproof.jsonio import derivation_to_json, dumps_canonical
from hxproof.kernel import (
    CUT, axiom, check_derivation, graft, open_leaves, sequent,
)
from hxproof.syntax import (
    At, Atom, CmpKind, Compare, Jump, Nominal, Prop, Test, concat, conj, iff,
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


# One digest of the canonical JSON of the closures below, recorded from the
# macros that closed each connective with a hand-ordered pair of rules (and
# re-recorded in derivation format 2 from the same trees)
IDENTITY_PIN = "0d6514ddc600d85e"


def test_identity_reproduces_the_hand_ordered_closures():
    h = hashlib.sha256()

    def add(goal, e):
        h.update(dumps_canonical(derivation_to_json(identity(goal, e)))
                 .encode())

    for seed in range(320):
        e = At("i", rand_node(random.Random(seed), SIG, seed % 4))
        add(sequent({e}, {e}), e)
    for kind in CmpKind:
        e = Compare(Jump("x"), kind, "c", Jump("y"))
        add(sequent({e, At("m", P)}, {e}), e)
    assert h.hexdigest()[:16] == IDENTITY_PIN


def test_identity_closes_comparisons_of_both_kinds():
    for kind in CmpKind:
        e = Compare(Jump("x"), kind, "c", Jump("y"))
        goal = sequent({e, At("m", P)}, {e})
        assert check_derivation(identity(goal, e)) == []


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
# fragments closed by stubs
# ---------------------------------------------------------------------------

def test_expand_macro_dispatch_and_stub_closure():
    """An and_left fragment's open leaf closes by a grafted stub axiom."""
    goal = sequent({At("i", conj(P, Q)), At("m", P)}, {At("m", P)})
    frag = and_left(goal, "i", P, Q)
    closed = graft(frag, closable_stub)
    assert check_derivation(closed) == []


def test_expand_macro_schema_mismatch():
    """and_left refuses a goal without its principal conjunction."""
    goal = sequent({At("m", P)}, {At("m", P)})
    with pytest.raises(MacroError):
        and_left(goal, "i", P, Q)
