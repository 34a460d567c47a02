import hashlib
import random

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from genutil import rand_node, rand_restricted, SIG
from hxproof import kernel
from hxproof.derived import (
    MacroError, and_left, and_right, axg, cmp_flip, decompose, dual, graft,
    identity, iff_right, open_leaf, open_leaves, principal, transfer,
    weaken_to,
)
from hxproof.jsonio import derivation_to_json, dumps_canonical
from hxproof.kernel import (
    AX, CUT, RULES, KernelError, ax_shape, axiom, check_derivation, sequent,
)
from hxproof.syntax import (
    At, Atom, BOT, CmpKind, Compare, Jump, Nominal, Prop, Test, concat, conj,
    fresh_nominals, iff,
)

P, Q = Prop("p"), Prop("q")


def closable_stub(leaf):
    """Close an open leaf by planting its own members as an axiom pair."""
    for e in sorted(leaf.ante & leaf.cons, key=str):
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


# ---------------------------------------------------------------------------
# rule-table readers and fragment builders
# ---------------------------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10**9), st.integers(0, 3))
def test_decompose_names_the_dual_pair_of_each_compound_member(seed, depth):
    e = rand_restricted(random.Random(seed), SIG, depth)
    if ax_shape(e) or isinstance(e, At) and e.body == BOT:
        with pytest.raises(KernelError):
            decompose(e)
        return
    (left, right), inst = decompose(e)
    # the eigen-nominals of the left rule are the right rule's witnesses
    eigens = RULES[left].eigens
    inst.update(zip(eigens, fresh_nominals(len(eigens), e.noms)))
    assert principal(left, inst) == ("ante", e)
    assert principal(right, inst) == ("cons", e)
    assert dual(left) == right


def test_graft_at_any_height():
    # the open leaf sits 1,200 levels down; graft puts its filler in with
    # `replace`, not by recursion
    p = At("i", P)
    extra = {At(f"i{t}", P) for t in range(1200)}
    frag = weaken_to(open_leaf(sequent({p}, {p})),
                     sequent({p} | extra, {p}))
    d = graft(frag, {sequent({p}, {p}): axiom(AX, sequent({p}, {p}),
                                              {"phi": p})})
    assert d.height == 1201 and check_derivation(d) == []


def test_weaken_to_checks_only_the_added_members(monkeypatch):
    # each weakening checks its one added member, in weaken and in the
    # sequent it builds, so a chain of n costs O(n) checks, not O(n^2)
    n = 2400
    leaf = axiom(AX, sequent({At("i", P)}, {At("i", P)}), {"phi": At("i", P)})
    target = sequent({At("i", P)} | {At(f"i{t}", P) for t in range(n // 2)},
                     {At("i", P)} | {At(f"j{t}", Q) for t in range(n // 2)})
    calls = []
    restricted = kernel.is_restricted
    monkeypatch.setattr(kernel, "is_restricted",
                        lambda e: calls.append(e) or restricted(e))
    d = weaken_to(leaf, target)
    monkeypatch.undo()
    assert d.conclusion == target and d.height == n + 1
    assert 0 < len(calls) <= 2 * n


def test_weaken_to():
    ax1 = axiom(AX, sequent({At("i", P)}, {At("i", P)}), {"phi": At("i", P)})
    atcmp = Compare(Jump("i"), CmpKind.EQ, "c", Jump("j"))
    target = sequent({At("i", P), At("j", Q)}, {At("i", P), atcmp})
    d = weaken_to(ax1, target)
    assert d.conclusion == target and check_derivation(d) == []
    with pytest.raises(KernelError):
        weaken_to(ax1, sequent((), {At("i", P)}))
