import json
import pathlib
import random
import sys
from collections import Counter

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from genutil import (SIG, conclusion_for_rule, rand_derivation, rand_model,
                     rand_path)
from hxproof import goldens, jsonio, kernel, search
from hxproof.cutelim import _renamed, cut_complexity, cut_height, nominals
from hxproof.derived import open_leaf, replace, weaken_to
from hxproof.kernel import (
    AT_T, AX, CMP_L, CMP_R, CUT, DIA_L, DIA_R, EQ_T,
    IMP_L, LOGICAL_RULES, METAVAR_KINDS, NOM, OPEN, RULES, S1, S2, S3, WL,
    WR, Derivation, KernelError, PrincipalMissing, Sequent, ShapeViolation,
    SideConditionViolated, Step, Violation, axiom, check_derivation, cut,
    evidence, freeze_inst, infer, is_restricted, premises, premises_memo,
    premises_of, sequent, weaken,
)
from hxproof.goldens import reflexivity
from hxproof.model import eval_node, find_countermodel
from hxproof.search import SearchConfig
from hxproof.syntax import (
    At, Atom, CmpKind, Compare, Diamond, Implies, Jump, Nominal, Prop,
    concat, dia, eps,
)

P, Q = Prop("p"), Prop("q")
GOLDEN = pathlib.Path(__file__).resolve().parents[1] / "golden"


def atcmp(i, j, kind=CmpKind.EQ, c="c"):
    return Compare(Jump(i), kind, c, Jump(j))


# ---------------------------------------------------------------------------
# sequents
# ---------------------------------------------------------------------------

def test_restricted_membership():
    assert is_restricted(At("i", P))
    assert is_restricted(atcmp("i", "j"))
    assert not is_restricted(P)
    assert not is_restricted(Compare(Atom("a"), CmpKind.EQ, "c", Jump("j")))
    with pytest.raises(ShapeViolation):
        sequent({P}, ())


def test_every_sequent_constructor_but_premises_checks_every_member():
    ok = At("i", P)
    builds = [lambda: Sequent(frozenset({ok, P}), frozenset()),
              lambda: sequent((ok,), (P,)),
              lambda: sequent({ok}, ()).add_cons(P)]
    for build in builds:
        with pytest.raises(ShapeViolation):
            build()
    # a derivation file's conclusion naming an unrestricted row
    blob = {"format": 2, "exprs": [["prop", "p"]],
            "nodes": [{"rule": OPEN, "inst": {}, "children": [],
                       "conclusion": [[0], []]}]}
    with pytest.raises(jsonio.DecodeError, match="not a restricted"):
        jsonio.derivation_from_json(blob)


def test_a_sequent_holds_two_frozensets():
    # the checker and cut conclusions trust a Sequent's members, and set
    # operations on its sides, only for sides that are frozensets
    for ante, cons in (([At("i", P)], frozenset()), (frozenset(), {At("i", P)})):
        with pytest.raises(ShapeViolation, match="frozensets"):
            Sequent(ante, cons)


def test_premisses_hold_only_restricted_members():
    # premises checks only what a rule adds to its checked conclusion; a
    # premiss rebuilt through the checking constructor is the same sequent
    rng = random.Random(7)
    for rule in LOGICAL_RULES:
        for _ in range(5):
            concl, inst = conclusion_for_rule(rng, rule)
            for prem in premises(concl, rule, inst):
                assert Sequent(prem.ante, prem.cons) == prem


def test_a_premiss_shares_the_side_it_adds_nothing_to():
    x, y = At("i", P), At("j", Q)
    s = sequent({x, y}, {y})
    assert s.drop_ante(x).cons is s.cons
    assert s.add_cons(x).ante is s.ante
    assert s.drop_ante(x) == sequent({y}, {y})
    assert s.add_cons(x) == sequent({x, y}, {x, y})


def test_sequents_are_sets():
    s = sequent({At("i", P)}, ())
    assert s.add_ante(At("i", P)) == s
    assert len(s.add_ante(At("i", Q)).ante) == 2


# ---------------------------------------------------------------------------
# rule schemas
# ---------------------------------------------------------------------------

def test_eqt_reflexivity_step():
    goal = sequent((), {At("i", Compare(eps(), CmpKind.EQ, "c", eps()))})
    [prem] = premises(goal, EQ_T, {"i": "i", "c": "c"})
    assert prem.ante == frozenset({atcmp("i", "i")})
    assert prem.cons == goal.cons


def test_ax_closes_and_is_shape_restricted():
    ok = sequent({At("i", P)}, {At("i", P)})
    assert premises(ok, AX, {"phi": At("i", P)}) == []
    assert premises(sequent({atcmp("i", "j")}, {atcmp("i", "j")}), AX,
                    {"phi": atcmp("i", "j")}) == []
    with pytest.raises(SideConditionViolated):
        bad = At("i", Implies(P, Q))
        premises(sequent({bad}, {bad}), AX, {"phi": bad})
    with pytest.raises(SideConditionViolated):
        ne = atcmp("i", "j", CmpKind.NEQ)
        premises(sequent({ne}, {ne}), AX, {"phi": ne})
    with pytest.raises(PrincipalMissing):
        premises(sequent({At("i", P)}, set()), AX, {"phi": At("i", P)})


def test_s3_schema_example():
    goal = sequent({At("i", Nominal("j")), atcmp("i", "k")}, {At("m", Q)})
    [prem] = premises(goal, S3, {"i": "i", "j": "j", "k": "k", "c": "c"})
    assert atcmp("j", "k") in prem.ante
    assert goal.ante <= prem.ante


def test_s1_shape_condition():
    goal = sequent({At("i", Nominal("j")), At("i", Implies(P, Q))}, ())
    with pytest.raises(SideConditionViolated):
        premises(goal, S1, {"i": "i", "j": "j", "phi": Implies(P, Q)})
    goal2 = sequent({At("i", Nominal("j")), At("i", Diamond("a", Nominal("k")))},
                    ())
    [prem] = premises(goal2, S1,
                      {"i": "i", "j": "j", "phi": Diamond("a", Nominal("k"))})
    assert At("j", Diamond("a", Nominal("k"))) in prem.ante


def test_s2_schema():
    goal = sequent({At("j", Nominal("k")), At("i", Diamond("a", Nominal("j")))},
                   ())
    [prem] = premises(goal, S2, {"i": "i", "j": "j", "k": "k", "a": "a"})
    assert At("i", Diamond("a", Nominal("k"))) in prem.ante


def test_freshness_side_conditions():
    goal = sequent({At("i", Diamond("a", P))}, ())
    with pytest.raises(SideConditionViolated):
        premises(goal, DIA_L, {"i": "i", "a": "a", "phi": P, "j": "i"})
    [prem] = premises(goal, DIA_L, {"i": "i", "a": "a", "phi": P, "j": "u"})
    assert At("u", P) in prem.ante
    cgoal = sequent({At("i", Compare(Atom("a"), CmpKind.EQ, "c", Atom("b")))},
                    ())
    with pytest.raises(SideConditionViolated):
        premises(cgoal, CMP_L, {"i": "i", "alpha": Atom("a"), "beta": Atom("b"),
                                "kind": CmpKind.EQ, "c": "c", "j": "u", "k": "u"})
    ngoal = sequent({At("i", P)}, ())
    with pytest.raises(SideConditionViolated):
        premises(ngoal, NOM, {"i": "i", "j": "i"})
    [nprem] = premises(ngoal, NOM, {"i": "i", "j": "j"})
    assert At("i", Nominal("j")) in nprem.ante


def test_cmp_rules_expand_path_evidence():
    # CmpL adds, and CmpR requires, @i <alpha> u with a head jump absorbed
    # into the index and a head eps dropped; a jump after a step stays
    ev_b = At("i", Diamond("b", Nominal("v")))
    for alpha, ev in [
        (Atom("a"), At("i", Diamond("a", Nominal("u")))),
        (Jump("m"), At("m", Nominal("u"))),
        (eps(), At("i", Nominal("u"))),
        (concat(eps(), Jump("m")), At("m", Nominal("u"))),
        (concat(Jump("m"), Jump("n"), Atom("a")),
         At("n", Diamond("a", Nominal("u")))),
        (concat(Atom("a"), Jump("m")),
         At("i", Diamond("a", At("m", Nominal("u"))))),
    ]:
        assert evidence("i", alpha, "u") == ev
        cm = At("i", Compare(alpha, CmpKind.EQ, "c", Atom("b")))
        inst = {"i": "i", "alpha": alpha, "beta": Atom("b"),
                "kind": CmpKind.EQ, "c": "c", "j": "u", "k": "v"}
        [prem] = premises(sequent({cm}, ()), CMP_L, inst)
        assert prem.ante == {ev, ev_b, atcmp("u", "v")}
        [prem] = premises(sequent({ev, ev_b}, {cm}), CMP_R, inst)
        assert prem.cons == {cm, atcmp("u", "v")}
        with pytest.raises(PrincipalMissing):
            premises(sequent({ev_b}, {cm}), CMP_R, inst)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10**9))
def test_evidence_agrees_with_the_unnormalized_formula(seed):
    # the normalization is sound: @i @m psi is @m psi (Agree) and
    # @i (true & psi) is @i psi, in every model
    rng = random.Random(seed)
    alpha = concat(*(rand_path(rng, SIG, 1) for _ in range(rng.randint(1, 3))))
    i, x = rng.choice(SIG["noms"]), rng.choice(SIG["noms"])
    m = rand_model(rng, max_nodes=3)
    raw = At(i, dia(alpha, Nominal(x)))
    ev = evidence(i, alpha, x)
    for n in sorted(m.nodes):
        assert eval_node(m, n, ev) == eval_node(m, n, raw), (alpha, m)


def test_diar_requires_witness_step():
    goal = sequent((), {At("i", Diamond("a", P))})
    with pytest.raises(PrincipalMissing):
        premises(goal, DIA_R, {"i": "i", "a": "a", "phi": P, "j": "j"})


def test_structural_rules_not_backward():
    with pytest.raises(KernelError):
        premises(sequent((), ()), CUT, {"phi": At("i", P)})


# ---------------------------------------------------------------------------
# derivations, checking, mutation
# ---------------------------------------------------------------------------

def test_single_axiom_leaf_checks():
    d = axiom(AX, sequent({At("i", P)}, {At("i", P)}), {"phi": At("i", P)})
    assert check_derivation(d) == []
    assert d.height == 1


def test_reflexivity_transcription_checks_and_mutates():
    d = reflexivity()
    assert check_derivation(d) == []
    # deleting the EqT step detaches the axiom leaf from its justification
    def strip_eqt(node):
        if node.rule == EQ_T:
            return node.children[0]
        if not node.children:
            return node
        return Derivation(node.conclusion, node.rule, node.inst,
                          tuple(strip_eqt(c) for c in node.children))
    broken = strip_eqt(d)
    assert check_derivation(broken) != []


def _golden_sites():
    """(rule, metavariable) -> (derivation, path, node) of its first golden
    node."""
    sites = {}
    for p in sorted(GOLDEN.glob("*.json")):
        if "model" in p.stem or "graph" in p.stem:
            continue
        d = jsonio.derivation_from_json(json.loads(p.read_text()))
        for where, node in d.walk():
            for key in node.inst_dict:
                sites.setdefault((node.rule, key),
                                 (d, Derivation.path_of(where), node))
    return sites


_SITES = _golden_sites()
_WRONG_KIND = {"nominal": Nominal("i"), "modality": Prop("a"),
               "comparison": CmpKind.EQ, "cmpkind": "eq", "path": P,
               "node": "p"}


@pytest.mark.parametrize("rule,key", sorted(_SITES),
                         ids=[f"{r}-{k}" for r, k in sorted(_SITES)])
def test_malformed_instantiation_is_a_violation(rule, key):
    d, path, node = _SITES[rule, key]
    inst, kind = node.inst_dict, METAVAR_KINDS[key]
    dropped = {k: v for k, v in inst.items() if k != key}
    for bad in (dropped, dict(inst, **{key + "2": inst[key]}),
                dict(inst, **{key: _WRONG_KIND[kind]}),
                dict(inst, **{key: ["x"]})):
        mutated = replace(d, path, Derivation(
            node.conclusion, node.rule, freeze_inst(bad), node.children))
        assert [v.path for v in check_derivation(mutated)] == [path]


def _malformed_nodes():
    """(name, tree, allow_open, paths of the nodes it must report) for trees
    whose nodes are not of the kernel's types."""
    phi = At("i", P)
    good = axiom(AX, sequent({phi}, {phi}), {"phi": phi})
    inst, s = good.inst, good.conclusion
    not_a_sequent = Derivation("x", AX, inst)
    return [
        ("conclusion-not-a-sequent", not_a_sequent, False, [()]),
        ("cut-premiss-not-a-sequent",
         Derivation(s, CUT, inst, (not_a_sequent, good)), False, [(), (0,)]),
        ("cut-right-premiss-not-a-sequent",
         Derivation(s, CUT, inst, (good, not_a_sequent)), False, [(), (1,)]),
        ("weakening-premiss-not-a-sequent",
         Derivation(s, WL, inst, (not_a_sequent,)), False, [(), (0,)]),
        ("inst-not-pairs", Derivation(s, AX, (1, 2)), False, [()]),
        ("inst-a-list", Derivation(s, AX, list(inst)), False, [()]),
        ("inst-pair-a-list", Derivation(s, AX, (["phi", phi],)), False, [()]),
        ("inst-names-phi-twice", Derivation(s, AX, inst + inst), False, [()]),
        ("cut-inst-not-pairs", Derivation(s, CUT, (1, 2), (good, good)),
         False, [()]),
        ("open-inst-not-pairs", Derivation(s, OPEN, (1,)), True, [()]),
        ("rule-not-a-str", Derivation(s, [AX], inst), False, [()]),
    ]


@pytest.mark.parametrize("name,d,allow_open,paths", _malformed_nodes(),
                         ids=[case[0] for case in _malformed_nodes()])
def test_a_node_not_of_the_kernel_types_is_a_violation(
        name, d, allow_open, paths):
    violations = check_derivation(d, allow_open)
    assert all(isinstance(v, Violation) for v in violations)
    assert sorted(v.path for v in violations) == paths


def test_check_reports_paths():
    good = axiom(AX, sequent({At("i", P)}, {At("i", P)}), {"phi": At("i", P)})
    wrapped = Derivation(sequent({At("i", Q)}, {At("i", Q)}), WL,
                         good.inst, (good,))
    violations = check_derivation(wrapped)
    assert violations and isinstance(violations[0], Violation)


def test_check_is_total_at_any_height():
    # each weakening is one level; checking walks with a stack, not recursion
    leaf = axiom(AX, sequent({At("i", P)}, {At("i", P)}), {"phi": At("i", P)})
    extra = {At(f"i{t}", P) for t in range(1200)}
    d = weaken_to(leaf, sequent({At("i", P)} | extra, {At("i", P)}))
    assert d.height == 1201
    assert check_derivation(d) == []


def _weakening_chain(leaf, levels):
    """`leaf` under `levels` weakenings by a member it already has, so every
    level's sequent is the leaf's."""
    d = leaf
    for _ in range(levels):
        d = weaken(d, "left", At("i", P))
    return d


def test_check_is_linear_in_the_height(monkeypatch):
    # the check keeps `Derivation.walk`'s (where, node) entries, constant
    # work per node, and spells out a node's path (`path_of`) only when the
    # node reports a violation; a path spelt out for every node makes it
    # quadratic in the height
    leaf = axiom(AX, sequent({At("i", P)}, {At("i", P)}), {"phi": At("i", P)})
    bad = Derivation(leaf.conclusion, AX, freeze_inst({"phi": At("i", Q)}))
    d = _weakening_chain(bad, 16000)
    (path,) = [Derivation.path_of(w) for w, n in d.walk() if n is bad]
    calls, path_of = [], Derivation.path_of

    def counted(where):
        calls.append(where)
        return path_of(where)

    monkeypatch.setattr(Derivation, "path_of", staticmethod(counted))
    assert check_derivation(_weakening_chain(leaf, 16000)) == []
    assert len(calls) == 0
    # the one bad node, under a chain of 16,000 levels, has the walk's path
    assert [v.path for v in check_derivation(d)] == [path] == [(0,) * 16000]
    assert len(calls) == 1


def test_walk_is_linear_in_the_height():
    # each node's `where` is its child index linked to its parent's `where`
    # object, so the walk does constant work per node; a path copied for
    # every node would make it quadratic in the height
    def leaf():
        return axiom(AX, sequent({At("i", P)}, {At("i", P)}),
                     {"phi": At("i", P)})

    d = cut(leaf(), _weakening_chain(leaf(), 3), At("i", P))
    for tree in (_weakening_chain(leaf(), 16000), d):
        parents = {id(tree): None}     # node -> (its index, parent's where)
        for where, node in tree.walk():
            link = parents.pop(id(node))
            if link is None:
                assert where == ()
            else:
                assert len(where) == 2 and where[0] == link[0]
                assert where[1] is link[1]
            parents.update((id(child), (t, where))
                           for t, child in enumerate(node.children))
        assert not parents
    assert ([Derivation.path_of(w) for w, _ in d.walk()]
            == [(), (0,), (1,), (1, 0), (1, 0, 0), (1, 0, 0, 0)])


def test_open_leaves_only_with_flag():
    leaf = open_leaf(sequent({At("i", P)}, ()))
    assert check_derivation(leaf) != []
    assert check_derivation(leaf, allow_open=True) == []


def test_cut_and_weaken_forward():
    ax1 = axiom(AX, sequent({At("i", P)}, {At("i", P)}), {"phi": At("i", P)})
    ax2 = axiom(AX, sequent({At("i", P), At("j", Q)}, {At("j", Q)}),
                {"phi": At("j", Q)})
    d = cut(ax1, ax2, At("i", P))
    assert d.conclusion == sequent({At("i", P), At("j", Q)}, {At("j", Q)})
    assert check_derivation(d) == []
    assert cut_height(d) == 2
    assert cut_complexity(d) == (2, 2)

    w = weaken(ax1, "left", At("k", Q))
    assert At("k", Q) in w.conclusion.ante
    assert check_derivation(w) == []
    # duplicate weakening: sequent unchanged, step still recorded
    w2 = weaken(ax1, "left", At("i", P))
    assert w2.conclusion == ax1.conclusion
    assert w2.rule == WL and check_derivation(w2) == []

    with pytest.raises(KernelError):
        cut(ax1, ax2, At("k", Q))
    with pytest.raises(ShapeViolation):
        weaken(ax1, "left", P)


def test_heights():
    ax1 = axiom(AX, sequent({At("i", P)}, {At("i", P)}), {"phi": At("i", P)})
    assert ax1.height == 1
    assert weaken(ax1, "left", At("j", Q)).height == 2
    # the reflexivity tree: AtT, CmpR, EqT, Ax
    assert reflexivity().height == 4


def test_infer_rejects_wrong_children():
    goal = sequent({At("i", Implies(P, Q))}, {At("m", P)})
    ax_raw = axiom(AX, sequent({At("m", P)}, {At("m", P)}), {"phi": At("m", P)})
    with pytest.raises(KernelError):
        infer(IMP_L, goal, {"i": "i", "phi": P, "psi": Q}, [ax_raw, ax_raw])


# ---------------------------------------------------------------------------
# the premiss memo
# ---------------------------------------------------------------------------

def _golden(name):
    return jsonio.derivation_from_json(
        json.loads((GOLDEN / f"{name}.json").read_text()))


def _count_premises(monkeypatch):
    """The list of (goal, rule) of every later call of `kernel.premises`,
    also of calls through a module that imported it by name."""
    real, computed = kernel.premises, []

    def counted(goal, rule, inst):
        computed.append((goal, rule))
        return real(goal, rule, inst)

    for name, module in list(sys.modules.items()):
        if name.startswith("hxproof") and \
                getattr(module, "premises", None) is real:
            monkeypatch.setattr(module, "premises", counted)
    return computed


def test_memoized_nodes_still_check_their_own_children(monkeypatch):
    d = _golden("paste")
    premises_memo.clear()
    assert check_derivation(d) == []
    where, node = next((w, n) for w, n in d.walk()
                       if n.rule in RULES and n.children)
    path = Derivation.path_of(where)
    child = node.children[0]
    altered = Derivation(child.conclusion.add_ante(At("zz", P)), child.rule,
                         child.inst, child.children)
    computed = _count_premises(monkeypatch)
    violations = check_derivation(replace(d, (*path, 0), altered))
    # the parent's premisses come from the memo, and still disagree with
    # the altered child
    assert (node.conclusion, node.rule) not in computed
    assert path in [v.path for v in violations]


def test_infer_raises_after_a_hit(monkeypatch):
    goal = sequent({At("i", Implies(P, Q))}, {At("m", P)})
    inst = {"i": "i", "phi": P, "psi": Q}
    left, right = premises(goal, IMP_L, inst)
    infer(IMP_L, goal, inst, [open_leaf(left), open_leaf(right)])
    computed = _count_premises(monkeypatch)
    with pytest.raises(KernelError):
        infer(IMP_L, goal, inst, [open_leaf(right), open_leaf(left)])
    assert computed == []


def test_failing_instance_raises_each_call_and_leaves_no_entry():
    goal = sequent({At("i", Diamond("a", P))}, ())
    clash = freeze_inst({"i": "i", "a": "a", "phi": P, "j": "i"})
    unhashable = (("c", "c"), ("i", ["i"]))
    premises_memo.clear()
    for _ in range(2):
        with pytest.raises(SideConditionViolated):
            premises_of(goal, DIA_L, clash)
        with pytest.raises(ShapeViolation):
            premises_of(goal, EQ_T, unhashable)
    assert len(premises_memo) == 0


def test_memo_never_exceeds_its_bound():
    premises_memo.clear()
    bound = kernel.PREMISES_MEMO_SIZE
    for t in range(bound + 50):
        premises_of(sequent(), EQ_T, freeze_inst({"i": f"n{t}", "c": "c"}))
        assert len(premises_memo) <= bound
    assert len(premises_memo) == bound


def test_a_sequent_hashes_alike_however_built_and_hits_one_memo_entry(
        monkeypatch):
    # `sequent()` runs `__init__`, while `add_ante` and `premises` build
    # without it; each caches the generated hash's value on first use
    y, alias = At("j", Q), At("i", Nominal("i"))
    built = sequent({y, alias}, {y})
    grown = sequent({y}, {y}).add_ante(alias)
    [prem] = premises(sequent({y}, {y}), AT_T, {"i": "i"})
    assert built == grown == prem
    assert hash(built) == hash(grown) == hash(prem) == hash((prem.ante, prem.cons))
    premises_memo.clear()
    computed = _count_premises(monkeypatch)
    key = freeze_inst({"i": "k", "c": "c"})
    first = premises_of(built, EQ_T, key)
    assert premises_of(grown, EQ_T, key) is first
    assert premises_of(prem, EQ_T, key) is first
    assert (len(computed), len(premises_memo)) == (1, 1)


def test_mutating_returned_premisses_does_not_change_the_next_answer(
        monkeypatch):
    goal = sequent({At("i", Diamond("a", P))}, ())
    inst = {"i": "i", "a": "a", "phi": P, "j": "u"}
    premises_memo.clear()
    first = premises_of(goal, DIA_L, freeze_inst(inst))
    # answers are tuples, and a list the caller makes of one or gets from
    # `premises` is its own
    assert isinstance(first, tuple)
    mutable = list(first)
    mutable.append(goal)
    plain = premises(goal, DIA_L, inst)
    plain.clear()
    computed = _count_premises(monkeypatch)
    again = premises_of(goal, DIA_L, freeze_inst(inst))
    assert again == first and len(again) == 1
    assert computed == []


# a sequent whose proof has steps above a left implication, a step in one
# of its two branches, and axiom leaves
_BRANCHING = sequent({At("i", Implies(P, At("j", Q))), At("i", P)},
                     {At("i", Implies(Prop("r"), At("j", Q)))})


def _proved(goal):
    r = search.prove(goal, SearchConfig(enable_countermodel=False))
    assert isinstance(r, search.Proved)
    return r.derivation


def test_prove_rechecks_from_the_premisses_its_search_kept(monkeypatch):
    real_premises, real_check = kernel.premises, search.check_derivation
    computed, checked = [], []

    def counted(goal, rule, inst):
        computed.append(rule)
        return real_premises(goal, rule, inst)

    def check(d, *args):
        checked.append(d)
        with monkeypatch.context() as m:
            m.setattr(kernel, "premises", counted)
            return real_check(d, *args)

    monkeypatch.setattr(search, "check_derivation", check)
    d = _proved(_BRANCHING)
    nodes = [n for _, n in d.walk()]
    assert checked == [d] and len(nodes) > 4
    assert any(len(n.children) == 2 for n in nodes)
    assert computed == []
    # the same check on an empty memo computes every node's premisses
    premises_memo.clear()
    check(d)
    assert len(computed) == len(nodes)


def test_search_makes_every_inner_step_through_its_premises_attribute(
        monkeypatch):
    # perfbench's tracer counts rule applications on this attribute
    real = search.premises
    seen = Counter()

    def counted(goal, rule, inst):
        seen[goal, rule] += 1
        return real(goal, rule, inst)

    monkeypatch.setattr(search, "premises", counted)
    d = _proved(_BRANCHING)
    inner = Counter((n.conclusion, n.rule) for _, n in d.walk() if n.children)
    assert seen == inner and sum(inner.values()) > 2


def test_a_swapped_child_is_a_violation_with_the_memo_warm_from_search(
        monkeypatch):
    d = _proved(_BRANCHING)
    where, node = next((w, n) for w, n in d.walk() if len(n.children) == 2)
    path = Derivation.path_of(where)
    swapped = Derivation(node.conclusion, node.rule, node.inst,
                         node.children[::-1])
    computed = _count_premises(monkeypatch)
    violations = check_derivation(replace(d, path, swapped))
    # each node's premisses come from what the search kept
    assert computed == []
    assert [v.path for v in violations] == [path]


@pytest.mark.parametrize("build,logical", [
    (goldens.reflexivity, 4), (goldens.symmetry, 16),
    (goldens.transitivity, 14), (goldens.nom2_golden, 8),
])
def test_a_macro_computes_each_nodes_premisses_once(monkeypatch, build,
                                                    logical):
    # `derived.step` reads a node's premisses through the memo, and `infer`
    # then reads the same entry
    premises_memo.clear()
    computed = _count_premises(monkeypatch)
    d = build()
    assert sum(n.rule in RULES for _, n in d.walk()) == logical
    assert len(computed) == logical


def test_a_step_keeps_the_instantiation_its_premisses_were_read_from():
    goal = sequent({At("i", Diamond("a", P))}, ())
    inst = {"i": "i", "a": "a", "phi": P, "j": "u"}
    step = Step(goal, DIA_L, inst)
    # the caller's dict changes after the step and before its node is built
    inst["j"] = "w"
    node = step.node(())
    assert node.inst == freeze_inst(dict(inst, j="u"))
    assert premises_of(goal, DIA_L, node.inst) is step.premisses
    assert premises_of(goal, DIA_L, freeze_inst(inst)) == \
        tuple(premises(goal, DIA_L, inst))


def test_rename_fresh_nominal_in_checked_derivation_rechecks():
    rng = random.Random(21)
    for _ in range(20):
        d = rand_derivation(rng, steps=5)
        noms = nominals(d)
        if not noms:
            continue
        old = sorted(noms)[0]
        renamed = _renamed(d, {old: "_fresh9"})
        assert check_derivation(renamed) == []


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**9))
def test_forward_composition_always_checks(seed):
    rng = random.Random(seed)
    d = rand_derivation(rng, steps=6)
    assert check_derivation(d) == []


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**9))
def test_fresh_nominals_absent_from_their_conclusions(seed):
    rng = random.Random(seed)
    d = rand_derivation(rng, steps=6)
    for _, node in d.walk():
        inst = node.inst_dict
        if node.rule in (NOM, DIA_L):
            assert inst["j"] not in node.conclusion.nominals()
        elif node.rule == CMP_L:
            assert not ({inst["j"], inst["k"]} & node.conclusion.nominals())


# ---------------------------------------------------------------------------
# hostile input: mutated golden JSON
# ---------------------------------------------------------------------------

_GOLDEN_TEXTS = {p.stem: p.read_text() for p in sorted(GOLDEN.glob("*.json"))
                 if "model" not in p.stem and "graph" not in p.stem}
_END_SEQUENTS = {name: jsonio.derivation_from_json(json.loads(text)).conclusion
                 for name, text in _GOLDEN_TEXTS.items()}
_RULE_NAMES = sorted(RULES) + [CUT, WL, WR, OPEN, "NoSuchRule"]
_RETYPED = (None, 0, 1.5, True, "x", [], {}, [{}], {"tag": "prop"})


def _containers(value):
    """Every non-empty dict and list inside `value`, `value` first."""
    out, stack = [], [value]
    while stack:
        v = stack.pop()
        if isinstance(v, (dict, list)) and v:
            out.append(v)
            stack += v.values() if isinstance(v, dict) else v
    return out


def _drop(blob, draw):
    parent = draw(st.sampled_from(_containers(blob)))
    del parent[draw(st.sampled_from(list(parent) if isinstance(parent, dict)
                                    else range(len(parent))))]


def _retype(blob, draw):
    parent = draw(st.sampled_from(_containers(blob)))
    key = draw(st.sampled_from(list(parent) if isinstance(parent, dict)
                               else range(len(parent))))
    parent[key] = draw(st.sampled_from(_RETYPED))


def _swap_rule(blob, draw):
    node = draw(st.sampled_from(blob["nodes"]))
    node["rule"] = draw(st.sampled_from(
        [r for r in _RULE_NAMES if r != node["rule"]]))


def _formula_slots(blob):
    """(container, key) of every formula the file states, an `exprs` row
    index: each member of a stated conclusion and each node instantiation
    value."""
    out = []
    for node in blob["nodes"]:
        for members in node.get("conclusion", []):
            out += [(members, t) for t in range(len(members))]
        out += [(node["inst"], key) for key in node["inst"]
                if METAVAR_KINDS[key] == "node"]
    return out


def _perturb_member(blob, draw):
    """Replace one stated formula with a formula found elsewhere in the
    file, the formula moved under a fresh nominal, or a formula that is not
    a sequent member (the formula's body, or falsum)."""
    slots = _formula_slots(blob)
    parent, key = draw(st.sampled_from(slots))
    member, exprs = parent[key], blob["exprs"]
    elsewhere = [p[k] for p, k in slots]
    row = exprs[member]
    exprs += [["at", "zz", member], ["bot"]]
    body = row[2] if row[0] == "at" else len(exprs) - 1
    parent[key] = draw(st.sampled_from(elsewhere)
                       | st.just(len(exprs) - 2) | st.just(body))


def _rename_modality_a(blob, draw):
    """Rename the modality a to x in its one `exprs` row, as `_retype` may:
    the symmetry golden then proves |- @i (<x =c b> <-> <b =c x>)."""
    row = blob["exprs"].index(["mod", "a"])
    blob["exprs"][row] = ["mod", "x"]


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(sorted(_GOLDEN_TEXTS)),
       st.sampled_from([_drop, _retype, _swap_rule, _perturb_member]),
       st.data())
@example("symmetry", _rename_modality_a, None)
def test_mutated_golden_decodes_or_fails_cleanly_and_never_passes_as_original(
        name, mutate, data):
    blob = json.loads(_GOLDEN_TEXTS[name])
    mutate(blob, data and data.draw)
    try:
        d = jsonio.derivation_from_json(blob)
    except jsonio.DecodeError:
        return
    violations = check_derivation(d)
    # a mutation can rename a symbol consistently through the table and so
    # yield a proof of another sequent; the checker may accept that tree
    # only where its end-sequent is sound
    if d.conclusion != _END_SEQUENTS[name] and not violations:
        assert find_countermodel(d.conclusion, 2) is None, \
            "an unsound tree with a changed end-sequent was accepted"
