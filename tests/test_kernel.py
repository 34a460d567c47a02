import json
import pathlib
import random

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from genutil import (SIG, conclusion_for_rule, rand_derivation, rand_model,
                     rand_path, rand_restricted)
from hxproof import jsonio, kernel
from hxproof.cutelim import (
    cut_complexity, cut_height, rename_nominal_derivation,
)
from hxproof.kernel import (
    AX, CMP_L, CMP_R, CUT, DIA_L, DIA_R, EQ_T,
    IMP_L, LOGICAL_RULES, METAVAR_KINDS, NOM, OPEN, RULES, S1, S2, S3, WL,
    WR, Derivation, KernelError, PrincipalMissing, Sequent, ShapeViolation,
    SideConditionViolated, Violation, ax_shape, axiom, check_derivation, cut,
    decompose, dual, evidence, freeze_inst, graft, infer, is_restricted,
    open_leaf, premises, premises_memo, premises_of, principal, sequent,
    weaken, weaken_to,
)
from hxproof.goldens import reflexivity
from hxproof.model import eval_node
from hxproof.syntax import (
    At, Atom, BOT, CmpKind, Compare, Diamond, Implies, Jump, Nominal, Prop,
    concat, dia, eps, fresh_nominals,
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
    """(rule, metavariable) -> (derivation, path) of its first golden node."""
    sites = {}
    for p in sorted(GOLDEN.glob("*.json")):
        if "model" in p.stem or "graph" in p.stem:
            continue
        d = jsonio.derivation_from_json(json.loads(p.read_text()))
        for path, node in d.walk():
            for key in node.inst_dict:
                sites.setdefault((node.rule, key), (d, path))
    return sites


_SITES = _golden_sites()
_WRONG_KIND = {"nominal": Nominal("i"), "modality": Prop("a"),
               "comparison": CmpKind.EQ, "cmpkind": "eq", "path": P,
               "node": "p"}


@pytest.mark.parametrize("rule,key", sorted(_SITES),
                         ids=[f"{r}-{k}" for r, k in sorted(_SITES)])
def test_malformed_instantiation_is_a_violation(rule, key):
    d, path = _SITES[rule, key]
    node = d.at(path)
    inst, kind = node.inst_dict, METAVAR_KINDS[key]
    dropped = {k: v for k, v in inst.items() if k != key}
    for bad in (dropped, dict(inst, **{key + "2": inst[key]}),
                dict(inst, **{key: _WRONG_KIND[kind]}),
                dict(inst, **{key: ["x"]})):
        mutated = d.replace(path, Derivation(
            node.conclusion, node.rule, freeze_inst(bad), node.children))
        assert [v.path for v in check_derivation(mutated)] == [path]


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


def test_nominals_at_any_height():
    # the per-node sets are filled bottom-up over a stack, not by recursion
    leaf = axiom(AX, sequent({At("i", P)}, {At("i", P)}), {"phi": At("i", P)})
    extra = {At(f"i{t}", P) for t in range(1200)}
    d = weaken_to(leaf, sequent({At("i", P)} | extra, {At("i", P)}))
    assert d.nominals() == {"i"} | {f"i{t}" for t in range(1200)}
    # a tree rebuilt along one path keeps the sets of the subtrees it reuses
    kept = d.__dict__["_noms"]
    w = weaken(d, "right", At("j", Q))
    assert w.nominals() == d.nominals() | {"j"}
    assert d.__dict__["_noms"] is kept


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
    assert cut_complexity(d).as_tuple() == (2, 2)

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


def test_weaken_to():
    ax1 = axiom(AX, sequent({At("i", P)}, {At("i", P)}), {"phi": At("i", P)})
    target = sequent({At("i", P), At("j", Q)}, {At("i", P), atcmp("i", "j")})
    d = weaken_to(ax1, target)
    assert d.conclusion == target and check_derivation(d) == []
    with pytest.raises(KernelError):
        weaken_to(ax1, sequent((), {At("i", P)}))


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


def test_memoized_nodes_still_check_their_own_children():
    d = _golden("paste")
    premises_memo.cache_clear()
    assert check_derivation(d) == []
    path, node = next((p, n) for p, n in d.walk()
                      if n.rule in RULES and n.children)
    child = node.children[0]
    altered = Derivation(child.conclusion.add_ante(At("zz", P)), child.rule,
                         child.inst, child.children)
    hits = premises_memo.cache_info().hits
    violations = check_derivation(d.replace((*path, 0), altered))
    # the parent's premisses come from the memo, and still disagree with
    # the altered child
    assert premises_memo.cache_info().hits > hits
    assert path in [v.path for v in violations]


def test_infer_raises_after_a_hit():
    goal = sequent({At("i", Implies(P, Q))}, {At("m", P)})
    inst = {"i": "i", "phi": P, "psi": Q}
    left, right = premises(goal, IMP_L, inst)
    infer(IMP_L, goal, inst, [open_leaf(left), open_leaf(right)])
    hits = premises_memo.cache_info().hits
    with pytest.raises(KernelError):
        infer(IMP_L, goal, inst, [open_leaf(right), open_leaf(left)])
    assert premises_memo.cache_info().hits == hits + 1


def test_failing_instance_raises_each_call_and_leaves_no_entry():
    goal = sequent({At("i", Diamond("a", P))}, ())
    clash = freeze_inst({"i": "i", "a": "a", "phi": P, "j": "i"})
    unhashable = (("c", "c"), ("i", ["i"]))
    premises_memo.cache_clear()
    for _ in range(2):
        with pytest.raises(SideConditionViolated):
            premises_of(goal, DIA_L, clash)
        with pytest.raises(ShapeViolation):
            premises_of(goal, EQ_T, unhashable)
    assert premises_memo.cache_info().currsize == 0


def test_memo_never_exceeds_its_bound():
    premises_memo.cache_clear()
    bound = kernel.PREMISES_MEMO_SIZE
    for t in range(bound + 50):
        premises_of(sequent(), EQ_T, freeze_inst({"i": f"n{t}", "c": "c"}))
        assert premises_memo.cache_info().currsize <= bound
    assert premises_memo.cache_info().currsize == bound


def test_mutating_returned_premisses_does_not_change_the_next_answer():
    goal = sequent({At("i", Diamond("a", P))}, ())
    inst = {"i": "i", "a": "a", "phi": P, "j": "u"}
    premises_memo.cache_clear()
    first = premises_of(goal, DIA_L, freeze_inst(inst))
    # answers are tuples, and a list the caller makes of one or gets from
    # `premises` is its own
    assert isinstance(first, tuple)
    mutable = list(first)
    mutable.append(goal)
    plain = premises(goal, DIA_L, inst)
    plain.clear()
    again = premises_of(goal, DIA_L, freeze_inst(inst))
    assert again == first and len(again) == 1
    assert premises_memo.cache_info().hits == 1


def test_rename_nominal_derivation():
    goal = sequent({At("i", Diamond("a", P))}, ())
    [prem] = premises(goal, DIA_L, {"i": "i", "a": "a", "phi": P, "j": "u"})
    d = infer(DIA_L, goal, {"i": "i", "a": "a", "phi": P, "j": "u"},
              [open_leaf(prem)])
    renamed = rename_nominal_derivation(d, "u", "w")
    assert check_derivation(renamed, allow_open=True) == []
    assert "w" in renamed.nominals()
    with pytest.raises(SideConditionViolated):
        rename_nominal_derivation(d, "u", "i")  # i occurs already


def test_rename_fresh_nominal_in_checked_derivation_rechecks():
    rng = random.Random(21)
    for _ in range(20):
        d = rand_derivation(rng, steps=5)
        noms = d.nominals()
        if not noms:
            continue
        old = sorted(noms)[0]
        renamed = rename_nominal_derivation(d, old, "_fresh9")
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


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(sorted(_GOLDEN_TEXTS)),
       st.sampled_from([_drop, _retype, _swap_rule, _perturb_member]),
       st.data())
def test_mutated_golden_decodes_or_fails_cleanly_and_never_passes_as_original(
        name, mutate, data):
    blob = json.loads(_GOLDEN_TEXTS[name])
    mutate(blob, data.draw)
    try:
        d = jsonio.derivation_from_json(blob)
    except jsonio.DecodeError:
        return
    violations = check_derivation(d)
    if d.conclusion != _END_SEQUENTS[name]:
        assert violations, "a tree with a changed end-sequent was accepted"
