import json
import random

import pytest

from genutil import rand_sequent
from hxproof import jsonio
from hxproof.hylo import (
    REFERENCE_RULES, FragmentError, is_hylo, prove_hylo,
    simulate_reference_rule,
)
from hxproof.derived import open_leaves
from hxproof.kernel import AT_T, COMPARISON_RULES, check_derivation, sequent
from hxproof.model import model_to_json
from hxproof.search import Proved, Refuted, SearchConfig, prove
from hxproof.syntax import (
    At, CmpKind, Compare, Diamond, Implies, Jump, Nominal, Prop, conj, neg,
    parse_node,
)

P, Q = Prop("p"), Prop("q")
CFG = SearchConfig(max_depth=12, countermodel_nodes=2)
HY_SIG = {"props": ("p", "q"), "noms": ("i", "j"), "mods": ("a",), "cmps": ()}


def test_is_hylo():
    assert is_hylo(At("i", Diamond("a", P)))
    assert is_hylo(parse_node("@i [a](p -> <a>q)"))
    assert not is_hylo(Compare(Jump("i"), CmpKind.EQ, "c", Jump("j")))
    assert not is_hylo(parse_node("@i <i1: born =val i1: born>"))
    assert is_hylo(sequent({At("i", P)}, {At("j", Q)}))
    assert not is_hylo(sequent({Compare(Jump("i"), CmpKind.EQ, "c", Jump("j"))},
                               ()))


def test_prove_hylo_cases():
    r = prove_hylo(sequent((), {At("i", Implies(P, P))}), CFG)
    assert isinstance(r, Proved)
    r2 = prove_hylo(sequent((), {At("i", P)}), CFG)
    assert isinstance(r2, Refuted)
    goal = sequent({At("i", Nominal("j")), At("i", Diamond("a", Nominal("k")))},
                   {At("j", Diamond("a", Nominal("k")))})
    r3 = prove_hylo(goal, CFG)
    assert isinstance(r3, Proved)


def test_prove_hylo_rejects_comparisons():
    with pytest.raises(FragmentError):
        prove_hylo(sequent({Compare(Jump("i"), CmpKind.EQ, "c", Jump("j"))},
                           ()), CFG)


def test_fragment_closure_of_derivations():
    rng = random.Random(8)
    for _ in range(60):
        s = rand_sequent(rng, HY_SIG, max_side=2, depth=2)
        r = prove_hylo(s, CFG)
        if isinstance(r, Proved):
            assert not (r.derivation.rules_used() & COMPARISON_RULES)
            for _, node in r.derivation.walk():
                assert is_hylo(node.conclusion)


def test_simulations_check_with_stubbed_premisses():
    box_p = neg(Diamond("a", neg(P)))
    cases = {
        "Ref": (sequent((), {At("i", P)}), {"i": "i"}),
        "Nom1": (sequent({At("m", Q)}, {At("j", P)}),
                 {"i": "i", "j": "j", "phi": P}),
        "Nom2": (sequent({At("m", Q)}, {At("m", P)}),
                 {"i": "i", "j": "j", "k": "k", "a": "a"}),
        "BoxL1": (sequent({At("i", box_p)}, {At("m", Q)}),
                  {"i": "i", "j": "j", "a": "a", "phi": P}),
        "BoxR": (sequent({At("m", Q)}, {At("i", box_p)}),
                 {"i": "i", "j": "_z", "a": "a", "phi": P}),
        "AndL": (sequent({At("i", conj(P, Q))}, {At("m", Q)}),
                 {"i": "i", "phi": P, "psi": Q}),
        "AndR": (sequent({At("m", Q)}, {At("i", conj(P, Q))}),
                 {"i": "i", "phi": P, "psi": Q}),
    }
    assert set(cases) == set(REFERENCE_RULES)
    for rule, (goal, inst) in cases.items():
        frag = simulate_reference_rule(rule, goal, inst)
        assert check_derivation(frag, allow_open=True) == [], rule
        assert frag.conclusion == goal


def test_nom2_simulation_has_the_locked_tree_shape():
    goal = sequent({At("m", Q)}, {At("m", P)})
    frag = simulate_reference_rule("Nom2", goal,
                            {"i": "i", "j": "j", "k": "k", "a": "a"})
    shape = [n.rule for _, n in frag.walk()]
    assert shape == ["Cut", "Open", "Cut", "WL", "Open", "S1", "WL", "WL",
                     "Open"]
    opens = [s for _, s in open_leaves(frag)]
    step = At("i", Diamond("a", Nominal("k")))
    assert opens == [goal.add_cons(At("i", Nominal("j"))),
                     goal.add_cons(step),
                     goal.add_ante(At("j", Diamond("a", Nominal("k"))))]


def test_ref_is_the_reflexivity_rule():
    frag = simulate_reference_rule("Ref", sequent((), {At("i", P)}), {"i": "i"})
    assert frag.rule == AT_T and frag.children[0].rule == "Open"


def test_boxr_requires_new_nominal():
    box_p = neg(Diamond("a", neg(P)))
    with pytest.raises(FragmentError):
        simulate_reference_rule("BoxR", sequent((), {At("i", box_p)}),
                         {"i": "i", "j": "i", "a": "a", "phi": P})


def _emitted(r):
    if isinstance(r, Proved):
        return jsonio.dumps_canonical(jsonio.derivation_to_json(r.derivation))
    if isinstance(r, Refuted):
        return json.dumps(model_to_json(r.model), sort_keys=True)
    return json.dumps(r.report, sort_keys=True)


def test_agreement_with_full_calculus():
    # no comparison rule acts on a comparison-free goal, so the fragment's
    # search emits what the full search emits
    rng = random.Random(5)
    checked = 0
    for _ in range(120):
        s = rand_sequent(rng, HY_SIG, max_side=2, depth=2)
        r_h = prove_hylo(s, CFG)
        assert _emitted(r_h) == _emitted(prove(s, CFG)), s
        checked += r_h.status != "unknown"
    assert checked > 50
