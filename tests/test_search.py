import random

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from genutil import (conclusion_for_rule, derivation_of,
                     rand_model, rand_sequent)
from hxproof import syntax as sx
from hxproof.goldens import (nom2_golden, paste_template, prove_axiom_suite,
                             transitivity)
from hxproof.kernel import (
    AT_5, CMP_R, CUT, EQ_5, EQ_T, LOGICAL_RULES, S3,
    check_derivation, premises, sequent,
)
from hxproof.model import check_sequent_validity, find_countermodel
from hxproof.search import (Proved, Refuted, SearchConfig, Unknown, invert,
                            prove)
from hxproof.syntax import (
    At, Atom, CmpKind, Compare, Implies, Jump, Nominal, Prop,
)

CFG = SearchConfig(max_depth=16, countermodel_nodes=2)


def seq(text, table=None):
    a, c = sx.parse_sequent_parts(text, table or sx.SymbolTable())
    return sequent(a, c)


# ---------------------------------------------------------------------------
# prove
# ---------------------------------------------------------------------------

def test_prove_reflexivity_shape():
    r = prove(seq("|- @i <eps =c eps>"), CFG)
    assert isinstance(r, Proved)
    assert check_derivation(r.derivation) == []
    used = r.derivation.rules_used()
    assert EQ_T in used and CMP_R in used  # matches the six-step outline


def test_prove_symmetry_both_kinds():
    for op in ("=c", "!=c"):
        r = prove(seq(f"|- @i (<a {op} b> <-> <b {op} a>)"), CFG)
        assert isinstance(r, Proved)
        assert check_derivation(r.derivation) == []


def test_prove_transitivity():
    r = prove(seq("|- @i (<a =c eps> & <eps =c b> -> <a =c b>)"),
              SearchConfig(max_depth=20, countermodel_nodes=1))
    assert isinstance(r, Proved)
    used = r.derivation.rules_used()
    assert {AT_5, S3, EQ_5} <= used


def test_prove_refutes_atom():
    r = prove(seq("|- @i p"), CFG)
    assert isinstance(r, Refuted)
    assert len(r.model.nodes) == 1
    assert not check_sequent_validity(r.model, seq("|- @i p"))


def test_prove_unknown_without_countermodel():
    r = prove(seq("|- @i p"), SearchConfig(max_depth=4,
                                           enable_countermodel=False))
    assert isinstance(r, Unknown)
    assert r.report["visited"] >= 1
    assert r.report["bound"] == "saturated"


def test_unknown_names_the_bound_hit():
    # valid: the last antecedent member never holds, but the proof needs
    # more than the default depth
    s = seq("@i (<eps !=c eps> -> <a>p), @j @k @i q, @k <a !=c (false?)> "
            "|- @i ~(j -> k)")
    r = prove(s)
    assert isinstance(r, Unknown) and r.report["bound"] == "depth"
    assert isinstance(prove(s, SearchConfig(max_depth=16)), Proved)
    r = prove(seq("@i <a>p |- @i q"),
              SearchConfig(max_fresh_nominals=0, enable_countermodel=False))
    assert isinstance(r, Unknown) and r.report["bound"] == "fresh"


def test_prove_never_both():
    rng = random.Random(77)
    for _ in range(60):
        s = rand_sequent(rng, max_side=2, depth=1)
        r = prove(s, SearchConfig(max_depth=8, countermodel_nodes=2))
        if isinstance(r, Proved):
            assert find_countermodel(s, 2) is None


def test_prove_monotone_in_depth():
    goals = [seq("|- @i (p -> p)"),
             seq("|- @i (<a =c b> <-> <b =c a>)"),
             seq("@i j, @i <a> k |- @j <a> k")]
    for g in goals:
        shallow = prove(g, SearchConfig(max_depth=16, countermodel_nodes=1))
        deeper = prove(g, SearchConfig(max_depth=24, countermodel_nodes=1))
        assert isinstance(shallow, Proved)
        assert isinstance(deeper, Proved)


# ---------------------------------------------------------------------------
# golden suite
# ---------------------------------------------------------------------------

def test_axiom_suite_all_check():
    suite = prove_axiom_suite()
    assert set(suite) == {"reflexivity", "symmetry", "transitivity", "paste",
                          "nom2"}
    for name, d in suite.items():
        assert check_derivation(d) == [], name


def test_transitivity_uses_the_expected_rule_sequence():
    d = transitivity()
    rules = [n.rule for _, n in d.walk()]
    # bottom-up: @5 before S3 before the flip (EqT/Eq5) before the axiom
    i_at5 = rules.index(AT_5)
    i_s3 = rules.index(S3)
    i_eq5 = rules.index(EQ_5)
    assert i_at5 < i_s3 < i_eq5


def test_paste_template_random_instantiations():
    rng = random.Random(13)
    mods = ["a", "b", "m1"]
    for trial in range(3):
        phi = Prop(rng.choice(["p", "q"]))
        d = paste_template(chi=Implies(phi, phi),
                           alpha=Atom(rng.choice(mods)),
                           beta=Atom(rng.choice(mods)),
                           a=rng.choice(mods),
                           kind=rng.choice([CmpKind.EQ, CmpKind.NEQ]))
        assert check_derivation(d) == []


def test_paste_template_rejects_clashing_nominals():
    with pytest.raises(ValueError):
        paste_template(chi=Implies(Nominal("j"), Nominal("j")))


def test_nom2_golden_cut_formulas():
    d = nom2_golden()
    assert check_derivation(d) == []
    # the alias cut below, the modal-step cut above
    cut_exprs = [n.inst_dict["phi"] for _, n in d.walk() if n.rule == CUT]
    assert cut_exprs[0] == At("i", Nominal("j"))
    assert cut_exprs[1] == At("i", sx.Diamond("a", Nominal("k")))


# ---------------------------------------------------------------------------
# invertibility
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("rule", LOGICAL_RULES)
def test_invert_each_rule(rule):
    rng = random.Random(LOGICAL_RULES.index(rule))
    for _ in range(5):
        concl, inst = conclusion_for_rule(rng, rule)
        d = derivation_of(concl, rng)
        prems = invert(rule, d, inst)
        want = premises(concl, rule, inst)
        assert [p.conclusion for p in prems] == want
        for p in prems:
            assert check_derivation(p) == []


def test_invert_eqt_is_weakening():
    concl = sequent({At("i", Prop("p"))}, {At("i", Prop("p"))})
    d = derivation_of(concl, random.Random(0))
    [p] = invert(EQ_T, d, {"i": "i", "c": "c"})
    assert p.rule == "WL"
    assert Compare(Jump("i"), CmpKind.EQ, "c", Jump("i")) in p.conclusion.ante


def test_invert_then_apply_exactness():
    rng = random.Random(4242)
    for rule in LOGICAL_RULES:
        concl, inst = conclusion_for_rule(rng, rule)
        d = derivation_of(concl, rng)
        assert [p.conclusion for p in invert(rule, d, inst)] \
            == premises(concl, rule, inst)


# ---------------------------------------------------------------------------
# soundness bridge
# ---------------------------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**9))
def test_search_results_survive_model_fuzz(seed):
    rng = random.Random(seed)
    s = rand_sequent(rng, max_side=2, depth=1)
    r = prove(s, SearchConfig(max_depth=8, enable_countermodel=False))
    if isinstance(r, Proved):
        for _ in range(10):
            assert check_sequent_validity(rand_model(rng, max_nodes=4), s)
