import pathlib
import random
import sys

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from genutil import (conclusion_for_rule, derivation_of, rand_derivation,
                     rand_restricted)
from hxproof import kernel
from hxproof.cutelim import (
    CutComplexity, CutEliminationError, cut_complexity, cut_positions,
    eliminate_cuts, nominals, reduce_once, select_cut, topmost_cuts,
)
from hxproof.derived import axg, dual, weaken_to
from hxproof.goldens import paste_template, prove_axiom_suite, symmetry
from hxproof.kernel import (
    AT_L, AT_R, AT_T, AX, BOT_RULE, CMP_L, CMP_R, CUT, DIA_L, DIA_R, EQ_T,
    IMP_L, IMP_R, LOGICAL_RULES, METAVAR_KINDS, NEQ_L, axiom,
    check_derivation, cut, infer, premises, sequent, weaken,
)
from hxproof.model import find_countermodel
from hxproof.search import Proved, SearchConfig, Unknown, invert, prove
from hxproof.syntax import (
    At, Atom, BOT, CmpKind, Compare, Diamond, Implies, Jump, Nominal, Prop,
    concat, eps, fresh_nominals,
)
from test_acceptance import (SEED, _composition_corpus,
                             _inverse_construction_corpus, _paste_corpus)

P, Q = Prop("p"), Prop("q")
PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def _closed(out, original):
    assert not cut_positions(out)
    assert out.conclusion == original.conclusion
    assert check_derivation(out) == []


def _run(d):
    trace = []
    out = eliminate_cuts(d, trace=trace)
    _closed(out, d)
    for ev in trace:
        assert ev.decreasing(), ev
    return out, trace


# ---------------------------------------------------------------------------
# complexity bookkeeping
# ---------------------------------------------------------------------------

def test_cut_complexity_over_two_axioms():
    ax1 = axiom(AX, sequent({At("i", P)}, {At("i", P)}), {"phi": At("i", P)})
    ax2 = axiom(AX, sequent({At("i", P), At("j", Q)}, {At("j", Q)}),
                {"phi": At("j", Q)})
    d = cut(ax1, ax2, At("i", P))
    assert cut_complexity(d) == CutComplexity(2, 2)  # size(@_i p) = 2


def test_complexity_lexicographic_order():
    assert CutComplexity(2, 9) < CutComplexity(3, 1)
    assert CutComplexity(3, 1) < CutComplexity(3, 2)
    assert not CutComplexity(3, 2) < CutComplexity(3, 2)


def test_inv_atl_cut_complexity():
    # invert @L over @_j @_i p: the cut expression has size 3
    concl = sequent({At("j", At("i", P))}, {At("j", At("i", P))})
    d = axg(concl, "j", At("i", P))
    [prem] = invert("AtL", d, {"j": "j", "i": "i", "phi": P})
    cuts = [n for _, n in prem.walk() if n.rule == CUT]
    assert len(cuts) == 1
    assert cut_complexity(cuts[0]).k == 3


def test_base_case_configuration_height_two():
    left = axiom(AX, sequent({At("i", P)}, {At("i", P), At("m", BOT)}),
                 {"phi": At("i", P)})
    right = axiom(BOT_RULE, sequent({At("m", BOT), At("i", P)}, {At("i", P)}),
                  {"i": "m"})
    d = cut(left, right, At("m", BOT))
    assert cut_complexity(d).h == 2
    out, trace = _run(d)
    assert len(trace) == 1


def test_nominals_at_any_height():
    # the per-node sets are filled bottom-up over a stack, not by recursion
    leaf = axiom(AX, sequent({At("i", P)}, {At("i", P)}), {"phi": At("i", P)})
    extra = {At(f"i{t}", P) for t in range(1200)}
    d = weaken_to(leaf, sequent({At("i", P)} | extra, {At("i", P)}))
    assert nominals(d) == {"i"} | {f"i{t}" for t in range(1200)}
    # a tree rebuilt along one path keeps the sets of the subtrees it reuses
    kept = d.__dict__["_noms"]
    w = weaken(d, "right", At("j", Q))
    assert nominals(w) == nominals(d) | {"j"}
    assert d.__dict__["_noms"] is kept


# ---------------------------------------------------------------------------
# selection
# ---------------------------------------------------------------------------

def test_select_topmost_minimal():
    ax1 = axiom(AX, sequent({At("i", P)}, {At("i", P)}), {"phi": At("i", P)})
    ax2 = axiom(AX, sequent({At("i", P)}, {At("i", P)}), {"phi": At("i", P)})
    inner = cut(ax1, ax2, At("i", P))
    tall = weaken(inner, "left", At("m", Q))
    ax3 = axiom(AX, sequent({At("m", Q), At("i", P)}, {At("i", P), At("m", Q)}),
                {"phi": At("m", Q)})
    outer = cut(ax3, tall, At("m", Q))
    tops = topmost_cuts(outer)
    assert len(tops) == 1  # the outer cut has the inner one above it
    path, node = select_cut(outer)
    assert node is inner


def test_reduce_once_requires_a_cut():
    with pytest.raises(ValueError):
        reduce_once(symmetry())


# ---------------------------------------------------------------------------
# fixpoint and goldens
# ---------------------------------------------------------------------------

def test_cut_free_input_returned_unchanged():
    d = symmetry()
    assert not cut_positions(d)
    assert eliminate_cuts(d) == d


def test_cut_under_a_deep_weakening_chain_eliminates():
    # the reduced cut sits 1,200 levels down, and `Derivation.replace`
    # rebuilds the path to it in a loop
    p, q = At("i", P), At("i", Q)
    left = weaken(axiom(AX, sequent({q}, {q}), {"phi": q}), "right", p)
    right = weaken(axiom(AX, sequent({p}, {p}), {"phi": p}), "left", p)
    d = cut(left, right, p)
    for t in range(1200):
        d = weaken(d, "left", At(f"i{t}", P))
    assert d.height == 1203
    _run(d)


def _deep_eigen_cut(levels):
    """A cut of ImpR against a DiaL whose premiss is a chain of `levels`
    right weakenings, with the cut formula as the DiaL's context."""
    imp, s = At("i", Implies(P, P)), At("m", Prop("s"))
    step_j, body_j = At("k", Diamond("a", Nominal("j"))), At("j", Q)
    left = infer(IMP_R, sequent((), {imp}), {"i": "i", "phi": P, "psi": P},
                 [axiom(AX, sequent({At("i", P)}, {At("i", P)}),
                        {"phi": At("i", P)})])
    top = axiom(AX, sequent({s}, {s}), {"phi": s})
    for e in (step_j, body_j, imp):
        top = weaken(top, "left", e)
    for t in range(levels):
        top = weaken(top, "right", At("m", Prop(f"r{t}")))
    concl = top.conclusion.drop_ante(step_j, body_j).add_ante(
        At("k", Diamond("a", Q)))
    right = infer(DIA_L, concl, {"i": "k", "a": "a", "phi": Q, "j": "j"},
                  [top])
    return cut(left, right, imp)


def test_cut_into_a_deep_eigen_premiss_eliminates():
    # permuting the cut into the DiaL renames its eigen-nominal throughout
    # the 1,200-level weakening chain above it, over a stack, not by
    # recursion
    d = _deep_eigen_cut(1200)
    assert d.height == 1206 and check_derivation(d) == []
    _run(d)


def test_cut_into_a_2400_level_eigen_premiss_eliminates():
    # twice the climb: one permutation into the DiaL, one per right
    # weakening, and one that discharges the cut where its formula was
    # weakened in
    d = _deep_eigen_cut(2400)
    assert d.height == 2406
    out, trace = _run(d)
    assert len(trace) == 2402


def test_a_climb_builds_nodes_in_proportion_to_its_length(monkeypatch):
    # a deterministic stand-in for linear time: the nodes built while the
    # cut climbs 2,400 levels are about twice those for 1,200, where a
    # rebuild of the path at every step would make them four times
    built = [0]
    init = kernel.Derivation.__init__

    def counted(self, *args):
        built[0] += 1
        init(self, *args)

    counts = []
    for levels in (1200, 2400):
        d = _deep_eigen_cut(levels)
        monkeypatch.setattr(kernel.Derivation, "__init__", counted)
        built[0] = 0
        eliminate_cuts(d)
        monkeypatch.undo()
        counts.append(built[0])
    assert counts[1] <= 2.2 * counts[0]


def test_a_climb_checks_members_in_proportion_to_its_length(monkeypatch):
    # each cut built on the way up takes its conclusion from its premisses'
    # checked sequents and checks only the cut formula, so the members
    # checked while the cut climbs 2,400 levels are about twice those for
    # 1,200; checking every member of every new cut makes them four times
    checked = [0]
    restricted = kernel.is_restricted

    def counted(e):
        checked[0] += 1
        return restricted(e)

    counts = []
    for levels in (1200, 2400):
        d = _deep_eigen_cut(levels)
        monkeypatch.setattr(kernel, "is_restricted", counted)
        checked[0] = 0
        eliminate_cuts(d)
        monkeypatch.undo()
        counts.append(checked[0])
    assert counts[1] <= 2.2 * counts[0]


def test_bot_right_on_the_cut_formula_permutes_left():
    # (Bot) on the cut formula is principal, and as no rule has falsum
    # principal on the right, the cut permutes into the left premiss
    bot, imp = At("m", BOT), At("i", Implies(P, P))
    left = infer(IMP_R, sequent((), {imp, bot}),
                 {"i": "i", "phi": P, "psi": P},
                 [axiom(AX, sequent({At("i", P)}, {At("i", P), bot}),
                        {"phi": At("i", P)})])
    right = axiom(BOT_RULE, sequent({bot}, {At("k", Q)}), {"i": "m"})
    out, trace = _run(cut(left, right, bot))
    assert [e.kind for e in trace] == ["permute-left-ImpR", "axiom-left"]


def test_nom2_golden_eliminates_without_fallback():
    out, trace = _run(prove_axiom_suite()["nom2"])


def test_paste_golden_eliminates():
    out, trace = _run(prove_axiom_suite()["paste"])


def test_paste_variants_eliminate():
    rng = random.Random(5)
    for _ in range(4):
        phi = Prop(rng.choice(["p", "q"]))
        d = paste_template(chi=Implies(phi, phi),
                           alpha=Atom(rng.choice(["b", "b2"])),
                           beta=Atom("b2"),
                           kind=rng.choice([CmpKind.EQ, CmpKind.NEQ]))
        _run(d)


def test_reflexivity_is_proved_and_eliminated_cut_free():
    # the empty-path evidence at i with endpoint i is the alias @_i i, which
    # AtT adds: the golden and search's proof are cut-free, and a cut on the
    # alias eliminates
    d = prove_axiom_suite()["reflexivity"]
    assert [n.rule for _, n in d.walk()] == [AT_T, CMP_R, EQ_T, AX]
    r = prove(d.conclusion, SearchConfig(enable_countermodel=False))
    assert isinstance(r, Proved) and r.derivation.cuts == 0
    alias = At("i", Nominal("i"))
    left = infer(AT_T, sequent((), {alias}), {"i": "i"},
                 [axiom(AX, sequent({alias}, {alias}), {"phi": alias})])
    right = weaken(d.children[0], "left", alias)
    out, trace = _run(cut(left, right, alias))
    assert out.conclusion == d.conclusion


def test_wrapped_jump_evidence_eliminates_cut_free():
    # A right comparison over the jump path j: at k with endpoint i needs
    # the evidence @j i, not @k @j i. Cut on the wrapped form (AtR on the
    # left, AtL before CmpR on the right) is a principal pair, and search
    # proves the same end-sequent without a cut.
    ji = At("j", Nominal("i"))
    phi = At("k", ji)
    left = infer(AT_R, sequent({ji}, {phi}),
                 {"j": "k", "i": "j", "phi": Nominal("i")},
                 [axiom(AX, sequent({ji}, {ji}), {"phi": ji})])
    ev = Compare(Jump("k"), CmpKind.EQ, "c", Jump("i"))
    goal = At("k", Compare(Atom("a"), CmpKind.EQ, "c", Jump("j")))
    step = At("k", Diamond("a", Nominal("k")))
    rprem = sequent({ev, step, ji}, {goal})
    right = infer(AT_L, rprem.drop_ante(ji).add_ante(phi),
                  {"j": "k", "i": "j", "phi": Nominal("i")},
                  [infer(CMP_R, rprem,
                         {"i": "k", "alpha": Atom("a"), "beta": Jump("j"),
                          "kind": CmpKind.EQ, "c": "c", "j": "k", "k": "i"},
                         [axiom(AX, rprem.add_cons(ev), {"phi": ev})])])
    d = cut(left, right, phi)
    end = d.conclusion
    assert phi not in end.ante and find_countermodel(end, 2) is None
    out, trace = _run(d)
    assert trace[0].kind == "principal-at"
    r = prove(end, SearchConfig(enable_countermodel=False))
    assert isinstance(r, Proved) and r.derivation.cuts == 0


def test_unreducible_cut_is_stuck():
    # DiaR over a compound body on the left, required as the evidence of the
    # two-step path a b by CmpR on the right: no local family reduces it, and
    # elimination reports the stuck cut instead of re-proving. The end-sequent
    # is valid, but no rule assembles @i <a><b>x from its steps on the left,
    # so search saturates on it too.
    ab = At("i", Diamond("a", Diamond("b", Nominal("x"))))
    w_step = At("w", Diamond("b", Nominal("x")))
    lconc = sequent({At("i", Diamond("a", Nominal("w"))), w_step}, {ab})
    left = infer(DIA_R, lconc, {"i": "i", "a": "a", "phi": w_step.body,
                                "j": "w"},
                 [axg(lconc.add_cons(w_step), "w", w_step.body)])
    path = concat(Atom("a"), Atom("b"))
    eq = Compare(Jump("x"), CmpKind.EQ, "c", Jump("i"))
    rconc = sequent({ab, At("i", Nominal("i")), eq},
                    {At("i", Compare(path, CmpKind.EQ, "c", eps()))})
    right = infer(CMP_R, rconc, {"i": "i", "alpha": path, "beta": eps(),
                                 "kind": CmpKind.EQ, "c": "c", "j": "x",
                                 "k": "i"},
                  [axiom(AX, rconc.add_cons(eq), {"phi": eq})])
    d = cut(left, right, ab)
    with pytest.raises(CutEliminationError, match="^stuck cut at root: "):
        eliminate_cuts(d)
    r = prove(d.conclusion, SearchConfig(max_depth=24))
    assert isinstance(r, Unknown) and r.report["bound"] == "saturated"


# ---------------------------------------------------------------------------
# inverse constructions and the dual-pair reductions
# ---------------------------------------------------------------------------

def test_inverse_constructions_eliminate():
    rng = random.Random(31)
    # inv @L
    concl = sequent({At("j", At("i", P))}, {At("j", At("i", P))})
    d = axg(concl, "j", At("i", P))
    [prem] = invert("AtL", d, {"j": "j", "i": "i", "phi": P})
    _run(prem)
    # inv <a>L
    dia_c = sequent({At("i", Diamond("a", P))}, {At("i", Diamond("a", P))})
    d2 = axg(dia_c, "i", Diamond("a", P))
    [prem2] = invert("DiaL", d2, {"i": "i", "a": "a", "phi": P, "j": "u"})
    _run(prem2)
    # inv <cmp>L, both comparison kinds
    for kind in CmpKind:
        ce = Compare(Atom("a"), kind, "c", Atom("b"))
        cc = sequent({At("i", ce)}, {At("i", ce)})
        d3 = axg(cc, "i", ce)
        [prem3] = invert("CmpL", d3,
                         {"i": "i", "alpha": Atom("a"), "beta": Atom("b"),
                          "kind": kind, "c": "c", "j": "u", "k": "v"})
        _run(prem3)


@pytest.mark.parametrize("rule,kind", [
    (IMP_L, "principal-imp"), (AT_L, "principal-at"), (DIA_L, "principal-dia"),
    (CMP_L, "principal-cmp"), (NEQ_L, "principal-neq"),
])
def test_dual_pair_principal_reduction(rule, kind):
    # inverting a left rule cuts its dual against it, principal on both sides
    rng = random.Random(LOGICAL_RULES.index(rule))
    for _ in range(5):
        concl, inst = conclusion_for_rule(rng, rule)
        d = infer(rule, concl, inst, [derivation_of(p, rng)
                                      for p in premises(concl, rule, inst)])
        for prem in invert(rule, d, inst):
            (_, node), = topmost_cuts(prem)
            assert [c.rule for c in node.children] == [dual(rule), rule]
            assert reduce_once(prem)[1].kind == kind
            _run(prem)


# ---------------------------------------------------------------------------
# random compositions
# ---------------------------------------------------------------------------

def test_random_cut_compositions_eliminate():
    rng = random.Random(1001)
    done = 0
    while done < 40:
        d1 = rand_derivation(rng, steps=rng.randint(2, 5))
        d2 = rand_derivation(rng, steps=rng.randint(2, 5))
        phi = rand_restricted(rng, depth=1)
        try:
            comp = cut(weaken(d1, "right", phi), weaken(d2, "left", phi), phi)
        except Exception:
            continue
        done += 1
        _run(comp)


def test_degenerate_witness_cut_is_redundant():
    # both premisses end in the right diamond rule and the witness equals the
    # principal's body nominal, so the cut formula sits in the left premiss's
    # own antecedent and the cut discharges by weakening alone
    from hxproof.kernel import DIA_R, infer
    phi = At("j", Diamond("a", Nominal("k")))          # @_j<a>k
    lconc = sequent({phi, At("k", Nominal("k"))}, {phi})
    lax = axiom(AX, lconc.add_cons(At("k", Nominal("k"))),
                {"phi": At("k", Nominal("k"))})
    left = infer(DIA_R, lconc,
                 {"i": "j", "a": "a", "phi": Nominal("k"), "j": "k"}, [lax])
    rconc = sequent({phi, At("k", Prop("p"))}, {At("j", Diamond("a", Prop("p")))})
    rprem = rconc.add_cons(At("k", Prop("p")))
    rax = axiom(AX, rprem, {"phi": At("k", Prop("p"))})
    right = infer(DIA_R, rconc,
                  {"i": "j", "a": "a", "phi": Prop("p"), "j": "k"}, [rax])
    d = cut(left, right, phi)
    out, trace = _run(d)
    assert trace[0].kind == "redundant-left"


def test_shared_formula_compositions_eliminate():
    rng = random.Random(4004)
    done = 0
    while done < 30:
        d1 = rand_derivation(rng, steps=rng.randint(3, 7))
        d2 = rand_derivation(rng, steps=rng.randint(3, 7))
        shared = sorted(set(d1.conclusion.cons) & set(d2.conclusion.ante),
                        key=str)
        if not shared:
            continue
        try:
            comp = cut(d1, d2, shared[0])
        except Exception:
            continue
        done += 1
        _run(comp)


def test_right_right_family_uses_the_substitution_bridge():
    # cut formula produced by the right diamond rule on the left premiss and
    # required as a step witness by the substitution rule on the right
    from hxproof.kernel import DIA_R, S1, infer
    phi = At("i", Diamond("a", Nominal("x")))
    lconc = sequent({At("i", Diamond("a", Nominal("w"))), At("w", Nominal("x"))},
                    {phi})
    lax = axiom(AX, lconc.add_cons(At("w", Nominal("x"))),
                {"phi": At("w", Nominal("x"))})
    left = infer(DIA_R, lconc,
                 {"i": "i", "a": "a", "phi": Nominal("x"), "j": "w"}, [lax])
    target = At("m", Diamond("a", Nominal("x")))
    rconc = sequent({phi, At("i", Nominal("m"))}, {target})
    rclose = axg(rconc.add_ante(target), "m", Diamond("a", Nominal("x")))
    right = infer(S1, rconc,
                  {"i": "i", "j": "m", "phi": Diamond("a", Nominal("x"))},
                  [rclose])
    d = cut(left, right, phi)
    out, trace = _run(d)
    assert any(ev.kind == "right-right-s2" for ev in trace)


def test_nested_cuts_eliminate():
    rng = random.Random(2002)
    done = 0
    while done < 10:
        d1 = rand_derivation(rng, steps=3)
        d2 = rand_derivation(rng, steps=3)
        d3 = rand_derivation(rng, steps=3)
        phi1 = rand_restricted(rng, depth=1)
        phi2 = rand_restricted(rng, depth=1)
        try:
            inner = cut(weaken(d1, "right", phi1), weaken(d2, "left", phi1),
                        phi1)
            outer = cut(weaken(inner, "right", phi2),
                        weaken(d3, "left", phi2), phi2)
        except Exception:
            continue
        done += 1
        _run(outer)


# ---------------------------------------------------------------------------
# cut positions from the cached cut counts, against a plain walk
# ---------------------------------------------------------------------------

def walk_cut_positions(d):
    return [(path, node) for path, node in d.walk() if node.rule == CUT]


def walk_topmost_cuts(d):
    return [(path, node) for path, node in walk_cut_positions(d)
            if not any(n.rule == CUT for child in node.children
                       for _, n in child.walk())]


def _same_cut_positions(d):
    assert cut_positions(d) == walk_cut_positions(d)
    assert topmost_cuts(d) == walk_topmost_cuts(d)
    assert d.cuts == len(walk_cut_positions(d))


def _rand_cut_tree(rng, depth):
    """A random derivation with cuts nested up to `depth` deep on both
    sides, some of them under a weakening."""
    if depth == 0 or rng.random() < 0.3:
        return rand_derivation(rng, steps=rng.randint(1, 4))
    phi = rand_restricted(rng, depth=1)
    d = cut(weaken(_rand_cut_tree(rng, depth - 1), "right", phi),
            weaken(_rand_cut_tree(rng, depth - 1), "left", phi), phi)
    if rng.random() < 0.5:
        d = weaken(d, "left", rand_restricted(rng, depth=1))
    return d


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**9))
def test_cut_positions_agree_with_a_plain_walk(seed):
    rng = random.Random(seed)
    _same_cut_positions(rand_derivation(rng, steps=4))
    _same_cut_positions(_rand_cut_tree(rng, 4))


def walk_nominals(d):
    """`cutelim.nominals` as first defined: the nominals of every node's
    conclusion and instantiation, by a plain walk."""
    out = set()
    for _, node in d.walk():
        out |= node.conclusion.nominals()
        for key, v in node.inst:
            match METAVAR_KINDS[key]:
                case "nominal":
                    out.add(v)
                case "path" | "node":
                    out |= v.noms
    return out


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**9))
def test_nominals_agree_with_a_plain_walk(seed):
    # a node's set is taken from its children, its instantiation and, at a
    # leaf only, its conclusion; on a tree that checks that is every
    # conclusion's nominals too
    rng = random.Random(seed)
    for d in (rand_derivation(rng, steps=4), _rand_cut_tree(rng, 4)):
        assert check_derivation(d) == []
        assert nominals(d) == walk_nominals(d)


def _criterion_5_corpus():
    rng = random.Random(SEED + 2)
    return (_inverse_construction_corpus(rng) + _paste_corpus(rng)
            + _composition_corpus(rng))


def _cut_families():
    """The benchmark's cut-bearing families, drawn by perfbench's copy of
    this suite's generators, and random trees of nested cuts."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        import gen
    finally:
        sys.path.remove(str(PERFBENCH))
    rng = gen.derived_rng(7, "cut-families")
    out = []
    for _ in range(6):
        out += [gen.inverse_atl(rng, 3), gen.inverse_dial(rng, 3),
                gen.inverse_cmpl(rng), gen.paste(rng), gen.composition(rng)]
    trees = random.Random(8)
    while len(out) < 60:
        d = _rand_cut_tree(trees, 4)
        if d.cuts > 1:
            out.append(d)
    return out


def _goldens():
    return list(prove_axiom_suite().values())


def _same_as_the_reduce_once_loop(d):
    """`eliminate_cuts(d)` against the loop of `reduce_once`, the one-step
    reference: equal output trees and equal events. Every tree the loop
    passes through has the cut positions and the nominals of a plain walk.
    Returns the number of steps."""
    trace = []
    out = eliminate_cuts(d, trace=trace)
    want, events = d, []
    while want.cuts:
        _same_cut_positions(want)
        assert nominals(want) == walk_nominals(want)
        want, ev = reduce_once(want)
        events.append(ev)
    assert out == want
    assert [(e.kind, e.path, e.selected, e.introduced) for e in trace] \
        == [(e.kind, e.path, e.selected, e.introduced) for e in events]
    return len(events)


@pytest.mark.parametrize("corpus", [_criterion_5_corpus, _cut_families,
                                    _goldens],
                         ids=["criterion-5", "cut-families", "goldens"])
def test_eliminate_cuts_equals_the_reduce_once_loop(corpus):
    # `eliminate_cuts` picks the cut and the step that `reduce_once` picks
    # on the whole tree
    steps = sum(_same_as_the_reduce_once_loop(d) for d in corpus())
    assert steps > 100 or corpus is _goldens


def test_a_refresh_avoids_the_nominals_outside_the_cut():
    # the context below the cut names the first fresh nominal, so the
    # eigen-nominal refreshed when the cut permutes into the DiaL must avoid
    # the nominals of the whole tree, not only those of the cut's subtree
    first = fresh_nominals(1, ())[0]
    d = weaken(_deep_eigen_cut(3), "left", At(first, P))
    assert _same_as_the_reduce_once_loop(d) == 5
    _run(d)
