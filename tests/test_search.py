import copy
import gc
import random
from collections import Counter

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from genutil import (CRITERION_6_SEED, SIG, conclusion_for_rule,
                     criterion_6_goals, derivation_of, rand_derivation,
                     rand_kind, rand_model, rand_node, rand_path,
                     rand_sequent)
from hxproof import jsonio, model, search
from hxproof import syntax as sx
from hxproof.derived import required
from hxproof.goldens import (nom2_golden, paste_template, prove_axiom_suite,
                             transitivity)
from hxproof.kernel import (
    AT_5, AT_L, AT_R, AT_T, AX, BOT_RULE, CMP_L, CMP_R, CUT, DIA_L, DIA_R,
    EQ_5, EQ_T, IMP_L, IMP_R, LOGICAL_RULES, NEQ_L, NEQ_R, S1, S2, S3,
    ax_shape, check_derivation, evidence, evidence_memo, premises,
    premises_memo, s1_shape, sequent,
)
from hxproof.model import (check_sequent_validity, find_countermodel,
                           model_to_json)
from hxproof.search import (Proved, Refuted, SearchConfig, Unknown, invert,
                            prove)
from hxproof.syntax import (
    BOT, At, Atom, CmpKind, Compare, Diamond, Implies, Jump, Nominal, Prop,
)

CFG = SearchConfig(max_depth=16, countermodel_nodes=2)


def seq(text, table=None):
    a, c = sx.parse_sequent_parts(text, table or sx.SymbolTable())
    return sequent(a, c)


# ---------------------------------------------------------------------------
# prove
# ---------------------------------------------------------------------------

def test_prove_reflexivity_shape():
    # the outline docs/formats.md gives: the CmpR witness reads the
    # reflexive alias @i i and adds the reflexive consequent <i: =c i:>
    r = prove(seq("|- @i <eps =c eps>"), CFG)
    assert isinstance(r, Proved)
    assert check_derivation(r.derivation) == []
    assert [n.rule for _, n in r.derivation.walk()] == [AT_T, CMP_R, EQ_T, AX]


def test_no_reflexive_atom_where_no_step_reads_one():
    # reflexive atoms are given, so no AtT fires before the branch
    r = prove(seq("@i (p -> q), @i p |- @i q"), CFG)
    assert r.derivation.height == 2
    assert AT_T not in r.derivation.rules_used()


def test_comparison_symmetry_reads_one_reflexive_atom():
    # EqT adds <i: =c i:> for Eq5 to read, and Ax closes; the other
    # reflexive atoms are never added
    r = prove(seq("<i: =c j:> |- <j: =c i:>"), CFG)
    assert r.derivation.height <= 3


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
    assert r.report["countermodel_nodes"] == 0


def test_unknown_names_the_bound_hit():
    # valid: the last antecedent member never holds, but the proof needs
    # more than the default depth (13 steps)
    s = seq("@i (<eps !=c eps> -> <a>p), @j @k @i @k @i q, "
            "@k <a !=c (false?)> |- @i (p -> q -> ~(j -> k))")
    r = prove(s)
    assert isinstance(r, Unknown) and r.report["bound"] == "depth"
    assert r.report["countermodel_nodes"] == SearchConfig().countermodel_nodes
    assert isinstance(prove(s, SearchConfig(max_depth=16)), Proved)
    r = prove(seq("@i <a>p |- @i q"),
              SearchConfig(max_fresh_nominals=0, enable_countermodel=False))
    assert isinstance(r, Unknown) and r.report["bound"] == "fresh"
    # no depth left for a branch (ImpL) or a fresh move (DiaL)
    for text in ("@i (p -> q) |- @i r", "@i <a>p |- @i q"):
        r = prove(seq(text),
                  SearchConfig(max_depth=0, enable_countermodel=False))
        assert isinstance(r, Unknown) and r.report["bound"] == "depth"


def _count_enumerations(monkeypatch):
    """The goals `prove` calls `find_countermodel` on from now on."""
    calls = []

    def counted(s, n):
        calls.append(s)
        return find_countermodel(s, n)

    monkeypatch.setattr(search, "find_countermodel", counted)
    return calls


def test_failed_branch_model_turns_only_unknown_into_refuted(monkeypatch):
    # a stub leaf builder whose model is taken as not refuting leaves the
    # enumeration alone to refute, as before the branch's model was read:
    # every failed search reaches it, and reading the branch's model changes
    # no status but unknown -> refuted (its model may exceed the node bound)
    rng = random.Random(29)
    goals = [rand_sequent(rng, max_side=2, depth=2) for _ in range(150)]
    cfg = SearchConfig(max_depth=8, countermodel_nodes=1)
    read = [prove(g, cfg).status for g in goals]
    stub, validity = object(), search.check_sequent_validity
    monkeypatch.setattr(search, "_leaf_model", lambda ix, names: stub)
    monkeypatch.setattr(search, "check_sequent_validity",
                        lambda m, s: m is stub or validity(m, s))
    calls = _count_enumerations(monkeypatch)
    enumerated = [prove(g, cfg).status for g in goals]
    assert calls == [g for g, st in zip(goals, enumerated) if st != "proved"]
    changed = {(a, b) for a, b in zip(enumerated, read) if a != b}
    assert changed == {("unknown", "refuted")}


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
    assert cut_exprs[1] == At("i", Diamond("a", Nominal("k")))


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


# ---------------------------------------------------------------------------
# independent oracles: the move finders that built each candidate formula
# ---------------------------------------------------------------------------

def _given(seq, e):
    """`e` is in the antecedent of `seq`, or a reflexive atom (@i i or
    <i: =c i:>), which search treats as given."""
    match e:
        case At(i, Nominal(k)):
            return e in seq.ante or k == i
        case Compare(Jump(i), CmpKind.EQ, _, Jump(k)):
            return e in seq.ante or k == i
    return e in seq.ante


def _reading(seq, rule, inst, read):
    """The instance, if its antecedent atom `read` is present; else the AtT
    or EqT step that adds the reflexive atom `read`, which comes first."""
    if read in seq.ante:
        return rule, inst
    if isinstance(read, At):
        return AT_T, {"i": read.nom}
    return EQ_T, {"i": read.left.nom, "c": read.cmp}


def oracle_closure_moves(seq):
    """Every closure-rule instance whose added atom is genuinely new and not
    reflexive, found by building each candidate atom and testing its
    membership. The reflexive atoms are given: the candidates of At5, S3 and
    Eq5 include k = i, whose read atom @i i or <i: =c i:> the antecedent
    may lack, and then the step that adds it comes in the instance's place."""
    cmps = sorted({e.cmp for e in seq.ante | seq.cons if isinstance(e, Compare)})
    ante = seq.ante
    aliases = [(e.nom, e.body.name) for e in seq.sorted_ante
               if isinstance(e, At) and isinstance(e.body, Nominal)]
    eqs = [e for e in seq.sorted_ante
           if isinstance(e, Compare) and e.kind is CmpKind.EQ]
    for i, j in aliases:
        ks = [k for i2, k in aliases if i2 == i]
        for k in ks + ([] if i in ks else [i]):
            if not _given(seq, At(j, Nominal(k))):
                yield _reading(seq, AT_5, {"i": i, "j": j, "k": k},
                               At(i, Nominal(k)))
    for i, j in aliases:
        for e in seq.sorted_ante:
            if isinstance(e, At) and e.nom == i and s1_shape(e.body) \
                    and At(j, e.body) not in ante:
                yield S1, {"i": i, "j": j, "phi": e.body}
    steps = [(e.nom, e.body.mod, e.body.body.name) for e in seq.sorted_ante
             if isinstance(e, At) and isinstance(e.body, Diamond)
             and isinstance(e.body.body, Nominal)]
    for j, k in aliases:
        for i, a, j2 in steps:
            if j2 == j and At(i, Diamond(a, Nominal(k))) not in ante:
                yield S2, {"i": i, "j": j, "k": k, "a": a}
    for i, j in aliases:
        cks = [(e.cmp, e.right.nom) for e in eqs if e.left.nom == i]
        for c, k in cks + [(c, i) for c in cmps if (c, i) not in cks]:
            if not _given(seq, Compare(Jump(j), CmpKind.EQ, c, Jump(k))):
                yield _reading(seq, S3, {"i": i, "j": j, "k": k, "c": c},
                               Compare(Jump(i), CmpKind.EQ, c, Jump(k)))
    for e1 in eqs:
        i, c, j = e1.left.nom, e1.cmp, e1.right.nom
        ks = [e2.right.nom for e2 in eqs if e2.left == e1.left and e2.cmp == c]
        for k in ks + ([] if i in ks else [i]):
            if not _given(seq, Compare(Jump(j), CmpKind.EQ, c, Jump(k))):
                yield _reading(seq, EQ_5, {"i": i, "j": j, "k": k, "c": c},
                               Compare(Jump(i), CmpKind.EQ, c, Jump(k)))


def oracle_saturation(seq):
    """The antecedent that saturating `seq` with `oracle_closure_moves`
    reaches, as search did before it kept classes. Each round applies every
    move one scan finds: no move consumes an atom, so each still applies."""
    while moves := list(oracle_closure_moves(seq)):
        for move in moves:
            seq = premises(seq, *move)[0]
    return seq.ante


def _holds(sat, e):
    """`e` is in the saturated antecedent `sat`, or it is a reflexive alias
    or equality."""
    match e:
        case At(i, Nominal(k)) | Compare(Jump(i), CmpKind.EQ, _, Jump(k)):
            return k == i or e in sat
    return e in sat


def _least(sat, noms, j):
    """The least of the nominals `noms` that the saturation aliases to j."""
    return min(n for n in noms if _holds(sat, At(j, Nominal(n))))


def oracle_witness_move(seq, fired, dia_ok=True, sat=None):
    """Right witness rules, found by building each candidate premise and
    testing it against the saturation. A DiaR step @i <a>j is tried from
    each antecedent @n <a>j with n aliased to i, i first; it and each CmpR
    evidence that only the saturation holds are the step's reads. A key
    names the least nominal aliased to each witness."""
    sat = oracle_saturation(seq) if sat is None else sat
    noms = sorted(seq.nominals())
    for e in seq.sorted_cons:
        match e:
            case At(i, Diamond(a, phi)) if dia_ok:
                for n in [i] + [n for n in noms if n != i
                                and _holds(sat, At(i, Nominal(n)))]:
                    for b in seq.sorted_ante:
                        match b:
                            case At(n2, Diamond(a2, Nominal(j))) \
                                    if n2 == n and a2 == a:
                                key = (DIA_R, e, _least(sat, noms, j))
                                if key not in fired \
                                        and At(j, phi) not in seq.cons:
                                    return (DIA_R,
                                            {"i": i, "a": a, "phi": phi,
                                             "j": j}, key,
                                            () if n == i else (At(i, b.body),))
            case At(i, Compare(alpha, kind, c, beta)):
                for x in noms:
                    ev_x = evidence(i, alpha, x)
                    if not _holds(sat, ev_x):
                        continue
                    for y in noms:
                        ev_y = evidence(i, beta, y)
                        if not _holds(sat, ev_y):
                            continue
                        key = (CMP_R, e, _least(sat, noms, x),
                               _least(sat, noms, y))
                        added = Compare(Jump(x), kind, c, Jump(y))
                        if key not in fired and added not in seq.cons:
                            return CMP_R, {"i": i, "alpha": alpha,
                                           "beta": beta, "kind": kind,
                                           "c": c, "j": x, "k": y}, key, \
                                (ev_x, ev_y)
            case _:
                pass
    return None


def oracle_first_moves(seq, sat=None):
    """The index's first closing, decomposition and branch instances and
    its fresh-nominal candidates, each found by its own scan that tests
    the rule's principal with the kernel's shape tests. Ax closes on a
    member of axiom shape in the antecedent, then Bot, then Ax on one that
    the saturation holds."""
    sat = oracle_saturation(seq) if sat is None else sat
    def first(members, shapes):
        for e in members:
            for rule, inst in shapes(e):
                return rule, inst
        return None

    closing = (first(seq.sorted_ante,
                     lambda e: [(AX, {"phi": e})]
                     if e in seq.cons and ax_shape(e) else [])
               or first(seq.sorted_ante,
                        lambda e: [(BOT_RULE, {"i": e.nom})]
                        if isinstance(e, At) and e.body == BOT else [])
               or first(seq.sorted_cons,
                        lambda e: [(AX, {"phi": e})]
                        if ax_shape(e) and _holds(sat, e) else []))

    def decomposition(side):
        def shapes(e):
            if isinstance(e, Compare) and e.kind is CmpKind.NEQ:
                return [(NEQ_L if side == "ante" else NEQ_R,
                         {"i": e.left.nom, "j": e.right.nom, "c": e.cmp})]
            if isinstance(e, At) and isinstance(e.body, At):
                return [(AT_L if side == "ante" else AT_R,
                         {"j": e.nom, "i": e.body.nom, "phi": e.body.body})]
            if side == "cons" and isinstance(e, At) \
                    and isinstance(e.body, Implies):
                return [(IMP_R, {"i": e.nom, "phi": e.body.lhs,
                                 "psi": e.body.rhs})]
            return []
        return shapes

    branch = first(seq.sorted_ante,
                   lambda e: [(IMP_L, {"i": e.nom, "phi": e.body.lhs,
                                       "psi": e.body.rhs})]
                   if isinstance(e, At) and isinstance(e.body, Implies)
                   else [])
    fresh = [(1, DIA_L, {"i": e.nom, "a": e.body.mod, "phi": e.body.body})
             if isinstance(e.body, Diamond)
             else (2, CMP_L, {"i": e.nom, "alpha": e.body.left,
                              "beta": e.body.right, "kind": e.body.kind,
                              "c": e.body.cmp})
             for e in seq.sorted_ante if isinstance(e, At)
             and (isinstance(e.body, Compare)
                  or isinstance(e.body, Diamond)
                  and not isinstance(e.body.body, Nominal))]
    return (closing,
            first(seq.sorted_ante, decomposition("ante"))
            or first(seq.sorted_cons, decomposition("cons")),
            branch, fresh)


def _moves(seq, fired, dia_ok=True):
    """The moves the search's index finds."""
    ix = search._Index(seq)
    return ((ix.closing, ix.decomposition, ix.branch, ix.fresh),
            search._witness_move(ix, fired, dia_ok))


def _oracle_moves(seq, fired, dia_ok=True, sat=None):
    sat = oracle_saturation(seq) if sat is None else sat
    return (oracle_first_moves(seq, sat),
            oracle_witness_move(seq, fired, dia_ok, sat))


def _closure_steps(seq, atoms):
    """The closure moves that the index of `seq` makes for `atoms`, as
    (atom added, move) pairs in the order they apply."""
    ix, made = search._Index(seq), {}
    for e in atoms:
        search._derive(ix, e, made)
    return list(made.items())


# two modalities and two comparisons, so that the order in which the
# finders visit them shows
SIG2 = dict(SIG, mods=("a", "b"), cmps=("c", "d"))


def _rand_atoms(rng, count):
    """Aliases, modal steps, equalities and S1 bodies over SIG2."""
    out = []
    for _ in range(count):
        i, j = rng.choice(SIG2["noms"]), rng.choice(SIG2["noms"])
        out.append(rng.choice([
            At(i, Nominal(j)),
            At(i, Diamond(rng.choice(SIG2["mods"]), Nominal(j))),
            Compare(Jump(i), CmpKind.EQ, rng.choice(SIG2["cmps"]), Jump(j)),
            At(i, Prop(rng.choice(SIG2["props"]))),
            At(i, BOT),
        ]))
    return out


def _rand_goals(rng, count):
    """Right diamonds and comparisons, the principals of the witness rules,
    and left evidence for some of the comparisons' paths."""
    goals, ev = [], []
    for _ in range(count):
        i = rng.choice(SIG2["noms"])
        if rng.random() < 0.5:
            body = Diamond(rng.choice(SIG2["mods"]), rand_node(rng, SIG2, 0))
        else:
            body = Compare(rand_path(rng, SIG2, 1), rand_kind(rng),
                           rng.choice(SIG2["cmps"]), rand_path(rng, SIG2, 1))
            for path in (body.left, body.right):
                for x in SIG2["noms"]:
                    if rng.random() < 0.4:
                        ev.append(evidence(i, path, x))
        goals.append(At(i, body))
    return goals, ev


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**9))
def test_move_finders_agree_with_formula_building_oracles(seed):
    # walk from a random sequent with extra atoms, comparing the index and
    # the finders with the oracles at every step, now and then with DiaR
    # out of depth; the walk takes the witness with the closure steps it
    # reads, or else a random closure move, so that the classes grow along
    # it; a closure move leaves the saturation as it was
    rng = random.Random(seed)
    s = rand_sequent(rng, SIG2, max_side=2, depth=1)
    s = s.add_ante(*_rand_atoms(rng, rng.randint(0, 8)))
    goals, ev = _rand_goals(rng, rng.randint(0, 2))
    s = s.add_ante(*ev).add_cons(*goals)
    fired, sat = set(), None
    for _ in range(40):
        dia_ok = rng.random() < 0.8
        sat = oracle_saturation(s) if sat is None else sat
        got = _moves(s, fired, dia_ok)
        assert got == _oracle_moves(s, fired, dia_ok, sat)
        if got[1] is not None:
            rule, inst, key, reads = got[1]
            fired.add(key)
            moves = [m for _, m in _closure_steps(s, reads)] + [(rule, inst)]
            sat = None
        elif closures := list(oracle_closure_moves(s)):
            # any instance, so that every later one gets to be taken
            moves = [rng.choice(closures)]
        else:
            break
        for rule, inst in moves:
            s = premises(s, rule, inst)[0]


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**9))
def test_classes_hold_what_saturation_adds_and_explain_it(seed):
    # every alias, equality, prop and step atom over the sequent's names
    # holds modulo the index's classes exactly when saturating adds it (or
    # it is reflexive); the closure steps made for it apply one by one, end
    # with it in the antecedent, and each adds the atom or one a later step
    # reads
    rng = random.Random(seed)
    s = rand_sequent(rng, SIG2, max_side=2, depth=1)
    s = s.add_ante(*_rand_atoms(rng, rng.randint(0, 10)))
    goals, ev = _rand_goals(rng, rng.randint(0, 2))
    s = s.add_ante(*ev).add_cons(*goals)
    ix, sat = search._Index(s), oracle_saturation(s)
    noms = sorted(s.nominals())
    cmps = sorted({e.cmp for e in s.ante | s.cons if isinstance(e, Compare)})
    atoms = [body(i, k) for i in noms for k in noms for body in (
        lambda i, k: At(i, Nominal(k)),
        *(lambda i, k, a=a: At(i, Diamond(a, Nominal(k)))
          for a in SIG2["mods"]),
        *(lambda i, k, c=c: Compare(Jump(i), CmpKind.EQ, c, Jump(k))
          for c in cmps))]
    atoms += [At(i, Prop(p)) for i in noms for p in SIG2["props"]]
    for e in atoms:
        assert ix.holds(*search._query(e)) == _holds(sat, e), e
        if not _holds(sat, e):
            continue
        steps = _closure_steps(s, [e])
        cur = s
        for t, (atom, (rule, inst)) in enumerate(steps):
            cur = premises(cur, rule, inst)[0]
            assert atom in cur.ante
            assert atom is e if t == len(steps) - 1 else any(
                atom in required(*m) for _, m in steps[t + 1:])
        assert e in cur.ante


def _search_visits(monkeypatch, goals, cfg, seen):
    """Prove each goal with `seen(ix, before)` called on the index at every
    sequent search visits, `before` being the sequent it indexed until then:
    the root's index is built by an update from the empty sequent and each
    later sequent's by one, so each visit is one update."""
    update = search._Index.update

    def recorded(ix, seq):
        before = ix.seq
        update(ix, seq)
        seen(ix, before)

    monkeypatch.setattr(search._Index, "update", recorded)
    for goal in goals:
        prove(goal, cfg)
    monkeypatch.undo()


def test_criterion_6_takes_few_reflexive_steps(monkeypatch):
    # AtT and EqT fire only where a step reads the atom they add (saturating
    # with them takes 1,818 steps on this draw), and the statuses are
    # criterion 6's
    counts = Counter()
    step = search.premises

    def counted(goal, rule, inst):
        counts[rule] += 1
        return step(goal, rule, inst)

    monkeypatch.setattr(search, "premises", counted)
    results = Counter(prove(g).status for g in criterion_6_goals())
    assert results == {"proved": 227, "refuted": 273}
    assert counts[AT_T] + counts[EQ_T] <= 600


CLOSURE_RULES = (AT_T, AT_5, S1, S2, S3, EQ_T, EQ_5)


def test_criterion_6_takes_closure_steps_only_for_atoms_read(monkeypatch):
    # the closure steps of criterion 6's draw, which saturating took 1,461
    # of, and in the proofs each adds an atom that a step above it reads
    counts = Counter()
    step = search.premises

    def counted(goal, rule, inst):
        counts[rule] += 1
        return step(goal, rule, inst)

    monkeypatch.setattr(search, "premises", counted)
    results = [prove(g) for g in criterion_6_goals()]
    assert Counter(r.status for r in results) == {"proved": 227,
                                                  "refuted": 273}
    assert sum(counts[rule] for rule in CLOSURE_RULES) <= 700
    closure_nodes = 0
    for r in results:
        if not isinstance(r, Proved):
            continue
        for _, node in r.derivation.walk():
            if node.rule not in CLOSURE_RULES:
                continue
            closure_nodes += 1
            (child,) = node.children
            new = child.conclusion.ante - node.conclusion.ante
            assert any(new & required(m.rule, dict(m.inst))
                       for _, m in child.walk()), node.conclusion
    assert closure_nodes > 100


def test_move_finders_agree_on_every_sequent_search_visits(monkeypatch):
    # criterion 6's draw, and 300 more of its shape under a depth bound
    # that stops many branches; the witness finder is checked with the
    # arguments search passes it, and the index and every finder on every
    # sequent it visits
    visited, calls = [], []
    witness_move = search._witness_move

    def checked(ix, fired, dia_ok):
        got = witness_move(ix, fired, dia_ok)
        assert got == oracle_witness_move(ix.seq, fired, dia_ok), ix.seq
        calls.append(dia_ok)
        return got

    for goals, depth in ((criterion_6_goals(), 12),
                         (criterion_6_goals(CRITERION_6_SEED + 1, 300), 3)):
        monkeypatch.setattr(search, "_witness_move", checked)
        _search_visits(monkeypatch, goals, SearchConfig(
            max_depth=depth, enable_countermodel=False),
            lambda ix, before: visited.append(ix.seq))
    assert len(visited) > 2000
    assert set(calls) == {True, False}
    for s in visited:
        assert _moves(s, frozenset()) == _oracle_moves(s, frozenset())


def test_failed_branch_model_refutes_criterion_6_without_enumeration(
        monkeypatch):
    # criterion 6's draw with countermodels on: the failed branch's model
    # refutes all but a few of the goals search does not prove, so the
    # enumeration runs for those few only; every model is checked again
    calls = _count_enumerations(monkeypatch)
    goals = criterion_6_goals()
    results = [prove(g) for g in goals]
    assert len(calls) <= 6
    assert not [r for r in results if isinstance(r, Unknown)]
    for g, r in zip(goals, results):
        if isinstance(r, Refuted):
            assert not check_sequent_validity(r.model, g), g


def _tables(ix):
    """Everything an index holds, as plain values; a keyed table emptied by
    the members a step dropped, or made by a finder's lookup, counts as
    absent. The classes count as the partition of the nominals per relation,
    not as the forest that links them, whose shape depends on the order in
    which the atoms came."""
    def plain(t):
        return list(t), list(t.keys)

    cls = ix.classes
    out = {name: plain(getattr(ix, name)) for name in search._TABLES}
    out["classes"] = {r: sorted({tuple(n for n in ix.noms
                                       if cls.same(r, m, n))
                                 for m in ix.noms})
                      for r in (None, *sorted(cls.syms))}
    for name in search._KEYED:
        out[name] = {k: plain(t) for k, t in getattr(ix, name).items() if t}
    out.update(seq=ix.seq, noms=list(ix.noms), nom_count=dict(ix.nom_count))
    return out


def test_updated_index_equals_a_fresh_one_wherever_search_goes(monkeypatch):
    # criterion 6's draw, 500 more of its shape, and provable-by-
    # construction conclusions, whose proofs also take the rules that
    # consume their principal
    rng = random.Random(5)
    goals = criterion_6_goals() + criterion_6_goals(CRITERION_6_SEED + 1) + [
        rand_derivation(rng, SIG, steps=5).conclusion for _ in range(150)]
    seen, drops = [], []

    def record(ix, before):
        seen.append(_tables(ix))
        drops.append(not before.issubset(ix.seq))

    _search_visits(monkeypatch, goals,
                   SearchConfig(max_depth=12, enable_countermodel=False),
                   record)
    assert len(seen) > 3000
    # many steps consumed a principal, so the index dropped members
    assert sum(drops) > 500
    for got in seen:
        assert got == _tables(search._Index(got["seq"])), got["seq"]


def test_updating_a_branch_copy_leaves_the_original_unchanged():
    s = seq("@i (p -> q), @i (<a>(j -> k) -> @j p), @i <a =c b>, @i j "
            "|- @i q, @j (p -> <a !=c eps>)")
    ix = search._Index(s)
    rule, inst = ix.branch
    p1, p2 = premises(s, rule, inst)
    before = _tables(ix)
    left = ix.copy()
    left.update(p1)
    while (move := left.decomposition or next(oracle_closure_moves(left.seq),
                                               None)) is not None:
        left.update(premises(left.seq, *move)[0])
    assert left.seq != p1
    assert _tables(ix) == before
    assert _tables(left) == _tables(search._Index(left.seq))
    ix.update(p2)
    assert _tables(ix) == _tables(search._Index(p2))


# ---------------------------------------------------------------------------
# expressions hash by identity, and each keeps its search role
# ---------------------------------------------------------------------------

def _emitted(goals):
    """What search answers for each goal, as text: the canonical JSON of a
    proof or of a refuting model, or the report of an unknown."""
    out = []
    for goal in goals:
        match prove(goal):
            case Proved(derivation=d):
                blob = jsonio.derivation_to_json(d)
            case Refuted(model=m):
                blob = model_to_json(m)
            case Unknown(report=report):
                blob = report
        out.append(jsonio.dumps_canonical(blob))
    return out


def _forests(goals):
    """The links of each goal's index, atoms by print key: what the
    closure steps that search makes are read from."""
    return [{k: (m, atom.key) for k, (m, atom) in
             search._Index(g).classes.items()} for g in goals]


def _drop_kept_expressions():
    """Let go of what the kernel's and the model checker's memos hold."""
    premises_memo.clear()
    evidence_memo.clear()
    model._compiled.cache_clear()
    gc.collect()


def _addresses(goals):
    """(class, print key) -> address, of every distinct subexpression of
    the goals' members."""
    return {(type(e), e.key): id(e) for g in goals for m in g.ante | g.cons
            for e in sx.subexpressions(m)}


def test_output_does_not_depend_on_expression_addresses():
    # an expression's hash comes from its address, so the iteration order of
    # a set of expressions changes with where the expressions were allocated
    rng = random.Random(CRITERION_6_SEED)
    texts = [str(rand_sequent(rng, SIG, max_side=3, depth=2))
             for _ in range(40)]
    texts += [str(rand_derivation(rng, SIG, steps=5).conclusion)
              for _ in range(40)]
    _drop_kept_expressions()
    goals = [seq(t) for t in texts]
    before = _addresses(goals)
    first, forests = _emitted(goals), _forests(goals)
    del goals
    _drop_kept_expressions()
    # objects of every small size kept alive between the goals, so that the
    # expressions built again do not take back the addresses just freed
    junk, goals = [], []
    for text in texts:
        junk.append([bytes(n) for n in range(8, 200, 4)])
        goals.append(seq(text))
    after = _addresses(goals)
    assert after.keys() == before.keys()
    moved = sum(after[k] != before[k] for k in after)
    assert moved >= 0.9 * len(after)
    assert _emitted(goals) == first
    assert _forests(goals) == forests and any(forests)
    # members made in the opposite order, so that each goal's set of
    # members iterates in another order: the atoms one update adds enter
    # the classes in print-key order all the same
    backwards = [", ".join(map(sx.print_node, reversed(g.sorted_ante)))
                 + " |- " + ", ".join(map(sx.print_node,
                                          reversed(g.sorted_cons)))
                 for g in goals]
    del goals
    _drop_kept_expressions()
    assert _forests([seq(t) for t in backwards]) == forests


def test_a_member_is_matched_once_over_prove_calls(monkeypatch):
    # symbols of their own, so that no earlier test has indexed these members
    calls, snapshots = {}, {}
    role = search._role

    def counted(e):
        assert e not in calls
        r = calls[e] = role(e)
        # a deep copy builds each expression again, so it is the same object
        snapshots[e] = copy.deepcopy(r)
        return r

    monkeypatch.setattr(search, "_role", counted)
    # the first proof takes DiaR and ImpL, the second CmpR
    shared = "@k_r1 (p_r1 -> p_r2), @k_r1 <a_r1> k_r2, @k_r2 p_r3"
    first = seq(f"{shared}, @k_r2 (p_r3 -> p_r1) |- @k_r1 <a_r1> p_r1")
    second = seq(f"{shared} |- @k_r1 <a_r1 =c_r1 a_r1>, @k_r2 p_r1")
    assert isinstance(prove(first), Proved)
    matched_first = set(calls)
    assert first.ante | first.cons <= matched_first
    assert isinstance(prove(second), Proved)
    assert second.ante | second.cons <= set(calls)
    assert len(calls) > len(matched_first)
    # every role is kept on its member, and no search step changed it
    for e, r in calls.items():
        assert e.role is r and r == snapshots[e]


def test_dropped_goals_leave_the_intern_table_without_a_collection():
    # a right diamond and an axiom-shaped member: the index tables whose
    # values hold the member itself; a role that held it would be a cycle
    # that only the cyclic collector frees
    _drop_kept_expressions()
    gc.disable()
    try:
        before = len(sx._INTERNED)
        goal = seq("@k_g1 <a_g1> k_g2, @k_g2 p_g1 "
                   "|- @k_g1 <a_g1> p_g1, @k_g3 p_g2")
        result = prove(goal)
        assert isinstance(result, Proved)
        assert len(sx._INTERNED) > before
        assert all(e.role is not None for e in goal.ante | goal.cons)
        del goal, result
        premises_memo.clear()
        assert len(sx._INTERNED) == before
    finally:
        gc.enable()
