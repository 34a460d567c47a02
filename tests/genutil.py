"""Random generators shared across the test suite.

Forward derivation generation builds random proofs exclusively through the
kernel's checked operations, so every end-sequent it yields is provable by
construction. Model generation draws finite structures over a signature.

Every draw among the members of a set goes through a sorted list, so a seed
(HXPROOF_SEED in the acceptance suite) fixes the draws under every
PYTHONHASHSEED.
"""

import random

from hxproof.kernel import (
    AT_5, AT_L, AT_R, AT_T, AX, BOT_RULE, CMP_L, CMP_R, DIA_L, DIA_R,
    EQ_5, EQ_T, IMP_L, IMP_R, NEQ_L, NEQ_R, S1, S2, S3,
    KernelError, Sequent, axiom, ax_shape, evidence, infer, s1_shape, sequent,
    weaken,
)
from hxproof.model import HybridDataModel
from hxproof.syntax import (
    At, Atom, BOT, CmpKind, Compare, Diamond, Implies, Jump,
    Nominal, Prop, Test, concat, print_node,
)

SIG = {
    "props": ("p", "q"),
    "noms": ("i", "j", "k"),
    "mods": ("a",),
    "cmps": ("c",),
}


def rand_kind(rng):
    return rng.choice((CmpKind.EQ, CmpKind.NEQ))


def rand_path(rng, sig=SIG, depth=1):
    choices = ["jump"] + (["atom"] if sig["mods"] else [])
    if depth > 0:
        choices += ["test", "concat", "eps"]
    match rng.choice(choices):
        case "atom":
            return Atom(rng.choice(sig["mods"]))
        case "jump":
            return Jump(rng.choice(sig["noms"]))
        case "eps":
            return Test(Implies(BOT, BOT))
        case "test":
            return Test(rand_node(rng, sig, depth - 1))
        case "concat":
            return concat(rand_path(rng, sig, 0), rand_path(rng, sig, 0))
    raise AssertionError


def rand_node(rng, sig=SIG, depth=2):
    atoms = ["prop", "nom", "bot"]
    comps = ["imp", "at"]
    if sig["mods"]:
        comps.append("dia")
    if sig["cmps"]:
        comps.append("cmp")
    match rng.choice(atoms if depth <= 0 else atoms + comps * 2):
        case "prop":
            return Prop(rng.choice(sig["props"]))
        case "nom":
            return Nominal(rng.choice(sig["noms"]))
        case "bot":
            return BOT
        case "imp":
            return Implies(rand_node(rng, sig, depth - 1),
                           rand_node(rng, sig, depth - 1))
        case "at":
            return At(rng.choice(sig["noms"]), rand_node(rng, sig, depth - 1))
        case "dia":
            return Diamond(rng.choice(sig["mods"]), rand_node(rng, sig, depth - 1))
        case "cmp":
            return Compare(rand_path(rng, sig, 1), rand_kind(rng),
                           rng.choice(sig["cmps"]), rand_path(rng, sig, 1))
    raise AssertionError


def rand_restricted(rng, sig=SIG, depth=2):
    if sig["cmps"] and rng.random() < 0.25:
        return Compare(Jump(rng.choice(sig["noms"])), rand_kind(rng),
                       rng.choice(sig["cmps"]), Jump(rng.choice(sig["noms"])))
    return At(rng.choice(sig["noms"]), rand_node(rng, sig, depth))


def rand_sequent(rng, sig=SIG, max_side=3, depth=2):
    ante = {rand_restricted(rng, sig, depth)
            for _ in range(rng.randint(0, max_side))}
    cons = {rand_restricted(rng, sig, depth)
            for _ in range(rng.randint(0, max_side))}
    return sequent(ante, cons)


CRITERION_6_SEED = 20250810 + 3     # the acceptance suite's default draw


def criterion_6_goals(seed=CRITERION_6_SEED, count=500):
    """Criterion 6's draw, or with another seed one of its shape."""
    rng = random.Random(seed)
    return [rand_sequent(rng, SIG, max_side=3, depth=2) for _ in range(count)]


# ---------------------------------------------------------------------------
# Random models
# ---------------------------------------------------------------------------

def rand_model(rng, sig=SIG, max_nodes=5):
    n = rng.randint(1, max_nodes)
    nodes = [f"m{t}" for t in range(n)]
    rels = {}
    for a in sig["mods"]:
        rels[a] = {(x, y) for x in nodes for y in nodes if rng.random() < 0.3}
    cmps = {}
    for c in sig["cmps"]:
        blocks = {}
        for x in nodes:
            blocks.setdefault(rng.randrange(max(1, n - 1)), []).append(x)
        cmps[c] = [b for b in blocks.values() if len(b) > 1]
    g = {i: rng.choice(nodes) for i in sig["noms"]}
    val = {p: {x for x in nodes if rng.random() < 0.5} for p in sig["props"]}
    return HybridDataModel.make(nodes, rels=rels, cmps=cmps, g=g, val=val)


# ---------------------------------------------------------------------------
# Forward derivation generation
# ---------------------------------------------------------------------------

def rand_axiom(rng, sig=SIG):
    ctx_a = {rand_restricted(rng, sig, 1) for _ in range(rng.randint(0, 2))}
    ctx_c = {rand_restricted(rng, sig, 1) for _ in range(rng.randint(0, 2))}
    i = rng.choice(sig["noms"])
    if rng.random() < 0.2:
        e = At(i, BOT)
        return axiom(BOT_RULE, sequent(ctx_a | {e}, ctx_c), {"i": i})
    e = rng.choice([
        At(i, Prop(rng.choice(sig["props"]))),
        At(i, Nominal(rng.choice(sig["noms"]))),
        Compare(Jump(i), CmpKind.EQ, rng.choice(sig["cmps"]),
                Jump(rng.choice(sig["noms"]))),
    ])
    return axiom(AX, sequent(ctx_a | {e}, ctx_c | {e}), {"phi": e})


def _pick(rng, items):
    """Uniform choice, independent of the iteration order of `items`."""
    items = sorted(items, key=repr)
    return rng.choice(items) if items else None


def _f_weaken(rng, d, sig):
    side = rng.choice(("left", "right"))
    return weaken(d, side, rand_restricted(rng, sig, 1))


def _f_impr(rng, d, sig):
    s = d.conclusion
    lefts = [e for e in s.ante if isinstance(e, At)]
    rights = [e for e in s.cons if isinstance(e, At)]
    le = _pick(rng, lefts)
    if le is None:
        return None
    ri = _pick(rng, [e for e in rights if e.nom == le.nom])
    if ri is None:
        return None
    concl = s.drop_ante(le).drop_cons(ri).add_cons(
        At(le.nom, Implies(le.body, ri.body)))
    return infer(IMP_R, concl, {"i": le.nom, "phi": le.body, "psi": ri.body}, [d])


def _f_impl(rng, d, sig):
    """Forward ImpL: d proves the first premiss; a planted axiom the second."""
    s = d.conclusion
    ri = _pick(rng, [e for e in s.cons if isinstance(e, At)])
    if ri is None:
        return None
    i, phi = ri.nom, ri.body
    psi = rand_node(rng, sig, 1)
    closer = _pick(rng, [e for e in s.ante & s.cons if ax_shape(e)])
    if closer is None:
        return None
    concl = s.drop_cons(ri).add_ante(At(i, Implies(phi, psi)))
    second = axiom(AX, s.drop_cons(ri).add_ante(At(i, psi)), {"phi": closer})
    return infer(IMP_L, concl, {"i": i, "phi": phi, "psi": psi}, [d, second])


def _f_atl(rng, d, sig):
    s = d.conclusion
    e = _pick(rng, [e for e in s.ante if isinstance(e, At)])
    if e is None:
        return None
    j = rng.choice(sig["noms"])
    concl = s.drop_ante(e).add_ante(At(j, e))
    return infer(AT_L, concl, {"j": j, "i": e.nom, "phi": e.body}, [d])


def _f_atr(rng, d, sig):
    s = d.conclusion
    e = _pick(rng, [e for e in s.cons if isinstance(e, At)])
    if e is None:
        return None
    j = rng.choice(sig["noms"])
    concl = s.drop_cons(e).add_cons(At(j, e))
    return infer(AT_R, concl, {"j": j, "i": e.nom, "phi": e.body}, [d])


def _f_closure_drop(rng, d, sig):
    """Forward use of a closure rule: drop an atom its premiss added."""
    s = d.conclusion
    options = []
    aliases = [(e.nom, e.body.name) for e in s.ante
               if isinstance(e, At) and isinstance(e.body, Nominal)]
    for x, y in aliases:
        if x == y:
            options.append((AT_T, {"i": x}, At(x, Nominal(x))))
    eqs = [e for e in s.ante
           if isinstance(e, Compare) and e.kind is CmpKind.EQ]
    for e in eqs:
        if e.left == e.right:
            options.append((EQ_T, {"i": e.left.nom, "c": e.cmp}, e))
    for j, k in aliases:
        for i, j2 in aliases:
            if j2 == j and (i, k) in aliases:
                options.append((AT_5, {"i": i, "j": j, "k": k},
                                At(j, Nominal(k))))
    choice = _pick(rng, options)
    if choice is None:
        return None
    rule, inst, dropped = choice
    return infer(rule, s.drop_ante(dropped), inst, [d])


def _f_neqr(rng, d, sig):
    s = d.conclusion
    e = _pick(rng, [e for e in s.ante
                    if isinstance(e, Compare) and e.kind is CmpKind.EQ])
    if e is None:
        return None
    flipped = Compare(e.left, CmpKind.NEQ, e.cmp, e.right)
    concl = s.drop_ante(e).add_cons(flipped)
    return infer(NEQ_R, concl,
                 {"i": e.left.nom, "j": e.right.nom, "c": e.cmp}, [d])


def _f_neql(rng, d, sig):
    s = d.conclusion
    e = _pick(rng, [e for e in s.cons
                    if isinstance(e, Compare) and e.kind is CmpKind.EQ])
    if e is None:
        return None
    flipped = Compare(e.left, CmpKind.NEQ, e.cmp, e.right)
    concl = s.drop_cons(e).add_ante(flipped)
    return infer(NEQ_L, concl,
                 {"i": e.left.nom, "j": e.right.nom, "c": e.cmp}, [d])


def _f_dial(rng, d, sig):
    """Forward DiaL over a weakened-in witness pair with a fresh nominal."""
    s = d.conclusion
    j = "_w0"
    if j in s.nominals():
        return None
    body = rand_node(rng, sig, 1)
    a = rng.choice(sig["mods"])
    i = rng.choice(sig["noms"])
    step_atom = At(i, Diamond(a, Nominal(j)))
    carrier = At(j, body)
    d2 = weaken(weaken(d, "left", step_atom), "left", carrier)
    concl = d2.conclusion.drop_ante(step_atom, carrier) \
                         .add_ante(At(i, Diamond(a, body)))
    return infer(DIA_L, concl, {"i": i, "a": a, "phi": body, "j": j}, [d2])


def _f_diar(rng, d, sig):
    s = d.conclusion
    e = _pick(rng, [e for e in s.cons if isinstance(e, At)])
    if e is None:
        return None
    j, body = e.nom, e.body
    a = rng.choice(sig["mods"])
    i = rng.choice(sig["noms"])
    step_atom = At(i, Diamond(a, Nominal(j)))
    principal = At(i, Diamond(a, body))
    d2 = weaken(weaken(d, "left", step_atom), "right", principal)
    concl = d2.conclusion.drop_cons(e)
    return infer(DIA_R, concl, {"i": i, "a": a, "phi": body, "j": j}, [d2])


def _f_cmpl(rng, d, sig):
    """Forward CmpL over weakened-in decomposed evidence, fresh witnesses."""
    s = d.conclusion
    j, k = "_w1", "_w2"
    if {j, k} & s.nominals():
        return None
    alpha = Atom(rng.choice(sig["mods"]))
    beta = rng.choice([Atom(rng.choice(sig["mods"])),
                       Jump(rng.choice(sig["noms"]))])
    kind = rand_kind(rng)
    i, c = rng.choice(sig["noms"]), rng.choice(sig["cmps"])
    ev1, ev2 = evidence(i, alpha, j), evidence(i, beta, k)
    atom = Compare(Jump(j), kind, c, Jump(k))
    d2 = weaken(weaken(weaken(d, "left", ev1), "left", ev2), "left", atom)
    concl = d2.conclusion.drop_ante(ev1, ev2, atom) \
                         .add_ante(At(i, Compare(alpha, kind, c, beta)))
    return infer(CMP_L, concl, {"i": i, "alpha": alpha, "beta": beta,
                                "kind": kind, "c": c, "j": j, "k": k}, [d2])


def _f_cmpr(rng, d, sig):
    s = d.conclusion
    atoms = [e for e in s.cons if isinstance(e, Compare)]
    e = _pick(rng, atoms)
    if e is None:
        return None
    j, k = e.left.nom, e.right.nom
    alpha = Atom(rng.choice(sig["mods"]))
    beta = Jump(rng.choice(sig["noms"]))
    i = rng.choice(sig["noms"])
    ev1, ev2 = evidence(i, alpha, j), evidence(i, beta, k)
    principal = At(i, Compare(alpha, e.kind, e.cmp, beta))
    d2 = weaken(weaken(weaken(d, "left", ev1), "left", ev2),
                "right", principal)
    concl = d2.conclusion.drop_cons(e)
    return infer(CMP_R, concl, {"i": i, "alpha": alpha, "beta": beta,
                                "kind": e.kind, "c": e.cmp, "j": j, "k": k},
                 [d2])


def _f_subst_drop(rng, d, sig):
    """Forward S1/S2/S3/Eq5: drop an atom the premiss derived, provided the
    licensing atoms survive in the conclusion (weakened in if needed)."""
    s = d.conclusion
    options = []
    for e in sorted(s.ante, key=print_node):
        match e:
            case At(j, body) if s1_shape(body):
                i = rng.choice(sig["noms"])
                options.append((S1, {"i": i, "j": j, "phi": body}, e,
                                [At(i, Nominal(j)), At(i, body)]))
            case At(i2, Diamond(a, Nominal(k2))):
                j2 = rng.choice(sig["noms"])
                options.append((S2, {"i": i2, "j": j2, "k": k2, "a": a}, e,
                                [At(j2, Nominal(k2)),
                                 At(i2, Diamond(a, Nominal(j2)))]))
            case Compare(Jump(j3), CmpKind.EQ, c3, Jump(k3)):
                i3 = rng.choice(sig["noms"])
                options.append((S3, {"i": i3, "j": j3, "k": k3, "c": c3}, e,
                                [At(i3, Nominal(j3)),
                                 Compare(Jump(i3), CmpKind.EQ, c3, Jump(k3))]))
                options.append((EQ_5, {"i": i3, "j": j3, "k": k3, "c": c3}, e,
                                [Compare(Jump(i3), CmpKind.EQ, c3, Jump(j3)),
                                 Compare(Jump(i3), CmpKind.EQ, c3, Jump(k3))]))
            case _:
                pass
    choice = _pick(rng, options)
    if choice is None:
        return None
    rule, inst, dropped, needed = choice
    d2 = d
    for req in needed:
        d2 = weaken(d2, "left", req)
    concl = d2.conclusion.drop_ante(dropped)
    if dropped in needed:
        return None
    return infer(rule, concl, inst, [d2])


FORWARD_STEPS = (_f_weaken, _f_impr, _f_impl, _f_atl, _f_atr, _f_closure_drop,
                 _f_neqr, _f_neql, _f_dial, _f_diar, _f_cmpl, _f_cmpr,
                 _f_subst_drop)


def rand_derivation(rng, sig=SIG, steps=5):
    """A random checked derivation grown downward from a random axiom."""
    d = rand_axiom(rng, sig)
    for _ in range(steps):
        fn = rng.choice(FORWARD_STEPS)
        try:
            out = fn(rng, d, sig)
        except KernelError:
            out = None
        if out is not None:
            d = out
    return d


def rand_provable_sequent(rng, sig=SIG, steps=5):
    return rand_derivation(rng, sig, steps).conclusion


def weakening_chain(height, distinct=50):
    """An (Ax) leaf on @i p under `height - 1` weakenings on the left: the
    first `distinct` add new members @i0 p, @i1 p, ..., and the rest weaken
    them in again, as duplicates. Each node holds its own sequent, so a
    chain of distinct members only would hold height^2 / 2 of them."""
    p = At("i", Prop("p"))
    d = axiom(AX, sequent({p}, {p}), {"phi": p})
    for t in range(height - 1):
        d = weaken(d, "left", At(f"i{t % distinct}", Prop("p")))
    return d


# ---------------------------------------------------------------------------
# Per-rule conclusion builders (invertibility suite)
# ---------------------------------------------------------------------------

def _plant(rng, sig):
    """A context pair closable by (Ax), planted on both sides."""
    e = At(rng.choice(sig["noms"]), Prop(rng.choice(sig["props"])))
    return e


def conclusion_for_rule(rng, rule, sig=SIG):
    """A provable conclusion exercising `rule`, its inst, and a derivation."""
    i = rng.choice(sig["noms"])
    j = rng.choice(sig["noms"])
    k = rng.choice(sig["noms"])
    a = rng.choice(sig["mods"])
    c = rng.choice(sig["cmps"])
    phi = rand_node(rng, sig, 1)
    psi = rand_node(rng, sig, 1)
    kind = rand_kind(rng)
    ctx_a = {rand_restricted(rng, sig, 1) for _ in range(rng.randint(0, 1))}
    ctx_c = {rand_restricted(rng, sig, 1) for _ in range(rng.randint(0, 1))}
    planted = _plant(rng, sig)
    base = sequent(ctx_a | {planted}, ctx_c | {planted})

    def with_extra(ante=(), cons=()):
        return Sequent(base.ante | set(ante), base.cons | set(cons))

    match rule:
        case "Ax":
            return base, {"phi": planted}
        case "Bot":
            return with_extra(ante={At(i, BOT)}), {"i": i}
        case "ImpL":
            return with_extra(ante={At(i, Implies(phi, psi))}), \
                {"i": i, "phi": phi, "psi": psi}
        case "ImpR":
            return with_extra(cons={At(i, Implies(phi, psi))}), \
                {"i": i, "phi": phi, "psi": psi}
        case "AtT":
            return base, {"i": i}
        case "At5":
            return with_extra(ante={At(i, Nominal(j)), At(i, Nominal(k))}), \
                {"i": i, "j": j, "k": k}
        case "Nom":
            return base, {"i": i, "j": "_z0"}
        case "S1":
            body = rng.choice([Prop(rng.choice(sig["props"])), BOT,
                               Diamond(a, Nominal(k))])
            return with_extra(ante={At(i, Nominal(j)), At(i, body)}), \
                {"i": i, "j": j, "phi": body}
        case "S2":
            return with_extra(ante={At(j, Nominal(k)),
                                    At(i, Diamond(a, Nominal(j)))}), \
                {"i": i, "j": j, "k": k, "a": a}
        case "S3":
            return with_extra(ante={At(i, Nominal(j)),
                                    Compare(Jump(i), CmpKind.EQ, c, Jump(k))}), \
                {"i": i, "j": j, "k": k, "c": c}
        case "AtL":
            return with_extra(ante={At(j, At(i, phi))}), \
                {"j": j, "i": i, "phi": phi}
        case "AtR":
            return with_extra(cons={At(j, At(i, phi))}), \
                {"j": j, "i": i, "phi": phi}
        case "DiaL":
            return with_extra(ante={At(i, Diamond(a, phi))}), \
                {"i": i, "a": a, "phi": phi, "j": "_z0"}
        case "DiaR":
            return with_extra(ante={At(i, Diamond(a, Nominal(j)))},
                              cons={At(i, Diamond(a, phi))}), \
                {"i": i, "a": a, "phi": phi, "j": j}
        case "CmpL":
            alpha, beta = rand_path(rng, sig, 0), rand_path(rng, sig, 0)
            return with_extra(ante={At(i, Compare(alpha, kind, c, beta))}), \
                {"i": i, "alpha": alpha, "beta": beta, "kind": kind, "c": c,
                 "j": "_z0", "k": "_z1"}
        case "CmpR":
            alpha, beta = rand_path(rng, sig, 0), rand_path(rng, sig, 0)
            return with_extra(
                ante={evidence(i, alpha, j), evidence(i, beta, k)},
                cons={At(i, Compare(alpha, kind, c, beta))}), \
                {"i": i, "alpha": alpha, "beta": beta, "kind": kind, "c": c,
                 "j": j, "k": k}
        case "EqT":
            return base, {"i": i, "c": c}
        case "Eq5":
            return with_extra(ante={Compare(Jump(i), CmpKind.EQ, c, Jump(j)),
                                    Compare(Jump(i), CmpKind.EQ, c, Jump(k))}), \
                {"i": i, "j": j, "k": k, "c": c}
        case "NEqL":
            return with_extra(ante={Compare(Jump(i), CmpKind.NEQ, c, Jump(j))}), \
                {"i": i, "j": j, "c": c}
        case "NEqR":
            return with_extra(cons={Compare(Jump(i), CmpKind.NEQ, c, Jump(j))}), \
                {"i": i, "j": j, "c": c}
    raise ValueError(f"no builder for rule {rule}")


def derivation_of(concl, rng, sig=SIG):
    """A derivation of a conclusion containing a planted axiom pair."""
    planted = sorted((e for e in concl.ante & concl.cons if ax_shape(e)),
                     key=print_node)
    return axiom(AX, concl, {"phi": planted[0]})
