"""Seeded input generators for the benchmark workloads.

The formula and sequent generators follow the shapes of the acceptance
suite's generators, so a pool drawn here matches the criterion-6 and
criterion-5 inputs in kind. Every choice among members of a set is made
from a sorted list, so one seed yields the same inputs under every
PYTHONHASHSEED (the acceptance suite's own `_pick` draws from set iteration
order, which does not have that property).

This module is a copy of `tests/genutil.py` that differs only in `pick` and
`canon`. Once `_pick` and the set iteration there are made independent of
hash order, replace it with imports from `tests/genutil.py` (keeping the
criterion-5 families below), so that the two cannot drift apart.
"""

import random

from hxproof.goldens import paste_template
from hxproof.kernel import (
    AT_5, AT_L, AT_R, AT_T, AX, BOT_RULE, CMP_L, CMP_R, DIA_L, DIA_R, EQ_5,
    EQ_T, IMP_L, IMP_R, NEQ_L, NEQ_R, S1, S2, S3, KernelError, ax_shape,
    axiom, cut, infer, s1_shape, sequent, weaken,
)
from hxproof.search import invert
from hxproof.derived import axg
from hxproof.syntax import (
    At, Atom, BOT, CmpKind, Compare, Diamond, Implies, Jump, Nominal, Prop,
    Test, concat, dia, print_node,
)

# The criterion-6 signature: props p q, nominals i j k, modality a, comparison c.
SIG = {"props": ("p", "q"), "noms": ("i", "j", "k"), "mods": ("a",),
       "cmps": ("c",)}


def canon(exprs):
    """Members of a set of expressions in a hash-independent order."""
    return sorted(exprs, key=print_node)


def pick(rng, items):
    """Uniform choice from a collection, independent of its iteration order."""
    items = sorted(items, key=repr)
    return rng.choice(items) if items else None


# ---------------------------------------------------------------------------
# Formulas and sequents
# ---------------------------------------------------------------------------

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
    raise AssertionError("unreachable")


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
            return Diamond(rng.choice(sig["mods"]),
                           rand_node(rng, sig, depth - 1))
        case "cmp":
            return Compare(rand_path(rng, sig, 1), rand_kind(rng),
                           rng.choice(sig["cmps"]), rand_path(rng, sig, 1))
    raise AssertionError("unreachable")


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


# ---------------------------------------------------------------------------
# Forward derivations (provable by construction)
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


def _f_weaken(rng, d, sig):
    side = rng.choice(("left", "right"))
    return weaken(d, side, rand_restricted(rng, sig, 1))


def _f_impr(rng, d, sig):
    s = d.conclusion
    le = pick(rng, [e for e in s.ante if isinstance(e, At)])
    if le is None:
        return None
    ri = pick(rng, [e for e in s.cons if isinstance(e, At) and e.nom == le.nom])
    if ri is None:
        return None
    concl = s.drop_ante(le).drop_cons(ri).add_cons(
        At(le.nom, Implies(le.body, ri.body)))
    return infer(IMP_R, concl, {"i": le.nom, "phi": le.body, "psi": ri.body},
                 [d])


def _f_impl(rng, d, sig):
    s = d.conclusion
    ri = pick(rng, [e for e in s.cons if isinstance(e, At)])
    if ri is None:
        return None
    i, phi = ri.nom, ri.body
    psi = rand_node(rng, sig, 1)
    closer = pick(rng, [e for e in s.ante & s.cons if ax_shape(e)])
    if closer is None:
        return None
    concl = s.drop_cons(ri).add_ante(At(i, Implies(phi, psi)))
    second = axiom(AX, s.drop_cons(ri).add_ante(At(i, psi)), {"phi": closer})
    return infer(IMP_L, concl, {"i": i, "phi": phi, "psi": psi}, [d, second])


def _f_atl(rng, d, sig):
    s = d.conclusion
    e = pick(rng, [e for e in s.ante if isinstance(e, At)])
    if e is None:
        return None
    j = rng.choice(sig["noms"])
    concl = s.drop_ante(e).add_ante(At(j, e))
    return infer(AT_L, concl, {"j": j, "i": e.nom, "phi": e.body}, [d])


def _f_atr(rng, d, sig):
    s = d.conclusion
    e = pick(rng, [e for e in s.cons if isinstance(e, At)])
    if e is None:
        return None
    j = rng.choice(sig["noms"])
    concl = s.drop_cons(e).add_cons(At(j, e))
    return infer(AT_R, concl, {"j": j, "i": e.nom, "phi": e.body}, [d])


def _f_closure_drop(rng, d, sig):
    s = d.conclusion
    options = []
    aliases = [(e.nom, e.body.name) for e in canon(s.ante)
               if isinstance(e, At) and isinstance(e.body, Nominal)]
    for x, y in aliases:
        if x == y:
            options.append((AT_T, {"i": x}, At(x, Nominal(x))))
    for e in canon(s.ante):
        if isinstance(e, Compare) and e.kind is CmpKind.EQ \
                and e.left == e.right:
            options.append((EQ_T, {"i": e.left.nom, "c": e.cmp}, e))
    for j, k in aliases:
        for i, j2 in aliases:
            if j2 == j and (i, k) in aliases:
                options.append((AT_5, {"i": i, "j": j, "k": k},
                                At(j, Nominal(k))))
    choice = pick(rng, options)
    if choice is None:
        return None
    rule, inst, dropped = choice
    return infer(rule, s.drop_ante(dropped), inst, [d])


def _f_neqr(rng, d, sig):
    s = d.conclusion
    e = pick(rng, [e for e in s.ante
                   if isinstance(e, Compare) and e.kind is CmpKind.EQ])
    if e is None:
        return None
    concl = s.drop_ante(e).add_cons(
        Compare(e.left, CmpKind.NEQ, e.cmp, e.right))
    return infer(NEQ_R, concl,
                 {"i": e.left.nom, "j": e.right.nom, "c": e.cmp}, [d])


def _f_neql(rng, d, sig):
    s = d.conclusion
    e = pick(rng, [e for e in s.cons
                   if isinstance(e, Compare) and e.kind is CmpKind.EQ])
    if e is None:
        return None
    concl = s.drop_cons(e).add_ante(
        Compare(e.left, CmpKind.NEQ, e.cmp, e.right))
    return infer(NEQ_L, concl,
                 {"i": e.left.nom, "j": e.right.nom, "c": e.cmp}, [d])


def _f_dial(rng, d, sig):
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
    e = pick(rng, [e for e in s.cons if isinstance(e, At)])
    if e is None:
        return None
    j, body = e.nom, e.body
    a = rng.choice(sig["mods"])
    i = rng.choice(sig["noms"])
    step_atom = At(i, Diamond(a, Nominal(j)))
    principal = At(i, Diamond(a, body))
    d2 = weaken(weaken(d, "left", step_atom), "right", principal)
    return infer(DIA_R, d2.conclusion.drop_cons(e),
                 {"i": i, "a": a, "phi": body, "j": j}, [d2])


def _f_cmpl(rng, d, sig):
    s = d.conclusion
    j, k = "_w1", "_w2"
    if {j, k} & s.nominals():
        return None
    alpha = Atom(rng.choice(sig["mods"]))
    beta = rng.choice([Atom(rng.choice(sig["mods"])),
                       Jump(rng.choice(sig["noms"]))])
    kind = rand_kind(rng)
    i, c = rng.choice(sig["noms"]), rng.choice(sig["cmps"])
    ev1 = At(i, dia(alpha, Nominal(j)))
    ev2 = At(i, dia(beta, Nominal(k)))
    atom = Compare(Jump(j), kind, c, Jump(k))
    d2 = weaken(weaken(weaken(d, "left", ev1), "left", ev2), "left", atom)
    concl = d2.conclusion.drop_ante(ev1, ev2, atom) \
                         .add_ante(At(i, Compare(alpha, kind, c, beta)))
    return infer(CMP_L, concl, {"i": i, "alpha": alpha, "beta": beta,
                                "kind": kind, "c": c, "j": j, "k": k}, [d2])


def _f_cmpr(rng, d, sig):
    s = d.conclusion
    e = pick(rng, [e for e in s.cons if isinstance(e, Compare)])
    if e is None:
        return None
    j, k = e.left.nom, e.right.nom
    alpha = Atom(rng.choice(sig["mods"]))
    beta = Jump(rng.choice(sig["noms"]))
    i = rng.choice(sig["noms"])
    ev1 = At(i, dia(alpha, Nominal(j)))
    ev2 = At(i, dia(beta, Nominal(k)))
    principal = At(i, Compare(alpha, e.kind, e.cmp, beta))
    d2 = weaken(weaken(weaken(d, "left", ev1), "left", ev2),
                "right", principal)
    return infer(CMP_R, d2.conclusion.drop_cons(e),
                 {"i": i, "alpha": alpha, "beta": beta, "kind": e.kind,
                  "c": e.cmp, "j": j, "k": k}, [d2])


def _f_subst_drop(rng, d, sig):
    s = d.conclusion
    options = []
    for e in canon(s.ante):
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
    choice = pick(rng, options)
    if choice is None:
        return None
    rule, inst, dropped, needed = choice
    if dropped in needed:
        return None
    d2 = d
    for req in needed:
        d2 = weaken(d2, "left", req)
    return infer(rule, d2.conclusion.drop_ante(dropped), inst, [d2])


FORWARD_STEPS = (_f_weaken, _f_impr, _f_impl, _f_atl, _f_atr, _f_closure_drop,
                 _f_neqr, _f_neql, _f_dial, _f_diar, _f_cmpl, _f_cmpr,
                 _f_subst_drop)


def rand_derivation(rng, sig=SIG, steps=5):
    """A checked derivation grown downward from a random axiom.

    `steps` forward steps are attempted; one whose side conditions fail
    leaves the derivation unchanged.
    """
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


# ---------------------------------------------------------------------------
# Cut-bearing derivations (the criterion-5 families)
# ---------------------------------------------------------------------------

def inverse_atl(rng, depth):
    phi = rand_node(rng, SIG, depth)
    i, j = rng.choice(SIG["noms"]), rng.choice(SIG["noms"])
    wrapped = At(j, At(i, phi))
    ctx = {rand_restricted(rng, SIG, 1) for _ in range(rng.randint(0, 1))}
    d = axg(sequent({wrapped} | ctx, {wrapped}), j, At(i, phi))
    return invert(AT_L, d, {"j": j, "i": i, "phi": phi})[0]


def inverse_dial(rng, depth):
    phi = rand_node(rng, SIG, depth)
    i = rng.choice(SIG["noms"])
    e = At(i, Diamond("a", phi))
    d = axg(sequent({e}, {e}), i, Diamond("a", phi))
    return invert(DIA_L, d, {"i": i, "a": "a", "phi": phi, "j": "_u"})[0]


def inverse_cmpl(rng):
    kind = rand_kind(rng)
    alpha = rng.choice([Atom("a"), Jump(rng.choice(SIG["noms"]))])
    beta = Atom("a")
    ce = Compare(alpha, kind, "c", beta)
    i = rng.choice(SIG["noms"])
    d = axg(sequent({At(i, ce)}, {At(i, ce)}), i, ce)
    return invert(CMP_L, d, {"i": i, "alpha": alpha, "beta": beta,
                             "kind": kind, "c": "c", "j": "_u", "k": "_v"})[0]


def paste(rng):
    phi = Prop(rng.choice(SIG["props"]))
    return paste_template(
        chi=Implies(phi, phi),
        alpha=Atom(rng.choice(["b", "b2"])),
        beta=Atom(rng.choice(["b", "b2"])),
        a=rng.choice(["a", "a2"]),
        kind=rand_kind(rng))


def composition(rng):
    """Two forward derivations joined by one cut; retried until it builds."""
    while True:
        d1 = rand_derivation(rng, steps=rng.randint(2, 5))
        d2 = rand_derivation(rng, steps=rng.randint(2, 5))
        shared = canon(set(d1.conclusion.cons) & set(d2.conclusion.ante))
        if shared and rng.random() < 0.5:
            phi = shared[0]
        else:
            phi = rand_restricted(rng, depth=1)
            d1, d2 = weaken(d1, "right", phi), weaken(d2, "left", phi)
        try:
            return cut(d1, d2, phi)
        except KernelError:
            continue


def derived_rng(seed, name):
    """An independent stream per (seed, purpose), stable across processes."""
    return random.Random(f"{seed}:{name}")

