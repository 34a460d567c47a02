"""The comparison-free subsystem for basic hybrid logic.

Restricting sequents to @-prefixed formulas without data comparisons and
dropping every comparison rule yields a complete calculus for the basic
hybrid language. This module provides the fragment test, proof search on
fragment goals, and simulations of the reference calculus's rules (Ref,
Nom1, Nom2, BoxL1, BoxR, AndL, AndR) as derived-rule fragments.
"""

from __future__ import annotations

from .derived import (
    and_left, and_right, chain, open_leaf, step, transfer, weaken_to,
)
from .kernel import (
    AT_T, BOT_RULE, DIA_L, DIA_R, IMP_L, IMP_R, S1, KernelError, Sequent,
    axiom, cut, infer, sequent, weaken,
)
from .search import prove
from .syntax import (
    At, BOT, Compare, Diamond, Nominal, neg, subexpressions,
)


class FragmentError(KernelError):
    pass


def is_hylo(obj):
    """True iff the expression or sequent stays inside the basic fragment."""
    if isinstance(obj, Sequent):
        return all(is_hylo(e) for e in obj.ante | obj.cons)
    return not any(isinstance(sub, Compare) for sub in subexpressions(obj))


def prove_hylo(goal, cfg=None):
    """Proof search on a comparison-free goal. No comparison rule has an
    atom to act on in such a goal or in any premiss search reaches from it,
    so every derivation found stays in the fragment."""
    if not is_hylo(goal):
        raise FragmentError("goal mentions data comparisons")
    return prove(goal, cfg)


# ---------------------------------------------------------------------------
# Simulated reference rules
# ---------------------------------------------------------------------------

def _sim_ref(goal, inst):
    """(Ref) is the reflexivity rule, one-to-one."""
    return step(AT_T, goal, {"i": inst["i"]}, [open_leaf])


def _sim_nom1(goal, inst):
    """(Nom1): from Γ ⊢ Δ, @_i j and Γ ⊢ Δ, @_i phi conclude Γ ⊢ Δ, @_j phi."""
    i, j, phi = inst["i"], inst["j"], inst["phi"]
    target = At(j, phi)
    if target not in goal.cons:
        raise FragmentError("Nom1: conclusion lacks @_j phi")
    rest = goal.drop_cons(target)
    alias = At(i, Nominal(j))
    carrier = At(i, phi)
    open1 = rest.add_cons(alias)
    open2 = rest.add_cons(carrier)
    left1 = weaken(open_leaf(open1), "right", target)
    inner_left = weaken_to(open_leaf(open2), open2.add_ante(alias).add_cons(target))
    closed = transfer(
        sequent(goal.ante | {alias, carrier}, goal.cons), i, j, phi)
    inner = weaken_to(cut(inner_left, closed, carrier), goal.add_ante(alias))
    return weaken_to(cut(left1, inner, alias), goal)


def _sim_nom2(goal, inst):
    """(Nom2): a cut over the fresh alias, a cut over the modal step, one
    weakening on the left premiss, and S1 over two weakenings."""
    i, j, k, a = inst["i"], inst["j"], inst["k"], inst["a"]
    alias = At(i, Nominal(j))
    stepped = At(i, Diamond(a, Nominal(k)))
    moved = At(j, Diamond(a, Nominal(k)))
    open1 = goal.add_cons(alias)
    open2 = goal.add_cons(stepped)
    open3 = goal.add_ante(moved)

    left2 = weaken(open_leaf(open2), "left", alias)
    s1_goal = goal.add_ante(alias, stepped)
    inner3 = weaken(weaken(open_leaf(open3), "left", stepped), "left", alias)
    s1_node = infer(S1, s1_goal, {"i": i, "j": j, "phi": Diamond(a, Nominal(k))},
                    [inner3])
    inner_cut = weaken_to(cut(left2, s1_node, stepped), goal.add_ante(alias))
    return weaken_to(cut(open_leaf(open1), inner_cut, alias), goal)


def _sim_box_l1(goal, inst):
    """([a]L1): premisses Γ ⊢ Δ, @_i<a>j and @_j phi, Γ ⊢ Δ."""
    i, j, a, phi = inst["i"], inst["j"], inst["a"], inst["phi"]
    principal = At(i, neg(Diamond(a, neg(phi))))
    if principal not in goal.ante:
        raise FragmentError("BoxL1: conclusion lacks @_i [a] phi")
    rest = goal.drop_ante(principal)
    stepped = At(i, Diamond(a, Nominal(j)))
    open1 = rest.add_cons(stepped)
    open2 = rest.add_ante(At(j, phi))
    moves = [(DIA_R, {"i": i, "a": a, "phi": neg(phi), "j": j}),
             (IMP_R, {"i": j, "phi": phi, "psi": BOT})]
    to_leaf = [lambda s: weaken_to(open_leaf(open2), s)]
    body = step(IMP_L, goal.add_ante(stepped),
                {"i": i, "phi": Diamond(a, neg(phi)), "psi": BOT},
                [lambda s: chain(s, moves, to_leaf),
                 lambda s: axiom(BOT_RULE, s, {"i": i})])
    left = weaken(open_leaf(open1), "left", principal)
    return weaken_to(cut(left, body, stepped), goal)


def _sim_box_r(goal, inst):
    """([a]R), j new: premiss @_i<a>j, Γ ⊢ Δ, @_j phi."""
    i, j, a, phi = inst["i"], inst["j"], inst["a"], inst["phi"]
    principal = At(i, neg(Diamond(a, neg(phi))))
    if principal not in goal.cons:
        raise FragmentError("BoxR: conclusion lacks @_i [a] phi")
    if j in goal.nominals():
        raise FragmentError(f"BoxR: nominal {j} must be new")
    rest = goal.drop_cons(principal)
    declared = rest.add_ante(At(i, Diamond(a, Nominal(j)))).add_cons(At(j, phi))
    moves = [(IMP_R, {"i": i, "phi": Diamond(a, neg(phi)), "psi": BOT}),
             (DIA_L, {"i": i, "a": a, "phi": neg(phi), "j": j}),
             (IMP_L, {"i": j, "phi": phi, "psi": BOT})]
    return chain(goal, moves, [lambda s: weaken_to(open_leaf(declared), s),
                               lambda s: axiom(BOT_RULE, s, {"i": j})])


REFERENCE_RULES = {
    "Ref": _sim_ref,
    "Nom1": _sim_nom1,
    "Nom2": _sim_nom2,
    "BoxL1": _sim_box_l1,
    "BoxR": _sim_box_r,
    "AndL": lambda goal, inst: and_left(goal, inst["i"], inst["phi"], inst["psi"]),
    "AndR": lambda goal, inst: and_right(goal, inst["i"], inst["phi"], inst["psi"]),
}


def simulate_reference_rule(rule, goal, inst):
    """Expand one reference-calculus rule into primitives at `goal`.

    Open leaves are the simulated rule's premisses; boxes are handled through
    their negative-diamond expansion.
    """
    try:
        fn = REFERENCE_RULES[rule]
    except KeyError:
        raise FragmentError(f"unknown simulated rule: {rule}") from None
    return fn(goal, inst)
