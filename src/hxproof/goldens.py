"""The locked reference derivations.

Five derivations are locked as goldens: reflexivity, symmetry, and
transitivity of data equality, the key-paste translation template, and the
fresh-alias elimination tree from the basic hybrid fragment. Derived-rule
steps expand through the macro layer, so the trees contain primitive rule
applications only and pass the kernel check.
"""

from __future__ import annotations

from .derived import (
    and_left, and_right, axg, chain, cmp_flip, graft, identity, iff_right,
    step, weaken_to,
)
from .hylo import simulate_reference_rule
from .kernel import (
    AT_5, AT_R, AT_T, AX, CMP_L, CMP_R, DIA_L, EQ_5, EQ_T, IMP_L,
    IMP_R, S3, axiom, cut, sequent,
)
from .syntax import (
    At, Atom, CmpKind, Compare, Diamond, Implies, Jump, Nominal, Prop, concat,
    conj, dia, eps, iff, nominals_of,
)


def reflexivity():
    """⊢ @_i <eps =c eps>, via @T, ⟨▲⟩R, EqT, Ax.

    The evidence of the empty path at i with endpoint i is the alias @_i i,
    which @T puts in the antecedent.
    """
    i, c = "i", "c"
    goal_expr = At(i, Compare(eps(), CmpKind.EQ, c, eps()))
    root = sequent((), {goal_expr})
    inst = {"i": i, "alpha": eps(), "beta": eps(), "kind": CmpKind.EQ,
            "c": c, "j": i, "k": i}
    e = Compare(Jump(i), CmpKind.EQ, c, Jump(i))
    return chain(root, [(AT_T, {"i": i}), (CMP_R, inst),
                        (EQ_T, {"i": i, "c": c})],
                 [lambda s: axiom(AX, s, {"phi": e})])


def symmetry():
    """⊢ @_i(<a =c b> <-> <b =c a>)."""
    alpha, beta, kind, i, c = Atom("a"), Atom("b"), CmpKind.EQ, "i", "c"
    fwd = Compare(alpha, kind, c, beta)
    bwd = Compare(beta, kind, c, alpha)
    root = sequent((), {At(i, iff(fwd, bwd))})
    frag = iff_right(root, i, fwd, bwd)

    def one_direction(leaf):
        (src,) = [e for e in leaf.ante if isinstance(e, At)]
        src_cmp = src.body
        (dst,) = [e.body for e in leaf.cons if isinstance(e, At)]
        u, v = "_j", "_k"
        inst_l = {"i": i, "alpha": src_cmp.left, "beta": src_cmp.right,
                  "kind": kind, "c": c, "j": u, "k": v}
        inst_r = {"i": i, "alpha": dst.left, "beta": dst.right,
                  "kind": kind, "c": c, "j": v, "k": u}
        flipped = Compare(Jump(v), kind, c, Jump(u))
        return chain(leaf, [(CMP_L, inst_l), (CMP_R, inst_r)],
                     [lambda s: graft(cmp_flip(s, u, kind, c, v),
                                      lambda s2: identity(s2, flipped))])

    return graft(frag, one_direction)


def transitivity():
    """⊢ @_i(<a =c eps> & <eps =c b> -> <a =c b>)."""
    alpha, beta, i, c = Atom("a"), Atom("b"), "i", "c"
    x, u, v, y = "_x", "_u", "_v", "_y"
    lhs1 = Compare(alpha, CmpKind.EQ, c, eps())
    lhs2 = Compare(eps(), CmpKind.EQ, c, beta)
    rhs = Compare(alpha, CmpKind.EQ, c, beta)
    root = sequent((), {At(i, Implies(conj(lhs1, lhs2), rhs))})
    eq = lambda m, n: Compare(Jump(m), CmpKind.EQ, c, Jump(n))

    cmp = lambda p, q, m, n: {"i": i, "alpha": p, "beta": q,
                              "kind": CmpKind.EQ, "c": c, "j": m, "k": n}

    # flip <x =c u> to <u =c x>, then Eq5 and Ax
    small = sequent({eq(x, u), eq(u, y)}, {eq(x, y)})
    ax = [lambda s: axiom(AX, s, {"phi": eq(x, y)})]
    flipped = graft(cmp_flip(small, x, CmpKind.EQ, c, u),
                    lambda s: step(EQ_5, s, {"i": u, "j": x, "k": y, "c": c},
                                   ax))
    # S3 replaces v by u in <v =c y>, then discard the used pair
    merged = sequent({At(v, Nominal(u)), eq(x, u), eq(v, y)}, {eq(x, y)})
    replaced = step(S3, merged, {"i": v, "j": u, "k": y, "c": c},
                    [lambda s: weaken_to(flipped, s)])
    moves = [(CMP_L, cmp(alpha, eps(), x, u)),   # fresh x, u: adds @_i u
             (CMP_L, cmp(eps(), beta, v, y)),    # fresh v, y: adds @_i v
             (CMP_R, cmp(alpha, beta, x, y)),    # the atomic endpoints
             (AT_5, {"i": i, "j": v, "k": u})]   # merge the middle's names
    to_small = [lambda s: weaken_to(replaced, s)]
    return step(IMP_R, root, {"i": i, "phi": conj(lhs1, lhs2), "psi": rhs},
                [lambda s: graft(and_left(s, i, lhs1, lhs2),
                                 lambda s2: chain(s2, moves, to_small))])


def paste_template(chi, alpha=Atom("b"), beta=Atom("b2"), a="a", kind=CmpKind.EQ):
    """Key-paste translation: ⊢ @_i(<j: a alpha ^ beta> -> chi).

    chi must be a trivial implication phi -> phi, which makes the premiss
    ⊢ @_i((@_j<a>k & <k: alpha ^ beta>) -> chi) provable by ->R twice and an
    axiom. The nominals j, k and the witnesses must not occur in chi, alpha,
    beta.
    """
    c, i, j, k, x, y = "c", "i", "j", "k", "_x", "_y"
    used = nominals_of(chi) | nominals_of(alpha) | nominals_of(beta) | {i}
    for nom in (j, k, x, y):
        if nom in used:
            raise ValueError(f"nominal {nom} must be fresh for the template")
    full_path = concat(Jump(j), Atom(a), alpha)
    lhs = Compare(full_path, kind, c, beta)
    kpath_cmp = Compare(concat(Jump(k), alpha), kind, c, beta)
    step_atom = Diamond(a, Nominal(k))
    both = conj(At(j, step_atom), kpath_cmp)
    cut_expr = At(i, both)
    if not (isinstance(chi, Implies) and chi.lhs is chi.rhs):
        raise ValueError("chi must be a trivial implication phi -> phi")
    phi = chi.lhs
    premiss = chain(sequent((), {At(i, Implies(both, chi))}),
                    [(IMP_R, {"i": i, "phi": both, "psi": chi}),
                     (IMP_R, {"i": i, "phi": phi, "psi": phi})],
                    [lambda s: axg(s, i, phi)])
    # inverse ->R: from ⊢ @_i(X -> chi) obtain @_i X ⊢ @_i chi
    inner_cut = At(i, Implies(both, chi))
    lhs_d = weaken_to(premiss, sequent({cut_expr}, {At(i, chi), inner_cut}))
    rhs_d = step(IMP_L, sequent({inner_cut, cut_expr}, {At(i, chi)}),
                 {"i": i, "phi": both, "psi": chi},
                 [lambda s: axg(s, i, both), lambda s: axg(s, i, chi)])
    consume = weaken_to(cut(lhs_d, rhs_d, inner_cut),
                        sequent({cut_expr}, {At(i, chi)}))

    def fill(leaf):
        if At(i, At(j, step_atom)) in leaf.cons:
            return step(AT_R, leaf, {"j": i, "i": j, "phi": step_atom},
                        [lambda s: axg(s, j, step_atom)])
        if At(i, kpath_cmp) in leaf.cons:
            # the evidence of k: alpha at x is @_k<alpha>x, from DiaL
            inst = {"i": i, "alpha": concat(Jump(k), alpha), "beta": beta,
                    "kind": kind, "c": c, "j": x, "k": y}
            return step(CMP_R, leaf, inst,
                        [lambda s: identity(
                            s, Compare(Jump(x), kind, c, Jump(y)))])
        raise ValueError(f"unexpected conjunction leaf {leaf}")

    def paste_cut(s):
        # left: prove the conjunction from the antecedent alone; right:
        # consume it via the premiss
        left = and_right(sequent(s.ante, {cut_expr}), i, At(j, step_atom),
                         kpath_cmp)
        return weaken_to(cut(graft(left, fill), consume, cut_expr), s)

    # @_i<j: a alpha ^ beta> ⊢ @_i chi; its evidence @_j<a><alpha>x: split
    # off the <a>-step, fresh k
    moves = [(IMP_R, {"i": i, "phi": lhs, "psi": chi}),
             (CMP_L, {"i": i, "alpha": full_path, "beta": beta, "kind": kind,
                      "c": c, "j": x, "k": y}),
             (DIA_L, {"i": j, "a": a, "phi": dia(alpha, Nominal(x)), "j": k})]
    return chain(sequent((), {At(i, Implies(lhs, chi))}), moves, [paste_cut])


def nom2_golden():
    """The fresh-alias simulation tree, instantiated and closed.

    End-sequent: @_i j, @_i <a> k ⊢ @_j <a> k.
    """
    i, j, k, a = "i", "j", "k", "a"
    gamma = {At(i, Nominal(j)), At(i, Diamond(a, Nominal(k)))}
    delta = {At(j, Diamond(a, Nominal(k)))}
    goal = sequent(gamma, delta)
    frag = simulate_reference_rule("Nom2", goal, {"i": i, "j": j, "k": k, "a": a})

    def close(leaf):
        alias = At(i, Nominal(j))
        if alias in leaf.cons:
            return axiom(AX, leaf, {"phi": alias})
        stepped = At(i, Diamond(a, Nominal(k)))
        if stepped in leaf.cons and stepped in leaf.ante:
            return axg(leaf, i, Diamond(a, Nominal(k)))
        moved = At(j, Diamond(a, Nominal(k)))
        if moved in leaf.cons and moved in leaf.ante:
            return axg(leaf, j, Diamond(a, Nominal(k)))
        raise ValueError(f"unexpected open leaf {leaf}")

    return graft(frag, close)


def prove_axiom_suite():
    """The five locked derivations, keyed by name."""
    q = Prop("q")
    return {
        "reflexivity": reflexivity(),
        "symmetry": symmetry(),
        "transitivity": transitivity(),
        "paste": paste_template(chi=Implies(q, q)),
        "nom2": nom2_golden(),
    }
