"""The locked reference derivations.

Five derivations are locked as goldens: reflexivity, symmetry, and
transitivity of data equality, the key-paste translation template, and the
fresh-alias elimination tree from the basic hybrid fragment. Derived-rule
steps expand through the macro layer, so the trees contain primitive rule
applications only and pass the kernel check.
"""

from __future__ import annotations

from .derived import (
    and_left, and_right, axg, cmp_flip, graft, identity, iff_right, step,
    weaken_to,
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

    def close(s):
        e = Compare(Jump(i), CmpKind.EQ, c, Jump(i))
        return step(EQ_T, s, {"i": i, "c": c},
                    [lambda s2: axiom(AX, s2, {"phi": e})])

    return step(AT_T, root, {"i": i},
                [lambda s: step(CMP_R, s, inst, [close])])


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
        def after_cmpl(s):
            inst_r = {"i": i, "alpha": dst.left, "beta": dst.right,
                      "kind": kind, "c": c, "j": v, "k": u}
            def after_cmpr(s2):
                flip_frag = cmp_flip(s2, u, kind, c, v)
                def close(leaf2):
                    return identity(leaf2, Compare(Jump(v), kind, c, Jump(u)))
                return graft(flip_frag, close)
            return step(CMP_R, s, inst_r, [after_cmpr])
        return step(CMP_L, leaf, inst_l, [after_cmpl])

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

    def t12(s):    # Eq5 then Ax
        def t13(s2):
            return axiom(AX, s2, {"phi": eq(x, y)})
        return step(EQ_5, s, {"i": u, "j": x, "k": y, "c": c}, [t13])

    def t11(s):    # flip <x =c u> to <u =c x>
        return graft(cmp_flip(s, x, CmpKind.EQ, c, u), t12)

    def t9(s):     # S3 replaces v by u in <v =c y>, then discard the used pair
        def after_s3(s2):
            small = sequent({eq(x, u), eq(u, y)}, {eq(x, y)})
            return weaken_to(t11(small), s2)
        return step(S3, s, {"i": v, "j": u, "k": y, "c": c}, [after_s3])

    def t7(s):     # @5 merges the two names of the intermediate node
        def after_at5(s2):
            small = sequent({At(v, Nominal(u)), eq(x, u), eq(v, y)}, {eq(x, y)})
            return weaken_to(t9(small), s2)
        return step(AT_5, s, {"i": i, "j": v, "k": u}, [after_at5])

    def t4(s):     # ⟨▲⟩R with the atomic endpoints
        inst = {"i": i, "alpha": alpha, "beta": beta, "kind": CmpKind.EQ,
                "c": c, "j": x, "k": y}
        return step(CMP_R, s, inst, [t7])

    def t3(s):     # decompose @_i<eps =c beta> with fresh v, y: adds @_i v
        inst = {"i": i, "alpha": eps(), "beta": beta, "kind": CmpKind.EQ,
                "c": c, "j": v, "k": y}
        return step(CMP_L, s, inst, [t4])

    def t2(s):     # decompose @_i<alpha =c eps> with fresh x, u: adds @_i u
        inst = {"i": i, "alpha": alpha, "beta": eps(), "kind": CmpKind.EQ,
                "c": c, "j": x, "k": u}
        return step(CMP_L, s, inst, [t3])

    def t1(s):     # ∧L
        return graft(and_left(s, i, lhs1, lhs2), t2)

    return step(IMP_R, root, {"i": i, "phi": conj(lhs1, lhs2), "psi": rhs}, [t1])


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
    premiss = step(IMP_R, sequent((), {At(i, Implies(both, chi))}),
                   {"i": i, "phi": both, "psi": chi},
                   [lambda s: step(IMP_R, s, {"i": i, "phi": phi, "psi": phi},
                                   [lambda s2: axg(s2, i, phi)])])

    root = sequent((), {At(i, Implies(lhs, chi))})

    def p1(s):  # @_i<j: a alpha ^ beta> ⊢ @_i chi
        inst = {"i": i, "alpha": full_path, "beta": beta, "kind": kind,
                "c": c, "j": x, "k": y}
        def p2(s2):  # evidence @_j<a><alpha>x: split off the <a>-step, fresh k
            return step(DIA_L, s2, {"i": j, "a": a,
                                    "phi": dia(alpha, Nominal(x)), "j": k},
                        [_paste_cut])
        return step(CMP_L, s, inst, [p2])

    def _paste_cut(s4):
        # left: prove the conjunction from the antecedent alone; right:
        # consume it via the premiss
        left_goal = sequent(s4.ante, {cut_expr})
        left = and_right(left_goal, i, At(j, step_atom), kpath_cmp)

        def fill(leaf):
            if At(i, At(j, step_atom)) in leaf.cons:
                return step(AT_R, leaf, {"j": i, "i": j, "phi": step_atom},
                            [lambda s5: axg(s5, j, step_atom)])
            if At(i, kpath_cmp) in leaf.cons:
                # the evidence of k: alpha at x is @_k<alpha>x, from DiaL
                inst = {"i": i, "alpha": concat(Jump(k), alpha), "beta": beta,
                        "kind": kind, "c": c, "j": x, "k": y}
                return step(CMP_R, leaf, inst,
                            [lambda s5: identity(
                                s5, Compare(Jump(x), kind, c, Jump(y)))])
            raise ValueError(f"unexpected conjunction leaf {leaf}")

        left = graft(left, fill)

        def right_branch():
            # inverse ->R: from ⊢ @_i(X -> chi) obtain @_i X ⊢ @_i chi
            inner_cut = At(i, Implies(both, chi))
            lgoal = sequent({cut_expr}, {At(i, chi), inner_cut})
            lhs_d = weaken_to(premiss, lgoal)
            rgoal = sequent({inner_cut, cut_expr}, {At(i, chi)})
            rhs_d = step(IMP_L, rgoal, {"i": i, "phi": both, "psi": chi},
                         [lambda s: axg(s, i, both),
                          lambda s: axg(s, i, chi)])
            return weaken_to(cut(lhs_d, rhs_d, inner_cut),
                             sequent({cut_expr}, {At(i, chi)}))

        return weaken_to(cut(left, right_branch(), cut_expr), s4)

    return step(IMP_R, root, {"i": i, "phi": lhs, "psi": chi}, [p1])


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
