"""The pairwise satisfaction relation: a test oracle for `hxproof.model`.

It reads the paper's semantics off literally: a path holds between two
nodes, a concatenation through some midpoint, and a comparison between some
pair of endpoints. It calls nothing of the product's model checker, only the
model's fields and its `node_of` and `same_class`, so it also runs on a
`ScratchModel`, whose fields a search can assign in turn. Its cost is
polynomial with a high degree (a concatenation recurses over every
midpoint), so it serves small models only.
"""

from hxproof.model import UnknownNode
from hxproof.syntax import (
    At, Atom, Bottom, CmpKind, Compare, Concat, Diamond, Implies, Jump,
    Nominal, Prop, Test,
)


class ScratchModel:
    """A mutable, unvalidated model on the given nodes, the first one its
    default node, for searches that assign its fields in turn."""

    def __init__(self, nodes):
        self.nodes, self.default_node = frozenset(nodes), nodes[0]
        self.rels, self.cmp_class, self.g, self.val = {}, {}, {}, {}

    def node_of(self, nominal):
        return self.g.get(nominal, self.default_node)

    def same_class(self, c, n, m):
        classes = self.cmp_class.get(c)
        return n == m if classes is None else classes[n] == classes[m]


def related(model, a, n, m):
    return (n, m) in model.rels.get(a, frozenset())


def holds(model, p, n):
    return n in model.val.get(p, frozenset())


def cmp_pairs(model, c):
    """The comparison as an explicit pair set (for invariant checks)."""
    return frozenset((n, m) for n in model.nodes for m in model.nodes
                     if model.same_class(c, n, m))


def eval_path(model, n, n2, alpha):
    """M, n, n2 |= alpha for a path expression."""
    if n not in model.nodes or n2 not in model.nodes:
        raise UnknownNode(f"unknown node in ({n!r}, {n2!r})")
    match alpha:
        case Atom(a):
            return related(model, a, n, n2)
        case Jump(i):
            return model.node_of(i) == n2
        case Test(phi):
            return n == n2 and eval_node(model, n, phi)
        case Concat(left, right):
            return any(eval_path(model, n, mid, left)
                       and eval_path(model, mid, n2, right)
                       for mid in model.nodes)
    raise TypeError(f"not a path: {alpha!r}")


def path_targets(model, n, alpha):
    return [m for m in model.nodes if eval_path(model, n, m, alpha)]


def eval_node(model, n, phi):
    """M, n |= phi for a node expression in primitive form."""
    if n not in model.nodes:
        raise UnknownNode(f"unknown node {n!r}")
    match phi:
        case Prop(p):
            return holds(model, p, n)
        case Nominal(i):
            return model.node_of(i) == n
        case Bottom():
            return False
        case Implies(lhs, rhs):
            return (not eval_node(model, n, lhs)) or eval_node(model, n, rhs)
        case At(i, body):
            return eval_node(model, model.node_of(i), body)
        case Diamond(a, body):
            return any(related(model, a, n, m) and eval_node(model, m, body)
                       for m in model.nodes)
        case Compare(alpha, kind, c, beta):
            # both comparison forms are existential; neq is NOT the negation of eq
            want = kind is CmpKind.EQ
            ends_a = path_targets(model, n, alpha)
            if not ends_a:
                return False
            ends_b = path_targets(model, n, beta)
            return any(model.same_class(c, x, y) == want
                       for x in ends_a for y in ends_b)
    raise TypeError(f"not a node expression: {phi!r}")


def eval_box_compare(model, n, alpha, beta, kind, c):
    """[alpha ^ beta] read directly as a universal over endpoint pairs."""
    want = kind is CmpKind.EQ
    ends_a = path_targets(model, n, alpha)
    ends_b = path_targets(model, n, beta)
    return all(model.same_class(c, x, y) == want
               for x in ends_a for y in ends_b)


def check_sequent_validity(model, seq):
    """True iff the model does not refute the sequent, evaluated pairwise
    at the default node."""
    here = model.default_node
    return not all(eval_node(model, here, phi) for phi in seq.ante) or \
        any(eval_node(model, here, phi) for phi in seq.cons)
