"""Hybrid data models and the executable satisfaction relation.

A model is a finite node set, one accessibility relation per modality symbol,
one comparison equivalence per comparison symbol (stored as a partition, so
reflexivity/symmetry/transitivity hold by construction), a total nominal
assignment, and a valuation. Includes data-graph ingestion (attribute values
abstracted into comparison classes) and bounded countermodel search.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

from . import syntax as sx
from .syntax import (
    At, Atom, Bottom, CmpKind, Compare, Concat, Diamond, Implies, Jump,
    Nominal, Prop, Test,
)


class ModelError(Exception):
    pass


class UnknownNode(ModelError):
    pass


class UnassignedNominal(ModelError):
    pass


def _partition_from_classes(nodes, classes):
    """Normalize a list of blocks into a node -> class-id map over `nodes`."""
    class_of = {}
    for cid, block in enumerate(classes):
        for n in block:
            if n not in nodes:
                raise UnknownNode(f"comparison class mentions unknown node {n!r}")
            if n in class_of:
                raise ModelError(f"node {n!r} appears in two comparison classes")
            class_of[n] = cid
    next_id = len(classes)
    for n in nodes:
        if n not in class_of:
            class_of[n] = next_id
            next_id += 1
    return class_of


@dataclass
class HybridDataModel:
    """M = (N, {R_a}, {~_c}, g, V); immutable after construction by convention."""

    nodes: frozenset
    rels: dict            # modality symbol -> frozenset of (n, m) pairs
    cmp_class: dict       # comparison symbol -> {node: class id}
    g: dict               # nominal -> node (partial; see default_node)
    val: dict             # prop symbol -> frozenset of nodes
    strict_nominals: bool = False
    default_node: str = field(default=None)

    def __post_init__(self):
        if not self.nodes:
            raise ModelError("node set must be non-empty")
        if self.default_node is None:
            self.default_node = min(self.nodes)
        for a, pairs in self.rels.items():
            for n, m in pairs:
                if n not in self.nodes or m not in self.nodes:
                    raise UnknownNode(f"relation {a} uses unknown node")
        for i, n in self.g.items():
            if n not in self.nodes:
                raise UnknownNode(f"nominal {i} assigned to unknown node {n!r}")
        for p, ns in self.val.items():
            for n in ns:
                if n not in self.nodes:
                    raise UnknownNode(f"valuation of {p} uses unknown node")

    @staticmethod
    def make(nodes, rels=None, cmps=None, g=None, val=None, strict_nominals=False):
        """Build from plain collections; `cmps` maps symbol -> list of blocks."""
        nodes = frozenset(nodes)
        cmp_class = {c: _partition_from_classes(nodes, blocks)
                     for c, blocks in (cmps or {}).items()}
        return HybridDataModel(
            nodes=nodes,
            rels={a: frozenset(tuple(p) for p in pairs)
                  for a, pairs in (rels or {}).items()},
            cmp_class=cmp_class,
            g=dict(g or {}),
            val={p: frozenset(ns) for p, ns in (val or {}).items()},
            strict_nominals=strict_nominals)

    # -- component access -------------------------------------------------

    def node_of(self, nominal):
        """Total nominal assignment; unplaced nominals go to the default node."""
        try:
            return self.g[nominal]
        except KeyError:
            if self.strict_nominals:
                raise UnassignedNominal(f"nominal {nominal!r} is unassigned") from None
            return self.default_node

    def related(self, a, n, m):
        return (n, m) in self.rels.get(a, frozenset())

    def same_class(self, c, n, m):
        classes = self.cmp_class.get(c)
        if classes is None:
            # Unmentioned comparison symbols behave as the identity partition.
            return n == m
        return classes[n] == classes[m]

    def cmp_pairs(self, c):
        """The comparison as an explicit pair set (for invariant checks)."""
        return frozenset((n, m) for n in self.nodes for m in self.nodes
                         if self.same_class(c, n, m))

    def holds(self, p, n):
        return n in self.val.get(p, frozenset())


# ---------------------------------------------------------------------------
# Satisfaction
# ---------------------------------------------------------------------------

def eval_path(model, n, n2, alpha):
    """M, n, n2 |= alpha for a path expression."""
    if n not in model.nodes or n2 not in model.nodes:
        raise UnknownNode(f"unknown node in ({n!r}, {n2!r})")
    match alpha:
        case Atom(a):
            return model.related(a, n, n2)
        case Jump(i):
            return model.node_of(i) == n2
        case Test(phi):
            return n == n2 and eval_node(model, n, phi)
        case Concat(left, right):
            return any(eval_path(model, n, mid, left)
                       and eval_path(model, mid, n2, right)
                       for mid in model.nodes)
    raise TypeError(f"not a path: {alpha!r}")


def _path_targets(model, n, alpha):
    return [m for m in model.nodes if eval_path(model, n, m, alpha)]


def eval_node(model, n, phi):
    """M, n |= phi for a node expression in primitive form."""
    if n not in model.nodes:
        raise UnknownNode(f"unknown node {n!r}")
    match phi:
        case Prop(p):
            return model.holds(p, n)
        case Nominal(i):
            return model.node_of(i) == n
        case Bottom():
            return False
        case Implies(lhs, rhs):
            return (not eval_node(model, n, lhs)) or eval_node(model, n, rhs)
        case At(i, body):
            return eval_node(model, model.node_of(i), body)
        case Diamond(a, body):
            return any(model.related(a, n, m) and eval_node(model, m, body)
                       for m in model.nodes)
        case Compare(alpha, kind, c, beta):
            # both comparison forms are existential; neq is NOT the negation of eq
            want = kind is CmpKind.EQ
            ends_a = _path_targets(model, n, alpha)
            if not ends_a:
                return False
            ends_b = _path_targets(model, n, beta)
            return any(model.same_class(c, x, y) == want
                       for x in ends_a for y in ends_b)
    raise TypeError(f"not a node expression: {phi!r}")


def eval_box_compare(model, n, alpha, beta, kind, c):
    """[alpha ^ beta] read directly as a universal over endpoint pairs."""
    want = kind is CmpKind.EQ
    ends_a = _path_targets(model, n, alpha)
    ends_b = _path_targets(model, n, beta)
    return all(model.same_class(c, x, y) == want
               for x in ends_a for y in ends_b)


def satisfies_set(model, n, exprs):
    return all(eval_node(model, n, phi) for phi in exprs)


def check_sequent_validity(model, seq):
    """True iff the model does not refute the sequent.

    Sequent members are node-independent (@-prefixed or atomic comparisons),
    so evaluation at an arbitrary fixed node suffices.
    """
    here = model.default_node
    if not satisfies_set(model, here, seq.ante):
        return True
    return any(eval_node(model, here, phi) for phi in seq.cons)


# ---------------------------------------------------------------------------
# Data graph ingestion
# ---------------------------------------------------------------------------

@dataclass
class DataGraph:
    """Pre-abstraction input: labeled nodes with attribute:value records."""

    nodes: list     # [{"id": str, "labels": [str], "attrs": {c: value}, "index": str?}]
    edges: list     # [{"from": str, "label": str, "to": str}]

    @staticmethod
    def from_json(d):
        nodes = _field(d, "nodes", list, "the graph")
        edges = _field(d, "edges", list, "the graph", [])
        for t, nd in enumerate(nodes):
            where = f"node {t}"
            _field(nd, "id", str, where)
            _names(_field(nd, "labels", list, where, []), f"labels of {where}")
            _field(nd, "index", (str, type(None)), where, None)
            for attr, value in _field(nd, "attrs", dict, where, {}).items():
                if isinstance(value, (list, dict)):
                    raise ModelError(f"attribute {attr!r} of {where} is not "
                                     f"a string, number, boolean or null")
        for t, edge in enumerate(edges):
            for key in ("from", "label", "to"):
                _field(edge, key, str, f"edge {t}")
        return DataGraph(nodes=list(nodes), edges=list(edges))

    def to_json(self):
        return {"nodes": self.nodes, "edges": self.edges}


def ingest_datagraph(dg):
    """Abstract a data graph into a hybrid data model.

    Propositions come from node labels, nominals from index labels, and each
    attribute c becomes the comparison relating nodes with equal c-values
    (closed under reflexivity; nodes lacking c sit in singleton classes).
    """
    ids = []
    seen = set()
    for nd in dg.nodes:
        nid = nd["id"]
        if nid in seen:
            raise ModelError(f"duplicate node id {nid!r}")
        seen.add(nid)
        ids.append(nid)

    g = {}
    val = {}
    by_attr_value = {}
    for nd in dg.nodes:
        nid = nd["id"]
        for label in nd.get("labels", []):
            val.setdefault(label, set()).add(nid)
        idx = nd.get("index")
        if idx is not None:
            if idx in g:
                raise ModelError(f"duplicate index label {idx!r}")
            g[idx] = nid
        for attr, value in nd.get("attrs", {}).items():
            by_attr_value.setdefault(attr, {}).setdefault(value, set()).add(nid)

    rels = {}
    for edge in dg.edges:
        rels.setdefault(edge["label"], set()).add((edge["from"], edge["to"]))

    cmps = {}
    for attr, groups in by_attr_value.items():
        cmps[attr] = [sorted(block) for block in groups.values() if len(block) > 1]

    return HybridDataModel.make(ids, rels=rels, cmps=cmps, g=g, val=val)


# ---------------------------------------------------------------------------
# JSON model format
# ---------------------------------------------------------------------------

def model_to_json(model):
    classes = {}
    for c, class_of in model.cmp_class.items():
        blocks = {}
        for n, cid in class_of.items():
            blocks.setdefault(cid, []).append(n)
        classes[c] = sorted(sorted(b) for b in blocks.values() if len(b) > 1)
    return {
        "nodes": sorted(model.nodes),
        "rels": {a: sorted(map(list, pairs)) for a, pairs in model.rels.items()},
        "cmp": classes,
        "g": dict(sorted(model.g.items())),
        "val": {p: sorted(ns) for p, ns in model.val.items()},
    }


def model_from_json(d, strict_nominals=False):
    def table(key, decode):
        return {k: decode(v, f"{key} {k!r}")
                for k, v in _field(d, key, dict, "the model", {}).items()}

    return HybridDataModel.make(
        _names(_field(d, "nodes", list, "the model"), "nodes"),
        rels=table("rels", lambda v, what: [tuple(p) for p in _lists(v, what, 2)]),
        cmps=table("cmp", _lists),
        g=table("g", _name),
        val=table("val", _names),
        strict_nominals=strict_nominals)


# Malformed model and graph files raise ModelError, one message each.

_REQUIRED = object()


def _field(d, key, typ, where, default=_REQUIRED):
    """`d[key]` checked to be a `typ`; an absent optional field is `default`."""
    if not isinstance(d, dict):
        raise ModelError(f"{where} is not an object")
    if key not in d:
        if default is _REQUIRED:
            raise ModelError(f"{where} has no field {key!r}")
        return default
    if not isinstance(d[key], typ):
        raise ModelError(f"field {key!r} of {where} has the wrong type: {d[key]!r}")
    return d[key]


def _name(v, what):
    if not isinstance(v, str):
        raise ModelError(f"{what} is not a name: {v!r}")
    return v


def _names(v, what, arity=None):
    if not isinstance(v, list) or not all(isinstance(x, str) for x in v) \
            or arity not in (None, len(v)):
        shape = "a list of names" if arity is None else f"a list of {arity} names"
        raise ModelError(f"{what} is not {shape}: {v!r}")
    return v


def _lists(v, what, arity=None):
    if not isinstance(v, list):
        raise ModelError(f"{what} is not a list: {v!r}")
    return [_names(x, f"an entry of {what}", arity) for x in v]


# ---------------------------------------------------------------------------
# Bounded countermodel search
# ---------------------------------------------------------------------------

def _signature(seq):
    props, noms, mods, cmps = set(), set(), set(), set()
    for e in seq.ante | seq.cons:
        props |= sx.prop_symbols_of(e)
        noms |= sx.nominals_of(e)
        mods |= sx.mod_symbols_of(e)
        cmps |= sx.cmp_symbols_of(e)
    return sorted(props), sorted(noms), sorted(mods), sorted(cmps)


def _partitions(items):
    """All set partitions of `items` (restricted growth enumeration)."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _partitions(rest):
        for t in range(len(part)):
            yield part[:t] + [[first] + part[t]] + part[t + 1:]
        yield [[first]] + part


def _g_assignments(noms, nodes):
    """Nominal assignments canonical up to node relabeling.

    Restricted-growth enumeration: each nominal lands on an already-used node
    or the next unused one. Sound because every other model component is
    enumerated over all nodes symmetrically and sequent members are
    node-independent, so refutability is isomorphism-invariant.
    """
    def rec(t, used):
        if t == len(noms):
            yield ()
            return
        for idx in range(min(used + 1, len(nodes))):
            for rest in rec(t + 1, max(used, idx + 1)):
                yield (nodes[idx],) + rest
    for assign in rec(0, 0):
        yield dict(zip(noms, assign))


def _scratch_model(nodes):
    """Unvalidated mutable model for the enumeration loops."""
    m = HybridDataModel.__new__(HybridDataModel)
    m.nodes = frozenset(nodes)
    m.rels = {}
    m.cmp_class = {}
    m.g = {}
    m.val = {}
    m.strict_nominals = False
    m.default_node = nodes[0]
    return m


@functools.cache
def _size_tables(n_count):
    """Per-size enumeration tables: nodes, node subsets, pair subsets, partitions."""
    nodes = tuple(f"n{t}" for t in range(1, n_count + 1))
    pairs = [(x, y) for x in nodes for y in nodes]
    node_subsets = tuple(frozenset(s) for r in range(n_count + 1)
                         for s in itertools.combinations(nodes, r))
    pair_subsets = tuple(frozenset(s) for r in range(len(pairs) + 1)
                         for s in itertools.combinations(pairs, r))
    partitions = tuple(_partition_from_classes(frozenset(nodes), blocks)
                       for blocks in _partitions(nodes))
    return nodes, node_subsets, pair_subsets, partitions


def _extend(m, levels, t):
    """Depth-first backtrack over levels[t:]; True once all demands hold.

    Each level assigns one component into its table and checks the demands
    whose symbols are then all fixed. A deeper level's stale entry is never
    read: a demand only reads symbols of its own level or shallower ones.
    """
    if t == len(levels):
        return True
    table, sym, options, demands = levels[t]
    for value in options:
        table[sym] = value
        if all(eval_node(m, m.default_node, phi) == want
               for phi, want in demands) and _extend(m, levels, t + 1):
            return True
    return False


def find_countermodel(seq, max_nodes):
    """Search models of at most `max_nodes` nodes refuting the sequent.

    Returns a refuting model or None (no countermodel within the bound).
    Sizes are searched in ascending order and each exhaustively, so the first
    model returned has the minimum number of nodes; which model of that size
    comes first is an artefact of the enumeration order and may change.

    The search tree has one level per model component: the nominal
    assignment, then one partition per comparison symbol, one relation per
    modality and one valuation per proposition. Each refutation demand (an
    antecedent member true, a consequent member false) is checked at the
    level that fixes the last symbol it reads.
    """
    if max_nodes < 1:
        raise ValueError("max_nodes must be at least 1")
    props, noms, mods, cmps = _signature(seq)
    # level 0 fixes g; level t >= 1 fixes the component symbols[t - 1]
    symbols = ([("cmp_class", c) for c in cmps] + [("rels", a) for a in mods]
               + [("val", p) for p in props])
    level_of = {key: t for t, key in enumerate(symbols, start=1)}
    # refutation demands: all of ante true, all of cons false
    demands = [(phi, True) for phi in seq.sorted_ante] + \
              [(phi, False) for phi in seq.sorted_cons]
    checks = [[] for _ in range(len(symbols) + 1)]
    for phi, want in demands:
        reads = ([("cmp_class", c) for c in sx.cmp_symbols_of(phi)]
                 + [("rels", a) for a in sx.mod_symbols_of(phi)]
                 + [("val", p) for p in sx.prop_symbols_of(phi)])
        checks[max((level_of[r] for r in reads), default=0)].append((phi, want))

    for n_count in range(1, max_nodes + 1):
        nodes, node_subsets, pair_subsets, partitions = _size_tables(n_count)
        m = _scratch_model(nodes)
        options = {"cmp_class": partitions, "rels": pair_subsets,
                   "val": node_subsets}
        levels = [(getattr(m, attr), sym, options[attr], checks[t])
                  for t, (attr, sym) in enumerate(symbols, start=1)]
        for g in _g_assignments(noms, nodes):
            m.g = g
            if all(eval_node(m, m.default_node, phi) == want
                   for phi, want in checks[0]) and _extend(m, levels, 0):
                return HybridDataModel.make(
                    nodes, rels=m.rels,
                    cmps={c: _blocks_of(m.cmp_class[c]) for c in cmps},
                    g=g, val=m.val)
    return None


def _blocks_of(class_of):
    blocks = {}
    for n, cid in class_of.items():
        blocks.setdefault(cid, []).append(n)
    return [sorted(b) for b in blocks.values()]
