"""Hybrid data models and the executable satisfaction relation.

A model is a finite node set, one accessibility relation per modality symbol,
one comparison equivalence per comparison symbol (stored as a partition, so
reflexivity/symmetry/transitivity hold by construction), a total nominal
assignment, and a valuation. Includes data-graph ingestion (attribute values
abstracted into comparison classes) and bounded countermodel search.

The model checker (`eval_node`, `satisfies_set`, `check_sequent_validity`)
labels bottom-up with node masks, as in global model checking: each call
reads the model into bit masks once and labels each distinct subexpression
once, `<a>` as a pre-image and a path step as a union of successor masks.
That takes O(|phi| * (nodes + edges)) mask operations apart from
comparisons, which loop over class masks at each node.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

from . import syntax as sx
from .syntax import (
    At, Atom, Bottom, CmpKind, Compare, Concat, Diamond, Implies, Jump,
    NodeExpr, Nominal, Prop, Test,
)


class ModelError(Exception):
    pass


class UnknownNode(ModelError):
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
    """M = (N, {R_a}, {~_c}, g, V).

    The product never changes a model once it is built, but nothing stops a
    caller from doing so (the tests' brute-force countermodel search assigns
    `g`, `cmp_class`, `rels` and `val` of one model in turn), so no derived
    data is cached on the model: each model-checking call reads the fields
    afresh.
    """

    nodes: frozenset
    rels: dict            # modality symbol -> frozenset of (n, m) pairs
    cmp_class: dict       # comparison symbol -> {node: class id}
    g: dict               # nominal -> node (partial; see default_node)
    val: dict             # prop symbol -> frozenset of nodes
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
    def make(nodes, rels=None, cmps=None, g=None, val=None):
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
            val={p: frozenset(ns) for p, ns in (val or {}).items()})

    # -- component access -------------------------------------------------

    def node_of(self, nominal):
        """Total nominal assignment; unplaced nominals go to the default node."""
        return self.g.get(nominal, self.default_node)

    def same_class(self, c, n, m):
        classes = self.cmp_class.get(c)
        if classes is None:
            # Unmentioned comparison symbols behave as the identity partition.
            return n == m
        return classes[n] == classes[m]


# ---------------------------------------------------------------------------
# Satisfaction
# ---------------------------------------------------------------------------

class _Labelling:
    """Bottom-up labelling of one model with node masks.

    Bit x of a mask stands for the node at position x of `sorted(nodes)`.
    A node expression's label is the mask of the nodes where it holds, and a
    path's label is a tuple of endpoint masks, one per start node. The
    components are read from the model once, when the labelling is made: a
    tuple of successor masks per modality, each node's class mask per
    comparison symbol, and a mask per proposition. Each distinct
    subexpression is then labelled once.
    """

    def __init__(self, model):
        self.model = model
        nodes = sorted(model.nodes)
        self.pos = pos = {n: x for x, n in enumerate(nodes)}
        self.bits = bits = tuple(1 << x for x in range(len(nodes)))
        self.full = (1 << len(nodes)) - 1
        self.succ = {}
        for a, pairs in model.rels.items():
            succ = [0] * len(nodes)
            for n, m in pairs:
                succ[pos[n]] |= bits[pos[m]]
            self.succ[a] = tuple(succ)
        self.classes = {}
        for c, class_of in model.cmp_class.items():
            block = {}
            for n, bit in zip(nodes, bits):
                block[class_of[n]] = block.get(class_of[n], 0) | bit
            self.classes[c] = tuple(block[class_of[n]] for n in nodes)
        self.val = {p: sum(bits[pos[n]] for n in ns)
                    for p, ns in model.val.items()}
        self.memo = {}

    def holds(self, phi, n):
        """M, n |= phi; UnknownNode for a node outside the model, TypeError
        if phi is not a node expression."""
        if n not in self.pos:
            raise UnknownNode(f"unknown node {n!r}")
        if not isinstance(phi, NodeExpr):
            raise TypeError(f"not a node expression: {phi!r}")
        return bool(self.label(phi) >> self.pos[n] & 1)

    def label(self, e):
        out = self.memo.get(e)
        if out is None:
            out = self.memo[e] = self._build(e)
        return out

    def _nominal(self, i):
        return self.bits[self.pos[self.model.node_of(i)]]

    def _build(self, e):
        match e:
            case Prop(p):
                return self.val.get(p, 0)
            case Nominal(i):
                return self._nominal(i)
            case Bottom():
                return 0
            case Implies(lhs, rhs):
                return self.full & ~self.label(lhs) | self.label(rhs)
            case At(i, body):
                return self.full if self.label(body) & self._nominal(i) else 0
            case Diamond(a, body):
                # the pre-image of the body's mask
                target, out = self.label(body), 0
                for bit, succ in zip(self.bits, self.succ.get(a, ())):
                    if succ & target:
                        out |= bit
                return out
            case Compare(alpha, kind, c, beta):
                # an unmentioned symbol compares as the identity partition
                classes = self.classes.get(c, self.bits)
                eq, out = kind is CmpKind.EQ, 0
                for bit, x, y in zip(self.bits, self.label(alpha),
                                     self.label(beta)):
                    if x and y and (_meet(x, y, classes) if eq
                                    else _split(x | y, classes)):
                        out |= bit
                return out
            case Atom(a):
                return self.succ.get(a, (0,) * len(self.bits))
            case Jump(i):
                return (self._nominal(i),) * len(self.bits)
            case Test(body):
                here = self.label(body)
                return tuple(bit & here for bit in self.bits)
            case Concat(left, right):
                # each start node's endpoints: the union of the right
                # path's endpoint masks over the left path's endpoints
                ends, out = self.label(right), []
                for y in self.label(left):
                    z = 0
                    while y:
                        low = y & -y
                        z |= ends[low.bit_length() - 1]
                        y ^= low
                    out.append(z)
                return tuple(out)
        raise TypeError(f"not an expression: {e!r}")


def _meet(x, y, classes):
    """Does some class meet both masks? `classes[t]` is the class mask of
    the node at position t; each class meeting x is visited once."""
    while x:
        cls = classes[(x & -x).bit_length() - 1]
        if cls & y:
            return True
        x &= ~cls
    return False


def _split(u, classes):
    """Does the non-empty mask u meet two classes?"""
    return bool(u & ~classes[(u & -u).bit_length() - 1])


def eval_node(model, n, phi):
    """M, n |= phi for a node expression in primitive form.

    One call labels the model once: every distinct subexpression of phi
    gets the mask of the nodes where it holds (paths: each start node's
    endpoint mask), bottom-up, as in global model checking. A node-level
    step costs O(nodes + edges) mask operations, so phi costs
    O(|phi| * (nodes + edges)) apart from its comparisons: a path step
    unions one endpoint mask per endpoint of each start node, and a
    comparison loops, at each node, over the class masks its endpoints meet.
    """
    return _Labelling(model).holds(phi, n)


def satisfies_set(model, n, exprs):
    """Does every member of `exprs` hold at n? One labelling serves all."""
    labelling = _Labelling(model)
    return all(labelling.holds(phi, n) for phi in exprs)


def check_sequent_validity(model, seq):
    """True iff the model does not refute the sequent.

    Sequent members are node-independent (@-prefixed or atomic comparisons),
    so evaluation at an arbitrary fixed node suffices. One labelling serves
    every member.
    """
    labelling, here = _Labelling(model), model.default_node
    if not all(labelling.holds(phi, here) for phi in seq.ante):
        return True
    return any(labelling.holds(phi, here) for phi in seq.cons)


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


def model_from_json(d):
    def table(key, decode):
        return {k: decode(v, f"{key} {k!r}")
                for k, v in _field(d, key, dict, "the model", {}).items()}

    return HybridDataModel.make(
        _names(_field(d, "nodes", list, "the model"), "nodes"),
        rels=table("rels", lambda v, what: [tuple(p) for p in _lists(v, what, 2)]),
        cmps=table("cmp", _lists),
        g=table("g", _name),
        val=table("val", _names))


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
    """The sorted propositions, nominals, modalities and comparison symbols
    of a sequent, from one walk over its members' subexpressions."""
    props, noms, mods, cmps = set(), set(), set(), set()
    for e in seq.ante | seq.cons:
        for sub in sx.subexpressions(e):
            match sub:
                case Prop(p):
                    props.add(p)
                case Nominal(i) | Jump(i) | At(i, _):
                    noms.add(i)
                case Atom(a) | Diamond(a, _):
                    mods.add(a)
                case Compare(_, _, c, _):
                    cmps.add(c)
                case _:
                    pass
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


# Candidate models are bit masks over node positions 0..n-1 (position t is
# node "n{t+1}", and position 0 is the default node): a valuation is one
# mask, a nominal one bit, a relation a tuple of successor masks (one per
# node) and a comparison a tuple of class masks.

MAX_COUNTERMODEL_NODES = 4   # 5 nodes would mean 2^25 relations per modality


@functools.cache
def _size_tables(n_count):
    """Per-size enumeration tables: nodes, valuations, relations, comparisons.

    Valuations and relations are listed as the node and pair subsets they
    stand for, by size and then lexicographically; comparisons in the order
    of `_partitions`, each block one class mask.
    """
    nodes = tuple(f"n{t}" for t in range(1, n_count + 1))
    positions = range(n_count)
    valuations = tuple(sum(1 << x for x in s) for r in range(n_count + 1)
                       for s in itertools.combinations(positions, r))
    pairs = [(x, y) for x in positions for y in positions]
    relations = []
    for r in range(len(pairs) + 1):
        for s in itertools.combinations(pairs, r):
            succ = [0] * n_count
            for x, y in s:
                succ[x] |= 1 << y
            relations.append(tuple(succ))
    partitions = tuple(tuple(sum(1 << x for x in block) for block in blocks)
                       for blocks in _partitions(list(positions)))
    return nodes, valuations, tuple(relations), partitions


@functools.cache
def _label_tables(n_count):
    """Per-size constants of labelling: each node's bit, the full mask, and
    for each mask its member positions and its diagonal (the endpoint masks
    of a test path that holds exactly there)."""
    bits = tuple(1 << x for x in range(n_count))
    masks = range(1 << n_count)
    members = tuple(tuple(x for x, bit in enumerate(bits) if y & bit)
                    for y in masks)
    diagonal = tuple(tuple(bit & y for bit in bits) for y in masks)
    return bits, masks[-1], members, diagonal


@functools.cache
def _pair_table(classes, eq, n_count):
    """Entry x << n_count | y: does the comparison hold between endpoint masks
    x and y, given the class masks (`eq` for =c, otherwise !=c)."""
    def holds(x, y):
        if eq:
            # some class meets both endpoint masks
            return any(x & cls and y & cls for cls in classes)
        # both non-empty, and their union fits inside no single class
        return bool(x and y) and all((x | y) & ~cls for cls in classes)
    size = 1 << n_count
    return bytes(holds(x, y) for x in range(size) for y in range(size))


# read straight from their slot: a cell would cost as much
_LEAVES = (Prop, Nominal, Bottom, Atom)


def _compiler(n_count, slot, env, cells):
    """Compile expressions into closures over bit-mask model components.

    `closure_of(e)` gives `(closure, level)`. The closure returns the mask of
    the nodes where a node expression holds, or a path's tuple of endpoint
    masks, one per node; it reads each symbol from `env[k]`, where
    `slot[key] == (k, level)` for the keys ("g", nominal), ("cmp_class", c),
    ("rels", a) and ("val", p). An expression's level is the highest level
    of the symbols it reads. A compound subexpression of a lower level than
    its parent is read from a cell: a new slot of `env`, appended with its
    closure to `cells[level]`, to be filled once that level is fixed.
    Each distinct expression is compiled once.
    """
    bits, full, members, diagonal = _label_tables(n_count)
    memo, cell_of = {}, {}

    def closure_of(e):
        if e not in memo:
            memo[e] = build(e)
        return memo[e]

    def level(*es):
        return max(closure_of(e)[1] for e in es)

    def read(e, t):
        """The closure through which a reader at level t reads e."""
        f, s = closure_of(e)
        if s == t or isinstance(e, _LEAVES):
            return f
        if e not in cell_of:
            cell_of[e] = len(env)
            env.append(None)
            cells[s].append((cell_of[e], f))
        c = cell_of[e]
        return lambda: env[c]

    def build(e):
        match e:
            case Prop(p):
                k, t = slot["val", p]
                return (lambda: env[k]), t
            case Nominal(i):
                k, t = slot["g", i]
                return (lambda: env[k]), t
            case Bottom():
                return (lambda: 0), 0
            case Implies(lhs, rhs):
                t = level(lhs, rhs)
                f, g = read(lhs, t), read(rhs, t)
                return (lambda: full & ~f() | g()), t
            case At(i, body):
                k, t = slot["g", i][0], level(body)
                f = read(body, t)
                return (lambda: full if f() & env[k] else 0), t
            case Diamond(a, body):
                k, t = slot["rels", a]
                t = max(t, level(body))
                f = read(body, t)

                def preimage():
                    b, out = f(), 0
                    for bit, succ in zip(bits, env[k]):
                        if succ & b:
                            out |= bit
                    return out
                return preimage, t
            case Compare(alpha, kind, c, beta):
                k, t = slot["cmp_class", c]
                t = max(t, level(alpha, beta))
                f, g = read(alpha, t), read(beta, t)
                eq = kind is CmpKind.EQ

                def compare():
                    table, out = _pair_table(env[k], eq, n_count), 0
                    for bit, x, y in zip(bits, f(), g()):
                        if table[x << n_count | y]:
                            out |= bit
                    return out
                return compare, t
            case Atom(a):
                k, t = slot["rels", a]
                return (lambda: env[k]), t
            case Jump(i):
                k, t = slot["g", i]
                return (lambda: (env[k],) * n_count), t
            case Test(body):
                t = level(body)
                f = read(body, t)
                return (lambda: diagonal[f()]), t
            case Concat(left, right):
                t = level(left, right)
                f, g = read(left, t), read(right, t)

                def compose():
                    succ, out = g(), []
                    for y in f():
                        z = 0
                        for x in members[y]:
                            z |= succ[x]
                        out.append(z)
                    return tuple(out)
                return compose, t
        raise TypeError(f"not an expression: {e!r}")

    return closure_of


def _extend(env, levels, t):
    """Depth-first backtrack over levels[t:]; True once all demands hold.

    Each level assigns one symbol's slot in `env` and checks the demands
    whose symbols are then all fixed, each at the default node (bit 0).
    Once they hold it fills the level's cells, which deeper levels read. A
    deeper level's stale slot is never read: a demand or cell only reads
    symbols of its own level or shallower ones.
    """
    if t == len(levels):
        return True
    k, options, demands, cells = levels[t]
    for value in options:
        env[k] = value
        for f, want in demands:
            if f() & 1 != want:
                break
        else:
            for c, f in cells:
                env[c] = f()
            if _extend(env, levels, t + 1):
                return True
    return False


def find_countermodel(seq, max_nodes):
    """Search models of at most `max_nodes` nodes refuting the sequent.

    Returns a refuting model or None (no countermodel within the bound).
    Sizes are searched in ascending order and each exhaustively, so the first
    model returned has the minimum number of nodes; which model of that size
    comes first is fixed by the enumeration order. `max_nodes` above
    MAX_COUNTERMODEL_NODES raises ValueError before anything is enumerated.

    The search tree has one level per model component: the nominal
    assignment, then one partition per comparison symbol, one relation per
    modality and one valuation per proposition. Candidates are bit masks
    (`_size_tables`), listed in the order of the node subsets, pair subsets
    and partitions they stand for, the order of the set-based search they
    replaced, so the same model comes first. Each refutation demand (an
    antecedent member true, a consequent member false) is compiled once per
    size into a closure returning its satisfaction mask (`_compiler`) and
    checked at the level that fixes the last symbol it reads. A compound
    subexpression that a shallower level fixes is computed once per
    assignment of that level, not once per deeper candidate. `prove`
    verifies every returned model with the model checker proper,
    `check_sequent_validity`.
    """
    if not 1 <= max_nodes <= MAX_COUNTERMODEL_NODES:
        raise ValueError(f"max_nodes must be between 1 and "
                         f"{MAX_COUNTERMODEL_NODES}, not {max_nodes}")
    props, noms, mods, cmps = _signature(seq)
    # level 0 fixes g; level t >= 1 fixes the component symbols[t - 1]
    symbols = ([("cmp_class", c) for c in cmps] + [("rels", a) for a in mods]
               + [("val", p) for p in props])
    slot = {("g", i): (k, 0) for k, i in enumerate(noms)}
    slot.update({key: (len(noms) + t - 1, t)
                 for t, key in enumerate(symbols, start=1)})
    # refutation demands: all of ante true, all of cons false
    demands = [(phi, 1) for phi in seq.sorted_ante] + \
              [(phi, 0) for phi in seq.sorted_cons]

    for n_count in range(1, max_nodes + 1):
        nodes, valuations, relations, partitions = _size_tables(n_count)
        env = [None] * len(slot)
        checks = [[] for _ in range(len(symbols) + 1)]
        cells = [[] for _ in range(len(symbols) + 1)]
        closure_of = _compiler(n_count, slot, env, cells)
        for phi, want in demands:
            f, t = closure_of(phi)
            checks[t].append((f, want))
        options = {"cmp_class": partitions, "rels": relations,
                   "val": valuations}
        levels = [(slot[key][0], options[key[0]], checks[t], cells[t])
                  for t, key in enumerate(symbols, start=1)]
        for g in _g_assignments(noms, range(n_count)):
            for i, x in g.items():
                env[slot["g", i][0]] = 1 << x
            if all(f() & 1 == want for f, want in checks[0]):
                for c, f in cells[0]:
                    env[c] = f()
                if _extend(env, levels, 0):
                    return _model_of(nodes, env, slot, g)
    return None


def _model_of(nodes, env, slot, g):
    """The HybridDataModel named by the bit-mask components in `env`."""
    def names(mask):
        return [n for x, n in enumerate(nodes) if mask >> x & 1]

    rels, cmps, val = {}, {}, {}
    for (kind, sym), (k, _) in slot.items():
        if kind == "rels":
            rels[sym] = [(n, m) for n, succ in zip(nodes, env[k])
                         for m in names(succ)]
        elif kind == "cmp_class":
            cmps[sym] = [names(cls) for cls in env[k]]
        elif kind == "val":
            val[sym] = names(env[k])
    return HybridDataModel.make(nodes, rels=rels, cmps=cmps,
                                g={i: nodes[x] for i, x in g.items()}, val=val)
