"""Hybrid data models and the executable satisfaction relation.

A model is a finite node set, one accessibility relation per modality symbol,
one comparison equivalence per comparison symbol (stored as a partition, so
reflexivity/symmetry/transitivity hold by construction), a total nominal
assignment, and a valuation. Includes data-graph ingestion (attribute values
abstracted into comparison classes) and bounded countermodel search.

One evaluator states the semantics: `_Compiler` turns demands ("phi holds"
or "phi fails" at the node held in a point slot) into one straight-line
program of bit-mask steps per level, one step per distinct subexpression.
The countermodel search has one level per model component. The model
checker (`eval_node`, `satisfies_set`, `check_sequent_validity`,
`satisfying_nodes`) compiles two levels, model and point: level 0 holds
every step that does not read the point (paths, jumps, tests with their
bodies, the bodies of `@i` demands and their checks), level 1 the point's
steps and checks. A query's program is compiled once per query and node
count and kept in a small LRU cache (`_compiled`). Its level 0 runs once
per model, and its slots are kept on the model (`_run`), so a call copies
them, sets the point and runs level 1 only.

Each node expression is computed at the nodes where its value is needed,
starting from the point: `@i` needs its body at i's node, `->` passes the
need down, `<a>phi` is tested at its needed nodes only and needs phi at
their successors, and a comparison reads its two paths' endpoints from its
needed nodes only, which a path fills per start on demand. So a
formula asked about at one node costs what it reaches from there: a step
does O(needed nodes) mask operations, each on masks of up to N bits.
`satisfying_nodes` is global model checking, where every node is needed,
and so is a test inside a path.

A model is a frozen value. What the checker reads of it, the node order
and a symbol's masks (a proposition's mask, a comparison's class masks, a
relation's successor positions, and each node's successor mask the first
time a step reads it), is derived once per model and kept on the model,
and so are the level-0 slots of the last programs run on it (see
`HybridDataModel`).
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from dataclasses import dataclass, field
from types import MappingProxyType

from . import syntax as sx
from .jsonio import DecodeError, _entries, _field, _object, _show
from .syntax import (
    At, Atom, Bottom, CmpKind, Compare, Concat, Diamond, Implies, Jump,
    NodeExpr, Nominal, Prop, Test,
)


class ModelError(Exception):
    """A model that is not one (a malformed file is a DecodeError)."""


class UnknownNode(ModelError):
    pass


def _partition_from_classes(nodes, classes):
    """Normalize a list of blocks into a node -> class-id map over `nodes`."""
    class_of = {}
    for cid, block in enumerate(classes):
        for n in block:
            if n not in nodes:
                raise UnknownNode(f"comparison class mentions unknown node {n!r}")
            if class_of.get(n) == cid:
                raise ModelError(f"node {n!r} appears twice in one comparison class")
            if n in class_of:
                raise ModelError(f"node {n!r} appears in two comparison classes")
            class_of[n] = cid
    next_id = len(classes)
    for n in nodes:
        if n not in class_of:
            class_of[n] = next_id
            next_id += 1
    return class_of


@dataclass(frozen=True, init=False)
class HybridDataModel:
    """M = (N, {R_a}, {~_c}, g, V), a value.

    `__init__` checks the fields and sets each once, to a private copy: a
    frozenset of nodes and read-only mappings (`MappingProxyType`) whose
    values are frozensets, or for a comparison symbol a read-only map giving
    every node its class id. So changing what a model was built from changes
    nothing, `dataclasses.replace` builds a variant, and equal models hash
    equal (a set member or a dict key). What the checker derives from a
    model (`_order`, `_derive`, and the level-0 runs of `_run`) is kept in
    `_derived`, so it is built once per model and goes away with it.
    """

    nodes: frozenset
    rels: MappingProxyType       # modality symbol -> frozenset of (n, m) pairs
    cmp_class: MappingProxyType  # comparison symbol -> {node: class id}
    g: MappingProxyType          # nominal -> node (partial; see default_node)
    val: MappingProxyType        # prop symbol -> frozenset of nodes
    default_node: str = None
    _derived: dict = field(default_factory=dict, init=False, compare=False,
                           repr=False)

    def __init__(self, nodes, rels, cmp_class, g, val, default_node=None):
        nodes = frozenset(nodes)
        if not nodes:
            raise ModelError("node set must be non-empty")
        rels = {a: frozenset(map(tuple, pairs)) for a, pairs in rels.items()}
        cmp_class = {c: MappingProxyType(dict(class_of))
                     for c, class_of in cmp_class.items()}
        val = {p: frozenset(ns) for p, ns in val.items()}
        g = dict(g)
        if default_node is None:
            default_node = min(nodes)
        if default_node not in nodes:
            raise UnknownNode(f"unknown node {default_node!r} as default")
        ends = {a: {n for pair in pairs for n in pair}
                for a, pairs in rels.items()}
        for what, used in (("relation", ends), ("comparison", cmp_class),
                           ("valuation of", val)):
            for sym, ns in used.items():
                if not nodes.issuperset(ns):
                    raise UnknownNode(f"{what} {sym} uses unknown node "
                                      f"{min(set(ns) - nodes)!r}")
        for c, class_of in cmp_class.items():
            if len(class_of) < len(nodes):
                n = min(nodes - class_of.keys())
                raise ModelError(f"comparison {c} gives node {n!r} no class")
        for i, n in g.items():
            if n not in nodes:
                raise UnknownNode(f"nominal {i} assigned to unknown node {n!r}")
        # the frozen class's `__setattr__` refuses; the instance dict takes
        # all seven fields in one update
        self.__dict__.update(
            nodes=nodes, rels=MappingProxyType(rels),
            cmp_class=MappingProxyType(cmp_class), g=MappingProxyType(g),
            val=MappingProxyType(val), default_node=default_node,
            _derived={})

    def __hash__(self):
        """A hash of what `==` compares, the fields' contents (`_derived`
        left out); computed once and kept in `_derived`."""
        out = self._derived.get("hash")
        if out is None:
            out = self._derived["hash"] = hash((
                self.nodes, frozenset(self.rels.items()),
                frozenset((c, frozenset(class_of.items()))
                          for c, class_of in self.cmp_class.items()),
                frozenset(self.g.items()), frozenset(self.val.items()),
                self.default_node))
        return out

    @staticmethod
    def make(nodes, rels=None, cmps=None, g=None, val=None):
        """Build from plain collections; `cmps` maps symbol -> list of blocks."""
        nodes = frozenset(nodes)
        cmp_class = {c: _partition_from_classes(nodes, blocks)
                     for c, blocks in (cmps or {}).items()}
        return HybridDataModel(nodes=nodes, rels=rels or {},
                               cmp_class=cmp_class, g=g or {}, val=val or {})

    # -- component access -------------------------------------------------

    def node_of(self, nominal):
        """Total nominal assignment; unplaced nominals go to the default node."""
        return self.g.get(nominal, self.default_node)

    def same_class(self, c, n, m):
        for x in (n, m):
            if x not in self.nodes:
                raise UnknownNode(f"unknown node {x!r}")
        classes = self.cmp_class.get(c)
        if classes is None:
            # Unmentioned comparison symbols behave as the identity partition.
            return n == m
        return classes[n] == classes[m]

    # -- what the checker derives, once per model ---------------------------

    def _order(self):
        """The nodes in sorted order, and each node's position (kept under
        the key "order"; a component's key is a (kind, symbol) pair)."""
        out = self._derived.get("order")
        if out is None:
            order = tuple(sorted(self.nodes))
            out = self._derived["order"] = (
                order, {n: x for x, n in enumerate(order)})
        return out

    def _derive(self, key):
        """A component read into the shape the steps read (see below), for
        a key (kind, symbol) of `_Compiler`: a modality's successor positions
        in one pass over its pairs, from which a node's successor mask is
        built when a step first reads it. An absent comparison symbol reads
        as the identity partition, an absent modality or proposition as
        empty, and an unplaced nominal names the default node."""
        kind, sym = key
        order, pos = self._order()
        if kind == "g":
            return 1 << pos[self.node_of(sym)]
        if kind == "val":
            return sum(1 << pos[n] for n in self.val.get(sym, ()))
        if kind == "rels":
            succ = {}
            for n, m in self.rels.get(sym, ()):
                succ.setdefault(pos[n], []).append(pos[m])
            return _Successors(succ)
        class_of = self.cmp_class.get(sym)
        if class_of is None:
            # each node alone in its class: the endpoints of `true?`
            return _Test(~0)
        block = {}
        for n, c in class_of.items():
            block[c] = block.get(c, 0) | 1 << pos[n]
        return tuple(block[class_of[n]] for n in order)


# ---------------------------------------------------------------------------
# Satisfaction: one compiler serves model checking and countermodel search
# ---------------------------------------------------------------------------
#
# Bit x of a mask stands for the node at position x. A node expression's
# value is a mask of the nodes where it holds, and a path's value gives
# the endpoint mask of each start position x as `value[x]` (`_Test`,
# `_Jump`, `_Concat`, or a modality's successor masks). A model component is
# read into the same shapes: a nominal ("g") is one bit, a proposition
# ("val") a mask, a modality ("rels") the successor masks by start position
# (`_Successors`, or a tuple in the countermodel search), and a comparison
# symbol ("cmp_class") a tuple of class masks, the class of each node. Slot
# POINT holds the one-bit mask of the node a demand is checked at.

POINT = 0


class _Compiler:
    """Compiles demands into one straight-line program per level.

    A demand is "phi holds" or "phi fails" at the node in slot POINT. A
    level is one depth of the countermodel search, which fixes one model
    component there; `level_of` maps a component key (kind, symbol) to its
    level, and `point` is the level of slot POINT. An expression's level is
    the highest level of the slots it reads. The countermodel search puts
    the point at level 0. Model checking compiles two levels, model and
    point: it leaves `level_of` empty and puts the point at level 1, so
    level 0 computes what does not depend on the point, and `_run` runs
    it once per model and keeps its slots on the model.

    A component's slot of `env` is shared by its leaf expression (`Prop`,
    `Nominal`, `Atom`). Each distinct compound subexpression gets one slot
    and one step per need (below) at its level, placed after its children's
    steps, so it is computed once per assignment of that level. A step
    writes its slot and returns None; a demand's check step returns whether
    the demand holds, and a level stops at its first failed check. The steps
    capture slot numbers and masks only, never the compiler, so a program
    holds no reference cycle.

    A node expression is compiled at a need, the nodes where its value is
    read (`compile`); its mask is right at those nodes. A demand's need is
    its point, a slot and its level: `@i` moves it to i's node, `->` passes
    it down, `<a>phi` needs phi at the successors of its own need's nodes
    (`_Image`) and tests its need's nodes only, and a comparison reads its
    paths' endpoints from its need's nodes only. Need None is every node
    (`whole`, a test inside a path), and there `<a>phi` needs phi everywhere
    too. A need's mask gets a slot and a step the first time a step reads
    it (`_mask`). A step loops over its need's bits, so it costs O(needed
    nodes) mask operations.
    """

    def __init__(self, n_count, level_of=None, point=0):
        self.full = (1 << n_count) - 1
        self.level_of = level_of or {}
        self.point = POINT, point
        # component key, (need, expression) or a need -> (k, level)
        self.slot = {}
        self.components = {}     # component slot k -> component key
        self.size = POINT + 1    # slots in use
        self.programs = [[] for _ in range(
            max([point, *self.level_of.values()]) + 1)]

    def demand(self, phi, want):
        """Check at phi's level that phi holds at the point (want True) or
        fails there (want False)."""
        if not isinstance(phi, NodeExpr):
            raise TypeError(f"not a node expression: {phi!r}")
        point = self.point
        while isinstance(phi, At):
            point, phi = self.component("g", phi.nom), phi.body
        (k, t), (p, s) = self.compile(phi, point), point
        self.programs[max(s, t)].append(
            lambda env: bool(env[k] & env[p]) == want)

    def whole(self, phi):
        """phi's slot, computed over the whole model."""
        if not isinstance(phi, NodeExpr):
            raise TypeError(f"not a node expression: {phi!r}")
        return self.compile(phi)[0]

    def component(self, kind, sym):
        key = (kind, sym)
        out = self.slot.get(key)
        if out is None:
            out = self.slot[key] = (self.size, self.level_of.get(key, 0))
            self.components[self.size] = key
            self.size += 1
        return out

    def compile(self, e, need=None):
        """e's slot and level; its steps are placed the first time. A node
        expression is compiled at a need, a slot and its level, or None for
        every node: its mask is right at the need's bits and arbitrary at
        the others. Only the values of `->`, `<a>` and comparisons depend on
        the need; anything else (a path, `@i`, false) is compiled once, for
        any need."""
        if not isinstance(e, (Implies, Diamond, Compare)):
            need = None
        key = need, e
        out = self.slot.get(key)
        if out is None:
            out = self.slot[key] = self._build(e, need)
        return out

    def _place(self, step, level):
        """A new slot for `step` to write, run at `level`."""
        self.programs[level].append(step)
        self.size += 1
        return self.size - 1

    def _build(self, e, need):
        # every step below writes env[out]; `out` is bound after the match,
        # before any step runs
        full = self.full
        match e:
            case Prop(name=p):
                return self.component("val", p)
            case Nominal(name=i):
                return self.component("g", i)
            case Atom(mod=a):
                return self.component("rels", a)
            case Bottom():
                level = 0

                def step(env):
                    env[out] = 0
            case Implies(lhs=lhs, rhs=rhs):
                (f, s), (g, t) = (self.compile(lhs, need),
                                  self.compile(rhs, need))
                level = max(s, t)

                def step(env):
                    env[out] = full & ~env[f] | env[g]
            case At(nom=i, body=body):
                # only the body's bit at i's node is read
                (k, s) = point = self.component("g", i)
                f, t = self.compile(body, point)
                level = max(s, t)

                def step(env):
                    env[out] = full if env[f] & env[k] else 0
            case Diamond(mod=a, body=body):
                # tested at the need's nodes only, the diamond needs its body
                # at their successors (everywhere, if needed everywhere)
                (k, s), (f, t), (p, r) = (
                    self.component("rels", a),
                    self.compile(body, need and _Image(a, need)),
                    self._mask(need))
                level = max(s, t, r)

                def step(env):
                    succ, target, need, mask = env[k], env[f], env[p], 0
                    while need:
                        x = need.bit_length() - 1
                        bit = 1 << x
                        if succ[x] & target:
                            mask |= bit
                        need ^= bit
                    env[out] = mask
            case Compare(left=alpha, kind=kind, cmp=c, right=beta):
                (k, s), (f, t), (g, u), (p, r) = (
                    self.component("cmp_class", c), self.compile(alpha),
                    self.compile(beta), self._mask(need))
                level = max(s, t, u, r)
                holds = _meet if kind is CmpKind.EQ else _split

                def step(env):
                    classes, need, mask = env[k], env[p], 0
                    ends_a, ends_b = env[f], env[g]
                    while need:
                        x = need.bit_length() - 1
                        bit = 1 << x
                        if holds(ends_a[x], ends_b[x], classes):
                            mask |= bit
                        need ^= bit
                    env[out] = mask
            case Jump(nom=i):
                k, level = self.component("g", i)

                def step(env):
                    env[out] = _Jump(env[k])
            case Test(body=body):
                f, level = self.compile(body)

                def step(env):
                    env[out] = _Test(env[f])
            case Concat(left=left, right=right):
                (f, s), (g, t) = self.compile(left), self.compile(right)
                level = max(s, t)

                def step(env):
                    env[out] = _Concat(env[f], env[g])
            case _:
                raise TypeError(f"not an expression: {e!r}")
        out = self._place(step, level)
        return out, level

    def _mask(self, need):
        """The slot and level of the mask of a need's nodes, its step placed
        the first time a step reads it: the full mask for need None, or for
        `_Image(a, inner)` the union of a's successor masks over the nodes
        of the inner need."""
        if need is not None and not isinstance(need, _Image):
            return need
        out = self.slot.get(need)
        if out is None:
            if need is None:
                full, level = self.full, 0

                def step(env):
                    env[q] = full
            else:
                (k, s), (p, r) = (self.component("rels", need.mod),
                                  self._mask(need.need))
                level = max(s, r)

                def step(env):
                    env[q] = _image(env[k], env[p])
            q = self._place(step, level)
            out = self.slot[need] = q, level
        return out


@dataclass(frozen=True)
class _Image:
    """The need of a `<a>` body: the successors under `mod` of the nodes of
    the diamond's own need."""

    mod: str
    need: object


def _image(succ, mask):
    """The union of succ[x] over the bits x of the mask."""
    z = 0
    while mask:
        x = mask.bit_length() - 1
        z |= succ[x]
        mask ^= 1 << x
    return z


def _meet(x, y, classes):
    """Do the endpoint masks x and y meet a common class? `classes[t]` is
    the class mask of the node at position t; each class meeting x is
    visited once."""
    if not y:
        return False
    while x:
        cls = classes[(x & -x).bit_length() - 1]
        if cls & y:
            return True
        x &= ~cls
    return False


def _split(x, y, classes):
    """Are the endpoint masks x and y both non-empty, with their union
    meeting two classes?"""
    if not (x and y):
        return False
    u = x | y
    return bool(u & ~classes[(u & -u).bit_length() - 1])


class _Jump:
    """A jump's endpoints: the nominal's node, from every start."""

    __slots__ = ("mask",)

    def __init__(self, mask):
        self.mask = mask

    def __getitem__(self, x):
        return self.mask


class _Test:
    """A test's endpoints: the start itself where the body's mask holds."""

    __slots__ = ("here",)

    def __init__(self, here):
        self.here = here

    def __getitem__(self, x):
        return self.here & 1 << x


class _Successors(dict):
    """A modality's successor masks by start position, a start's built the
    first time a step reads it, from its successor positions."""

    __slots__ = ("positions",)

    def __init__(self, positions):
        self.positions = positions

    def __missing__(self, x):
        z = 0
        for y in self.positions.get(x, ()):
            z |= 1 << y
        self[x] = z
        return z


class _Concat(dict):
    """A concatenation's endpoints, a start's filled the first time a step
    reads it: the union of the right path's endpoint masks over the left
    path's endpoints."""

    __slots__ = ("left", "right")

    def __init__(self, left, right):
        self.left, self.right = left, right

    def __missing__(self, x):
        z = self[x] = _image(self.right, self.left[x])
        return z


def _passes(env, program):
    """Run one level's program; False at its first failed check."""
    for step in program:
        if step(env) is False:
            return False
    return True


# how many programs `_compiled` keeps, and how many level-0 runs a model keeps
_PROGRAMS = 16


@functools.lru_cache(maxsize=_PROGRAMS)
def _compiled(query, n_count):
    """The two-level program of a query on models of n_count nodes (level
    0 the model's steps, level 1 the point's), its component slots, and
    the slot of the query's value: the query is a tuple of (phi, want)
    demands checked at the point, or one node expression computed over the
    whole model, at level 0. Only these are kept, not the compiler."""
    compiler, out = _Compiler(n_count, point=1), None
    if isinstance(query, tuple):
        for phi, want in query:
            compiler.demand(phi, want)
    else:
        out = compiler.whole(query)
    return compiler.programs, compiler.components, out


def _run(model, query, n=None):
    """Run a query's program on the model with the point at node n; returns
    the filled slots (None if a level-0 check failed), whether every check
    passed, and the value's slot.

    An unknown node is refused before any step runs. Level 0 runs once per
    model and query, on the components of the query, each read from the
    model's `_derived` (derived there the first time). Its slots, or False
    if one of its checks failed, are kept in `_derived` under "runs" for
    the last `_PROGRAMS` queries, the oldest dropped: a plain dict, which
    holds no reference to the model. Compiling is deterministic, so a kept
    run fits the query's program even after `_compiled` compiled it again.
    A later call copies the kept slots, sets the point and runs level 1."""
    if n is not None:
        x = model._order()[1].get(n)
        if x is None:
            raise UnknownNode(f"unknown node {n!r}")
    (model_steps, point_steps), components, out = _compiled(
        query, len(model.nodes))
    derived = model._derived
    runs = derived.get("runs")
    if runs is None:
        runs = derived["runs"] = {}
    kept = runs.get(query)
    if kept is None:
        env = {}
        for k, key in components.items():
            value = derived.get(key)
            if value is None:
                value = derived[key] = model._derive(key)
            env[k] = value
        kept = runs[query] = _passes(env, model_steps) and env.copy()
        if len(runs) > _PROGRAMS:
            del runs[next(iter(runs))]
    elif kept is not False:
        env = kept.copy()
    if kept is False:
        return None, False, out
    if n is not None:
        env[POINT] = 1 << x
    return env, _passes(env, point_steps), out


def eval_node(model, n, phi):
    """M, n |= phi for a node expression in primitive form; UnknownNode for
    a node outside the model, TypeError if phi is not a node expression.
    Compiled once per query and node count, its model's steps run once per
    model; a call runs the point's steps at n (see the module docstring).
    """
    return _run(model, ((phi, True),), n)[1]


def satisfying_nodes(model, phi):
    """The frozenset of nodes where phi holds (global model checking); the
    same program cache as `eval_node`, without a point."""
    env, _, out = _run(model, phi)
    mask = env[out]
    # bin() lists the bits highest first; reversed, index x is bit x
    return frozenset(n for n, bit in zip(model._order()[0], bin(mask)[:1:-1])
                     if bit == "1")


def satisfies_set(model, n, exprs):
    """Does every member of `exprs` hold at n? One program serves all."""
    return _run(model, tuple((phi, True) for phi in exprs), n)[1]


def check_sequent_validity(model, seq):
    """True iff the model does not refute the sequent.

    Sequent members are node-independent (@-prefixed or atomic comparisons),
    so evaluation at an arbitrary fixed node suffices: the model refutes the
    sequent iff the demands "antecedent true" and "consequent false" all
    hold at the default node. One program serves every member.
    """
    demands = tuple((phi, True) for phi in seq.sorted_ante) + \
        tuple((phi, False) for phi in seq.sorted_cons)
    return not _run(model, demands, model.default_node)[1]


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
        """The data graph of the JSON object `d`; a malformed field is a
        `jsonio.DecodeError` that names its place (docs/formats.md). A
        well-formed node or edge is checked inline; only one that is not
        goes through the field checkers, which raise for its first fault."""
        nodes = _field(_object(d, "a data graph"), "nodes", list,
                       " of the graph")
        edges = _field(d, "edges", list, " of the graph", [])
        for t, nd in enumerate(nodes):
            if isinstance(nd, dict) and isinstance(nd.get("id"), str) \
                    and isinstance(labels := nd.get("labels", []), list) \
                    and all(isinstance(x, str) for x in labels) \
                    and isinstance(nd.get("index"), (str, type(None))) \
                    and isinstance(attrs := nd.get("attrs", {}), dict) \
                    and not any(isinstance(v, (list, dict))
                                for v in attrs.values()):
                continue
            where = f" of node {t}"
            _field(nd, "id", str, where)
            _entries(_field(nd, "labels", list, where, []), str,
                     f" of 'labels'{where}")
            _field(nd, "index", (str, type(None)), where, None)
            attrs = _field(nd, "attrs", dict, where, {})
            for attr, value in attrs.items():
                if isinstance(value, (list, dict)):
                    _field(attrs, attr, (str, int, float, type(None)),
                           f" of 'attrs'{where}")
        for t, edge in enumerate(edges):
            if isinstance(edge, dict) and isinstance(edge.get("from"), str) \
                    and isinstance(edge.get("label"), str) \
                    and isinstance(edge.get("to"), str):
                continue
            for key in ("from", "label", "to"):
                _field(edge, key, str, f" of edge {t}")
        return DataGraph(nodes=list(nodes), edges=list(edges))


def ingest_datagraph(dg):
    """Abstract a data graph into a hybrid data model.

    Propositions come from node labels, nominals from index labels, and each
    attribute c becomes the comparison relating nodes with equal c-values
    (closed under reflexivity; nodes lacking c, or whose c is null, sit in
    singleton classes). Values are equal as JSON values: 1 and 1.0 are one
    number, and a boolean equals no number, though Python's `True == 1`.
    """
    ids = _distinct([nd["id"] for nd in dg.nodes], "node id")
    indexed = [nd for nd in dg.nodes if nd.get("index") is not None]
    _distinct([nd["index"] for nd in indexed], "index label")
    g = {nd["index"]: nd["id"] for nd in indexed}

    val = {}
    by_attr_value = {}
    for nd in dg.nodes:
        nid = nd["id"]
        for label in nd.get("labels", []):
            val.setdefault(label, set()).add(nid)
        for attr, value in nd.get("attrs", {}).items():
            if value is not None:
                by_attr_value.setdefault(attr, {}).setdefault(
                    (type(value) is bool, value), set()).add(nid)

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
    """The model of the JSON object `d`. A malformed field is a
    `jsonio.DecodeError` that names its place (docs/formats.md); a node
    listed twice, or one that `nodes` does not list, is a ModelError."""
    def table(key, typ):
        out = _field(d, key, dict, " of the model", {})
        for k in out:
            _field(out, k, typ, f" of {key!r}")
        return out

    nodes = _field(_object(d, "a model"), "nodes", list, " of the model")
    _distinct(_entries(nodes, str, " of 'nodes'"), "node")
    rels, cmps, g, val = (table("rels", list), table("cmp", list),
                          table("g", str), table("val", list))
    for key, lists in (("rels", rels), ("cmp", cmps)):
        for k, entries in lists.items():
            where = f" of {k!r} of {key!r}"
            for t, v in enumerate(_entries(entries, list, where)):
                if key == "rels" and len(v) != 2:
                    raise DecodeError(f"entry {t}{where} is not a pair: "
                                      f"{_show(v)}")
                _entries(v, str, f" of entry {t}{where}")
    for p, names in val.items():
        _entries(names, str, f" of {p!r} of 'val'")
    return HybridDataModel.make(nodes, rels=rels, cmps=cmps, g=g, val=val)


def _distinct(names, what):
    """`names`, refused with a ModelError if one is listed twice."""
    for n, count in Counter(names).items():
        if count > 1:
            raise ModelError(f"duplicate {what} {n!r}")
    return names


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
                case Prop(name=p):
                    props.add(p)
                case Nominal(name=i) | Jump(nom=i) | At(nom=i):
                    noms.add(i)
                case Atom(mod=a) | Diamond(mod=a):
                    mods.add(a)
                case Compare(cmp=c):
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
    for assign in _placements(len(noms), nodes, 0):
        yield dict(zip(noms, assign))


def _placements(count, nodes, used):
    """Tuples of `count` nodes, each one of the first `used` nodes or the
    next one after them."""
    if count == 0:
        yield ()
        return
    for idx in range(min(used + 1, len(nodes))):
        for rest in _placements(count - 1, nodes, max(used, idx + 1)):
            yield (nodes[idx],) + rest


# Candidate models are bit masks over node positions 0..n-1 (position t is
# node "n{t+1}", and position 0 is the default node), in the component shapes
# the compiler reads.

MAX_COUNTERMODEL_NODES = 4   # 5 nodes would mean 2^25 relations per modality


@functools.cache
def _size_tables(n_count):
    """Per-size enumeration tables: nodes, valuations, relations, comparisons.

    Valuations and relations are listed as the node and pair subsets they
    stand for, by size and then lexicographically; comparisons in the order
    of `_partitions`, each as the class mask of each node.
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
    partitions = []
    for blocks in _partitions(list(positions)):
        classes = [0] * n_count
        for block in blocks:
            for x in block:
                classes[x] = sum(1 << y for y in block)
        partitions.append(tuple(classes))
    return nodes, valuations, tuple(relations), tuple(partitions)


def _extend(env, levels, t):
    """Depth-first backtrack over levels[t:]; True once all demands hold.

    Each level assigns one component's slot in `env` and runs its program,
    which checks the demands whose components are then all fixed, each at
    the default node (bit 0), and computes the subexpressions deeper levels
    read. A deeper level's stale slot is never read: a step only reads
    slots of its own level or shallower ones.
    """
    if t == len(levels):
        return True
    k, options, program = levels[t]
    for value in options:
        env[k] = value
        if _passes(env, program) and _extend(env, levels, t + 1):
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
    replaced, so the same model comes first. The refutation demands (each
    antecedent member true, each consequent member false, at the default
    node) are compiled once per size into one program per level
    (`_Compiler`), so each demand is checked at the level that fixes the
    last component it reads, and a compound subexpression is computed once
    per assignment of its level, not once per deeper candidate. `prove`
    verifies every returned model with `check_sequent_validity`, which runs
    the same steps on the model read back, at the model checker's two
    levels.
    """
    if not 1 <= max_nodes <= MAX_COUNTERMODEL_NODES:
        raise ValueError(f"max_nodes must be between 1 and "
                         f"{MAX_COUNTERMODEL_NODES}, not {max_nodes}")
    props, noms, mods, cmps = _signature(seq)
    # level 0 fixes g; level t >= 1 fixes the component symbols[t - 1]
    symbols = ([("cmp_class", c) for c in cmps] + [("rels", a) for a in mods]
               + [("val", p) for p in props])
    level_of = {("g", i): 0 for i in noms}
    level_of.update({key: t for t, key in enumerate(symbols, start=1)})
    # refutation demands: all of ante true, all of cons false
    demands = [(phi, True) for phi in seq.sorted_ante] + \
              [(phi, False) for phi in seq.sorted_cons]

    for n_count in range(1, max_nodes + 1):
        nodes, valuations, relations, partitions = _size_tables(n_count)
        compiler = _Compiler(n_count, level_of)
        for phi, want in demands:
            compiler.demand(phi, want)
        slot, programs = compiler.slot, compiler.programs
        env = [None] * compiler.size
        env[POINT] = 1      # the default node
        options = {"cmp_class": partitions, "rels": relations,
                   "val": valuations}
        levels = [(slot[key][0], options[key[0]], programs[t])
                  for t, key in enumerate(symbols, start=1)]
        for g in _g_assignments(noms, range(n_count)):
            for i, x in g.items():
                env[slot["g", i][0]] = 1 << x
            if _passes(env, programs[0]) and _extend(env, levels, 0):
                return _model_of(nodes, env, compiler.components, g)
    return None


def _model_of(nodes, env, components, g):
    """The HybridDataModel named by the bit-mask components in `env`."""
    def names(mask):
        return [n for x, n in enumerate(nodes) if mask >> x & 1]

    rels, cmps, val = {}, {}, {}
    for k, (kind, sym) in components.items():
        if kind == "rels":
            rels[sym] = [(n, m) for n, succ in zip(nodes, env[k])
                         for m in names(succ)]
        elif kind == "cmp_class":
            cmps[sym] = [names(cls) for cls in dict.fromkeys(env[k])]
        elif kind == "val":
            val[sym] = names(env[k])
    return HybridDataModel.make(nodes, rels=rels, cmps=cmps,
                                g={i: nodes[x] for i, x in g.items()}, val=val)
