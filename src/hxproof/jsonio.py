"""Stable JSON encodings for expressions, sequents and derivations.

Derivations are read and written in format 2, `{"format": 2, "exprs":
[...], "nodes": [...]}`: `exprs` lists each distinct expression once,
children first, as a row that names earlier rows by index, and `nodes`
lists the tree in post-order, each row naming its children by index. A
node states its conclusion only where the reader cannot recompute it from
its parent's conclusion, rule and instantiation. No JSON container nests
per derivation level, so a file of any height loads and writes. Reader and
writer refuse a table whose rows spell out to far more than the file holds
(MAX_EXPR_SIZE). Expressions and sequents are also written as nested
objects, tag + fields, for the CLI's output; `_ROWS` states the one layout
both forms follow. Canonical text sorts keys and sequent members, so
identical inputs produce byte-identical output.
"""

from __future__ import annotations

import json
import re
import reprlib
from json.encoder import encode_basestring_ascii as _escape
from typing import get_args

from . import syntax as sx
from .kernel import (
    METAVAR_KINDS, RULES, WL, WR, Derivation, KernelError, Sequent,
    ShapeViolation, freeze_inst, premises_of, sequent,
)


class DecodeError(ValueError):
    """JSON that does not encode an expression, sequent or derivation."""


_REPR = reprlib.Repr()


def _show(v):
    """`v` quoted for a DecodeError, cut short, so that a long or deeply
    nested value gives a short message rather than a RecursionError."""
    try:
        return _REPR.repr(v)
    except ValueError:                         # an int too long to print
        return f"a {type(v).__name__}"


def _field(d, key, typ=object):
    try:
        v = d[key]
    except (KeyError, TypeError):
        raise DecodeError(f"missing field {key!r}") from None
    if not isinstance(v, typ):
        raise DecodeError(f"field {key!r} is not a {typ.__name__}: {_show(v)}")
    return v


def _kind_value(v):
    if not isinstance(v, str) or v not in ("eq", "neq"):
        raise DecodeError(f"unknown comparison kind: {_show(v)}")
    return sx.CmpKind(v)


# ---------------------------------------------------------------------------
# Expressions: one layout, written as rows of format 2 or as nested objects
# ---------------------------------------------------------------------------

# tag -> (class, the JSON key and sort of each field, in the class's field
# order). A `name` is a string, a `kind` is "eq" or "neq", and a `node` or
# `path` is an expression of that sort: in format 2 the index of an earlier
# `exprs` row, in `node_to_json` a nested object.
_ROWS = {
    "prop": (sx.Prop, (("name", "name"),)),
    "nom": (sx.Nominal, (("name", "name"),)),
    "bot": (sx.Bottom, ()),
    "imp": (sx.Implies, (("lhs", "node"), ("rhs", "node"))),
    "at": (sx.At, (("nom", "name"), ("body", "node"))),
    "dia": (sx.Diamond, (("mod", "name"), ("body", "node"))),
    "cmp": (sx.Compare, (("left", "path"), ("kind", "kind"), ("cmp", "name"),
                         ("right", "path"))),
    "mod": (sx.Atom, (("name", "name"),)),
    "jump": (sx.Jump, (("nom", "name"),)),
    "test": (sx.Test, (("body", "node"),)),
    "concat": (sx.Concat, (("left", "path"), ("right", "path"))),
}
_SORT_CLASSES = {"node": get_args(sx.NodeExpr), "path": get_args(sx.PathExpr)}
# class -> (tag, attribute names, (JSON key, sort) of each field), for the
# writers
_LAYOUT = {cls: (tag, cls.__match_args__, fields)
           for tag, (cls, fields) in _ROWS.items()}

# Deeper expressions are refused, row by row, so that the layers that
# recurse once per expression level (the printer, shape checks,
# substitution, search, `node_to_json` and the writer's expression table)
# stay well inside the interpreter's default recursion limit. Derivation
# levels are walked over explicit stacks, and format 2 nests no JSON per
# level.
MAX_NESTING = 500


def node_to_json(e):
    """The nested object of the node or path expression `e`: its tag and
    each field under its JSON key. The CLI writes these objects (`parse
    --emit json`, `check`'s end-sequent); no reader reads them."""
    try:
        tag, attrs, fields = _LAYOUT[type(e)]
    except KeyError:
        raise TypeError(f"not an expression: {e!r}") from None
    out = {"tag": tag}
    for attr, (key, sort) in zip(attrs, fields):
        v = getattr(e, attr)
        out[key] = (node_to_json(v) if sort in _SORT_CLASSES
                    else v.value if sort == "kind" else v)
    return out


def sequent_to_json(s):
    """Members in print-key order."""
    return {"ante": [node_to_json(e) for e in s.sorted_ante],
            "cons": [node_to_json(e) for e in s.sorted_cons]}


# ---------------------------------------------------------------------------
# Derivation format 2: a flat node list over a shared expression table
# ---------------------------------------------------------------------------

FORMAT = 2

_WEAKENINGS = {WL: Sequent.drop_ante, WR: Sequent.drop_cons}


def _implied(conclusion, rule, inst, n):
    """The conclusions that a node's conclusion, rule and frozen
    instantiation imply for its `n` children: a logical rule's premisses
    (through the kernel's memo, which the checker then reads), the
    conclusion without phi for a weakening, and None for a child of a Cut,
    an Open leaf, an unknown rule or an instance that does not fit its
    rule."""
    if not n:
        return ()
    if rule in _WEAKENINGS:
        phi = dict(inst).get("phi")
        out = () if phi is None else (_WEAKENINGS[rule](conclusion, phi),)
    elif rule in RULES:
        try:
            out = premises_of(conclusion, rule, inst)
        except KernelError:
            out = ()
    else:
        return (None,) * n
    return (out + (None,) * n)[:n]


# Building an expression renders its print key in full, and a row names
# earlier rows, so a table of n rows could stand for a tree of 2^n nodes, or
# repeat a long name 2^n times. A row's size is what it spells out to: its
# nodes plus the characters of its names. Refused before anything is built:
# a row of more than MAX_EXPR_SIZE, and a file whose rows together spell out
# to more than TABLE_ALLOWANCE plus TABLE_FACTOR times the file's own size.
# A node row spells out to the sizes of the values its instantiation names,
# of which its premisses are built. The writer refuses what the reader would.
MAX_EXPR_SIZE = 20_000
TABLE_ALLOWANCE = 1_000_000
TABLE_FACTOR = 32


class EncodeError(ValueError):
    """A derivation past the limits that the reader enforces."""


def _check_row(t, size, depth, error):
    """Raise `error` for row `t` past MAX_NESTING or MAX_EXPR_SIZE."""
    if depth > MAX_NESTING:
        raise error(f"expression nested more than {MAX_NESTING} levels deep")
    if size > MAX_EXPR_SIZE:
        raise error(f"exprs row {t} spells out to more than {MAX_EXPR_SIZE} "
                    f"nodes and name characters")


class _Budget:
    """What the rows of one file spell out, against the file's own size: the
    fields of its rows, the characters of its `exprs` names and the members
    of its stated conclusions."""

    __slots__ = ("own", "spelt")

    def __init__(self):
        self.own = self.spelt = 0

    def charge(self, own, spelt, error):
        self.own += own
        self.spelt += spelt
        if self.spelt > TABLE_ALLOWANCE + TABLE_FACTOR * self.own:
            raise error(f"the rows spell out to more than {TABLE_ALLOWANCE:,} "
                        f"plus {TABLE_FACTOR} times the file's own size")


class _Table:
    """The `exprs` rows of one file: each distinct expression once, after
    the rows of its children, with their sizes and depths."""

    def __init__(self):
        self.rows = []
        self.index = {}
        self.sizes = []
        self.depths = []
        self.budget = _Budget()

    def ref(self, e):
        """The row index of `e`, adding its rows where they are missing. It
        recurses once per expression level, as the decoder bounds
        (MAX_NESTING)."""
        i = self.index.get(e)
        if i is None:
            tag, attrs, fields = _LAYOUT[type(e)]
            row, size, depth, chars = [tag], 1, 1, 0
            for attr, (_, sort) in zip(attrs, fields):
                v = getattr(e, attr)
                if sort in _SORT_CLASSES:
                    k = self.ref(v)
                    size += self.sizes[k]
                    depth = max(depth, 1 + self.depths[k])
                    row.append(k)
                elif sort == "kind":
                    row.append(v.value)
                else:
                    chars += len(v)
                    row.append(v)
            size += chars
            i = len(self.rows)
            _check_row(i, size, depth, EncodeError)
            self.budget.charge(len(row) + chars, size, EncodeError)
            self.index[e] = i
            self.rows.append(row)
            self.sizes.append(size)
            self.depths.append(depth)
        return i

    def inst(self, inst):
        """The `inst` object of a frozen instantiation (names as strings,
        comparison kinds as their values, expressions as row indices), and
        what its values spell out to."""
        out, spelt = {}, 0
        for key, v in inst:
            kind = METAVAR_KINDS[key]
            match kind:
                case "cmpkind" if isinstance(v, sx.CmpKind):
                    out[key] = v.value
                    spelt += 1
                case "path" | "node" if isinstance(v, _SORT_CLASSES[kind]):
                    out[key] = k = self.ref(v)
                    spelt += self.sizes[k]
                case "nominal" | "modality" | "comparison" if isinstance(v, str):
                    out[key] = v
                    spelt += len(v)
                case _:
                    raise TypeError(f"metavariable {key} holds {v!r}, "
                                    f"not a {kind}")
        return out, spelt

    def sequent(self, s):
        """A conclusion as two lists of row indices, members in print-key
        order."""
        return [[self.ref(e) for e in s.sorted_ante],
                [self.ref(e) for e in s.sorted_cons]]


def derivation_to_json(d):
    """The format-2 object of `d`: its nodes in post-order, each naming its
    children by index. A node states its `conclusion` only where its parent
    does not imply it (`_implied`): at the root, under a Cut, under a
    weakening whose formula was already present, and at any child that does
    not match its parent's premisses. The tree is walked over an explicit
    stack, so at any height."""
    table = _Table()
    nodes = []
    done = []                  # row indices of finished subtrees
    own = spelt = 0            # of the node rows, charged as the reader does
    stack = [(d, None, False)]
    while stack:
        node, implied, ready = stack.pop()
        n = len(node.children)
        if not ready:
            stack.append((node, implied, True))
            below = _implied(node.conclusion, node.rule, node.inst, n)
            stack += [(c, s, False) for c, s in zip(reversed(node.children),
                                                    reversed(below))]
            continue
        start = len(done) - n
        inst, cost = table.inst(node.inst)
        row = {"rule": node.rule, "inst": inst, "children": done[start:]}
        del done[start:]
        own += 1 + len(inst) + n
        spelt += cost
        if node.conclusion != implied:
            row["conclusion"] = table.sequent(node.conclusion)
            own += len(node.conclusion.ante) + len(node.conclusion.cons)
        done.append(len(nodes))
        nodes.append(row)
    table.budget.charge(own, spelt, EncodeError)
    return {"format": FORMAT, "exprs": table.rows, "nodes": nodes}


def _exprs(rows, budget):
    """The expressions of the `exprs` rows, in row order, and their sizes. A
    row may name only earlier rows, and is refused before it is built if it
    is nested more than MAX_NESTING levels deep, spells out to more than
    MAX_EXPR_SIZE, or takes the rows so far past their `budget`."""
    built, sizes, depths = [], [], []
    for t, row in enumerate(rows):
        if not isinstance(row, list) or not row or not isinstance(row[0], str):
            raise DecodeError(f"exprs row {t} is not a tagged list: {_show(row)}")
        try:
            cls, fields = _ROWS[row[0]]
        except KeyError:
            raise DecodeError(f"unknown expression tag: {_show(row[0])}") from None
        if len(row) != 1 + len(fields):
            raise DecodeError(f"exprs row {t} has {len(row) - 1} field(s); "
                              f"{_show(row[0])} takes {len(fields)}")
        values, size, depth, chars = [], 1, 1, 0
        for (_, sort), v in zip(fields, row[1:]):
            if sort == "name":
                if not isinstance(v, str):
                    raise DecodeError(f"exprs row {t} has a name that is not "
                                      f"a str: {_show(v)}")
                chars += len(v)
                values.append(v)
            elif sort == "kind":
                values.append(_kind_value(v))
            else:
                values.append(_ref(v, built, sort))
                size += sizes[v]
                depth = max(depth, 1 + depths[v])
        size += chars
        _check_row(t, size, depth, DecodeError)
        budget.charge(len(row) + chars, size, DecodeError)
        built.append(cls(*values))
        sizes.append(size)
        depths.append(depth)
    return built, sizes


def _ref(v, exprs, sort):
    """The expression of sort `sort` at row `v` of `exprs`."""
    if type(v) is not int or not 0 <= v < len(exprs):
        raise DecodeError(f"{_show(v)} does not name an earlier exprs row")
    e = exprs[v]
    if not isinstance(e, _SORT_CLASSES[sort]):
        raise DecodeError(f"exprs row {v} is not a {sort} expression")
    return e


def _inst(d, exprs, sizes):
    """The instantiation the format-2 `inst` object `d` encodes, as a dict,
    and what its values spell out to."""
    out, spelt = {}, 0
    for key, v in d.items():
        if not isinstance(key, str):
            raise DecodeError(f"metavariable is not a str: {_show(key)}")
        kind = METAVAR_KINDS.get(key)
        if kind is None:
            raise DecodeError(f"unknown metavariable: {_show(key)}")
        if kind in _SORT_CLASSES:
            out[key] = _ref(v, exprs, kind)
            spelt += sizes[v]
        elif kind == "cmpkind":
            out[key] = _kind_value(v)
            spelt += 1
        elif isinstance(v, str):
            out[key] = v
            spelt += len(v)
        else:
            raise DecodeError(f"metavariable {key} holds {_show(v)}, "
                              f"not a {kind} name")
    return out, spelt


def _sequent(v, exprs):
    """The sequent a format-2 `conclusion`, two lists of rows, encodes."""
    if not (isinstance(v, list) and len(v) == 2
            and all(isinstance(side, list) for side in v)):
        raise DecodeError(f"field 'conclusion' is not two lists: {_show(v)}")
    try:
        return sequent([_ref(t, exprs, "node") for t in v[0]],
                       [_ref(t, exprs, "node") for t in v[1]])
    except ShapeViolation as e:                # a member that is not restricted
        raise DecodeError(str(e)) from None


def derivation_from_json(d):
    """The derivation the format-2 object `d` encodes. The node rows must
    form a tree: each row's children are earlier rows, and every row but the
    last, the root, is the child of exactly one row. A row without a
    `conclusion` gets the one its parent implies, replayed from the root
    down, once the rows are within their budget (MAX_EXPR_SIZE)."""
    fmt = _field(d, "format")
    if type(fmt) is not int or fmt != FORMAT:
        raise DecodeError(f"unknown derivation format: {_show(fmt)}")
    budget = _Budget()
    exprs, sizes = _exprs(_field(d, "exprs", list), budget)
    rows = _field(d, "nodes", list)
    if not rows:
        raise DecodeError("a derivation needs at least one node")
    heads = []                 # (rule, frozen inst, kids, stated conclusion)
    parent = [None] * len(rows)
    own = spelt = 0
    for t, row in enumerate(rows):
        rule = _field(row, "rule", str)
        inst, cost = _inst(_field(row, "inst", dict), exprs, sizes)
        kids = _field(row, "children", list)
        own += 1 + len(inst) + len(kids)
        spelt += cost
        for c in kids:
            if type(c) is not int or not 0 <= c < t:
                raise DecodeError(f"node {t} names {_show(c)}, which is not "
                                  f"an earlier node")
            if parent[c] is not None:
                raise DecodeError(f"node {c} is named as a child twice, by "
                                  f"node {parent[c]} and node {t}")
            parent[c] = t
        stated = None
        if "conclusion" in row:
            stated = _sequent(row["conclusion"], exprs)
            own += len(row["conclusion"][0]) + len(row["conclusion"][1])
        heads.append((rule, freeze_inst(inst), kids, stated))
    budget.charge(own, spelt, DecodeError)
    if None in parent[:-1]:
        raise DecodeError(f"node {parent.index(None)} is not the child of a "
                          f"later node")
    if heads[-1][3] is None:
        raise DecodeError("missing field 'conclusion'")
    # parents come after their children, so a backward pass meets each
    # node's parent before the node
    conclusions = [None] * len(rows)
    for t in reversed(range(len(rows))):
        rule, inst, kids, stated = heads[t]
        conclusion = stated if stated is not None else conclusions[t]
        if conclusion is None:
            raise DecodeError(f"missing field 'conclusion', which the "
                              f"{_show(heads[parent[t]][0])} above does not "
                              f"imply")
        conclusions[t] = conclusion
        for c, s in zip(kids, _implied(conclusion, rule, inst, len(kids))):
            conclusions[c] = s
    built = []
    for (rule, inst, kids, _), conclusion in zip(heads, conclusions):
        built.append(Derivation(conclusion, rule, inst,
                                tuple(built[c] for c in kids)))
    return built[-1]


# ---------------------------------------------------------------------------
# Canonical text
# ---------------------------------------------------------------------------

_ITEM = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode

# a key as the C encoder writes one it turned from a number, a bool or None
# into a string; a str key can look the same, so a match is only a reason
# to look at the keys themselves
_CONVERTED_KEY = re.compile(r'[{,]"(?:-?[0-9][^"]*|true|false|null|NaN'
                            r'|-?Infinity)":')


def dumps_canonical(obj):
    """The canonical text of `obj`, ending in a newline. Every object's keys
    are sorted; an object that is not inside a list is written with one
    member per line, indented two spaces a level; a list is written with one
    item per line, each item as compact JSON (`json.dumps(item,
    sort_keys=True, separators=(",", ":"))`, the stdlib's C encoder). Keys
    must be `str`, or TypeError."""
    pieces = []
    _write(obj, "\n", pieces)
    pieces.append("\n")
    return "".join(pieces)


def _write(o, nl, pieces):
    """Append the text of `o` to `pieces`. `nl` is a newline followed by the
    indent of the line `o` starts on."""
    inner = nl + "  "
    if isinstance(o, dict) and o:
        sep = "{" + inner
        for key in sorted(o):
            pieces.append(sep + _escape(key) + ": ")
            _write(o[key], inner, pieces)
            sep = "," + inner
        pieces.append(nl + "}")
    elif isinstance(o, (list, tuple)) and o:
        items = ("," + inner).join(map(_ITEM, o))
        if _CONVERTED_KEY.search(items):
            _check_keys(o)
        pieces.append("[" + inner + items + nl + "]")
    else:
        pieces.append(_ITEM(o))


def _check_keys(o):
    """TypeError if an object inside `o` has a key that is not a str."""
    stack = [o]
    while stack:
        v = stack.pop()
        if isinstance(v, dict):
            for key in v:
                if not isinstance(key, str):
                    raise TypeError(f"keys must be str, not {_show(key)}")
            stack += v.values()
        elif isinstance(v, (list, tuple)):
            stack += v
