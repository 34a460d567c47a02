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
both forms follow. The format-2 reader and writer group its tags into six
shapes by the sorts of a row's fields (`_SHAPES`) and take one
straight-line step per shape. Canonical text sorts keys and sequent
members, so identical inputs produce byte-identical output.
"""

from __future__ import annotations

import json
import re
import reprlib
from json.encoder import c_make_encoder
from json.encoder import encode_basestring_ascii as _escape
from operator import attrgetter
from typing import get_args

from . import syntax as sx
from .kernel import (
    METAVAR_KINDS, RULES, WL, WR, Derivation, KernelError, Sequent,
    ShapeViolation, premises_of, sequent,
)


class DecodeError(ValueError):
    """JSON that does not encode a derivation, model or data graph."""


_REPR = reprlib.Repr()


def _show(v):
    """`v` quoted for a DecodeError, cut short, so that a long or deeply
    nested value gives a short message rather than a RecursionError."""
    try:
        return _REPR.repr(v)
    except ValueError:                         # an int too long to print
        return f"a {type(v).__name__}"


def _field(d, key, typ=object, where="", default=...):
    """Field `key` of an object, or entry `key` of a list, checked to be a
    `typ` (a class or a tuple of them); `where` places `d` in its file
    (" of node 0"), and a left-out field with a `default` reads as that."""
    try:
        v = d[key]
    except (KeyError, TypeError):
        if default is ...:
            raise DecodeError(f"missing field {key!r}{where}") from None
        return default
    if not isinstance(v, typ):
        name = f"field {key!r}" if isinstance(key, str) else f"entry {key}"
        kind = " or ".join("null" if t is type(None) else t.__name__
                           for t in (typ if isinstance(typ, tuple) else (typ,)))
        raise DecodeError(f"{name}{where} is not a {kind}: {_show(v)}")
    return v


def _object(d, what):
    """`d`, refused unless it is a JSON object: the top level of a file,
    `what` naming its kind ("a model")."""
    if not isinstance(d, dict):
        raise DecodeError(f"{what} is a JSON object, not " + {
            int: "an int", type(None): "null"}.get(
                type(d), f"a {type(d).__name__}"))
    return d


def _entries(v, typ, where):
    """The list `v`, each entry checked by `_field` to be a `typ`."""
    for t, x in enumerate(v):
        if not isinstance(x, typ):
            _field(v, t, typ, where)
    return v


_KINDS = {kind.value: kind for kind in sx.CmpKind}


def _kind_value(v):
    kind = _KINDS.get(v) if isinstance(v, str) else None
    if kind is None:
        raise DecodeError(f"unknown comparison kind: {_show(v)}")
    return kind


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
# class -> the sort of its expressions
_SORT_OF = {cls: sort for sort, classes in _SORT_CLASSES.items()
            for cls in classes}
# the six row shapes: field sorts, a child row's as "row" (others fail)
_SHAPES = _NAME, _NAME_CHILD, _TWO, _ONE, _CMP, _BARE = (
    ("name",), ("name", "row"), ("row", "row"), ("row",),
    ("row", "kind", "name", "row"), ())
# tag -> (class, sort, shape, the sort of its child rows), for the reader
_READ = {tag: (cls, _SORT_OF[cls], _SHAPES[_SHAPES.index(tuple(
    "row" if s in _SORT_CLASSES else s for _, s in fields))],
    *({s for _, s in fields if s in _SORT_CLASSES} or {None}))
    for tag, (cls, fields) in _ROWS.items()}
# class -> (tag, shape, the getter of its fields), for the writer
_WRITE = {cls: (tag, shape, cls.__match_args__
                and attrgetter(*cls.__match_args__))
          for tag, (cls, _, shape, _) in _READ.items()}

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
        tag, _, _ = _WRITE[type(e)]
    except KeyError:
        raise TypeError(f"not an expression: {e!r}") from None
    out = {"tag": tag}
    for attr, (key, sort) in zip(type(e).__match_args__, _ROWS[tag][1]):
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


def _row_error(t, size, depth, error):
    """The `error` for row `t`, nested more than MAX_NESTING levels deep or
    spelling out to more than MAX_EXPR_SIZE. Reader and writer test both
    bounds inline, once per row, and call this only past one."""
    if depth > MAX_NESTING:
        return error(f"expression nested more than {MAX_NESTING} levels deep")
    return error(f"exprs row {t} spells out to more than {MAX_EXPR_SIZE} "
                 f"nodes and name characters")


def _budget_error(error):
    """The `error` for rows that spell out to more than TABLE_ALLOWANCE plus
    TABLE_FACTOR times the file's own size: the fields of its rows, the
    characters of its `exprs` names and the members of its stated
    conclusions. Reader and writer test the budget inline after each
    `exprs` row and once more after the node rows."""
    return error(f"the rows spell out to more than {TABLE_ALLOWANCE:,} "
                 f"plus {TABLE_FACTOR} times the file's own size")


# (metavariable, class) -> how the writer writes a value of the class or of
# a subclass: "row" (its row index), "cmpkind" (its value) or a name (itself)
_INST_AS = {(key, cls): "row" if kind in _SORT_CLASSES else kind
            for key, kind in METAVAR_KINDS.items() for cls in _SORT_CLASSES.get(
                kind, (sx.CmpKind if kind == "cmpkind" else str,))}


class _Table:
    """The `exprs` rows of one file: each distinct expression once, after
    the rows of its children, and what the rows spell out (`spelt`) against
    their own size (`own`)."""

    def __init__(self):
        self.rows = []
        self.index = {}        # expression -> (row index, size, depth)
        self.own = self.spelt = 0

    def add(self, e):
        """The (row index, size, depth) of `e`, which has no row yet, after
        adding the rows of its children that have none. It recurses once per
        expression level of new rows, as the decoder bounds (MAX_NESTING)."""
        tag, shape, get = _WRITE[type(e)]
        index = self.index
        size = depth = below = deep = chars = 0
        if shape is _NAME_CHILD:
            name, v = get(e)
            k, size, depth = index.get(v) or self.add(v)
            row, chars = [tag, name, k], len(name)
        elif shape is _NAME:
            row, chars = [tag, name := get(e)], len(name)
        elif shape is _CMP:
            v, kind, name, w = get(e)
            k, size, depth = index.get(v) or self.add(v)
            m, below, deep = index.get(w) or self.add(w)
            row, chars = [tag, k, kind.value, name, m], len(name)
        elif shape is _TWO:
            v, w = get(e)
            k, size, depth = index.get(v) or self.add(v)
            m, below, deep = index.get(w) or self.add(w)
            row = [tag, k, m]
        elif shape is _ONE:
            k, size, depth = index.get(v := get(e)) or self.add(v)
            row = [tag, k]
        else:
            row = [tag]
        size += below + 1 + chars
        depth = (depth if depth > deep else deep) + 1
        i = len(self.rows)
        if depth > MAX_NESTING or size > MAX_EXPR_SIZE:
            raise _row_error(i, size, depth, EncodeError)
        self.own += len(row) + chars
        self.spelt += size
        if self.spelt > TABLE_ALLOWANCE + TABLE_FACTOR * self.own:
            raise _budget_error(EncodeError)
        self.rows.append(row)
        index[e] = got = (i, size, depth)
        return got

    def inst(self, inst):
        """The `inst` object of a frozen instantiation (names as strings,
        comparison kinds as their values, expressions as row indices), and
        what its values spell out to."""
        out, spelt = {}, 0
        for key, v in inst:
            how = _INST_AS.get((key, type(v))) or next(filter(None, (
                _INST_AS.get((key, cls)) for cls in type(v).__mro__)), None)
            if how is None:
                raise TypeError(f"metavariable {key} holds {v!r}, "
                                f"not a {METAVAR_KINDS[key]}")
            if how == "row":
                out[key], below, _ = self.index.get(v) or self.add(v)
                spelt += below
            elif how == "cmpkind":
                out[key] = v.value
                spelt += 1
            else:
                out[key] = v
                spelt += len(v)
        return out, spelt


def derivation_to_json(d):
    """The format-2 object of `d`: its nodes in post-order, each naming its
    children by index. A node states its `conclusion` only where its parent
    does not imply it (`_implied`): at the root, under a Cut, under a
    weakening whose formula was already present, and at any child that does
    not match its parent's premisses. The tree is walked over an explicit
    stack, so at any height."""
    # each node before its children, and a node's last child first: read
    # backwards, this is the order of the node rows, children in order
    order = []                 # (node, the conclusion its parent implies)
    stack = [(d, None)]
    while stack:
        node, implied = stack.pop()
        order.append((node, implied))
        kids = node.children
        if kids:
            stack += zip(kids, _implied(node.conclusion, node.rule, node.inst,
                                        len(kids)))
    table = _Table()
    index, add = table.index, table.add
    nodes = []
    done = []                  # row indices of finished subtrees
    own = spelt = 0            # of the node rows, charged as the reader does
    for node, implied in reversed(order):
        n = len(node.children)
        start = len(done) - n
        inst, cost = table.inst(node.inst)
        row = {"rule": node.rule, "inst": inst, "children": done[start:]}
        del done[start:]
        own += 1 + len(inst) + n
        spelt += cost
        conclusion = node.conclusion
        if conclusion is not implied and conclusion != implied:
            row["conclusion"] = [[(index.get(e) or add(e))[0] for e in side]
                                 for side in (conclusion.sorted_ante,
                                              conclusion.sorted_cons)]
            own += len(conclusion.ante) + len(conclusion.cons)
        done.append(len(nodes))
        nodes.append(row)
    own += table.own
    spelt += table.spelt
    if spelt > TABLE_ALLOWANCE + TABLE_FACTOR * own:
        raise _budget_error(EncodeError)
    return {"format": FORMAT, "exprs": table.rows, "nodes": nodes}


def _exprs(rows):
    """The expressions of the `exprs` rows by sort, as {"node": {row index:
    (expression, size, depth)}, "path": {...}}, and what the rows spell out
    (`spelt`) against their own size (`own`). A row may name only earlier
    rows, each of the sort its field takes, and is refused before it is
    built if it is nested more than MAX_NESTING levels deep, spells out to
    more than MAX_EXPR_SIZE, or takes the rows so far past the file's
    budget."""
    table = {"node": {}, "path": {}}
    own = spelt = 0
    for t, row in enumerate(rows):
        if not isinstance(row, list) or not row or not isinstance(row[0], str):
            raise DecodeError(f"exprs row {t} is not a tagged list: {_show(row)}")
        try:
            cls, sort, shape, sub = _READ[row[0]]
        except KeyError:
            raise DecodeError(f"unknown expression tag: {_show(row[0])}") from None
        if len(row) != 1 + len(shape):
            raise DecodeError(f"exprs row {t} has {len(row) - 1} field(s); "
                              f"{_show(row[0])} takes {len(shape)}")
        # child row v is `type(v) is int and kin.get(v)`, or `_no_row` raises
        fields, size, depth, below, deep, chars = (), 0, 0, 0, 0, 0
        kin = table.get(sub)
        if shape is _NAME_CHILD:
            _, name, v = row
            if not isinstance(name, str):
                raise _name_error(t, name)
            body, size, depth = type(v) is int and kin.get(v) or _no_row(v, t, sub)
            fields, chars = (name, body), len(name)
        elif shape is _NAME:
            name = row[1]
            if not isinstance(name, str):
                raise _name_error(t, name)
            fields, chars = (name,), len(name)
        elif shape is _CMP:
            _, v, kind, name, w = row
            left, size, depth = type(v) is int and kin.get(v) or _no_row(v, t, sub)
            kind = _kind_value(kind)
            if not isinstance(name, str):
                raise _name_error(t, name)
            right, below, deep = type(w) is int and kin.get(w) or _no_row(w, t, sub)
            fields, chars = (left, kind, name, right), len(name)
        elif shape is _TWO:
            _, v, w = row
            left, size, depth = type(v) is int and kin.get(v) or _no_row(v, t, sub)
            right, below, deep = type(w) is int and kin.get(w) or _no_row(w, t, sub)
            fields = left, right
        elif shape is _ONE:
            v = row[1]
            body, size, depth = type(v) is int and kin.get(v) or _no_row(v, t, sub)
            fields = (body,)
        size += below + 1 + chars
        depth = (depth if depth > deep else deep) + 1
        if depth > MAX_NESTING or size > MAX_EXPR_SIZE:
            raise _row_error(t, size, depth, DecodeError)
        own += len(row) + chars
        spelt += size
        if spelt > TABLE_ALLOWANCE + TABLE_FACTOR * own:
            raise _budget_error(DecodeError)
        table[sort][t] = (cls(*fields), size, depth)
    return table, own, spelt


def _name_error(t, v):
    return DecodeError(f"exprs row {t} has a name that is not a str: {_show(v)}")


def _no_row(v, count, sort):
    """Raise for `v`, not one of the first `count` rows holding a `sort`."""
    if type(v) is not int or not 0 <= v < count:
        raise DecodeError(f"{_show(v)} does not name an earlier exprs row")
    raise DecodeError(f"exprs row {v} is not a {sort} expression")


def _inst(d, table, count):
    """The frozen instantiation that the format-2 `inst` object `d` encodes,
    and what its values spell out to."""
    pairs, spelt = [], 0
    for key, v in d.items():
        kind = METAVAR_KINDS.get(key)
        if kind is None:
            if not isinstance(key, str):
                raise DecodeError(f"metavariable is not a str: {_show(key)}")
            raise DecodeError(f"unknown metavariable: {_show(key)}")
        rows = table.get(kind)
        if rows is not None:
            e, size, _ = type(v) is int and rows.get(v) \
                or _no_row(v, count, kind)
            pairs.append((key, e))
            spelt += size
        elif kind == "cmpkind":
            pairs.append((key, _kind_value(v)))
            spelt += 1
        elif isinstance(v, str):
            pairs.append((key, v))
            spelt += len(v)
        else:
            raise DecodeError(f"metavariable {key} holds {_show(v)}, "
                              f"not a {kind} name")
    pairs.sort()
    return tuple(pairs), spelt


def _sequent(v, table, count):
    """The sequent a format-2 `conclusion`, two lists of rows, encodes."""
    if not (isinstance(v, list) and len(v) == 2
            and all(isinstance(side, list) for side in v)):
        raise DecodeError(f"field 'conclusion' is not two lists: {_show(v)}")
    try:
        return sequent(*([(type(t) is int and table["node"].get(t) or _no_row(
            t, count, "node"))[0] for t in side] for side in v))
    except ShapeViolation as e:                # a member that is not restricted
        raise DecodeError(str(e)) from None


def derivation_from_json(d):
    """The derivation the format-2 object `d` encodes. The node rows must
    form a tree: each row's children are earlier rows, and every row but the
    last, the root, is the child of exactly one row. A row without a
    `conclusion` gets the one its parent implies, replayed from the root
    down, once the rows are within their budget (MAX_EXPR_SIZE)."""
    fmt = _field(_object(d, "a derivation"), "format")
    if type(fmt) is not int or fmt != FORMAT:
        raise DecodeError(f"unknown derivation format: {_show(fmt)}")
    exprs = _field(d, "exprs", list)
    table, own, spelt = _exprs(exprs)
    count = len(exprs)
    rows = _field(d, "nodes", list)
    if not rows:
        raise DecodeError("a derivation needs at least one node")
    heads = []                 # (rule, frozen inst, kids, stated conclusion)
    parent = [None] * len(rows)
    for t, row in enumerate(rows):
        try:
            rule, inst, kids = row["rule"], row["inst"], row["children"]
        except (KeyError, TypeError):
            rule = None
        if not (isinstance(rule, str) and isinstance(inst, dict)
                and isinstance(kids, list)):
            _field(row, "rule", str)       # raises, as read in this order
            _inst(_field(row, "inst", dict), table, count)
            _field(row, "children", list)
        inst, cost = _inst(inst, table, count)
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
            stated = _sequent(row["conclusion"], table, count)
            own += len(row["conclusion"][0]) + len(row["conclusion"][1])
        heads.append((rule, inst, kids, stated))
    if spelt > TABLE_ALLOWANCE + TABLE_FACTOR * own:
        raise _budget_error(DecodeError)
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
                                tuple([built[c] for c in kids])))
    return built[-1]


# ---------------------------------------------------------------------------
# Canonical text
# ---------------------------------------------------------------------------

# a key as the C encoder writes one it turned from a number, a bool or None
# into a string; a str key can look the same, so a match is only a reason
# to look at the keys themselves
_CONVERTED_KEY = re.compile(r'[{,]"(?:-?[0-9][^"]*|true|false|null|NaN'
                            r'|-?Infinity)":')
_DEFAULT = json.JSONEncoder().default


def dumps_canonical(obj):
    """The canonical text of `obj`, ending in a newline. Every object's keys
    are sorted; an object that is not inside a list is written with one
    member per line, indented two spaces a level; a list is written with one
    item per line, each item as compact JSON (`json.dumps(item,
    sort_keys=True, separators=(",", ":"))`). One call builds the stdlib's C
    encoder once, with the arguments that `json.dumps` gives it for those
    options, and writes every item through it. Keys must be `str`, or
    TypeError."""
    # markers, default, string escape, indent, key separator, item
    # separator, sort_keys, skipkeys, allow_nan; the markers dict is this
    # call's record of the containers open (check_circular)
    encode = c_make_encoder({}, _DEFAULT, _escape, None, ":", ",", True,
                            False, True)
    pieces = []
    _write(obj, "\n", pieces, encode)
    pieces.append("\n")
    return "".join(pieces)


def _write(o, nl, pieces, encode):
    """Append the text of `o` to `pieces`, items of lists through `encode`.
    `nl` is a newline followed by the indent of the line `o` starts on."""
    inner = nl + "  "
    if isinstance(o, dict) and o:
        sep = "{" + inner
        for key in sorted(o):
            pieces.append(sep + _escape(key) + ": ")
            _write(o[key], inner, pieces, encode)
            sep = "," + inner
        pieces.append(nl + "}")
    elif isinstance(o, (list, tuple)) and o:
        items = ("," + inner).join(["".join(encode(item, 0)) for item in o])
        # text without a "{" holds no object, so no key to look at
        if "{" in items and _CONVERTED_KEY.search(items):
            _check_keys(o)
        pieces.append("[" + inner + items + nl + "]")
    else:
        pieces.append("".join(encode(o, 0)))


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
