"""The format-2 codec as a generic loop over each row's fields, the
reference that `hxproof.jsonio`'s reader and writer are tested against.

`jsonio` reads and writes a row in one straight-line step per row shape;
here every row goes through one loop over its fields, as `_ROWS` lists
them, and every node row through `_field`. Both must give the same
expressions, the same rows and the same refusals, word for word.
"""

from hxproof import syntax as sx
from hxproof.jsonio import (
    FORMAT, MAX_EXPR_SIZE, MAX_NESTING, TABLE_ALLOWANCE, TABLE_FACTOR,
    _ROWS, _SORT_CLASSES, _SORT_OF, DecodeError, EncodeError,
    _budget_error, _field, _implied, _kind_value, _row_error, _show,
)
from hxproof.kernel import METAVAR_KINDS, Derivation, ShapeViolation, sequent

# tag -> (class, the sort of its expressions, the sort of each field)
_READ = {tag: (cls, _SORT_OF[cls], tuple(sort for _, sort in fields))
         for tag, (cls, fields) in _ROWS.items()}
# class -> (tag, (attribute name, sort) of each field)
_LAYOUT = {cls: (tag, tuple((attr, sort) for attr, (_, sort)
                            in zip(cls.__match_args__, fields)))
           for tag, (cls, fields) in _ROWS.items()}


def exprs(rows):
    """What `jsonio._exprs` returns for the `exprs` rows, or raises."""
    table = {"node": {}, "path": {}}
    own = spelt = 0
    for t, row in enumerate(rows):
        if not isinstance(row, list) or not row or not isinstance(row[0], str):
            raise DecodeError(f"exprs row {t} is not a tagged list: {_show(row)}")
        try:
            cls, sort, fields = _READ[row[0]]
        except KeyError:
            raise DecodeError(f"unknown expression tag: {_show(row[0])}") from None
        if len(row) != 1 + len(fields):
            raise DecodeError(f"exprs row {t} has {len(row) - 1} field(s); "
                              f"{_show(row[0])} takes {len(fields)}")
        values, size, depth, chars = [], 1, 1, 0
        for field, v in zip(fields, row[1:]):
            if field == "name":
                if not isinstance(v, str):
                    raise DecodeError(f"exprs row {t} has a name that is not "
                                      f"a str: {_show(v)}")
                chars += len(v)
            elif field == "kind":
                v = _kind_value(v)
            else:
                v, below, deep = lookup(table, t, v, field)
                size += below
                if deep >= depth:
                    depth = deep + 1
            values.append(v)
        size += chars
        if depth > MAX_NESTING or size > MAX_EXPR_SIZE:
            raise _row_error(t, size, depth, DecodeError)
        own += len(row) + chars
        spelt += size
        if spelt > TABLE_ALLOWANCE + TABLE_FACTOR * own:
            raise _budget_error(DecodeError)
        table[sort][t] = (cls(*values), size, depth)
    return table, own, spelt


def lookup(table, count, v, sort):
    """The (expression, size, depth) of row `v` of `table`, whose first
    `count` rows are built; the row must hold an expression of `sort`."""
    got = table[sort].get(v) if type(v) is int else None
    if got is None:
        if type(v) is not int or not 0 <= v < count:
            raise DecodeError(f"{_show(v)} does not name an earlier exprs row")
        raise DecodeError(f"exprs row {v} is not a {sort} expression")
    return got


def inst(d, table, count):
    """What `jsonio._inst` returns for the `inst` object `d`, or raises."""
    pairs, spelt = [], 0
    for key, v in d.items():
        if not isinstance(key, str):
            raise DecodeError(f"metavariable is not a str: {_show(key)}")
        kind = METAVAR_KINDS.get(key)
        if kind is None:
            raise DecodeError(f"unknown metavariable: {_show(key)}")
        if kind in table:
            e, size, _ = lookup(table, count, v, kind)
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
    if not (isinstance(v, list) and len(v) == 2
            and all(isinstance(side, list) for side in v)):
        raise DecodeError(f"field 'conclusion' is not two lists: {_show(v)}")
    try:
        return sequent([lookup(table, count, t, "node")[0] for t in v[0]],
                       [lookup(table, count, t, "node")[0] for t in v[1]])
    except ShapeViolation as e:
        raise DecodeError(str(e)) from None


def derivation_from_json(d):
    """What `jsonio.derivation_from_json` returns for `d`, or raises."""
    if not isinstance(d, dict):
        raise DecodeError("a derivation is a JSON object, not " + {
            int: "an int", type(None): "null"}.get(
                type(d), f"a {type(d).__name__}"))
    fmt = _field(d, "format")
    if type(fmt) is not int or fmt != FORMAT:
        raise DecodeError(f"unknown derivation format: {_show(fmt)}")
    rows = _field(d, "exprs", list)
    table, own, spelt = exprs(rows)
    count = len(rows)
    rows = _field(d, "nodes", list)
    if not rows:
        raise DecodeError("a derivation needs at least one node")
    heads, parent = [], [None] * len(rows)
    for t, row in enumerate(rows):
        rule = _field(row, "rule", str)
        frozen, cost = inst(_field(row, "inst", dict), table, count)
        kids = _field(row, "children", list)
        own += 1 + len(frozen) + len(kids)
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
        heads.append((rule, frozen, kids, stated))
    if spelt > TABLE_ALLOWANCE + TABLE_FACTOR * own:
        raise _budget_error(DecodeError)
    if None in parent[:-1]:
        raise DecodeError(f"node {parent.index(None)} is not the child of a "
                          f"later node")
    if heads[-1][3] is None:
        raise DecodeError("missing field 'conclusion'")
    conclusions = [None] * len(rows)
    for t in reversed(range(len(rows))):
        rule, frozen, kids, stated = heads[t]
        conclusion = stated if stated is not None else conclusions[t]
        if conclusion is None:
            raise DecodeError(f"missing field 'conclusion', which the "
                              f"{_show(heads[parent[t]][0])} above does not "
                              f"imply")
        conclusions[t] = conclusion
        for c, s in zip(kids, _implied(conclusion, rule, frozen, len(kids))):
            conclusions[c] = s
    built = []
    for (rule, frozen, kids, _), conclusion in zip(heads, conclusions):
        built.append(Derivation(conclusion, rule, frozen,
                                tuple(built[c] for c in kids)))
    return built[-1]


class Table:
    """What `jsonio._Table` builds: the `exprs` rows of one file."""

    def __init__(self):
        self.rows = []
        self.index = {}        # expression -> (row index, size, depth)
        self.own = self.spelt = 0

    def add(self, e):
        tag, fields = _LAYOUT[type(e)]
        row, size, depth, chars = [tag], 1, 1, 0
        for attr, sort in fields:
            v = getattr(e, attr)
            if sort == "name":
                chars += len(v)
            elif sort == "kind":
                v = v.value
            else:
                v, below, deep = self.index.get(v) or self.add(v)
                size += below
                if deep >= depth:
                    depth = deep + 1
            row.append(v)
        size += chars
        i = len(self.rows)
        if depth > MAX_NESTING or size > MAX_EXPR_SIZE:
            raise _row_error(i, size, depth, EncodeError)
        self.own += len(row) + chars
        self.spelt += size
        if self.spelt > TABLE_ALLOWANCE + TABLE_FACTOR * self.own:
            raise _budget_error(EncodeError)
        self.rows.append(row)
        self.index[e] = got = (i, size, depth)
        return got

    def refs(self, es):
        return [(self.index.get(e) or self.add(e))[0] for e in es]

    def inst(self, frozen):
        out, spelt = {}, 0
        for key, v in frozen:
            kind = METAVAR_KINDS[key]
            match kind:
                case "cmpkind" if isinstance(v, sx.CmpKind):
                    out[key] = v.value
                    spelt += 1
                case "path" | "node" if isinstance(v, _SORT_CLASSES[kind]):
                    out[key], below, _ = self.index.get(v) or self.add(v)
                    spelt += below
                case "nominal" | "modality" | "comparison" if isinstance(v, str):
                    out[key] = v
                    spelt += len(v)
                case _:
                    raise TypeError(f"metavariable {key} holds {v!r}, "
                                    f"not a {kind}")
        return out, spelt


def derivation_to_json(d):
    """What `jsonio.derivation_to_json` returns for `d`, or raises."""
    order, stack = [], [(d, None)]
    while stack:
        node, implied = stack.pop()
        order.append((node, implied))
        if node.children:
            stack += zip(node.children, _implied(
                node.conclusion, node.rule, node.inst, len(node.children)))
    table, nodes, done = Table(), [], []
    own = spelt = 0
    for node, implied in reversed(order):
        n = len(node.children)
        start = len(done) - n
        frozen, cost = table.inst(node.inst)
        row = {"rule": node.rule, "inst": frozen, "children": done[start:]}
        del done[start:]
        own += 1 + len(frozen) + n
        spelt += cost
        conclusion = node.conclusion
        if conclusion is not implied and conclusion != implied:
            row["conclusion"] = [table.refs(conclusion.sorted_ante),
                                 table.refs(conclusion.sorted_cons)]
            own += len(conclusion.ante) + len(conclusion.cons)
        done.append(len(nodes))
        nodes.append(row)
    own += table.own
    spelt += table.spelt
    if spelt > TABLE_ALLOWANCE + TABLE_FACTOR * own:
        raise _budget_error(EncodeError)
    return {"format": FORMAT, "exprs": table.rows, "nodes": nodes}
