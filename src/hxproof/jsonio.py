"""Stable JSON encodings for ASTs, sequents, derivations, and models.

The AST schema is tag + children; canonical dumps sort keys and sequent
members so identical inputs always produce byte-identical output.
"""

from __future__ import annotations

import json
import marshal
import reprlib
from json.encoder import encode_basestring_ascii as _escape

from . import syntax as sx
from .kernel import (
    METAVAR_KINDS, Derivation, ShapeViolation, freeze_inst, principal_exprs,
    sequent,
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


def _name(d, key):
    return _field(d, key, str)


def _cmpkind(d, key="kind"):
    value = _name(d, key)
    try:
        return sx.CmpKind(value)
    except ValueError:
        raise DecodeError(f"unknown comparison kind: {_show(value)}") from None


def node_to_json(e):
    match e:
        case sx.Prop(name):
            return {"tag": "prop", "name": name}
        case sx.Nominal(name):
            return {"tag": "nom", "name": name}
        case sx.Bottom():
            return {"tag": "bot"}
        case sx.Implies(lhs, rhs):
            return {"tag": "imp", "lhs": node_to_json(lhs), "rhs": node_to_json(rhs)}
        case sx.At(nom, body):
            return {"tag": "at", "nom": nom, "body": node_to_json(body)}
        case sx.Diamond(mod, body):
            return {"tag": "dia", "mod": mod, "body": node_to_json(body)}
        case sx.Compare(left, kind, cmp_sym, right):
            return {"tag": "cmp", "left": path_to_json(left), "kind": kind.value,
                    "cmp": cmp_sym, "right": path_to_json(right)}
    raise TypeError(f"not a node expression: {e!r}")


# Deeper expressions are refused, so that the layers that still recurse over
# an expression (shape checks, substitution, encoding, the canonical writer)
# stay well inside the interpreter's default recursion limit.
MAX_NESTING = 500


def node_from_json(d):
    return _node(d, MAX_NESTING)


def _node(d, room):
    """The node expression `d` encodes, at most `room` levels deep."""
    if room <= 0:
        raise DecodeError(f"expression nested more than {MAX_NESTING} levels deep")
    room -= 1
    match _field(d, "tag"):
        case "prop":
            return sx.Prop(_name(d, "name"))
        case "nom":
            return sx.Nominal(_name(d, "name"))
        case "bot":
            return sx.BOT
        case "imp":
            return sx.Implies(_node(_field(d, "lhs"), room),
                              _node(_field(d, "rhs"), room))
        case "at":
            return sx.At(_name(d, "nom"), _node(_field(d, "body"), room))
        case "dia":
            return sx.Diamond(_name(d, "mod"), _node(_field(d, "body"), room))
        case "cmp":
            return sx.Compare(_path(_field(d, "left"), room), _cmpkind(d),
                              _name(d, "cmp"), _path(_field(d, "right"), room))
    raise DecodeError(f"unknown node tag: {_show(d['tag'])}")


def path_to_json(p):
    match p:
        case sx.Atom(mod):
            return {"tag": "mod", "name": mod}
        case sx.Jump(nom):
            return {"tag": "jump", "nom": nom}
        case sx.Test(body):
            return {"tag": "test", "body": node_to_json(body)}
        case sx.Concat(left, right):
            return {"tag": "concat", "left": path_to_json(left),
                    "right": path_to_json(right)}
    raise TypeError(f"not a path: {p!r}")


def _path(d, room):
    """The path expression `d` encodes, at most `room` levels deep."""
    if room <= 0:
        raise DecodeError(f"expression nested more than {MAX_NESTING} levels deep")
    room -= 1
    match _field(d, "tag"):
        case "mod":
            return sx.Atom(_name(d, "name"))
        case "jump":
            return sx.Jump(_name(d, "nom"))
        case "test":
            return sx.Test(_node(_field(d, "body"), room))
        case "concat":
            return sx.Concat(_path(_field(d, "left"), room),
                             _path(_field(d, "right"), room))
    raise DecodeError(f"unknown path tag: {_show(d['tag'])}")


class _Formulas(dict):
    """Each distinct formula's JSON object, made once.

    Every node of a derivation carries its whole sequent, so without a table
    the same formulas are encoded again at every node. With one table per
    top-level call, equal formulas become one shared JSON object, which
    `dumps_canonical` renders once. Members are listed in the sequent's
    cached print-key order.
    """

    def __missing__(self, e):
        j = self[e] = node_to_json(e)
        return j

    def sequent(self, s):
        return {"ante": [self[e] for e in s.sorted_ante],
                "cons": [self[e] for e in s.sorted_cons]}


def sequent_to_json(s):
    return _Formulas().sequent(s)


class _Exprs(dict):
    """Each distinct formula's expression, decoded once.

    Every node of a derivation carries its whole sequent, so the same
    formula's JSON value recurs at every node. One table per top-level call
    maps `marshal.dumps` of a value to the expression it decodes to; the key
    costs about a quarter of decoding the value again. marshal writes each
    value with its type's own code, save that it writes any bytes-like
    object as bytes (each is refused alike), so equal bytes mean values that
    decode alike, and a hit returns what decoding would. Equal values that
    marshal differently (keys in another order, other sharing of identical
    objects) only miss. A value that marshal refuses (an object of another
    type, or one nested past marshal's own limit) is decoded without the
    table.
    """

    def node(self, v):
        try:
            key = marshal.dumps(v)
        except ValueError:
            return _node(v, MAX_NESTING)
        e = self.get(key)
        if e is None:
            e = self[key] = _node(v, MAX_NESTING)
        return e


def sequent_from_json(d):
    return _sequent(d, _Exprs())


def _sequent(d, exprs):
    """The sequent the object `d` encodes, its members decoded by `exprs`."""
    ante, cons = _field(d, "ante", list), _field(d, "cons", list)
    try:
        return sequent(map(exprs.node, ante), map(exprs.node, cons))
    except ShapeViolation as e:                # a member that is not restricted
        raise DecodeError(str(e)) from None


def _inst_value_to_json(key, v, formulas):
    kind = METAVAR_KINDS[key]
    match kind:
        case "nominal" | "modality" | "comparison":
            return {"kind": kind, "name": v}
        case "cmpkind":
            return {"kind": kind, "value": v.value}
        case "path":
            return {"kind": kind, "expr": path_to_json(v)}
    return {"kind": kind, "expr": formulas[v]}


def _inst_value(key, d, exprs):
    """The value of metavariable `key` that the object `d` encodes."""
    kind = _name(d, "kind")
    if key in METAVAR_KINDS and kind != METAVAR_KINDS[key]:
        raise DecodeError(
            f"metavariable {key} holds a {kind}, not a {METAVAR_KINDS[key]}")
    match kind:
        case "nominal" | "modality" | "comparison":
            return _name(d, "name")
        case "cmpkind":
            return _cmpkind(d, "value")
        case "path":
            return _path(_field(d, "expr"), MAX_NESTING)
        case "node":
            return exprs.node(_field(d, "expr"))
    raise DecodeError(f"unknown instantiation value kind: {_show(kind)}")


def _inst(d, exprs):
    """The instantiation the object `d` encodes, frozen."""
    out = {}
    for key, v in d.items():
        if not isinstance(key, str):
            raise DecodeError(f"metavariable is not a str: {_show(key)}")
        out[key] = _inst_value(key, v, exprs)
    return freeze_inst(out)


def derivation_to_json(d):
    """The JSON object of `d`; equal formulas in it are one shared object.
    The levels are walked over an explicit stack, so at any height."""
    formulas = _Formulas()
    out = []
    stack = [(d, out)]
    while stack:
        node, siblings = stack.pop()
        kids = []
        siblings.append({
            "rule": node.rule,
            "principal": sorted((formulas[e] for e in
                                 principal_exprs(node.rule, node.inst_dict)),
                                key=str),
            "inst": {key: _inst_value_to_json(key, v, formulas)
                     for key, v in node.inst},
            "conclusion": formulas.sequent(node.conclusion),
            "children": kids,
        })
        stack += [(c, kids) for c in reversed(node.children)]
    return out[0]


def derivation_from_json(d):
    """The derivation the object `d` encodes. Each distinct formula is
    decoded once per call (`_Exprs`), and the levels are walked over an
    explicit stack, so at any height."""
    exprs = _Exprs()
    done = []                  # decoded subtrees, each after its left sibling
    stack = [(d, None)]
    while stack:
        d, head = stack.pop()
        if head is not None:   # `d` counts the children, the last of `done`
            start = len(done) - d
            kids = tuple(done[start:])
            del done[start:]
            done.append(Derivation(*head, kids))
            continue
        head = (_sequent(_field(d, "conclusion"), exprs), _name(d, "rule"),
                _inst(_field(d, "inst", dict), exprs))
        kids = _field(d, "children", list)
        if kids:
            stack.append((len(kids), head))
            stack += [(c, None) for c in reversed(kids)]
        else:
            done.append(Derivation(*head))
    return done[0]


def dumps_canonical(obj):
    """Exactly `json.dumps(obj, sort_keys=True, indent=2) + "\\n"`, in one pass.

    The stdlib runs its pure-Python encoder whenever `indent` is set; this
    writer appends string pieces to one list instead. A container met again
    in the same call (a formula shared by `derivation_to_json`) is rendered
    once and re-indented at each later occurrence. Keys must be `str`.
    """
    pieces = []
    _write(obj, "\n", pieces, {})
    pieces.append("\n")
    return "".join(pieces)


def _write(o, nl, pieces, memo):
    """Append the text of `o` to `pieces`. `nl` is a newline followed by the
    indent of the line `o` starts on; `memo` maps the id of each container
    written so far to its span of `pieces` and `nl`, or, once the container
    has been met twice, to its text at indent zero."""
    if isinstance(o, str):
        pieces.append(_escape(o))
        return
    if not isinstance(o, (dict, list, tuple)):
        pieces.append(json.dumps(o))           # numbers, booleans, None
        return
    if not o:
        pieces.append("{}" if isinstance(o, dict) else "[]")
        return
    seen = memo.get(id(o))
    if seen is not None:
        if not isinstance(seen, str):
            start, end, first_nl = seen
            seen = "".join(pieces[start:end]).replace(first_nl, "\n")
            memo[id(o)] = seen
        pieces.append(seen.replace("\n", nl))
        return
    start = len(pieces)
    inner = nl + "  "
    if isinstance(o, dict):
        sep = "{" + inner
        for key in sorted(o):
            value = o[key]
            if type(value) is str:
                pieces.append(sep + _escape(key) + ": " + _escape(value))
            else:
                pieces.append(sep + _escape(key) + ": ")
                _write(value, inner, pieces, memo)
            sep = "," + inner
        pieces.append(nl + "}")
    else:
        sep = "[" + inner
        for value in o:
            pieces.append(sep)
            _write(value, inner, pieces, memo)
            sep = "," + inner
        pieces.append(nl + "]")
    memo[id(o)] = (start, len(pieces), nl)
