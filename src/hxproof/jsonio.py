"""Stable JSON encodings for ASTs, sequents, derivations, and models.

The AST schema is tag + children; canonical dumps sort keys and sequent
members so identical inputs always produce byte-identical output. A
derivation node states its conclusion only where the reader cannot
recompute it from its parent's conclusion, rule and instantiation.
"""

from __future__ import annotations

import json
import reprlib
from json.encoder import encode_basestring_ascii as _escape

from . import syntax as sx
from .kernel import (
    METAVAR_KINDS, WL, WR, Derivation, KernelError, Sequent, ShapeViolation,
    freeze_inst, premises, sequent,
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


def sequent_to_json(s):
    """Members in print-key order."""
    return {"ante": [node_to_json(e) for e in s.sorted_ante],
            "cons": [node_to_json(e) for e in s.sorted_cons]}


def sequent_from_json(d):
    ante, cons = _field(d, "ante", list), _field(d, "cons", list)
    try:
        return sequent(map(node_from_json, ante), map(node_from_json, cons))
    except ShapeViolation as e:                # a member that is not restricted
        raise DecodeError(str(e)) from None


def _inst_value_to_json(key, v):
    kind = METAVAR_KINDS[key]
    match kind:
        case "nominal" | "modality" | "comparison":
            return {"kind": kind, "name": v}
        case "cmpkind":
            return {"kind": kind, "value": v.value}
        case "path":
            return {"kind": kind, "expr": path_to_json(v)}
    return {"kind": kind, "expr": node_to_json(v)}


def _inst_value(key, d):
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
            return node_from_json(_field(d, "expr"))
    raise DecodeError(f"unknown instantiation value kind: {_show(kind)}")


def _inst(d):
    """The instantiation the object `d` encodes, as a dict."""
    out = {}
    for key, v in d.items():
        if not isinstance(key, str):
            raise DecodeError(f"metavariable is not a str: {_show(key)}")
        out[key] = _inst_value(key, v)
    return out


_WEAKENINGS = {WL: Sequent.drop_ante, WR: Sequent.drop_cons}


def _implied(conclusion, rule, inst, n):
    """The conclusions that a node's conclusion, rule and instantiation
    imply for its `n` children: a logical rule's premisses, the conclusion
    without phi for a weakening, and None for a child of a Cut, an Open
    leaf, an unknown rule or an instance that does not fit its rule."""
    if not n:
        return []
    if rule in _WEAKENINGS:
        out = [_WEAKENINGS[rule](conclusion, inst["phi"])] if "phi" in inst else []
    else:
        try:
            out = premises(conclusion, rule, inst)
        except KernelError:
            out = []
    return (out + [None] * n)[:n]


def derivation_to_json(d):
    """The JSON object of `d`. A node states its `conclusion` only where its
    parent does not imply it (`_implied`): at the root, under a Cut, under a
    weakening whose formula was already present, and at any child that does
    not match its parent's premisses. The levels are walked over an explicit
    stack, so at any height."""
    out = []
    stack = [(d, None, out)]
    while stack:
        node, implied, siblings = stack.pop()
        kids = []
        obj = {"rule": node.rule,
               "inst": {key: _inst_value_to_json(key, v) for key, v in node.inst},
               "children": kids}
        if node.conclusion != implied:
            obj["conclusion"] = sequent_to_json(node.conclusion)
        siblings.append(obj)
        below = _implied(node.conclusion, node.rule, node.inst_dict,
                         len(node.children))
        stack += [(c, s, kids) for c, s in zip(reversed(node.children),
                                               reversed(below))]
    return out[0]


def derivation_from_json(d):
    """The derivation the object `d` encodes. A node without a `conclusion`
    gets the one its parent implies (`_implied`); one that its parent does
    not imply is a DecodeError. The levels are walked over an explicit
    stack, so at any height."""
    heads = []                 # (conclusion, rule, inst, children), preorder
    stack = [(d, None, None)]  # (object, implied conclusion, rule above)
    while stack:
        d, implied, above = stack.pop()
        rule = _name(d, "rule")
        inst = _inst(_field(d, "inst", dict))
        if "conclusion" in d or above is None:
            conclusion = sequent_from_json(_field(d, "conclusion"))
        elif implied is None:
            raise DecodeError(f"missing field 'conclusion', which the "
                              f"{_show(above)} above does not imply")
        else:
            conclusion = implied
        kids = _field(d, "children", list)
        heads.append((conclusion, rule, freeze_inst(inst), len(kids)))
        below = _implied(conclusion, rule, inst, len(kids))
        stack += [(c, s, rule) for c, s in zip(reversed(kids), reversed(below))]
    done = []                  # built subtrees, the first child on top
    for conclusion, rule, inst, n in reversed(heads):
        start = len(done) - n
        kids = tuple(reversed(done[start:]))
        del done[start:]
        done.append(Derivation(conclusion, rule, inst, kids))
    return done[0]


def dumps_canonical(obj):
    """Exactly `json.dumps(obj, sort_keys=True, indent=2) + "\\n"`, in one pass.

    The stdlib runs its pure-Python encoder whenever `indent` is set; this
    writer appends string pieces to one list instead. Keys must be `str`.
    """
    pieces = []
    _write(obj, "\n", pieces)
    pieces.append("\n")
    return "".join(pieces)


def _write(o, nl, pieces):
    """Append the text of `o` to `pieces`. `nl` is a newline followed by the
    indent of the line `o` starts on."""
    if isinstance(o, str):
        pieces.append(_escape(o))
        return
    if not isinstance(o, (dict, list, tuple)):
        pieces.append(json.dumps(o))           # numbers, booleans, None
        return
    if not o:
        pieces.append("{}" if isinstance(o, dict) else "[]")
        return
    inner = nl + "  "
    if isinstance(o, dict):
        sep = "{" + inner
        for key in sorted(o):
            value = o[key]
            if type(value) is str:
                pieces.append(sep + _escape(key) + ": " + _escape(value))
            else:
                pieces.append(sep + _escape(key) + ": ")
                _write(value, inner, pieces)
            sep = "," + inner
        pieces.append(nl + "}")
    else:
        sep = "[" + inner
        for value in o:
            pieces.append(sep)
            _write(value, inner, pieces)
            sep = "," + inner
        pieces.append(nl + "]")
