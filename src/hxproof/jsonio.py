"""Stable JSON encodings for ASTs, sequents, derivations, and models.

The AST schema is tag + children; canonical dumps sort keys and sequent
members so identical inputs always produce byte-identical output.
"""

from __future__ import annotations

import json

from . import syntax as sx
from .kernel import (
    METAVAR_KINDS, Derivation, Sequent, freeze_inst, principal_exprs,
)


class DecodeError(ValueError):
    """JSON that does not encode an expression, sequent or derivation."""


def _field(d, key, typ=object):
    try:
        v = d[key]
    except (KeyError, TypeError):
        raise DecodeError(f"missing field {key!r}") from None
    if not isinstance(v, typ):
        raise DecodeError(f"field {key!r} is not a {typ.__name__}: {v!r}")
    return v


def _name(d, key):
    return _field(d, key, str)


def _cmpkind(d, key="kind"):
    value = _name(d, key)
    try:
        return sx.CmpKind(value)
    except ValueError:
        raise DecodeError(f"unknown comparison kind: {value!r}") from None


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


def node_from_json(d):
    match _field(d, "tag"):
        case "prop":
            return sx.Prop(_name(d, "name"))
        case "nom":
            return sx.Nominal(_name(d, "name"))
        case "bot":
            return sx.BOT
        case "imp":
            return sx.Implies(node_from_json(_field(d, "lhs")),
                              node_from_json(_field(d, "rhs")))
        case "at":
            return sx.At(_name(d, "nom"), node_from_json(_field(d, "body")))
        case "dia":
            return sx.Diamond(_name(d, "mod"), node_from_json(_field(d, "body")))
        case "cmp":
            return sx.Compare(path_from_json(_field(d, "left")), _cmpkind(d),
                              _name(d, "cmp"), path_from_json(_field(d, "right")))
    raise DecodeError(f"unknown node tag: {d['tag']!r}")


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


def path_from_json(d):
    match _field(d, "tag"):
        case "mod":
            return sx.Atom(_name(d, "name"))
        case "jump":
            return sx.Jump(_name(d, "nom"))
        case "test":
            return sx.Test(node_from_json(_field(d, "body")))
        case "concat":
            return sx.Concat(path_from_json(_field(d, "left")),
                             path_from_json(_field(d, "right")))
    raise DecodeError(f"unknown path tag: {d['tag']!r}")


def sequent_to_json(s):
    return {"ante": [node_to_json(e) for e in s.sorted_ante()],
            "cons": [node_to_json(e) for e in s.sorted_cons()]}


def sequent_from_json(d):
    return Sequent.make((node_from_json(e) for e in _field(d, "ante", list)),
                        (node_from_json(e) for e in _field(d, "cons", list)))


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


def _inst_value_from_json(key, d):
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
            return path_from_json(_field(d, "expr"))
        case "node":
            return node_from_json(_field(d, "expr"))
    raise DecodeError(f"unknown instantiation value kind: {kind!r}")


def derivation_to_json(d):
    principal = principal_exprs(d.rule, d.inst_dict)
    return {
        "rule": d.rule,
        "principal": sorted(map(node_to_json, principal), key=str),
        "inst": {key: _inst_value_to_json(key, v) for key, v in d.inst},
        "conclusion": sequent_to_json(d.conclusion),
        "children": [derivation_to_json(c) for c in d.children],
    }


def derivation_from_json(d):
    inst = freeze_inst({key: _inst_value_from_json(key, v)
                        for key, v in _field(d, "inst", dict).items()})
    return Derivation(
        sequent_from_json(_field(d, "conclusion")), _name(d, "rule"), inst,
        tuple(derivation_from_json(c) for c in _field(d, "children", list)))


def dumps_canonical(obj):
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"
