"""Command-line surface: parse, eval, entail, prove, check, cutfree, corpus.

Exit codes: 0 success/proved/valid, 1 refuted/invalid, 2 unknown,
3 usage or I/O error. JSON output is canonical (sorted keys, sorted sequent
members), so identical inputs produce byte-identical results.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

from . import jsonio, syntax as sx
from .cutelim import CutEliminationError, eliminate_cuts
from .hylo import is_hylo, prove_hylo
from .kernel import KernelError, check_derivation, sequent
from .model import (MAX_COUNTERMODEL_NODES, DataGraph, ModelError,
                    check_sequent_validity, eval_node, ingest_datagraph,
                    model_from_json, model_to_json, satisfying_nodes)
from .search import Proved, Refuted, SearchConfig, Unknown, prove

EXIT_OK, EXIT_FAIL, EXIT_UNKNOWN, EXIT_USAGE = 0, 1, 2, 3


class CliError(Exception):
    pass


def _read_json(path):
    # ValueError covers text that is not UTF-8, text that is not JSON, and
    # an integer too long for `int`
    try:
        return json.loads(pathlib.Path(path).read_text())
    except (OSError, ValueError, RecursionError) as e:
        raise CliError(f"cannot read {path}: {e}") from None


def _load_model(args):
    if getattr(args, "graph", None):
        return ingest_datagraph(DataGraph.from_json(_read_json(args.graph)))
    if getattr(args, "model", None):
        return model_from_json(_read_json(args.model))
    raise CliError("one of --model/--graph is required")


def _parse_sequent(text):
    ante, cons = sx.parse_sequent_parts(text)
    return sequent(ante, cons)


def _emit(args, payload_json, payload_text):
    if args.emit == "json":
        sys.stdout.write(jsonio.dumps_canonical(payload_json))
    else:
        print(payload_text)


def cmd_parse(args):
    expr = sx.parse_node(args.expr)
    _emit(args, jsonio.node_to_json(expr), sx.print_node(expr))
    return EXIT_OK


def cmd_eval(args):
    model = _load_model(args)
    expr = sx.parse_node(args.expr)
    if args.all:
        nodes = sorted(satisfying_nodes(model, expr))
        _emit(args, {"nodes": nodes}, " ".join(nodes))
        value = bool(nodes)
    else:
        at = args.at if args.at is not None else model.default_node
        value = eval_node(model, at, expr)
        _emit(args, {"value": value, "at": at}, str(value).lower())
    defaulted = sx.nominals_of(expr) - model.g.keys()
    if defaulted:
        print(f"note: defaulted nominals {sorted(defaulted)}", file=sys.stderr)
    return EXIT_OK if value else EXIT_FAIL


def cmd_entail(args):
    model = _load_model(args)
    seq = _parse_sequent(args.sequent)
    valid = check_sequent_validity(model, seq)
    _emit(args, {"valid_in_model": valid}, str(valid).lower())
    return EXIT_OK if valid else EXIT_FAIL


def cmd_prove(args):
    if not 0 <= args.countermodel_nodes <= MAX_COUNTERMODEL_NODES:
        raise CliError(f"--countermodel-nodes must be between 0 and "
                       f"{MAX_COUNTERMODEL_NODES}")
    for flag, value in (("--max-depth", args.max_depth),
                        ("--fresh-budget", args.fresh_budget)):
        if value < 0:
            raise CliError(f"{flag} must not be negative")
    seq = _parse_sequent(args.sequent)
    cfg = SearchConfig(max_depth=args.max_depth,
                       max_fresh_nominals=args.fresh_budget,
                       enable_countermodel=args.countermodel_nodes > 0,
                       countermodel_nodes=max(args.countermodel_nodes, 1))
    if args.fragment == "hylo":
        result = prove_hylo(seq, cfg)
    else:
        result = prove(seq, cfg)
    match result:
        case Proved(derivation=d):
            _emit(args, {"status": "proved",
                         "derivation": jsonio.derivation_to_json(d)},
                  f"proved (height {d.height})")
            return EXIT_OK
        case Refuted(model=m):
            _emit(args, {"status": "refuted", "countermodel": model_to_json(m)},
                  f"refuted by a {len(m.nodes)}-node model")
            return EXIT_FAIL
        case Unknown(report=rep):
            _emit(args, {"status": "unknown", "report": rep},
                  f"unknown ({rep['bound']})")
            return EXIT_UNKNOWN
    raise CliError("unreachable")


def _check_file(path, allow_open=False, fragment=None):
    d = jsonio.derivation_from_json(_read_json(path))
    violations = [str(v) for v in check_derivation(d, allow_open=allow_open)]
    if fragment == "hylo" and not violations:
        bad = [str(node.conclusion) for _, node in d.walk()
               if not is_hylo(node.conclusion)]
        violations += [f"outside the basic hybrid fragment: {s}" for s in bad]
    return d, violations


def cmd_check(args):
    d, violations = _check_file(args.file, args.allow_open, args.fragment)
    payload = {"ok": not violations, "violations": violations,
               "end_sequent": jsonio.sequent_to_json(d.conclusion)}
    _emit(args, payload,
          "ok" if not violations else "\n".join(violations))
    return EXIT_OK if not violations else EXIT_FAIL


def cmd_cutfree(args):
    d = jsonio.derivation_from_json(_read_json(args.file))
    if check_derivation(d):
        print("input derivation does not check", file=sys.stderr)
        return EXIT_FAIL
    trace = [] if args.trace else None
    try:
        out = eliminate_cuts(d, trace=trace)
    except CutEliminationError as e:
        print(f"cut elimination failed: {e}", file=sys.stderr)
        return EXIT_FAIL
    # nominal substitution and eigen-nominal refreshing build nodes outside
    # the kernel, so the output is checked before it is written
    violations = check_derivation(out)
    if violations:
        print(f"eliminated derivation does not check: {violations[0]}",
              file=sys.stderr)
        return EXIT_FAIL
    payload = jsonio.derivation_to_json(out)
    text = jsonio.dumps_canonical(payload)
    if args.out:
        try:
            pathlib.Path(args.out).write_text(text)
        except OSError as e:
            raise CliError(f"cannot write {args.out}: {e}") from None
    else:
        sys.stdout.write(text)
    if args.trace:
        for ev in trace:
            print(json.dumps(ev.as_json()), file=sys.stderr)
    return EXIT_OK


def cmd_corpus(args):
    root = pathlib.Path(args.dir)
    if not root.is_dir():
        raise CliError(f"not a directory: {root}")
    files = sorted(p for p in root.glob("*.json") if "model" not in p.stem
                   and "graph" not in p.stem)
    if not files:
        print("warning: no derivation files found", file=sys.stderr)
        return EXIT_OK
    failures = 0
    for path in files:
        violations = _check_file(path)[1]
        status = "ok" if not violations else f"FAIL ({violations[0]})"
        print(f"{path.name}: {status}")
        failures += bool(violations)
    return EXIT_OK if failures == 0 else EXIT_FAIL


class _ArgumentParser(argparse.ArgumentParser):
    """A usage error is one line on stderr and exit code 3, like other bad
    input; the command parsers are made of this class too."""

    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        sys.exit(EXIT_USAGE)


def build_parser():
    ap = _ArgumentParser(
        prog="hxproof",
        description="Proof toolkit for data-aware hybrid path logic")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_emit(p):
        p.add_argument("--emit", choices=("text", "json"), default="text")

    p = sub.add_parser("parse", help="parse an expression and reprint it")
    p.add_argument("expr")
    add_emit(p)
    p.set_defaults(fn=cmd_parse)

    p = sub.add_parser("eval", help="evaluate an expression in a model")
    p.add_argument("expr")
    p.add_argument("--model", help="model JSON file")
    p.add_argument("--graph", help="data-graph JSON file (ingested)")
    where = p.add_mutually_exclusive_group()
    where.add_argument("--at", help="node of evaluation (default: first node)")
    where.add_argument("--all", action="store_true",
                       help="list every node where the expression holds "
                            "(exit 1 if none)")
    add_emit(p)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("entail", help="check a sequent against one model")
    p.add_argument("sequent")
    p.add_argument("--model")
    p.add_argument("--graph")
    add_emit(p)
    p.set_defaults(fn=cmd_entail)

    p = sub.add_parser("prove", help="bounded backward proof search")
    p.add_argument("sequent")
    p.add_argument("--max-depth", type=int, default=12)
    p.add_argument("--fresh-budget", type=int, default=4)
    p.add_argument("--countermodel-nodes", type=int, default=3,
                   help=f"0 disables countermodels; otherwise the model "
                        f"that the failed branch describes is tried first, "
                        f"and it need not be minimal or within this bound; "
                        f"enumeration up to this many nodes (at most "
                        f"{MAX_COUNTERMODEL_NODES}) runs only if that model "
                        f"does not refute the goal")
    p.add_argument("--fragment", choices=("full", "hylo"), default="full")
    add_emit(p)
    p.set_defaults(fn=cmd_prove)

    p = sub.add_parser("check", help="verify a derivation JSON file")
    p.add_argument("file")
    p.add_argument("--allow-open", action="store_true")
    p.add_argument("--fragment", choices=("full", "hylo"), default="full")
    add_emit(p)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("cutfree", help="eliminate cuts from a derivation")
    p.add_argument("file")
    p.add_argument("--out")
    p.add_argument("--trace", action="store_true",
                   help="emit one reduction event per line on stderr")
    p.set_defaults(fn=cmd_cutfree)

    p = sub.add_parser("corpus", help="check every derivation in a directory")
    p.add_argument("dir")
    p.set_defaults(fn=cmd_corpus)

    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (CliError, KernelError, ModelError, jsonio.DecodeError,
            jsonio.EncodeError, sx.SyntaxError_, sx.SymbolSpaceError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except RecursionError:
        # the parser and the layers that walk an expression (printing, shape
        # checks, search, encoding) recurse once per expression level;
        # derivation levels are walked over explicit stacks, format 2 nests
        # no JSON container per level, and a JSON value too deep for
        # `json.loads` is answered by `_read_json`
        print("error: input nested too deeply", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
