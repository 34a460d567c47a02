"""The kernel audited: each rule against the semantics, and the checker's
reach.

The rule audit reads each `RULES` entry against the pairwise oracle of
`tests/pairwise.py`, not against `hxproof.model`. The paper's soundness and
invertibility claims are local, one rule instance at a time, so both are
checked on random instances and small random models:
- local soundness: a model falsifying the conclusion has a placement of the
  eigen-nominals that falsifies some premiss;
- semantic invertibility: a placement falsifying a premiss falsifies the
  conclusion.

The trust-line guard checks one node of every rule, and the structural and
open nodes, under a profiler, and requires every module-level function of
`kernel.py` to be reached, so that the kernel holds only what
`check_derivation` needs plus its named forward constructors.
"""

import dataclasses
import inspect
import itertools
import random
import sys

import pytest

import pairwise
from genutil import SIG, conclusion_for_rule, derivation_of, rand_model, rand_node
from hxproof import kernel
from hxproof.derived import open_leaf, principal, required
from hxproof.kernel import (
    AX, LOGICAL_RULES, RULES, S1, Derivation, KernelError, Sequent,
    check_derivation, cut, freeze_inst, premises, sequent, weaken,
)
from hxproof.syntax import At, Prop

INSTANCES, MODELS, MIN_ACCEPTED = 60, 8, 20


def _audit_instance(rng, rule):
    """A conclusion and instantiation of `rule` whose validity rests on the
    rule's own side conditions: the planted axiom pair is dropped, and each
    other antecedent member is kept with probability 0.7. S1 gets a random
    body half the time."""
    concl, inst = conclusion_for_rule(rng, rule)
    if rule == S1 and rng.random() < 0.5:
        old = At(inst["i"], inst["phi"])
        inst["phi"] = rand_node(rng, SIG, 1)
        concl = Sequent((concl.ante - {old}) | {At(inst["i"], inst["phi"])},
                        concl.cons)
    keep = required(rule, inst)
    if (p := principal(rule, inst)) is not None:
        keep.add(p[1])
    pair = (concl.ante & concl.cons) - keep
    ante = [e for e in concl.sorted_ante
            if e in keep or e not in pair and rng.random() < 0.7]
    return sequent(ante, concl.cons - pair), inst


def _falsifies(model, seq):
    return not pairwise.check_sequent_validity(model, seq)


def _placements(model, eigens):
    """The model with the eigen-nominals placed at every tuple of nodes."""
    nodes = sorted(model.nodes)
    for where in itertools.product(nodes, repeat=len(eigens)):
        yield dataclasses.replace(model, g={**model.g, **dict(zip(eigens, where))})


@pytest.mark.parametrize("rule", LOGICAL_RULES)
def test_rule_is_locally_sound_and_semantically_invertible(rule):
    rng = random.Random(f"audit-{rule}")
    accepted = 0
    for _ in range(INSTANCES):
        concl, inst = _audit_instance(rng, rule)
        eigens = [inst[m] for m in RULES[rule].eigens]
        try:
            prems = premises(concl, rule, inst)
        except KernelError:
            continue
        accepted += 1
        for _ in range(MODELS):
            model = rand_model(rng, SIG, 3)
            falsified = _falsifies(model, concl)
            placed = [[_falsifies(m, p) for p in prems]
                      for m in _placements(model, eigens)]
            # the conclusion does not mention the eigen-nominals
            assert not falsified or any(map(any, placed)), \
                f"unsound: {rule} {inst} at {concl} in {model}"
            assert falsified or not any(map(any, placed)), \
                f"not invertible: {rule} {inst} at {concl} in {model}"
    assert accepted >= MIN_ACCEPTED, (rule, accepted)


def _one_node_per_rule():
    """A node of every logical rule on `conclusion_for_rule`, its premisses
    closed by (Ax) on the planted pair."""
    rng = random.Random(5)
    for rule in LOGICAL_RULES:
        concl, inst = conclusion_for_rule(rng, rule)
        kids = tuple(derivation_of(p, rng) for p in premises(concl, rule, inst))
        yield Derivation(concl, rule, freeze_inst(inst), kids)


def _reached(check):
    """The code objects of every Python function `check` calls."""
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    sys.setprofile(profile)
    try:
        check()
    finally:
        sys.setprofile(None)
    return codes


def test_check_derivation_reaches_every_kernel_function():
    p, q = At("i", Prop("p")), At("j", Prop("q"))
    leaf = kernel.axiom(AX, sequent({p}, {p}), {"phi": p})
    other = kernel.axiom(AX, sequent({p, q}, {q}), {"phi": q})
    closed = [*_one_node_per_rule(), cut(leaf, other, p),
              weaken(leaf, "left", q), weaken(leaf, "right", q)]
    fragment = open_leaf(sequent({p}, {q}))

    def check():
        for d in closed:
            assert check_derivation(d) == []
        assert check_derivation(fragment, allow_open=True) == []

    # a memo hit would skip `premises` and everything it calls
    kernel.premises_memo.cache_clear()
    codes = _reached(check)
    forward = {"axiom", "infer", "cut", "weaken", "sequent", "freeze_inst"}
    # a wrapped function is unwrapped to the function it wraps
    functions = {name: inspect.unwrap(f) for name, f in vars(kernel).items()
                 if inspect.isfunction(inspect.unwrap(f))
                 and f.__module__ == kernel.__name__}
    assert forward <= functions.keys()
    unreached = sorted(name for name, f in functions.items()
                       if name not in forward and f.__code__ not in codes)
    assert unreached == [], f"kernel functions the checker never calls: {unreached}"
