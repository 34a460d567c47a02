"""Independent set-at-a-time evaluator for queries over a data graph.

It reads the data-graph JSON directly and shares no code with
`hxproof.model`: node formulas evaluate to node sets, paths to image sets,
and a comparison holds when the class ids of the two endpoint sets allow it.
The class id of a node under attribute c is its c-value; a node without c
gets a class of its own. Only the AST classes of `hxproof.syntax` are used,
to read the queries.
"""

from hxproof.syntax import (
    At, Atom, Bottom, CmpKind, Compare, Concat, Diamond, Implies, Jump,
    Nominal, Prop, Test,
)


class GraphOracle:
    def __init__(self, graph):
        self.nodes = frozenset(nd["id"] for nd in graph["nodes"])
        self.labels = {}
        self.index = {}
        self.attrs = {}
        for nd in graph["nodes"]:
            for label in nd.get("labels", []):
                self.labels.setdefault(label, set()).add(nd["id"])
            if nd.get("index") is not None:
                self.index[nd["index"]] = nd["id"]
            self.attrs[nd["id"]] = dict(nd.get("attrs", {}))
        self.succ = {}
        for e in graph.get("edges", []):
            self.succ.setdefault(e["label"], {}).setdefault(
                e["from"], set()).add(e["to"])
        self._sat = {}

    def named(self, nom):
        if nom not in self.index:
            raise KeyError(f"query names the unindexed nominal {nom!r}")
        return self.index[nom]

    def cls(self, c, n):
        value = self.attrs[n].get(c)
        return ("node", n) if value is None else ("value", value)

    def sat(self, phi):
        """The set of nodes where phi holds."""
        key = phi
        if key not in self._sat:
            self._sat[key] = frozenset(self._sat_uncached(phi))
        return self._sat[key]

    def _sat_uncached(self, phi):
        match phi:
            case Prop(p):
                return self.labels.get(p, set())
            case Nominal(i):
                return {self.named(i)}
            case Bottom():
                return set()
            case Implies(lhs, rhs):
                return (self.nodes - self.sat(lhs)) | self.sat(rhs)
            case At(i, body):
                return self.nodes if self.named(i) in self.sat(body) else set()
            case Diamond(a, body):
                target = self.sat(body)
                edges = self.succ.get(a, {})
                return {n for n, ms in edges.items() if ms & target}
            case Compare(alpha, kind, c, beta):
                return {n for n in self.nodes
                        if self.compare_at(n, alpha, kind, c, beta)}
        raise TypeError(f"not a node expression: {phi!r}")

    def image(self, sources, alpha):
        """All endpoints of alpha-paths starting in `sources`."""
        match alpha:
            case Atom(a):
                edges = self.succ.get(a, {})
                out = set()
                for n in sources:
                    out |= edges.get(n, set())
                return out
            case Jump(i):
                return {self.named(i)} if sources else set()
            case Test(body):
                return set(sources) & self.sat(body)
            case Concat(left, right):
                return self.image(self.image(sources, left), right)
        raise TypeError(f"not a path: {alpha!r}")

    def compare_at(self, n, alpha, kind, c, beta):
        left = {self.cls(c, x) for x in self.image({n}, alpha)}
        right = {self.cls(c, y) for y in self.image({n}, beta)}
        if not left or not right:
            return False
        if kind is CmpKind.EQ:
            return bool(left & right)
        # some pair of endpoints lies in different classes
        return len(left | right) > 1

    def holds(self, phi, n):
        return n in self.sat(phi)
