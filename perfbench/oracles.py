"""Expected answers, computed in the benchmark's parent process.

Nothing here calls the code path an instance measures.  Where a theorem
fixes the verdict it is used directly:

* every d=2 round trip passes with recovered equal to the clone
  (the bounded Pol-Inv correspondence at k = d^n);
* every operation preserves every diagonal relation of an ideal.

Everything else is recomputed from definitions with the naive oracles of
tests/helpers.py (pointwise composition through Operation.apply, the
all-assignments pp evaluator, the insertion enumeration of partitions)
and the plain loops below.  The polymorphism filter below enumerates
every table like helpers.oracle_pol, but precomputes each relation's row
choices, because oracle_pol itself needs about 20 s for {leq, neq, eq}
at arity 4.
"""

from __future__ import annotations

from itertools import combinations, product

from helpers import EqualityAtom, PPFormula, RelationAtom, naive_eval_pp, oracle_compose, oracle_partitions
from polinv import Domain, Operation, Relation


class Oracle:
    """Expected answers for one spec, with shared sub-results cached."""

    def __init__(self, spec: dict) -> None:
        self.spec = spec
        self._terms: dict = {}
        self._pols: dict = {}
        self._lattices: dict = {}

    # -- clones -----------------------------------------------------------

    def term_tables(self, d: int, gen_tables, n: int) -> frozenset:
        """Tables of the n-ary term operations over the generators: the
        projections, closed under applying a generator to members.  These
        are the n-ary members of any bounded closure with bound >= n."""
        key = (d, tuple((a, tuple(t)) for a, t in gen_tables), n)
        if key not in self._terms:
            domain = Domain(d)
            gens = [Operation(domain, a, tuple(t)) for a, t in gen_tables]
            cells = list(product(range(d), repeat=n))
            members = {tuple(c[i] for c in cells) for i in range(n)}
            fresh = set(members)
            while fresh:
                pool = [Operation(domain, n, t) for t in members]
                made = set()
                for f in gens:
                    for args in product(pool, repeat=f.arity):
                        if any(g.table in fresh for g in args):
                            made.add(oracle_compose(f, args, n).table)
                fresh = made - members
                members |= fresh
            self._terms[key] = frozenset(members)
        return self._terms[key]

    @staticmethod
    def essential(d: int, arity: int, table) -> list[int]:
        f = Operation(Domain(d), arity, tuple(table))
        out = []
        for i in range(arity):
            if any(
                f.apply(args) != f.apply(args[:i] + (v,) + args[i + 1:])
                for args in product(range(d), repeat=arity)
                for v in range(d)
            ):
                out.append(i)
        return out

    @staticmethod
    def invariant_closure(d: int, gen_tables, seeds, k: int) -> list[list[int]]:
        domain = Domain(d)
        gens = [Operation(domain, a, tuple(t)) for a, t in gen_tables]
        current = {tuple(t) for t in seeds}
        while True:
            image = {
                tuple(f.apply([row[j] for row in rows]) for j in range(k))
                for f in gens
                for rows in product(sorted(current), repeat=f.arity)
            }
            if image <= current:
                return sorted(list(t) for t in current)
            current |= image

    # -- pp -----------------------------------------------------------------

    def pol_tables(self, d: int, tuples, m: int) -> frozenset:
        """Every m-ary table preserving one relation: all d^(d^m) tables,
        each checked on every choice of m rows."""
        key = (d, tuple(map(tuple, tuples)), m)
        if key not in self._pols:
            rset = set(key[1])
            width = len(key[1][0])
            checks = []
            for rows in product(key[1], repeat=m):
                cells = []
                for j in range(width):
                    idx = 0
                    for row in rows:
                        idx = idx * d + row[j]
                    cells.append(idx)
                checks.append(cells)
            self._pols[key] = frozenset(
                table
                for table in product(range(d), repeat=d**m)
                if all(tuple(table[c] for c in cells) in rset for cells in checks)
            )
        return self._pols[key]

    def definable(self, d: int, target, env) -> bool:
        """A nonempty r is pp-definable from env iff every |r|-ary
        polymorphism maps r's rows, taken in order, back into r."""
        m = len(target)
        tables = frozenset.intersection(*(self.pol_tables(d, tuples, m) for tuples in env))
        rset = {tuple(t) for t in target}
        columns = []
        for j in range(len(target[0])):
            idx = 0
            for row in target:
                idx = idx * d + row[j]
            columns.append(idx)
        return all(tuple(t[c] for c in columns) in rset for t in tables)

    def formula(self, d: int, phi: dict) -> list[list[int]]:
        rels = {
            name: Relation(Domain(d), arity, tuple(map(tuple, tuples)), name=name)
            for name, (arity, tuples) in self.spec["relations"][str(d)].items()
        }
        atoms = tuple(EqualityAtom(*args) if rel == "=" else RelationAtom(rel, tuple(args)) for rel, args in phi["atoms"])
        formula = PPFormula(phi["name"], tuple(phi["free"]), tuple(phi["exist"]), atoms)
        return [list(t) for t in naive_eval_pp(formula, rels, Domain(d)).tuples]

    # -- partitions -----------------------------------------------------------

    def ideal(self, kappa: int, texts) -> frozenset:
        """Least set of partitions holding the generators and the one-block
        partition, closed under common refinement and coarsening."""
        if kappa not in self._lattices:
            self._lattices[kappa] = oracle_partitions(kappa)
        lattice = self._lattices[kappa]
        members = {frozenset([frozenset(range(kappa))])}
        for text in texts:
            members.add(frozenset(frozenset(int(x) for x in block.split(",")) for block in text.split("|")))

        def refines(p, q):
            return all(any(b <= c for c in q) for b in p)

        while True:
            meets = {frozenset(b & c for b in p for c in q if b & c) for p, q in combinations(members, 2)}
            grown = members | meets
            grown |= {p for p in lattice if any(refines(q, p) for q in grown)}
            if grown == members:
                return frozenset(members)
            members = grown

    @staticmethod
    def kernel(t) -> frozenset:
        return frozenset(frozenset(i for i, v in enumerate(t) if v == value) for value in set(t))

    # -- per instance -------------------------------------------------------

    def expected(self, inst: dict):
        """The expected view of one instance's result (see observed())."""
        kind = inst["kind"]
        d = inst.get("d")
        if kind == "check":
            size = len(self.term_tables(2, inst["gen_tables"], inst["arity"]))
            return {"code": 0, "summary": "check domain=2 arity=2 max-k=4", "clone": size, "recovered": size, "verdict": "PASS", "witnesses": 0}
        if kind == "clone_closure":
            return sorted([n, list(t)] for n in range(1, inst["max_arity"] + 1) for t in self.term_tables(d, inst["gen_tables"], n))
        if kind == "graph_relation":
            return [d ** inst["arity"], sorted(list(t) for t in self.term_tables(d, inst["gen_tables"], inst["arity"]))]
        if kind == "clone_contains":
            arity, table = inst["op_table"]
            return tuple(table) in self.term_tables(d, inst["gen_tables"], arity)
        if kind == "essential_variables":
            return self.essential(d, *inst["op_table"])
        if kind == "invariant_closure":
            return self.invariant_closure(d, inst["gen_tables"], inst["seeds"], inst["k"])
        if kind == "formula":
            return {"parsed": inst["formula"], "tuples": self.formula(d, inst["formula"])}
        if kind == "definable":
            env = [self.spec["relations"][str(d)][name][1] for name in inst["env"]]
            return self.definable(d, inst["target_tuples"], env)
        if kind == "ideal_downset":
            return self.ideal(inst["kappa"], inst["generators"])
        if kind == "diagonal_relation":
            source = self.spec["instances"][inst["ideal"]]
            ideal = self.ideal(source["kappa"], source["generators"])
            return sorted(list(t) for t in product(range(d), repeat=source["kappa"]) if self.kernel(t) in ideal)
        if kind == "check_finitary_preservation":
            return True
        raise ValueError(f"unknown instance kind {kind!r}")


def observed(inst: dict, result):
    """The comparable view of a worker result for one instance."""
    if isinstance(result, dict) and ("error" in result or "refused" in result):
        return result
    kind = inst["kind"]
    if kind == "check":
        lines = result["out"]
        fields = dict(line.split(" : ", 1) for line in lines[1:4] if " : " in line)
        try:
            return {
                "code": result["code"],
                "summary": lines[0],
                "clone": int(fields["clone"]),
                "recovered": int(fields["recovered"]),
                "verdict": lines[4],
                "witnesses": sum(line.startswith("witness ") for line in lines[5:]),
            }
        except (IndexError, KeyError, ValueError):
            return {"malformed": result}
    if kind == "ideal_downset":
        return frozenset(frozenset(frozenset(b) for b in p) for p in result)
    return result


def failures(spec: dict, results: list, expected: list | None = None) -> list[int]:
    """Positions of instances whose observed result differs from the
    expected one.  `expected` may be passed in precomputed."""
    if expected is None:
        oracle = Oracle(spec)
        expected = [oracle.expected(inst) for inst in spec["instances"]]
    return [i for i, (inst, result) in enumerate(zip(spec["instances"], results)) if observed(inst, result) != expected[i]]
