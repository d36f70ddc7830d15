"""Shared fixtures and independent oracles for the test suite.

Every oracle here recomputes its answer from the definitions with the
most naive strategy available (pointwise evaluation, full sweeps), never
through the package's optimized paths, so tests compare two genuinely
different computations.
"""

from __future__ import annotations

import random
from itertools import combinations, product

from polinv import (
    Domain,
    Operation,
    OperationSet,
    Partition,
    PPFormula,
    Relation,
    RelationSet,
    EqualityAtom,
    RelationAtom,
    all_partitions,
    kernel_partition,
    pol,
)

BOOL = Domain(2)
THREE = Domain(3)


def op(table, arity=None, domain=BOOL, name=""):
    if arity is None:
        size = len(table)
        arity = 0
        while domain.size**arity < size:
            arity += 1
    return Operation(domain, arity, tuple(table), name=name)


def rel(tuples, arity, domain=BOOL, name=""):
    return Relation(domain, arity, tuple(tuples), name=name)


AND = op((0, 0, 0, 1), name="AND")
OR = op((0, 1, 1, 1), name="OR")
XOR = op((0, 1, 1, 0), name="XOR")
NOT = op((1, 0), name="NOT")
IDENT = op((0, 1), name="id")
MAJ = op([int(a + b + c >= 2) for a in range(2) for b in range(2) for c in range(2)], name="MAJ")
MINORITY = op([a ^ b ^ c for a in range(2) for b in range(2) for c in range(2)], name="minority")

LEQ = rel([(0, 0), (0, 1), (1, 1)], 2, name="leq")
NEQ = rel([(0, 1), (1, 0)], 2, name="neq")
EQ = rel([(0, 0), (1, 1)], 2, name="eq")


def oracle_compose(f, gs, arity):
    """Pointwise composition via apply, no table index arithmetic."""
    domain = f.domain
    table = []
    for args in domain.tuples(arity):
        inner = [g.apply(args) for g in gs]
        table.append(f.apply(inner))
    return Operation(domain, arity, tuple(table))


def oracle_preserves(f, r):
    """Preservation unrolled directly from the definition."""
    if f.arity == 0:
        return tuple(f.apply(()) for _ in range(r.arity)) in set(r.tuples)
    for rows in product(r.tuples, repeat=f.arity):
        image = tuple(f.apply([row[j] for row in rows]) for j in range(r.arity))
        if image not in set(r.tuples):
            return False
    return True


def oracle_pol(rels, arity, domain):
    """All preserving tables by filtering the full enumeration."""
    found = []
    for table in product(range(domain.size), repeat=domain.size**arity):
        f = Operation(domain, arity, table)
        if all(oracle_preserves(f, r) for r in rels):
            found.append(f)
    return found


def oracle_inv(ops, arity, domain):
    """All invariant relations by filtering every subset of A^arity."""
    universe = list(domain.tuples(arity))
    found = []
    for mask in range(2 ** len(universe)):
        r = Relation(domain, arity, tuple(t for i, t in enumerate(universe) if mask >> i & 1))
        if all(oracle_preserves(f, r) for f in ops):
            found.append(r)
    return found


def naive_eval_pp(formula, rels_by_name, domain):
    """Sweep every assignment to free + existential variables."""
    free = list(formula.free_vars)
    exist = list(formula.exist_vars)
    names = free + exist
    out = set()
    for values in product(range(domain.size), repeat=len(names)):
        env = dict(zip(names, values))
        ok = True
        for atom in formula.atoms:
            if isinstance(atom, EqualityAtom):
                if env[atom.left] != env[atom.right]:
                    ok = False
                    break
            else:
                r = rels_by_name[atom.relation]
                if tuple(env[v] for v in atom.variables) not in set(r.tuples):
                    ok = False
                    break
        if ok:
            out.add(tuple(env[v] for v in free))
    return Relation(domain, len(free), tuple(out), name=formula.name)


def oracle_least_invariant_superset(r, rels):
    """Smallest superset of a nonempty r preserved by every polymorphism
    of rels.

    Filters all supersets of r's tuple set.  A nonempty candidate s is
    invariant iff it is preserved by every |s|-ary polymorphism:
    identifying repeated rows reduces higher arities to at most |s|, and
    padding with dummy arguments lifts lower arities (nullary included)
    to exactly |s|.  The full tuple set is closed under anything.
    """
    assert r.tuples, "the oracle covers nonempty relations"
    domain = r.domain
    universe = list(domain.tuples(r.arity))
    base = set(r.tuples)
    pols_by_arity = {
        m: oracle_pol(rels, m, domain) for m in range(1, len(universe))
    }
    candidates = []
    for mask in range(2 ** len(universe)):
        chosen = [t for i, t in enumerate(universe) if mask >> i & 1]
        if not base <= set(chosen):
            continue
        if len(chosen) == len(universe):
            candidates.append(set(chosen))
            continue
        s = Relation(domain, r.arity, tuple(chosen))
        if all(oracle_preserves(f, s) for f in pols_by_arity[len(chosen)]):
            candidates.append(set(chosen))
    least = min(candidates, key=len)
    assert all(least <= c for c in candidates if len(c) == len(least))
    return Relation(domain, r.arity, tuple(least))


def oracle_pp_closure_of(r, rels):
    """Least invariant superset of r over rels, from the full list of
    len(r)-ary polymorphisms (nullary for an empty r) applied to r's
    columns.  pol itself is held to oracle_pol elsewhere."""
    columns = [tuple(row[j] for row in r.tuples) for j in range(r.arity)]
    out = set(r.tuples)
    for f in pol(rels, len(r)):
        out.add(tuple(f.apply(col) for col in columns))
    return Relation(r.domain, r.arity, tuple(out), name=r.name)


def oracle_partitions(index_size):
    """Enumerate partitions by inserting one index at a time into an
    existing block or a fresh one (independent of the label-string
    generator in the package)."""
    parts = [[]]
    for i in range(index_size):
        grown = []
        for blocks in parts:
            for j in range(len(blocks)):
                grown.append([b + [i] if k == j else list(b) for k, b in enumerate(blocks)])
            grown.append([list(b) for b in blocks] + [[i]])
        parts = grown
    return {frozenset(frozenset(b) for b in blocks) for blocks in parts}


def oracle_blocks(index_size, same):
    """The classes of the equivalence `same` on {0, ..., index_size-1}, as
    a set of frozensets: each index together with every index related to
    it (no grouping pass, no block labels)."""
    return {frozenset(j for j in range(index_size) if same(i, j)) for i in range(index_size)}


def oracle_ideal_downset(generators, index_size):
    """Least ideal containing the generators as a set of partitions:
    add pairwise common refinements and coarsenings until nothing new
    appears."""
    lattice = list(all_partitions(index_size))
    members = {Partition.top(index_size), *generators}
    changed = True
    while changed:
        changed = False
        for p, q in combinations(tuple(members), 2):
            m = p.meet(q)
            if m not in members:
                members.add(m)
                changed = True
        for p in lattice:
            if p not in members and any(q.refines(p) for q in members):
                members.add(p)
                changed = True
    return members


def oracle_diagonal_relation(ideal, domain):
    """The diagonal relation from its definition: every tuple over the
    domain whose kernel partition is a member of the ideal."""
    members = set(ideal.members)
    kappa = ideal.index_size
    tuples = [t for t in product(range(domain.size), repeat=kappa) if kernel_partition(t) in members]
    return Relation(domain, kappa, tuple(tuples))


def oracle_is_ideal(members, index_size):
    """Whether the partitions form an ideal, from the definition: nonempty,
    over the one index set, closed under every pairwise common refinement
    and under coarsening against the whole lattice."""
    have = set(members)
    if not have or any(p.index_size != index_size for p in have):
        return False
    if any(p.meet(q) not in have for p, q in combinations(have, 2)):
        return False
    return not any(
        p not in have and any(q.refines(p) for q in have) for p in all_partitions(index_size)
    )


def random_operation(rng, domain, arity, name=""):
    table = tuple(rng.randrange(domain.size) for _ in range(domain.size**arity))
    return Operation(domain, arity, table, name=name)


def near_projection(rng, domain, arity):
    """A random projection with one or two cells changed: unlike a random
    table it keeps many invariants, built from many distinct rows."""
    i = rng.randrange(arity)
    table = [t[i] for t in domain.tuples(arity)]
    for c in rng.sample(range(len(table)), rng.randint(1, 2)):
        table[c] = (table[c] + rng.randrange(1, domain.size)) % domain.size
    return Operation(domain, arity, tuple(table))


def random_relation(rng, domain, arity, name="", allow_empty=True, max_size=None):
    universe = list(domain.tuples(arity))
    low = 0 if allow_empty else 1
    high = len(universe) if max_size is None else min(max_size, len(universe))
    chosen = rng.sample(universe, rng.randint(low, high))
    return Relation(domain, arity, tuple(chosen), name=name)


def random_formula(rng, domain, rels_by_name, max_atoms=4, max_exists=3):
    """A random pp formula whose relation atoms draw from rels_by_name."""
    n_free = rng.randint(1, 3)
    n_exist = rng.randint(0, max_exists)
    free = [f"x{i}" for i in range(n_free)]
    exist = [f"y{i}" for i in range(n_exist)]
    names = free + exist
    atoms = []
    for _ in range(rng.randint(0, max_atoms)):
        if rels_by_name and rng.random() < 0.8:
            rel_name = rng.choice(sorted(rels_by_name))
            k = rels_by_name[rel_name].arity
            atoms.append(RelationAtom(rel_name, tuple(rng.choice(names) for _ in range(k))))
        else:
            atoms.append(EqualityAtom(rng.choice(names), rng.choice(names)))
    return PPFormula("phi", tuple(free), tuple(exist), tuple(atoms))


def relation_set(rels, domain=BOOL):
    return RelationSet(domain, tuple(rels))


def opset(ops, domain=BOOL):
    return OperationSet(domain, tuple(ops))
