"""Bounded clone closure, membership, graph relations, essential coordinates,
over operation sets held as core.OperationSet values."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .core import Operation, OperationSet, Relation, compose, make_projection
from .errors import ResourceBoundError
from .limits import DEFAULT_LIMITS, Limits


@dataclass(frozen=True)
class EssentialSet:
    """The coordinates an operation essentially depends on.

    Construction computes the indices from the table and rejects given
    ones that differ, so an EssentialSet in hand is always trustworthy.
    """

    op: Operation
    indices: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        canon = None if self.indices is None else tuple(sorted(set(self.indices)))
        object.__setattr__(self, "indices", _essential_indices(self.op))
        if canon is not None and canon != self.indices:
            raise ValueError(f"indices {canon} are not the essential coordinates of {self.op.name or self.op.table}")


def _essential_indices(op: Operation) -> tuple[int, ...]:
    if op.arity < 1:
        raise ValueError("essential coordinates are defined for arity >= 1")
    d = op.domain.size
    n = op.arity
    table = op.table
    essential = []
    for i in range(n):
        stride = d ** (n - 1 - i)
        found = False
        for idx in range(len(table)):
            if (idx // stride) % d < d - 1 and table[idx] != table[idx + stride]:
                found = True
                break
        if found:
            essential.append(i)
    return tuple(essential)


def essential_variables(op: Operation) -> EssentialSet:
    """Coordinates i for which some pair differing only at i changes the value."""
    return EssentialSet(op)


def clone_closure(
    generators: OperationSet,
    max_arity: int,
    *,
    include_nullary: bool = False,
    limits: Limits = DEFAULT_LIMITS,
) -> OperationSet:
    """Least composition-closed operation set of arity <= max_arity.

    Seeded with every projection of arity 1..max_arity and the generators;
    closed under compose(f, gs) for any member f and same-arity member
    tuples gs whose common arity stays within the bound.  Fixpoint by
    breadth-first rounds over a work set, deduplicating by table.
    """
    if max_arity < 1:
        raise ValueError(f"max_arity must be at least 1, got {max_arity}")
    domain = generators.domain
    for g in generators:
        if g.arity > max_arity:
            raise ValueError(f"generator arity {g.arity} exceeds max_arity {max_arity}")
        if g.arity == 0 and not include_nullary:
            raise ValueError("nullary generator requires include_nullary")

    members: dict[tuple[int, tuple[int, ...]], Operation] = {}

    def add(op: Operation) -> bool:
        key = (op.arity, op.table)
        if key in members:
            return False
        members[key] = op
        return True

    for n in range(1, max_arity + 1):
        for i in range(n):
            add(make_projection(domain, n, i))
    for g in generators:
        add(g)

    min_arity = 0 if include_nullary else 1
    fresh = set(members)
    while fresh:
        current = list(members.values())
        by_arity: dict[int, list[Operation]] = {}
        for op in current:
            by_arity.setdefault(op.arity, []).append(op)
        produced: set[tuple[int, tuple[int, ...]]] = set()
        for f in current:
            f_key = (f.arity, f.table)
            f_fresh = f_key in fresh
            for n in range(min_arity, max_arity + 1):
                pool = by_arity.get(n, [])
                if f.arity > 0 and not pool:
                    continue
                for gs in product(pool, repeat=f.arity):
                    if not f_fresh and all((g.arity, g.table) not in fresh for g in gs):
                        continue  # composed in an earlier round
                    h = compose(f, gs, arity=n)
                    if add(h):
                        produced.add((h.arity, h.table))
                        if len(members) > limits.max_closure:
                            raise ResourceBoundError(
                                f"clone closure exceeds {limits.max_closure} operations"
                            )
        fresh = produced
    return OperationSet(domain, tuple(members.values()))


def clone_contains(
    generators: OperationSet,
    op: Operation,
    max_arity: int,
    *,
    include_nullary: bool = False,
    limits: Limits = DEFAULT_LIMITS,
) -> bool:
    """Membership of op in the bounded closure of the generators."""
    if op.arity > max_arity:
        raise ValueError(f"operation arity {op.arity} exceeds max_arity {max_arity}")
    closed = clone_closure(generators, max_arity, include_nullary=include_nullary, limits=limits)
    return op in closed


def graph_relation(
    ops: OperationSet,
    arity: int,
    *,
    limits: Limits = DEFAULT_LIMITS,
) -> Relation:
    """Relation of arity d^arity whose tuples are the tables of the
    arity-ary members of the clone generated by ops.

    Coordinates are indexed by input tuples in lexicographic order, so
    each relation tuple literally is a value table.  The input set is
    closed internally first; passing an already-closed set just re-checks
    the fixpoint.
    """
    if arity < 1:
        raise ValueError(f"arity must be at least 1, got {arity}")
    domain = ops.domain
    width = domain.size**arity
    if width > limits.max_materialize:
        raise ResourceBoundError(
            f"graph relation of arity {width} exceeds materialization cap {limits.max_materialize}"
        )
    include_nullary = any(op.arity == 0 for op in ops)
    closed = clone_closure(
        ops,
        max(arity, ops.max_arity()),
        include_nullary=include_nullary,
        limits=limits,
    )
    rows = [op.table for op in closed.arity_members(arity)]
    return Relation(domain, width, tuple(rows))
