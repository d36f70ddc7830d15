"""Bounded clone closure, membership, graph relations, essential coordinates,
over operation sets held as core.OperationSet values.

The n-ary members of the clone generated by F, held as value tables, are
the subuniverse of (A^(A^n); F) generated by the n projections (Poeschel
& Kaluznin 1979; Szendrei 1986).  _clone_slice closes that one arity,
for graph_relation, clone_contains and galois.galois_check;
clone_closure is the union of the slices up to a bound.  The slices and
invariant_closure run the one semi-naive loop _closing.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator, Sequence

from .core import Operation, OperationSet, Relation, _built, _check_count, _row_key, make_projection, row_images
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
    if op.arity == 0:
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


def _check_bound(generators: OperationSet, max_arity: int) -> None:
    _check_count(max_arity, "max_arity", 1)
    for g in generators:
        if g.arity > max_arity:
            raise ValueError(f"generator arity {g.arity} exceeds max_arity {max_arity}")


def clone_closure(
    generators: OperationSet,
    max_arity: int,
    *,
    limits: Limits = DEFAULT_LIMITS,
) -> OperationSet:
    """Least composition-closed operation set of arity <= max_arity.

    The union of the slices _clone_slice(generators, n) for n = max_arity
    down to 0, each closed once under the generators.  A table is named
    by the first projection or generator that has it; every other member
    has no name.  Refuses tables of more than max_materialize entries
    before a projection is built, and more than max_closure members, on
    the projections and generators and after each slice; each slice
    keeps its own round and size guards.  Nullary members come only from
    nullary generators: with none, the arity-0 slice is empty.
    """
    _check_bound(generators, max_arity)
    domain = generators.domain
    limits.check_power("max_materialize", domain.size, max_arity, f"clone closure table at arity {max_arity}")
    projections = [make_projection(domain, n, i) for n in range(1, max_arity + 1) for i in range(n)]
    members: dict[tuple[int, tuple[int, ...]], Operation] = {}
    for f in chain(projections, generators):
        members.setdefault((f.arity, f.table), f)
    limits.check("max_closure", len(members), "clone closure")
    for n in range(max_arity, -1, -1):
        for t in _clone_slice(generators, n, limits):
            if (n, t) not in members:
                members[n, t] = _built(Operation, domain=domain, arity=n, table=t, name="")
        limits.check("max_closure", len(members), "clone closure")
    return OperationSet._sorted(domain, members.values())


def _closing(
    ops: OperationSet, current: set[tuple[int, ...]], width: int, limits: Limits, what: str
) -> Iterator[int]:
    """Close current, a set of width-tuples, under pointwise application of
    every member of ops, in place, yielding its size after each round.

    Semi-naive: the nullary members' constant tuples join the seeds, and
    each round applies a member only to the row combinations that hold a
    tuple new in the previous round: one core.row_images call per first
    new position, with new rows there, older rows before it and any rows
    after it, and none for a position with no combination (every position
    but the first while no row is older).  Rows and images are keyed by
    core._row_key, as bytes while d <= 256, and deduplicated as keys;
    only new images become tuples in current.  The round guard
    counts the combinations alone, |all|^m - |older|^m per member of
    arity m, and refuses a round under what, the caller's name for it.
    Its callers close a relation (invariant_closure) and one arity's
    slice of a clone (_clone_slice, which clone_closure calls per arity).
    """
    current.update((f.table[0],) * width for f in ops if not f.arity)
    d, applied = ops.domain.size, [f for f in ops if f.arity]
    known = set(map(_row_key(d), current))
    older: list = []
    fresh = list(known)
    while fresh:
        every = older + fresh
        combos = sum(len(every) ** f.arity - len(older) ** f.arity for f in applied)
        limits.check("max_candidates", combos, what)
        produced: set = set()
        for f in applied:
            for i in range(f.arity if older else 1):
                row_lists = [older] * i + [fresh] + [every] * (f.arity - 1 - i)
                produced.update(row_images(f.table, d, width, row_lists))
        older, fresh = every, list(produced - known)
        known.update(fresh)
        current.update(map(tuple, fresh))
        yield len(current)


def invariant_closure(
    ops: OperationSet,
    seeds: Iterable[Sequence[int]],
    arity: int,
    *,
    limits: Limits = DEFAULT_LIMITS,
) -> Relation:
    """Least relation of the given arity containing the seeds and closed
    under pointwise application of every member of ops.

    Semi-naive rounds (see _closing): a round that would apply more than
    max_candidates new row combinations is refused.
    """
    current = set(Relation(ops.domain, arity, tuple(seeds)).tuples)  # validates the seeds
    for _ in _closing(ops, current, arity, limits, f"invariant closure round at arity {arity}"):
        pass
    return _built(Relation, domain=ops.domain, arity=arity, tuples=tuple(sorted(current)), name="")


def _clone_slice(ops: OperationSet, arity: int, limits: Limits) -> set[tuple[int, ...]]:
    """The value tables of the arity-ary members of the clone generated by
    ops (of any arities): the closure of the projections' tables under
    ops.  At arity 0 there are no projections, so these are the constants
    the nullary members generate.  Refuses tables of more than
    max_materialize cells and more than max_closure members."""
    domain = ops.domain
    limits.check_power("max_materialize", domain.size, arity, f"clone slice table at arity {arity}")
    width = domain.size**arity
    members = {make_projection(domain, arity, i).table for i in range(arity)}
    for size in _closing(ops, members, width, limits, f"clone slice round at arity {arity}"):
        limits.check("max_closure", size, f"clone slice at arity {arity}")
    return members


def clone_contains(
    generators: OperationSet,
    op: Operation,
    max_arity: int,
    *,
    limits: Limits = DEFAULT_LIMITS,
) -> bool:
    """Membership of op in the clone generated by the generators, none of
    which, nor op, may exceed max_arity.  Only op's arity is closed (see
    _clone_slice); a nullary op can only be a member when some generator
    is nullary."""
    _check_bound(generators, max_arity)
    if op.arity > max_arity:
        raise ValueError(f"operation arity {op.arity} exceeds max_arity {max_arity}")
    return op.domain == generators.domain and op.table in _clone_slice(generators, op.arity, limits)


def graph_relation(
    ops: OperationSet,
    arity: int,
    *,
    limits: Limits = DEFAULT_LIMITS,
) -> Relation:
    """Relation of arity d^arity whose tuples are the tables of the
    arity-ary members of the clone generated by ops.

    Coordinates are indexed by input tuples in lexicographic order, so
    each relation tuple literally is a value table.  Only this arity is
    closed: the tables are the closure of the projections' tables under
    ops, whose members may have any arity (see _clone_slice).  Passing an
    already-closed set just re-checks the fixpoint.
    """
    _check_count(arity, "arity", 1)
    tables = tuple(sorted(_clone_slice(ops, arity, limits)))
    return _built(Relation, domain=ops.domain, arity=ops.domain.size**arity, tuples=tables, name="")
