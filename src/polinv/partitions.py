"""Partition lattices, their ideals, and generalized diagonal relations.

A tuple's kernel partition groups positions carrying equal values; the
diagonal relation of an ideal collects every tuple whose kernel lies in
the ideal.  Ideals here live in the lattice ordered by reverse
refinement (the one-block partition at the bottom): they are closed
under coarsening and under pairwise common refinement.  That is the
orientation that makes every diagonal relation invariant under every
finite-arity operation: applying an operation coordinatewise can only
merge value classes, so the image kernel coarsens the common refinement
of the row kernels and stays inside the ideal.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass
from functools import reduce
from itertools import product
from typing import Iterable, Iterator

from .core import Domain, Operation, Partition, Relation, kernel_partition, preserves
from .errors import ParseError, ResourceBoundError
from .limits import DEFAULT_LIMITS, Limits


def all_partitions(index_size: int) -> Iterator[Partition]:
    """Generate every partition of {0, ..., index_size-1}.

    Enumerates restricted-growth label strings: position 0 gets label 0
    and each later position a label at most one past the maximum so far.
    """
    if index_size < 1:
        raise ValueError(f"index_size must be at least 1, got {index_size}")
    labels = [0] * index_size

    def rec(i: int, mx: int) -> Iterator[Partition]:
        if i == index_size:
            groups: dict[int, list[int]] = {}
            for pos, lab in enumerate(labels):
                groups.setdefault(lab, []).append(pos)
            yield Partition(index_size, tuple(tuple(g) for g in groups.values()))
            return
        for v in range(mx + 2):
            labels[i] = v
            yield from rec(i + 1, max(mx, v))

    return rec(1, 0)


def partition_lattice(index_size: int, *, limits: Limits = DEFAULT_LIMITS) -> tuple[Partition, ...]:
    """All partitions of the index set in canonical order."""
    if index_size > limits.max_index:
        raise ResourceBoundError(
            f"partition lattice on {index_size} indices exceeds cap {limits.max_index}"
        )
    return tuple(sorted(all_partitions(index_size), key=lambda p: p.blocks))


@dataclass(frozen=True)
class PartitionIdeal:
    """A nonempty set of partitions closed under coarsening and under
    pairwise common refinement (an ideal in reverse-refinement order).

    Every such ideal is principal: it is exactly the set of coarsenings
    of its finest member, the common refinement of all its members.
    Construction verifies that, so a PartitionIdeal value is always a
    genuine ideal.  The one-block partition is always a member.
    """

    index_size: int
    members: tuple[Partition, ...]

    def __post_init__(self) -> None:
        canon = sorted(set(self.members), key=lambda p: p.blocks)
        object.__setattr__(self, "members", tuple(canon))
        if not canon:
            raise ValueError("an ideal is nonempty (it contains the one-block partition)")
        for p in canon:
            if p.index_size != self.index_size:
                raise ValueError("ideal members over different index sets")
        # Every member coarsens the common refinement, whose coarsenings
        # correspond one to one to the partitions of its blocks; the set
        # is an ideal iff it holds all of them, that is iff the counts agree.
        finest = reduce(Partition.meet, canon)
        coarsenings = sum(1 for _ in all_partitions(len(finest.blocks)))
        if len(canon) != coarsenings:
            raise ValueError(
                f"not an ideal: {len(canon)} members, but their common refinement "
                f"{finest.blocks} has {coarsenings} coarsenings"
            )

    def __iter__(self) -> Iterator[Partition]:
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, p: Partition) -> bool:
        i = bisect_left(self.members, p.blocks, key=lambda q: q.blocks)
        return i < len(self.members) and self.members[i] == p


def ideal_downset(
    generators: Iterable[Partition],
    index_size: int,
    *,
    limits: Limits = DEFAULT_LIMITS,
) -> PartitionIdeal:
    """Least ideal containing the generators: the coarsenings of the
    generators' common refinement.  With no generators this is the
    one-element ideal of the one-block partition."""
    lattice = partition_lattice(index_size, limits=limits)
    finest = Partition.top(index_size)
    for p in generators:
        if p.index_size != index_size:
            raise ValueError(f"generator over index set of size {p.index_size}, expected {index_size}")
        finest = finest.meet(p)
    return PartitionIdeal(index_size, tuple(p for p in lattice if finest.refines(p)))


def diagonal_relation(
    ideal: PartitionIdeal, domain: Domain, *, limits: Limits = DEFAULT_LIMITS
) -> Relation:
    """All tuples over the domain whose kernel partition lies in the ideal."""
    kappa = ideal.index_size
    count = domain.size**kappa
    if count > limits.max_materialize:
        raise ResourceBoundError(
            f"diagonal relation would materialize {count} tuples, cap is {limits.max_materialize}"
        )
    members = set(ideal.members)
    tuples = [t for t in product(range(domain.size), repeat=kappa) if kernel_partition(t) in members]
    return Relation(domain, kappa, tuple(tuples))


def check_finitary_preservation(
    op: Operation, ideal: PartitionIdeal, *, limits: Limits = DEFAULT_LIMITS
) -> bool:
    """Whether op preserves the ideal's diagonal relation over op's domain."""
    diag = diagonal_relation(ideal, op.domain, limits=limits)
    combos = len(diag) ** op.arity
    if combos > limits.max_candidates:
        raise ResourceBoundError(
            f"finitary preservation check needs {combos} row combinations, cap is {limits.max_candidates}"
        )
    return preserves(op, diag)


def parse_partition(text: str, index_size: int) -> Partition:
    """Parse the text form "0,1|2": blocks separated by '|', elements by ','."""
    blocks = []
    for chunk in text.split("|"):
        items = []
        for piece in chunk.split(","):
            piece = piece.strip()
            if not re.fullmatch(r"\d+", piece or ""):
                raise ParseError(f"bad partition element {piece!r} in {text!r}")
            items.append(int(piece))
        blocks.append(tuple(items))
    try:
        return Partition(index_size, tuple(blocks))
    except ValueError as exc:
        raise ParseError(f"bad partition {text!r}: {exc}") from exc


def format_partition(p: Partition) -> str:
    return "|".join(",".join(str(x) for x in b) for b in p.blocks)
