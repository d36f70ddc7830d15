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

Every ideal is principal: it is the set of coarsenings of its finest
member π, the common refinement of all its members.  So everything is
built from π.  The members are the partitions of π's blocks mapped back
onto the index set, there are Bell(number of blocks of π) of them, and
the diagonal relation is the set of tuples constant on π's blocks.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import product
from typing import Iterable, Iterator

from .core import Domain, Operation, Partition, Relation, _check_count, _common_refinement, _groups, preserves
from .errors import ParseError, ResourceBoundError
from .limits import DEFAULT_LIMITS, Limits


def _growth_strings(size: int) -> Iterator[list[int]]:
    """Every restricted-growth label string of the given length: position
    0 gets label 0 and each later position a label at most one past the
    maximum so far.  Each string labels the blocks of one partition of
    {0, ..., size-1}; the one list is reused between yields."""
    labels = [0] * size

    def rec(i: int, mx: int) -> Iterator[list[int]]:
        if i == size:
            yield labels
            return
        for v in range(mx + 2):
            labels[i] = v
            yield from rec(i + 1, max(mx, v))

    return rec(1, 0)


def all_partitions(index_size: int) -> Iterator[Partition]:
    """Generate every partition of {0, ..., index_size-1}, one per
    restricted-growth label string."""
    _check_count(index_size, "index_size", 1)
    return (Partition(index_size, _groups(labels)) for labels in _growth_strings(index_size))


def bell_number(n: int) -> int:
    """The number of partitions of an n-element set, read off the Bell
    triangle: each row starts with the last entry of the row above, and
    each later entry adds the entry above its left neighbour."""
    row = [1]
    for _ in range(n - 1):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[-1]


def _check_lattice_size(index_size: int, limits: Limits) -> None:
    _check_count(index_size, "index_size", 1)
    if index_size > limits.max_index:
        raise ResourceBoundError(
            f"partition lattice on {index_size} indices exceeds cap {limits.max_index}"
        )


def partition_lattice(index_size: int, *, limits: Limits = DEFAULT_LIMITS) -> tuple[Partition, ...]:
    """All partitions of the index set in canonical order."""
    _check_lattice_size(index_size, limits)
    return tuple(sorted(all_partitions(index_size), key=lambda p: p.blocks))


@dataclass(frozen=True)
class PartitionIdeal:
    """A nonempty set of partitions closed under coarsening and under
    pairwise common refinement (an ideal in reverse-refinement order).

    Every such ideal is principal: it is exactly the set of coarsenings
    of its finest member π, the common refinement of all its members,
    which is kept as `finest` (not compared).  Construction verifies
    that, so a PartitionIdeal value is always a genuine ideal.  The
    one-block partition is always a member.
    """

    index_size: int
    members: tuple[Partition, ...]
    finest: Partition = field(init=False, compare=False)

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
        finest = _common_refinement(self.index_size, canon)
        coarsenings = bell_number(len(finest.blocks))
        if len(canon) != coarsenings:
            raise ValueError(
                f"not an ideal: {len(canon)} members, but their common refinement "
                f"{finest.blocks} has {coarsenings} coarsenings"
            )
        object.__setattr__(self, "finest", finest)

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
    """Least ideal containing the generators: the coarsenings of their
    common refinement π, one for each partition of π's blocks.  With no
    generators this is the one-element ideal of the one-block partition."""
    _check_lattice_size(index_size, limits)
    generators = tuple(generators)
    for p in generators:
        if p.index_size != index_size:
            raise ValueError(f"generator over index set of size {p.index_size}, expected {index_size}")
    blocks = _common_refinement(index_size, generators).blocks
    members = []
    for labels in _growth_strings(len(blocks)):
        merged = (tuple(x for j in group for x in blocks[j]) for group in _groups(labels))
        members.append(Partition(index_size, tuple(merged)))
    return PartitionIdeal(index_size, tuple(members))


def diagonal_relation(
    ideal: PartitionIdeal, domain: Domain, *, limits: Limits = DEFAULT_LIMITS
) -> Relation:
    """All tuples over the domain whose kernel partition lies in the
    ideal: the tuples constant on the blocks of its finest member, one
    for each assignment of domain elements to those blocks."""
    kappa = ideal.index_size
    count = domain.size**kappa
    if count > limits.max_materialize:
        raise ResourceBoundError(
            f"diagonal relation would materialize {count} tuples, cap is {limits.max_materialize}"
        )
    where = ideal.finest.block_of()
    block = [where[i] for i in range(kappa)]
    values = product(range(domain.size), repeat=len(ideal.finest.blocks))
    return Relation(domain, kappa, [tuple(v[b] for b in block) for v in values])


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
