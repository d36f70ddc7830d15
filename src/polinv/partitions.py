"""Partition lattices, their ideals, and generalized diagonal relations.

The lattice is defined here: Partition, ordered by refinement, with
join and meet.  A tuple's kernel partition groups positions carrying
equal values; the diagonal relation of an ideal collects every tuple
whose kernel lies in the ideal.  Ideals here live in the lattice
ordered by reverse refinement (the one-block partition at the bottom):
they are closed under coarsening and under pairwise common refinement.
That is the orientation that makes every diagonal relation invariant
under every finite-arity operation: applying an operation
coordinatewise can only merge value classes, so the image kernel
coarsens the common refinement of the row kernels and stays inside
the ideal.

Every ideal is principal: it is the set of coarsenings of its finest
member π, the common refinement of all its members.  So everything is
built from π.  A partition is a member iff π refines it.  The members
are the partitions of π's blocks mapped back onto the index set, one
for each restricted-growth string on those blocks, which also counts
them; the diagonal relation is the set of tuples constant on π's blocks.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import islice, product
from operator import attrgetter
from typing import Any, Hashable, Iterable, Iterator, Sequence

from .core import Domain, Operation, Relation, _built, _check_count, preserves
from .errors import ParseError
from .limits import DEFAULT_LIMITS, Limits


def _grouped(index_size: int, labels: Iterable[Hashable]) -> Partition:
    """The partition of {0, ..., index_size-1} whose blocks group the
    positions of equal labels, one label per index.  Each block is
    ascending and the blocks come in order of first occurrence, that is
    by minimum element: canonical, so it is built without a check."""
    groups: dict[Hashable, list[int]] = {}
    for pos, lab in enumerate(labels):
        groups.setdefault(lab, []).append(pos)
    return _built(Partition, index_size=index_size, blocks=tuple(map(tuple, groups.values())))


@dataclass(frozen=True)
class Partition:
    """A partition of the index set {0, ..., index_size-1}.

    Canonical form: each block ascending, blocks ordered by minimum
    element.  Refinement is the lattice order: p.refines(q) means every
    block of p sits inside a block of q, so the bottom element is the
    all-singletons partition and the top is the one-block partition.
    """

    index_size: int
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        _check_count(self.index_size, "index_size", 1)
        canon = sorted(tuple(sorted(b)) for b in self.blocks)
        seen: set[int] = set()
        for b in canon:
            if not b:
                raise ValueError("empty block in partition")
            for x in b:
                if not isinstance(x, int) or isinstance(x, bool) or not 0 <= x < self.index_size:
                    raise ValueError(f"block element {x!r} outside index set of size {self.index_size}")
                if x in seen:
                    raise ValueError(f"index {x} appears in two blocks")
                seen.add(x)
        if len(seen) != self.index_size:
            raise ValueError("blocks do not cover the index set")
        object.__setattr__(self, "blocks", tuple(canon))

    @classmethod
    def bottom(cls, index_size: int) -> "Partition":
        return cls(index_size, tuple((i,) for i in range(index_size)))

    @classmethod
    def top(cls, index_size: int) -> "Partition":
        return cls(index_size, (tuple(range(index_size)),))

    def block_of(self) -> list[int]:
        """The position of each index's block in canonical order, indexed by index."""
        out = [0] * self.index_size
        for pos, b in enumerate(self.blocks):
            for x in b:
                out[x] = pos
        return out

    def refines(self, other: "Partition") -> bool:
        """True iff self is finer than or equal to other."""
        if self.index_size != other.index_size:
            raise ValueError("partitions over different index sets")
        where = other.block_of()
        return all(len({where[x] for x in b}) == 1 for b in self.blocks)

    def join(self, other: "Partition") -> "Partition":
        """Least partition coarser than both (transitive closure of the union)."""
        if self.index_size != other.index_size:
            raise ValueError("partitions over different index sets")
        parent = list(range(self.index_size))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for b in self.blocks + other.blocks:
            for x in b[1:]:
                parent[find(b[0])] = find(x)
        return _grouped(self.index_size, (find(i) for i in range(self.index_size)))

    def meet(self, other: "Partition") -> "Partition":
        """Greatest partition finer than both: their common refinement."""
        if self.index_size != other.index_size:
            raise ValueError("partitions over different index sets")
        return _common_refinement(self.index_size, (self, other))


def _common_refinement(index_size: int, parts: Iterable[Partition]) -> Partition:
    """The meet of the partitions (the one-block partition if there are
    none), in one grouping pass over their block labels."""
    labels = [p.block_of() for p in parts]
    return _grouped(index_size, (tuple(lab[i] for lab in labels) for i in range(index_size)))


def kernel_partition(t: Sequence[int]) -> Partition:
    """Partition of positions of t grouping equal values."""
    if len(t) == 0:
        raise ValueError("kernel of the empty tuple is undefined")
    return _grouped(len(t), t)


def _growth_strings(size: int) -> Iterator[list[int]]:
    """Every restricted-growth label string of the given length, in
    lexicographic order: position 0 gets label 0 and each later position
    a label at most one past the maximum so far.  Each string labels the
    blocks of one partition of {0, ..., size-1}; the one list is reused
    between yields."""
    labels, tops = [0] * size, [0] * size  # tops[i]: the largest label before position i
    while True:  # an odometer: the rightmost label below its bound steps up, later ones drop to 0
        yield labels
        i = size - 1
        while labels[i] > tops[i]:  # stops at 0, where both are 0
            i -= 1
        if not i:
            return
        labels[i] += 1
        labels[i + 1 :] = [0] * (size - 1 - i)
        tops[i + 1 :] = [max(tops[i], labels[i])] * (size - 1 - i)


def all_partitions(index_size: int) -> Iterator[Partition]:
    """Generate every partition of {0, ..., index_size-1}, one per
    restricted-growth label string."""
    _check_count(index_size, "index_size", 1)
    return (_grouped(index_size, labels) for labels in _growth_strings(index_size))


def partition_lattice(index_size: int, *, limits: Limits = DEFAULT_LIMITS) -> tuple[Partition, ...]:
    """All partitions of the index set in canonical order."""
    _check_count(index_size, "index_size", 1)
    limits.check("max_index", index_size, "partition lattice")
    return tuple(sorted(all_partitions(index_size), key=lambda p: p.blocks))


@dataclass(frozen=True)
class PartitionIdeal:
    """A nonempty set of partitions closed under coarsening and under
    pairwise common refinement (an ideal in reverse-refinement order).

    Every such ideal is principal: it is exactly the set of coarsenings
    of its finest member π, the common refinement of all its members,
    which is kept as `finest` (not compared).  Construction verifies
    that, by counting π's coarsenings on the growth strings of its
    blocks, so a PartitionIdeal value is always a genuine ideal, and
    membership is tested as refinement by π.  The one-block partition
    is always a member.
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
        # correspond one to one to the growth strings on its blocks; the set
        # is an ideal iff it holds all of them, that is iff the walk over
        # those strings ends within one string per member.
        finest = _common_refinement(self.index_size, canon)
        if next(islice(_growth_strings(len(finest.blocks)), len(canon), None), None) is not None:
            raise ValueError(
                f"not an ideal: {len(canon)} members, but their common refinement "
                f"{finest.blocks} has more than {len(canon)} coarsenings"
            )
        object.__setattr__(self, "finest", finest)

    def __iter__(self) -> Iterator[Partition]:
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, p: Any) -> bool:
        return isinstance(p, Partition) and p.index_size == self.index_size and self.finest.refines(p)


def ideal_downset(
    generators: Iterable[Partition],
    index_size: int,
    *,
    limits: Limits = DEFAULT_LIMITS,
) -> PartitionIdeal:
    """Least ideal containing the generators: the coarsenings of their
    common refinement π, one for each partition of π's blocks.  With no
    generators this is the one-element ideal of the one-block partition."""
    _check_count(index_size, "index_size", 1)
    limits.check("max_index", index_size, "ideal downset")
    generators = tuple(generators)
    for p in generators:
        if p.index_size != index_size:
            raise ValueError(f"generator over index set of size {p.index_size}, expected {index_size}")
    finest = _common_refinement(index_size, generators)
    where = finest.block_of()
    members = [_grouped(index_size, map(labels.__getitem__, where)) for labels in _growth_strings(len(finest.blocks))]
    # distinct, one per growth string, finest among them; sorted, since the
    # strings' order is not that of the blocks
    members.sort(key=attrgetter("blocks"))
    return _built(PartitionIdeal, index_size=index_size, members=tuple(members), finest=finest)


def diagonal_relation(
    ideal: PartitionIdeal, domain: Domain, *, limits: Limits = DEFAULT_LIMITS
) -> Relation:
    """All tuples over the domain whose kernel partition lies in the
    ideal: the tuples constant on the blocks of its finest member, one
    for each assignment of domain elements to those blocks.  Blocks are
    numbered by their least index, so assignments in lexicographic order
    give tuples ascending and distinct, built without a check."""
    kappa = ideal.index_size
    limits.check_power("max_materialize", domain.size, kappa, "diagonal relation")
    block = ideal.finest.block_of()
    values = product(range(domain.size), repeat=len(ideal.finest.blocks))
    tuples = tuple([tuple(map(v.__getitem__, block)) for v in values])
    return _built(Relation, domain=domain, arity=kappa, tuples=tuples, name="")


def check_finitary_preservation(
    op: Operation, ideal: PartitionIdeal, *, limits: Limits = DEFAULT_LIMITS
) -> bool:
    """Whether op preserves the ideal's diagonal relation over op's domain.

    preserves decides on the diagonal's core: the diagonal holds every
    assignment of values to the blocks of the ideal's finest member, so it
    is full over its distinct columns, its core is {()} and the answer
    costs one row combination.  Only building the diagonal is capped."""
    return preserves(op, diagonal_relation(ideal, op.domain, limits=limits))


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
