"""Finite domains, operation tables, relations, and preservation.

Conventions used everywhere in the package:

* the domain is {0, ..., d-1};
* an n-ary operation is stored as its full value table of length d^n,
  inputs enumerated in lexicographic order with the FIRST coordinate most
  significant;
* a relation is a canonically sorted, deduplicated tuple set;
* a partition of {0, ..., k-1} stores blocks sorted by minimum element.

All values are immutable after construction.  The member sets
OperationSet and RelationSet live here too, next to their members, and
so does a relation's core (_core): the relation with repeated columns
merged and cylinder coordinates dropped, which has the same
polymorphisms.  preserves decides on the core and pol constrains by
cores.  Here too is row_images, the kernel that applies an operation
to rows coordinatewise: compose, preserves, and the constraint and pin
cells of pol's search (galois._constraints, pp._reachable) call it.
The clone and invariant closures (clones._closing) call it only for a
member whose table has more than 256 cells; a narrower one is applied
on byte lanes by bytes.translate (clones._images).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import chain, product, repeat
from operator import add, attrgetter, getitem, mul
from typing import Any, Hashable, Iterable, Iterator, Sequence


def _check_count(value: object, what: str, least: int) -> None:
    """Refuse all but an exact int (so no bool) of at least least, 0 or 1."""
    if type(value) is not int or value < least:
        raise ValueError(f"{what} must be a {'positive' if least else 'nonnegative'} integer, got {value!r}")


@dataclass(frozen=True)
class Domain:
    """Carrier set {0, ..., size-1}."""

    size: int

    def __post_init__(self) -> None:
        _check_count(self.size, "domain size", 1)

    def elements(self) -> range:
        return range(self.size)

    def tuples(self, arity: int) -> Iterator[tuple[int, ...]]:
        """All tuples of the given arity, in lexicographic order."""
        _check_count(arity, "arity", 0)
        return product(range(self.size), repeat=arity)

    def tuple_index(self, t: Sequence[int]) -> int:
        """Lexicographic rank of t among tuples of its length."""
        idx = 0
        for a in t:
            idx = idx * self.size + a
        return idx


def _check_values(values: Iterable[int], size: int, what: str) -> None:
    for v in values:
        if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < size:
            raise ValueError(f"{what} contains {v!r}, not a domain element of size {size}")


@dataclass(frozen=True)
class Operation:
    """A finitary operation given by its full value table.

    The name is a label for display and file round-trips; equality and
    hashing use only (domain, arity, table).
    """

    domain: Domain
    arity: int
    table: tuple[int, ...]
    name: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "table", tuple(self.table))
        _check_count(self.arity, "arity", 0)
        expected = self.domain.size**self.arity
        if len(self.table) != expected:
            raise ValueError(
                f"table for arity {self.arity} on domain size {self.domain.size} "
                f"needs {expected} entries, got {len(self.table)}"
            )
        _check_values(self.table, self.domain.size, "table")

    def apply(self, args: Sequence[int]) -> int:
        if len(args) != self.arity:
            raise ValueError(f"operation of arity {self.arity} applied to {len(args)} arguments")
        _check_values(args, self.domain.size, "arguments")
        return self.table[self.domain.tuple_index(args)]

    def __call__(self, *args: int) -> int:
        return self.apply(args)


@dataclass(frozen=True)
class Relation:
    """A finitary relation as a canonical tuple set.

    Input tuples are deduplicated and sorted on construction, so two
    relations are equal iff they have the same domain, arity, and tuple
    set.  The name is display-only, as for Operation.
    """

    domain: Domain
    arity: int
    tuples: tuple[tuple[int, ...], ...]
    name: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        _check_count(self.arity, "arity", 0)
        canon = sorted(set(map(tuple, self.tuples)))
        # One pass over the lengths and one over the flattened values; only
        # a failure walks the tuples, to name the first bad one.
        flat = list(chain.from_iterable(canon))
        if (
            set(map(len, canon)) - {self.arity}
            or not set(map(type, flat)) <= {int}  # every value, since True == 1
            or not set(flat).issubset(range(self.domain.size))
        ):
            for t in canon:
                if len(t) != self.arity:
                    raise ValueError(f"tuple {t} has length {len(t)}, expected arity {self.arity}")
                _check_values(t, self.domain.size, f"tuple {t}")
        object.__setattr__(self, "tuples", tuple(canon))

    def __contains__(self, t: Sequence[int]) -> bool:
        i = bisect_left(self.tuples, tuple(t))
        return i < len(self.tuples) and self.tuples[i] == tuple(t)

    def __len__(self) -> int:
        return len(self.tuples)

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return iter(self.tuples)

    @property
    def is_empty(self) -> bool:
        return not self.tuples

    @property
    def is_full(self) -> bool:
        return len(self.tuples) == self.domain.size**self.arity


class _MemberSet:
    """The body of OperationSet and RelationSet.  A subclass names the
    field holding its members (_field), their kind in messages (_kind) and
    their key (_key), (arity, table) or (arity, tuples).  Members over
    other domains are refused, duplicate keys keep the first name given,
    and members are held in key order."""

    def __post_init__(self) -> None:
        key, seen = self._key, {}
        for m in getattr(self, self._field):
            if m.domain is not self.domain and m.domain != self.domain:
                raise ValueError(f"{self._kind} {m.name or key(m)[1]} over a different domain")
            seen.setdefault(key(m), m)
        object.__setattr__(self, self._field, tuple(sorted(seen.values(), key=key)))

    def __iter__(self) -> Iterator:
        return iter(getattr(self, self._field))

    def __len__(self) -> int:
        return len(getattr(self, self._field))

    def __contains__(self, m: Any) -> bool:
        members = getattr(self, self._field)
        i = bisect_left(members, self._key(m), key=self._key)
        return i < len(members) and members[i] == m


@dataclass(frozen=True)
class OperationSet(_MemberSet):
    """A duplicate-free set of operations over one domain.

    Members are held in canonical order: by arity, then lexicographically
    by table.  When two inputs share (arity, table) the first one's name
    survives.
    """

    domain: Domain
    ops: tuple[Operation, ...]
    _field, _kind, _key = "ops", "operation", attrgetter("arity", "table")

    def max_arity(self) -> int:
        return max((op.arity for op in self.ops), default=0)


@dataclass(frozen=True)
class RelationSet(_MemberSet):
    """A duplicate-free set of relations over one domain.

    Canonical order: by arity, then lexicographically by tuple list.
    First name wins on duplicates, as in OperationSet.
    """

    domain: Domain
    rels: tuple[Relation, ...]
    _field, _kind, _key = "rels", "relation", attrgetter("arity", "tuples")


def _groups(labels: Iterable[Hashable]) -> tuple[tuple[int, ...], ...]:
    """The positions of equal labels, grouped, in order of first occurrence."""
    groups: dict[Hashable, list[int]] = {}
    for pos, lab in enumerate(labels):
        groups.setdefault(lab, []).append(pos)
    return tuple(tuple(g) for g in groups.values())


def _common_refinement(index_size: int, parts: Iterable["Partition"]) -> "Partition":
    """The meet of the partitions (the one-block partition if there are
    none), in one grouping pass over their block labels."""
    labels = [p.block_of() for p in parts]
    return Partition(index_size, _groups(tuple(lab[i] for lab in labels) for i in range(index_size)))


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

    def block_of(self) -> dict[int, int]:
        """Map each index to the position of its block in canonical order."""
        out: dict[int, int] = {}
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
        return Partition(self.index_size, _groups(find(i) for i in range(self.index_size)))

    def meet(self, other: "Partition") -> "Partition":
        """Greatest partition finer than both: their common refinement."""
        if self.index_size != other.index_size:
            raise ValueError("partitions over different index sets")
        return _common_refinement(self.index_size, (self, other))


def make_projection(domain: Domain, arity: int, index: int, name: str | None = None) -> Operation:
    """The arity-ary projection onto the given coordinate."""
    _check_count(arity, "projection arity", 1)
    if type(index) is not int or not 0 <= index < arity:
        raise ValueError(f"projection index {index} out of range for arity {arity}")
    table = tuple(t[index] for t in domain.tuples(arity))
    return Operation(domain, arity, table, name=name if name is not None else f"pr{index}_{arity}")


def compose(f: Operation, gs: Sequence[Operation], arity: int | None = None) -> Operation:
    """Superposition f(g_0(args), ..., g_{m-1}(args)), computed by
    row_images as f applied coordinatewise to the tables of gs, one row
    list each.

    All of gs must share one arity, which becomes the result arity; when
    f is nullary gs is empty and the result arity must be passed
    explicitly.
    """
    if arity is not None:
        _check_count(arity, "arity", 0)
    if len(gs) != f.arity:
        raise ValueError(f"operation of arity {f.arity} composed with {len(gs)} inner operations")
    for g in gs:
        if g.domain != f.domain:
            raise ValueError("composition across different domains")
    if gs:
        inner = {g.arity for g in gs}
        if len(inner) != 1:
            raise ValueError(f"inner operations have mixed arities {sorted(inner)}")
        n = inner.pop()
        if arity is not None and arity != n:
            raise ValueError(f"declared arity {arity} does not match inner arity {n}")
    else:
        if arity is None:
            raise ValueError("composing a nullary operation requires an explicit result arity")
        n = arity
    d = f.domain.size
    (table,) = row_images(f.table, d, d**n, [(g.table,) for g in gs])
    return Operation(f.domain, n, table)


def row_images(
    table: Sequence[int], d: int, width: int, row_lists: Sequence[Sequence[tuple[int, ...]]]
) -> Iterator[tuple[int, ...]]:
    """The coordinatewise image under table, an operation's value table
    on {0, ..., d-1} of arity m = len(row_lists), of each combination in
    product(*row_lists) of rows of the given width, in that order.  With
    range(d**m) as the table each image holds the cells its columns index.

    The table is split once into its d^(m-1) rows of d values.  Each head
    (the first m-1 rows of a combination) is folded into one cell index
    per column, which picks one such row per column; every last row is
    then mapped through those rows at C level.  A nullary table yields
    its one constant tuple.
    """
    if not row_lists:
        yield (table[0],) * width
        return
    *heads, lasts = row_lists
    if not heads:  # a unary table is its one row, read by every column
        yield from map(tuple, map(map, repeat(getitem), repeat([table] * width), lasts))
        return
    rows = [table[j : j + d] for j in range(0, len(table), d)]
    for first, *rest in product(*heads):
        cells: Iterable[int] = first
        for row in rest:
            cells = map(add, map(mul, cells, repeat(d)), row)
        cell_rows = list(map(rows.__getitem__, cells))
        yield from map(tuple, map(map, repeat(getitem), repeat(cell_rows), lasts))


def preserves(f: Operation, r: Relation) -> bool:
    """True iff f applied row-wise to any tuples of r lands back in r.

    Decided on r's core (see _core), which has the same polymorphisms:
    exhaustive over all |core|^arity(f) row choices.  A nullary f has one
    (empty) row choice, so it preserves r iff r contains the constant
    tuple of f's value; in particular no nullary operation preserves an
    empty relation, whose core is the empty relation of arity 0.
    """
    if f.domain != r.domain:
        raise ValueError("operation and relation over different domains")
    r = _core(r)
    tset = set(r.tuples)
    return all(t in tset for t in row_images(f.table, f.domain.size, r.arity, [r.tuples] * f.arity))


def _row_key(d: int) -> type:
    """How a row over {0, ..., d-1} is keyed where its values are compared
    or sliced in bulk: bytes, one per coordinate, while values fit in a
    byte, else the tuple itself."""
    return bytes if d <= 256 else tuple


def _core(r: Relation) -> Relation:
    """r with each column equal to an earlier one merged into it, then
    each coordinate over which it is a full cylinder dropped: one whose
    removal leaves |r| / d tuples.  Identifying coordinates and adding or
    removing fictitious ones keep a relation's polymorphisms, so r and its
    core have the same ones, nullary ones included; preserves decides on
    it, and pol constrains by it.  A full relation's core is {()}; the
    empty relation's is the empty relation of arity 0.

    Three counts spare most projections.  A relation of d^c tuples over c
    distinct columns is full, so every coordinate goes untested (every
    diagonal relation is such a one).  A cylinder coordinate holds each
    value |r| / d times, which one count per value checks first.  And c
    cylinder coordinates make |r| a multiple of d^c, so the scan stops
    once one more could not.  Projections are taken on the tuples keyed
    by _row_key, as bytes where values fit in one, each a C-level slice.
    """
    d, n = r.domain.size, len(r)
    cols = list(dict.fromkeys(zip(*r.tuples)))  # each distinct column once, in order
    if n == d ** len(cols):
        cols = []
    else:
        share, dropped, rows = n // d, set(), None
        for j, col in enumerate(cols):
            if n % d ** (len(dropped) + 1):
                break
            if any(col.count(a) != share for a in range(d)):
                continue
            if rows is None:  # the tuples over the distinct columns
                rows = list(map(_row_key(d), zip(*cols)))
            if len({t[:j] + t[j + 1 :] for t in rows}) * d == n:
                dropped.add(j)
        cols = [c for j, c in enumerate(cols) if j not in dropped]
    if len(cols) == r.arity:  # nothing merged or dropped
        return r
    if not cols:
        return Relation(r.domain, 0, ((),) if n else ())
    return Relation(r.domain, len(cols), tuple(zip(*cols)))


def kernel_partition(t: Sequence[int]) -> Partition:
    """Partition of positions of t grouping equal values."""
    if len(t) == 0:
        raise ValueError("kernel of the empty tuple is undefined")
    return Partition(len(t), _groups(t))
