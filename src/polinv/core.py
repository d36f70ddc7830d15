"""Finite domains, operation tables, relations, and preservation.

Conventions used everywhere in the package:

* the domain is {0, ..., d-1};
* an n-ary operation is stored as its full value table of length d^n,
  inputs enumerated in lexicographic order with the FIRST coordinate most
  significant;
* a relation is a canonically sorted, deduplicated tuple set.

All values are immutable after construction.  The member sets
OperationSet and RelationSet live here too, next to their members, and
so does a relation's core (_core): the relation with repeated columns
merged and cylinder coordinates dropped, which has the same
polymorphisms.  preserves decides on the core and pol constrains by
cores.  Here too is row_images, the one kernel that applies an
operation to rows coordinatewise, on rows keyed by _row_key (bytes
while d <= 256): compose, preserves, the clone and invariant closures
(clones._closing), and the constraint and pin cells of pol's search
(galois._constraints, pp._reachable) call it.  It applies a table of at
most 256 cells on byte lanes by bytes.translate, and any other by
folding the head rows of each combination into cell indices.

The public constructors validate and canonicalize their input.  Values
the package has just built in canonical form (inv's relations, pol's
operations, the closures, ideal_downset, diagonal_relation, eval_pp, the
pp parser) skip that second validation through _built; the tests
rebuild each through the public constructors and require it unchanged.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import chain, product, repeat
from operator import add, attrgetter, getitem, mul
from typing import Any, Iterable, Iterator, Sequence


def _built(cls: type, **fields: Any) -> Any:
    """A value of the frozen dataclass cls with every field, defaults
    included, set as given and no __post_init__, so nothing is checked or
    canonicalized.  Only for fields a producer here has just made
    canonical; assert_rebuilds in tests/helpers.py holds each to that."""
    value = object.__new__(cls)
    for name, x in fields.items():  # vars(value).update would add a dict to each value on CPython 3.11
        object.__setattr__(value, name, x)
    return value


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
        # The lengths, the value types and the least and greatest distinct
        # value are checked in bulk, at a cost that follows the tuples, not
        # d; only a failure walks the tuples, to name the first bad one.
        flat = list(chain.from_iterable(canon))
        values = set(flat)
        if (
            set(map(len, canon)) - {self.arity}
            or not set(map(type, flat)) <= {int}  # every value, since True == 1
            or (values and not 0 <= min(values) <= max(values) < self.domain.size)
        ):
            for t in canon:
                if len(t) != self.arity:
                    raise ValueError(f"tuple {t} has length {len(t)}, expected arity {self.arity}")
                _check_values(t, self.domain.size, f"tuple {t}")
        object.__setattr__(self, "tuples", tuple(canon))

    def __contains__(self, t: Any) -> bool:
        try:
            t = tuple(t)
            i = bisect_left(self.tuples, t)
        except TypeError:  # not iterable, or an entry that does not compare with an int
            return False
        return i < len(self.tuples) and self.tuples[i] == t

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
    field holding its members (_field), their class (_type, named in
    messages) and their key (_key), (arity, table) or (arity, tuples).
    Members over other domains are refused, duplicate keys keep the first
    name given, and members are held in key order."""

    def __post_init__(self) -> None:
        key, seen = self._key, {}
        for m in getattr(self, self._field):
            if m.domain is not self.domain and m.domain != self.domain:
                raise ValueError(f"{self._type.__name__.lower()} {m.name or key(m)[1]} over a different domain")
            seen.setdefault(key(m), m)
        object.__setattr__(self, self._field, tuple(sorted(seen.values(), key=key)))

    @classmethod
    def _sorted(cls, domain: Domain, members: Iterable) -> Any:
        """The set of members, which a producer here has made distinct and
        over domain, built without a check (see _built): sorted by key."""
        return _built(cls, domain=domain, **{cls._field: tuple(sorted(members, key=cls._key))})

    def __iter__(self) -> Iterator:
        return iter(getattr(self, self._field))

    def __len__(self) -> int:
        return len(getattr(self, self._field))

    def __contains__(self, m: Any) -> bool:
        if not isinstance(m, self._type):
            return False
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
    _field, _type, _key = "ops", Operation, attrgetter("arity", "table")

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
    _field, _type, _key = "rels", Relation, attrgetter("arity", "tuples")


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
    list each, keyed by _row_key.

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
    (table,) = row_images(f.table, d, d**n, [(_row_key(d)(g.table),) for g in gs])
    return Operation(f.domain, n, table)


def _row_key(d: int) -> type:
    """How a row over {0, ..., d-1} is keyed where its values are compared
    or sliced in bulk: bytes, one per coordinate, while values fit in a
    byte, else the tuple itself."""
    return bytes if d <= 256 else tuple


def row_images(
    table: Sequence[int], d: int, width: int, row_lists: Sequence[Sequence[Sequence[int]]]
) -> Iterator[Sequence[int]]:
    """The coordinatewise image under table, an operation's value table
    on {0, ..., d-1} of arity m = len(row_lists), of each combination in
    product(*row_lists) of rows of the given width, in that order.  With
    range(d**m) as the table each image holds the cells its columns index.
    Rows are keyed by _row_key(d) and so are the images, save that those
    of a range past 256 cells, which may hold a value past a byte, are
    tuples.

    The route is chosen once.  A table with max(d, len(table)) <= 256 has
    its cells and values in a byte (an operation table's values are below
    d, a range's below its length): it is padded to 256 bytes and looked
    up by bytes.translate, a unary table on each row and a nullary one on
    the zero row (its one combination picks cell 0 in every column), a
    wider one through _lane_blocks.  Any other goes through _fold_blocks.
    """
    *heads, lasts = row_lists or [[bytes(width)]]
    if max(d, len(table)) > 256:
        return chain.from_iterable(_fold_blocks(table, d, width, heads, lasts))
    padded = bytes(table).ljust(256, b"\0")
    if not heads:
        return map(bytes.translate, lasts, repeat(padded))
    return chain.from_iterable(_lane_blocks(padded, d, width, heads, lasts))


def _lane_blocks(
    padded: bytes, d: int, width: int, heads: Sequence[Sequence[bytes]], lasts: Sequence[bytes]
) -> Iterator[Iterator[bytes]]:
    """For each head in product(*heads), the images of it followed by
    every last row, under a table of d^m <= 256 cells padded to 256 bytes.

    A row of bytes read as a little-endian int holds one coordinate per
    byte lane.  Head row j times d^(m-1-j), summed over the head, plus a
    last row hold each column's cell index in its lane, with no carry
    since every index is below d^m <= 256.  So one head's cells against
    all last rows are one int: the head repeated once per last row, plus
    the last rows joined.  Turned back into bytes, that block is looked
    up by one translate and cut into images.
    """
    count = len(lasts)
    tail = int.from_bytes(b"".join(lasts), "little")
    cuts = [slice(k * width, k * width + width) for k in range(count)]
    lanes = [[int.from_bytes(row, "little") * d ** (len(heads) - j) for row in rows] for j, rows in enumerate(heads)]
    for head in map(sum, product(*lanes)):
        cells = int.from_bytes(head.to_bytes(width, "little") * count, "little") + tail
        yield map(cells.to_bytes(count * width, "little").translate(padded).__getitem__, cuts)


def _fold_blocks(table: Sequence[int], d: int, width: int, heads: Sequence, lasts: Sequence) -> Iterator[Iterator]:
    """For each head in product(*heads), the images of it followed by
    every last row, as tuples if the table holds a value past a byte.  The
    table is split into its d^(m-1) rows of d values, and the head folded
    into one cell index per column from cell 0, which picks one such row
    per column; every last row is then mapped through those rows at C level.
    """
    key = _row_key(max(d, max(table) + 1))
    rows = [table[j : j + d] for j in range(0, len(table), d)]
    for head in product(*heads):
        cells: Iterable[int] = bytes(width)
        for row in head:
            cells = map(add, map(mul, cells, repeat(d)), row)
        cell_rows = list(map(rows.__getitem__, cells))
        yield map(key, map(map, repeat(getitem), repeat(cell_rows), lasts))


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
    rows = list(map(_row_key(f.domain.size), r.tuples))
    tset = set(rows)
    return all(t in tset for t in row_images(f.table, f.domain.size, r.arity, [rows] * f.arity))


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
    # dropping a coordinate can leave a tuple twice and out of order
    tuples = tuple(sorted(set(zip(*cols)))) if cols else ((),) if n else ()
    return _built(Relation, domain=r.domain, arity=len(cols), tuples=tuples, name="")

