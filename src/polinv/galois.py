"""The two Galois maps between operation sets and relation sets.

inv enumerates every relation of a given arity preserved by all given
operations (depth-first search over tuple sets in rank order, pruned as
soon as the set's image holds a tuple it can no longer gain); pol
enumerates every operation of a given arity preserving all given
relations (depth-first table construction with forward pruning, its
constraints built from each relation's core as core._core computes it:
repeated columns merged, cylinder coordinates dropped, full cores
skipped), and the same backtracker, with some cells pinned and a
first-solution stop, decides pp-definability.
galois_check checks that pol recovers a generated clone from its
invariants up to arity max_k; pol is handed only the maximal ones of
arity max_k, one per orbit under coordinate permutations.  The
operation and relation sets on either side are core.OperationSet and
core.RelationSet values.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement
from typing import Callable, Iterable, Sequence

from .clones import graph_relation
from .core import Domain, Operation, OperationSet, Relation, RelationSet, _check_count, _core, row_images
from .limits import DEFAULT_LIMITS, Limits


def _invariant_masks(ops: OperationSet, arity: int, limits: Limits) -> list[int]:
    """Bitmasks over tuple ranks of every relation of the given arity
    preserved by all members of ops.

    A relation is closed when it holds its image: every tuple any member
    of ops produces from its rows.  Depth-first search adds tuples in
    increasing rank, carrying the image of the set built so far, and
    prunes as soon as the image holds a tuple of rank at most the newest
    one that the set lacks.  This is exact: the image only grows along a
    branch and every later tuple ranks higher, so a pruned branch holds
    no closed set; and each prefix of a closed set misses only image
    tuples of that set, all ranked above the prefix, so none is pruned.
    The same argument bounds each child's rank by the lowest missing one.

    Each member is applied once per call to all its row combinations, by
    index arithmetic: with the first row fixed, the later rows pick per
    coordinate a table cell below its argument, and image[c] ranks the
    image of the cells packed as c.  Images are ORed per set of ranks used
    and filed under its highest rank t: root holds the nullary constants,
    pair[t][b] the set {t, b} (b == t for {t}), wide[t][q] the set of t and
    two or more lower ranks q, ascending.  A node adding t ORs in the
    entries for t and for the subsets of the ranks below it.
    """
    domain = ops.domain
    d = domain.size
    size = d**arity
    limits.check("max_materialize", size, f"inv relation at arity {arity}")
    limits.check("max_candidates", 2**size, f"inv at arity {arity}")
    limits.check("max_candidates", sum(size**f.arity for f in ops), f"inv row combinations at arity {arity}")
    tuples = list(domain.tuples(arity))
    root = sum({1 << domain.tuple_index((f.table[0],) * arity) for f in ops if not f.arity})
    images: dict[int, int] = {}  # bitmask of the ranks used -> image
    for f in (f for f in ops if f.arity):
        step = d ** (f.arity - 1)
        spread = [sum(a * step ** (arity - 1 - i) for i, a in enumerate(row)) for row in tuples]
        used, cells = [0], [0]
        for _ in range(f.arity - 1):
            used = [u | 1 << r for u in used for r in range(size)]
            cells = [c * d + s for c in cells for s in spread]
        for r, row in enumerate(tuples):
            image = [0]
            for a in row:
                part = f.table[a * step : (a + 1) * step]
                image = [g * d + v for g in image for v in part]
            for u, c in zip([w | 1 << r for w in used], cells):
                images[u] = images.get(u, 0) | 1 << image[c]
    pair = [[0] * size for _ in range(size)]
    wide: list[dict[tuple[int, ...], int]] = [{} for _ in range(size)]
    for u, bits in images.items():
        t = u.bit_length() - 1
        low = u ^ 1 << t
        if low & (low - 1):
            wide[t][tuple(b for b in range(t) if low >> b & 1)] = bits
        else:  # t alone, or t and one lower rank
            pair[t][(low or u).bit_length() - 1] = bits
    subset_sizes = range(2, ops.max_arity())

    found: list[int] = []
    path: list[int] = []

    def visit(mask: int, img: int, top: int) -> None:
        missing = img & ~mask
        if not missing:
            found.append(mask)
        last = (missing & -missing).bit_length() - 1 if missing else size - 1
        for t in range(top + 1, last + 1):
            grown = mask | 1 << t
            row = pair[t]
            new = img | row[t]
            for b in path:
                new |= row[b]
            if wide[t]:
                get = wide[t].get
                for j in subset_sizes:
                    for q in combinations(path, j):
                        new |= get(q, 0)
            if new & ~grown & ((2 << t) - 1):
                continue
            path.append(t)
            visit(grown, new, t)
            path.pop()

    visit(0, root, -1)
    return found


def _relations(domain: Domain, arity: int, masks: Iterable[int]) -> tuple[Relation, ...]:
    tuples = list(domain.tuples(arity))
    return tuple(
        Relation(domain, arity, tuple(t for i, t in enumerate(tuples) if mask >> i & 1)) for mask in masks
    )


def inv(
    ops: OperationSet,
    arity: int,
    *,
    limits: Limits = DEFAULT_LIMITS,
) -> RelationSet:
    """Every relation of the given arity preserved by all members of ops;
    an empty ops set therefore yields every relation of that arity.
    Arity 0 is allowed: of the two arity-0 relations, {()} is always
    invariant and {} unless ops holds a nullary member.

    A pruned depth-first search (see _invariant_masks) whose cost follows
    the number of invariants; the candidate cap applies up front to the
    2^(d^arity) tuple sets and to the row combinations of the members.
    """
    _check_count(arity, "arity", 0)
    return RelationSet(ops.domain, _relations(ops.domain, arity, _invariant_masks(ops, arity, limits)))


def _table_search(
    rels: RelationSet, arity: int, limits: Limits
) -> Callable[[dict[int, int], bool], list[tuple[int, ...]]]:
    """The backtracker behind pol and pp-definability.  Applies pol's caps
    and builds the constraints of rels at the given arity once, and
    returns search(pins, first): every table preserving rels whose cell c
    holds pins[c] for each pinned c, ascending, or just the first one when
    first is set.

    The constraints come from the distinct cores of rels (see core._core),
    which have the same polymorphisms; a full core constrains nothing and
    is skipped, and the empty core leaves no row combination above arity
    0, where it admits no constant.
    Depth-first assignment of table cells in lexicographic order: a
    partial table is rejected as soon as some row combination whose
    output cells are all assigned lands outside its relation.  Each
    combination is checked once, at the node assigning its highest cell.
    A pinned cell's only value choice is its pin, so pins prune without
    any per-node test.
    """
    d = rels.domain.size
    cells = d**arity
    limits.check("max_materialize", cells, f"pol table at arity {arity}")
    limits.check("max_candidates", d**cells, f"pol at arity {arity}")
    cores = dict.fromkeys(r for r in map(_core, rels) if not r.is_full)  # each once, in order
    limits.check("max_candidates", sum(len(r) ** arity for r in cores), f"pol constraints at arity {arity}")
    # checks[c] pairs each row combination whose highest output cell is c,
    # as the cells it reads, with the tuple set its image must land in
    checks: list[list[tuple[set[tuple[int, ...]], tuple[int, ...]]]] = [[] for _ in range(cells)]
    for r in cores:
        tset = set(r.tuples)
        for vec in row_images(range(cells), d, r.arity, [r.tuples] * arity):
            checks[max(vec, default=0)].append((tset, vec))

    def search(pins: dict[int, int], first: bool) -> list[tuple[int, ...]]:
        choices = [(pins[c],) if c in pins else range(d) for c in range(cells)]
        table = [0] * cells
        get = table.__getitem__
        found: list[tuple[int, ...]] = []

        def extend(c: int) -> bool:
            for v in choices[c]:
                table[c] = v
                for tset, vec in checks[c]:
                    if tuple(map(get, vec)) not in tset:
                        break
                else:
                    if c + 1 == cells:
                        found.append(tuple(table))
                        if first:
                            return True
                    elif extend(c + 1):
                        return True
            return False

        extend(0)
        return found

    return search


def pol(
    rels: RelationSet,
    arity: int,
    *,
    limits: Limits = DEFAULT_LIMITS,
) -> OperationSet:
    """Every operation of the given arity preserving all members of rels,
    tables ascending; an empty rels set yields every table.  At arity 0
    these are the constants c with (c, ..., c) in every member.

    Runs the shared table backtracker (see _table_search) with no pins and
    no stop; pp_closure_of and pp_witness run it pinned, one search per
    candidate tuple.
    """
    _check_count(arity, "arity", 0)
    domain = rels.domain
    tables = _table_search(rels, arity, limits)({}, False)
    return OperationSet(domain, tuple(Operation(domain, arity, table) for table in tables))


def _maximal_invariants(masks: Sequence[int], domain: Domain, arity: int) -> list[int]:
    """The invariants of one arity, as bitmasks over tuple ranks, that are
    maximal among those avoiding some tuple x with nondecreasing entries:
    one x per orbit under coordinate permutations.  They have the same
    polymorphisms as all of them.  Every invariant R but the full relation
    is the intersection, over x outside R, of an invariant containing R
    and maximal among those avoiding x; and Pol(R & S) contains
    Pol(R) & Pol(S).  A coordinate permutation s maps the maximal
    avoiders of x onto those of xs, and Pol(Rs) = Pol(R), so the maximal
    avoiders of sorted x stand in for those of x."""
    largest_first = sorted(masks, key=int.bit_count, reverse=True)
    kept: set[int] = set()
    for x in combinations_with_replacement(domain.elements(), arity):
        bit = 1 << domain.tuple_index(x)
        maximal: list[int] = []
        for mask in largest_first:
            if not mask & bit:
                # every larger avoider came earlier and sits under a kept one
                for m in maximal:
                    if mask & m == mask:
                        break
                else:
                    maximal.append(mask)
        kept.update(maximal)
    return sorted(kept)


@dataclass(frozen=True)
class GaloisReport:
    """Result of one bounded correspondence check.

    invariant_count counts the invariants of every arity 1..max_k;
    recovered_ops are their polymorphisms, computed from the maximal
    invariants of arity max_k that galois_check keeps; witnesses hold any
    disagreement with the clone's own members (empty exactly when the
    check passes).
    """

    domain: Domain
    arity: int
    max_k: int
    clone_ops: OperationSet
    invariant_count: int
    recovered_ops: OperationSet
    witnesses: tuple[Operation, ...]

    @property
    def passed(self) -> bool:
        return not self.witnesses


def galois_check(
    generators: OperationSet,
    arity: int,
    *,
    max_k: int | None = None,
    limits: Limits = DEFAULT_LIMITS,
) -> GaloisReport:
    """Build the n-ary members of the clone the generators generate (only
    arity n is closed, whatever the generators' arities; see
    graph_relation), collect every relation of arity 1..max_k the
    generators preserve, and recover the arity-n polymorphisms of that
    relation set.  Passes when recovery returns exactly those members.
    max_k defaults to d^n, which always suffices: the relation whose tuples
    are the value tables of the n-ary members is itself invariant and
    separates everything outside the clone.  Every arity is enumerated and
    counted in increasing order, so its caps refuse in that order, but pol
    gets only the maximal invariants of arity max_k, one per orbit under
    coordinate permutations, which suffice (see _maximal_invariants)."""
    domain = generators.domain
    _check_count(arity, "arity", 1)
    if max_k is None:
        max_k = domain.size**arity
    _check_count(max_k, "max_k", 1)
    gamma = graph_relation(generators, arity, limits=limits)
    clone_n = OperationSet(domain, tuple(Operation(domain, arity, table) for table in gamma))
    # Invariants of the generators equal invariants of the whole closure:
    # preservation survives composition and projections preserve anything.
    # pol needs only arity max_k: each k-ary invariant r gives the
    # invariant r x A^(max_k - k), which has the same polymorphisms.
    invariant_count = 0
    for k in range(1, max_k + 1):
        masks = _invariant_masks(generators, k, limits)
        invariant_count += len(masks)
    kept = _relations(domain, max_k, _maximal_invariants(masks, domain, max_k))
    recovered = pol(RelationSet(domain, kept), arity, limits=limits)
    witnesses = tuple(op for op in recovered if op not in clone_n)
    witnesses += tuple(op for op in clone_n if op not in recovered)
    return GaloisReport(
        domain=domain,
        arity=arity,
        max_k=max_k,
        clone_ops=clone_n,
        invariant_count=invariant_count,
        recovered_ops=recovered,
        witnesses=witnesses,
    )
