"""The two Galois maps between operation sets and relation sets.

inv enumerates every relation of a given arity preserved by all given
operations (depth-first search over tuple sets in rank order, pruned as
soon as the set's image holds a tuple it can no longer gain, with the
images of row pairs packed into one big int per rank, and run in natural
or reversed rank order, whichever the members' tables say prunes
sooner); pol enumerates every operation of a given arity preserving all
given relations (depth-first table construction with forward pruning, its
constraints built from each relation's core as core._core computes it:
repeated columns merged, cylinder coordinates dropped, full cores
skipped), and the first table of the same search, with some cells
pinned, decides pp-definability.
galois_check checks that pol recovers a generated clone from its
invariants up to arity max_k; it enumerates them once, at arity max_k,
counts the lower arities as the cylinders among them, and hands pol only
the maximal ones of arity max_k, one per orbit under coordinate
permutations.  The operation and relation sets on either side are
core.OperationSet and core.RelationSet values.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement
from operator import lshift
from typing import Iterable, Iterator, Sequence

from .clones import _clone_slice
from .core import Domain, Operation, OperationSet, Relation, RelationSet, _check_count, _core, _row_key, row_images
from .limits import DEFAULT_LIMITS, Limits


def _check_inv_caps(ops: OperationSet, arity: int, limits: Limits) -> None:
    """inv's up-front caps at one arity, in the order they refuse: the
    d^arity tuples of a relation, the 2^(d^arity) tuple sets and the row
    combinations the image table applies."""
    limits.check_power("max_materialize", ops.domain.size, arity, f"inv relation at arity {arity}")
    size = ops.domain.size**arity
    limits.check_power("max_candidates", 2, size, f"inv at arity {arity}")
    limits.check("max_candidates", sum(size**f.arity for f in ops), f"inv row combinations at arity {arity}")


def _image_table(ops: OperationSet, arity: int) -> tuple[int, list[int], list[dict[tuple[int, ...], int]]]:
    """The images of every row combination at the given arity under the
    members of ops, each filed in one slot by the set S of row ranks it uses.

    Returns (root, lane, wide): root holds the images of the nullary
    members (S empty); lane[b], in its bit field t >= b (bits t*size up to
    (t+1)*size), those of S = {b, t}, so a row t alone sits in field t of
    lane[t], a pair in the lane of its lower rank, and no field below b is
    written; and wide[t][q] those of S = {t} and the two or more lower
    ranks q, ascending.  Each member is applied once to all its row
    combinations, by index arithmetic.  A binary member is applied to every
    pair at once, and its images are ORed in one lane at a time.  Every
    other member is applied per first row: the later rows pick per
    coordinate a table cell below its argument, and the images of each set
    of later rows are ORed and filed together.
    """
    domain = ops.domain
    d = domain.size
    size = d**arity
    root = sum({1 << domain.tuple_index((f.table[0],) * arity) for f in ops if not f.arity})
    lane = [0] * size
    spans: list[dict[int, int]] = [{} for _ in range(size)]  # wide, keyed by the bitmask of q
    fields = [1 << t * size for t in range(size)]  # the lowest bit of each lane field
    for f in ops:
        m, table = f.arity, f.table
        if m == 2:
            # image[p] ranks the image of the cells packed as p, base d^2 per
            # coordinate, and spread[r] packs row r: rows r and s give the
            # cells d * spread[r] + spread[s]
            image, spread = [0], [0]
            for _ in range(arity):
                image = [g * d + v for g in image for v in table]
                spread = [x * d * d + a for x in spread for a in range(d)]
            for b, p in enumerate(spread):
                firsts = [image[p * d + x] for x in spread[b:]]  # rows (b, t) for every t >= b
                lasts = [image[x * d + p] for x in spread[b:]]  # rows (t, b)
                lane[b] |= sum(map(lshift, fields[b:], firsts)) | sum(map(lshift, fields[b:], lasts))
        elif m:
            step = d ** (m - 1)
            spread = [sum(a * step ** (arity - 1 - i) for i, a in enumerate(row)) for row in domain.tuples(arity)]
            later: dict[int, list[int]] = {0: [0]}  # ranks of the later rows -> their packed cells
            for _ in range(m - 1):
                grown: dict[int, list[int]] = {}
                for w, cells in later.items():
                    for s, p in enumerate(spread):
                        grown.setdefault(w | 1 << s, []).extend([c * d + p for c in cells])
                later = grown
            for r, row in enumerate(domain.tuples(arity)):
                image = [0]
                for a in row:
                    part = table[a * step : (a + 1) * step]
                    image = [g * d + v for g in image for v in part]
                for w, cells in later.items():
                    bits = 0
                    for c in cells:
                        bits |= 1 << image[c]
                    u = w | 1 << r
                    t = u.bit_length() - 1
                    low = u ^ 1 << t
                    if low & (low - 1):
                        spans[t][low] = spans[t].get(low, 0) | bits
                    else:
                        b = (low or u).bit_length() - 1
                        lane[b] |= fields[t] * bits
    wide = [
        {tuple(b for b in range(t) if low >> b & 1): bits for low, bits in span.items()} for t, span in enumerate(spans)
    ]
    return root, lane, wide


def _prefers_reversed(ops: OperationSet) -> bool:
    """Whether the invariant search prunes sooner in reversed rank order.
    An image ranked below the highest row of its combination prunes a
    branch, if missing, as soon as that row is added; reversing the ranks
    turns the images above the lowest row into such images.  The members'
    tables stand in for the image table: each (argument set, image) pair
    of a member's non-nullary cells is taken once, and counts below when
    the image lies below the set's largest element, above when it lies
    above its smallest.  A cell of one repeated element gives the image of
    every row with itself (XOR(x, x) is the all-zero tuple for every row
    x), so its pair counts d times.  Ties keep the natural order."""
    d = ops.domain.size
    below = above = 0
    for f in ops:
        if not f.arity:
            continue
        for args, v in set(zip(map(frozenset, ops.domain.tuples(f.arity)), f.table)):
            weight = d if len(args) == 1 else 1
            below += weight * (v < max(args))
            above += weight * (v > min(args))
    return above > below


def _invariant_masks(ops: OperationSet, arity: int, limits: Limits) -> list[int]:
    """Bitmasks over tuple ranks of every relation of the given arity
    preserved by all members of ops.

    A relation is closed when it holds its image: every tuple any member
    of ops produces from its rows.  Depth-first search adds tuples in
    increasing rank, carrying the image of the set built so far, and
    prunes as soon as the image holds a tuple of rank at most the newest
    one that the set lacks; testing each node for canonicity this way is
    the Close-by-One scheme.  This is exact for any total order of the
    tuples: the image only grows along a branch and every later tuple
    ranks higher, so a pruned branch holds no closed set; and each prefix
    of a closed set misses only image tuples of that set, all ranked
    above the prefix, so none is pruned.  The same argument bounds each
    child's rank by the lowest missing one.

    The images come from one table (see _image_table).  Each node carries
    acc, the OR of lane[b] over the ranks b on its path, so a child t
    gains field t of acc | lane[t] in O(1) big-int operations, plus
    wide[t] of each subset of two or more path ranks.  How soon a branch
    is pruned depends on the order, so the members pick one before the
    table is built: when _prefers_reversed holds, the table is that of the
    members conjugated by a -> d-1-a, which maps the tuple of rank r to
    the one of rank size-1-r and invariants to invariants, and each rank
    found sets the reversed bit of its mask.
    """
    _check_inv_caps(ops, arity, limits)
    domain, d = ops.domain, ops.domain.size
    size = d**arity
    flip = _prefers_reversed(ops)
    if flip:  # each member conjugated by a -> d-1-a
        ops = OperationSet(domain, tuple(Operation(domain, f.arity, [d - 1 - v for v in f.table[::-1]]) for f in ops))
    root, lane, wide = _image_table(ops, arity)
    subset_sizes = range(2, ops.max_arity())
    full = (1 << size) - 1
    below = [(1 << t) - 1 for t in range(size)]
    shifts = [t * size for t in range(size)]
    out_bit = [1 << size - 1 - t if flip else 1 << t for t in range(size)]  # the bit rank t sets in a mask found
    found: list[int] = []

    def visit(mask: int, img: int, acc: int, top: int, out: int, path: tuple[int, ...]) -> None:
        lacking = ~mask
        missing = img & lacking
        if not missing:
            found.append(out)
        last = (missing & -missing).bit_length() if missing else size
        for t in range(top + 1, last):
            grown = acc | lane[t]
            new = img | (grown >> shifts[t]) & full
            if wide[t]:
                get = wide[t].get
                for j in subset_sizes:
                    for q in combinations(path, j):
                        new |= get(q, 0)
            if new & lacking & below[t]:
                continue
            visit(mask | 1 << t, new, grown, t, out | out_bit[t], path + (t,))

    visit(0, root, 0, -1, 0, ())
    del visit  # visit reaches itself through its cell: clearing it frees found and the table now, not at a collection
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
    the number of invariants: each node reads the images of its new tuple
    with the earlier ones from one image table, row pairs in O(1) big-int
    operations, in the rank order the members' tables say prunes sooner.
    The candidate cap applies up front to the 2^(d^arity) tuple sets and
    to the row combinations of the members.
    """
    _check_count(arity, "arity", 0)
    return RelationSet(ops.domain, _relations(ops.domain, arity, _invariant_masks(ops, arity, limits)))


_Check = tuple[set, tuple[int, ...]]  # a tuple set, and the cells whose values must form one of its tuples


def _constraints(rels: RelationSet, arity: int, limits: Limits) -> list[list[_Check]]:
    """pol's caps at the given arity, in the order they refuse, then the
    constraints of rels on a table's d^arity cells: checks[c] pairs each
    row combination whose highest cell is c, as the cells it reads, with
    the tuple set its image must land in, so it is checked once, when its
    cells are all assigned.  They come from the distinct cores of rels
    (see core._core), which have the same polymorphisms; a full core
    constrains nothing and is skipped, and the empty core leaves no row
    combination above arity 0, where it admits no constant."""
    d = rels.domain.size
    limits.check_power("max_materialize", d, arity, f"pol table at arity {arity}")
    cells = d**arity
    limits.check_power("max_candidates", d, cells, f"pol at arity {arity}")
    cores = dict.fromkeys(r for r in map(_core, rels) if not r.is_full)  # each once, in order
    limits.check("max_candidates", sum(len(r) ** arity for r in cores), f"pol constraints at arity {arity}")
    checks: list[list[_Check]] = [[] for _ in range(cells)]
    for r in cores:
        tset = set(r.tuples)
        for vec in row_images(range(cells), d, r.arity, [list(map(_row_key(d), r.tuples))] * arity):
            checks[max(vec, default=0)].append((tset, vec))
    return checks


def _tables(checks: Sequence[Sequence[_Check]], choices: Sequence[Sequence[int]]) -> Iterator[tuple[int, ...]]:
    """Every table whose cell c holds a value from choices[c] and that
    passes checks (see _constraints), ascending when each choices[c] is.
    Depth-first, as one cell index over an iterator of choices per cell:
    cell c takes its next value that passes checks[c] and the walk moves
    on to c + 1, or back to c - 1 once none is left.  A cell of one
    choice is pinned, so pins prune without any per-node test."""
    cells = len(choices)
    table = [0] * cells
    get = table.__getitem__
    values = list(map(iter, choices))
    c = 0
    while c >= 0:
        for v in values[c]:
            table[c] = v
            for tset, vec in checks[c]:
                if tuple(map(get, vec)) not in tset:
                    break
            else:
                break  # v passes checks[c]
        else:  # cell c has no value left
            c -= 1
            continue
        if c + 1 == cells:
            yield tuple(table)
        else:
            c += 1
            values[c] = iter(choices[c])


def pol(
    rels: RelationSet,
    arity: int,
    *,
    limits: Limits = DEFAULT_LIMITS,
) -> OperationSet:
    """Every operation of the given arity preserving all members of rels,
    tables ascending; an empty rels set yields every table.  At arity 0
    these are the constants c with (c, ..., c) in every member.

    Lists every table _tables yields under the constraints of rels (see
    _constraints); pp._reachable takes the first one, some cells pinned.
    """
    _check_count(arity, "arity", 0)
    domain = rels.domain
    checks = _constraints(rels, arity, limits)
    tables = _tables(checks, [range(domain.size)] * len(checks))
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
    clones._clone_slice), collect every relation of arity 1..max_k the
    generators preserve, and recover the arity-n polymorphisms of that
    relation set.  Passes when recovery returns exactly those members.
    max_k defaults to d^n, which always suffices: the relation whose tuples
    are the value tables of the n-ary members is itself invariant and
    separates everything outside the clone.

    The invariants are enumerated once, at arity max_k, after inv's caps
    of every arity 1..max_k have been checked in increasing order, so a
    refusal names the lowest arity over a cap.  The k-ary invariants are
    counted from those of arity max_k: each k-ary invariant r appears
    there once, as the cylinder r x A^(max_k - k).  pol gets only the
    maximal invariants of arity max_k, one per orbit under coordinate
    permutations, which suffice (see _maximal_invariants)."""
    domain = generators.domain
    _check_count(arity, "arity", 1)
    if max_k is None:
        max_k = domain.size**arity
    _check_count(max_k, "max_k", 1)
    clone_n = OperationSet(domain, tuple(Operation(domain, arity, t) for t in _clone_slice(generators, arity, limits)))
    # Invariants of the generators equal invariants of the whole closure:
    # preservation survives composition and projections preserve anything.
    # Each k-ary invariant r gives the invariant r x A^(max_k - k), which
    # has the same polymorphisms, and r is invariant when that one is.
    for k in range(1, max_k):
        _check_inv_caps(generators, k, limits)
    masks = cylinders = _invariant_masks(generators, max_k, limits)
    invariant_count = len(masks)
    # r x A^(max_k - k) is a mask whose blocks of d^(max_k - k) consecutive
    # ranks are each empty or full; such a mask is one at k + 1 as well, so
    # the arities are filtered from max_k - 1 down to 1
    for j in range(1, max_k):
        fill = (1 << domain.size**j) - 1
        starts = ((1 << domain.size**max_k) - 1) // fill  # the lowest bit of every block
        cylinders = [m for m in cylinders if m == (m & starts) * fill]
        invariant_count += len(cylinders)
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
