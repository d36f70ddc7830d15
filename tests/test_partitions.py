import random
import re
from functools import reduce
from itertools import combinations, product

import pytest

from polinv import (
    Domain,
    ParseError,
    Partition,
    PartitionIdeal,
    ResourceBoundError,
    all_partitions,
    check_finitary_preservation,
    diagonal_relation,
    format_partition,
    ideal_downset,
    kernel_partition,
    parse_partition,
    partition_lattice,
)
from polinv.limits import Limits
from polinv.partitions import _growth_strings

from helpers import (
    AND,
    BOOL,
    NOT,
    OR,
    THREE,
    XOR,
    assert_rebuilds,
    bell_number,
    full_relation,
    oracle_blocks,
    oracle_diagonal_relation,
    oracle_ideal_downset,
    oracle_is_ideal,
    oracle_partitions,
    oracle_preserves,
    random_operation,
)

P01_2 = Partition(3, ((0, 1), (2,)))
P0_12 = Partition(3, ((0,), (1, 2)))


def as_sets(parts):
    return {frozenset(frozenset(b) for b in p.blocks) for p in parts}


def test_partition_counts():
    assert len(list(all_partitions(1))) == 1
    assert len(list(all_partitions(2))) == 2
    assert len(list(all_partitions(3))) == 5
    assert len(list(all_partitions(4))) == 15
    assert len(list(all_partitions(5))) == 52


def test_partitions_match_insertion_oracle():
    for k in range(1, 6):
        assert as_sets(all_partitions(k)) == oracle_partitions(k)
        for p in all_partitions(k):
            assert_rebuilds(p)


def test_all_partitions_yields_no_duplicates():
    for k in range(1, 6):
        parts = list(all_partitions(k))
        assert len(parts) == len(set(parts))


def test_growth_strings_are_the_restricted_growth_tuples_in_lexicographic_order():
    # ideal_downset builds its members in this order and all_partitions
    # yields in it; the one list is reused, so each string is copied.  The
    # tuples of product(range(n), repeat=n) with t[i] <= i, which every
    # such string has, come in the same order as there, n! of them
    for n in range(1, 9):
        candidates = product(*(range(i + 1) for i in range(n)))
        expected = [list(t) for t in candidates if all(t[i] <= max(t[:i], default=-1) + 1 for i in range(n))]
        assert [list(labels) for labels in _growth_strings(n)] == expected


def test_bell_numbers_count_partitions():
    counts = [bell_number(n) for n in range(1, 9)]
    assert counts == [sum(1 for _ in all_partitions(n)) for n in range(1, 9)]
    assert counts == [1, 2, 5, 15, 52, 203, 877, 4140]


def test_partition_lattice_order_and_cap():
    lattice = partition_lattice(3)
    assert lattice == tuple(sorted(all_partitions(3), key=lambda p: p.blocks))
    with pytest.raises(ResourceBoundError, match=r"^partition lattice needs 7, more than max_index \(6\)$"):
        partition_lattice(7)
    assert len(partition_lattice(7, limits=Limits(max_index=9))) == 877


def test_lattice_size_is_checked_as_a_count_before_the_cap():
    for value in ("3", 3.0, "9"):
        for call in (partition_lattice, lambda v: ideal_downset([], v)):
            with pytest.raises(ValueError) as info:
                call(value)
            assert str(info.value) == f"index_size must be a positive integer, got {value!r}"


def test_ideal_must_contain_coarsenings():
    with pytest.raises(ValueError):
        PartitionIdeal(3, (P01_2,))  # one-block coarsening missing
    # the count stops one string past the members, so 2,000 singleton
    # blocks are refused after three growth strings, not Bell(2000)
    with pytest.raises(ValueError, match=r"^not an ideal: 2 members, .* has more than 2 coarsenings$"):
        PartitionIdeal(2000, (Partition.bottom(2000), Partition.top(2000)))


def test_ideal_must_contain_meets():
    members = (Partition.top(3), P01_2, P0_12)
    with pytest.raises(ValueError):
        PartitionIdeal(3, members)  # meet is the all-singleton partition


def test_ideal_accepts_valid_members():
    ideal = PartitionIdeal(3, (Partition.top(3), P01_2))
    assert len(ideal) == 2
    assert Partition.top(3) in ideal and P01_2 in ideal
    assert P0_12 not in ideal and Partition.bottom(3) not in ideal
    assert Partition.top(4) not in ideal and Partition(2, ((0,), (1,))) not in ideal


def test_ideal_rejects_empty():
    with pytest.raises(ValueError):
        PartitionIdeal(3, ())
    with pytest.raises(ValueError, match="^ideal members over different index sets$"):
        PartitionIdeal(3, (Partition.top(3), Partition.top(2)))


def test_ideal_downset_of_nothing_is_one_block():
    ideal = ideal_downset([], 3)
    assert ideal.members == (Partition.top(3),)


def test_ideal_downset_of_one_generator():
    ideal = ideal_downset([P01_2], 3)
    assert set(ideal.members) == {P01_2, Partition.top(3)}


def test_ideal_downset_of_bottom_is_everything():
    ideal = ideal_downset([Partition.bottom(3)], 3)
    assert len(ideal) == 5


def test_ideal_downset_closes_under_meets():
    # the two generators force their common refinement, whose coarsenings
    # pull in the whole lattice
    ideal = ideal_downset([P01_2, P0_12], 3)
    assert len(ideal) == 5


def test_ideal_downset_rejects_mismatched_generator():
    with pytest.raises(ValueError):
        ideal_downset([Partition.top(2)], 3)
    # the size cap is checked first
    with pytest.raises(ResourceBoundError, match=r"^ideal downset needs 7, more than max_index \(6\)$"):
        ideal_downset([Partition.top(2)], 7)


def test_ideals_are_principal():
    # closing any subset equals closing the common refinement of its members
    lattice = partition_lattice(3)
    seen = set()
    for n in range(1, 3):
        for gens in combinations(lattice, n):
            ideal = ideal_downset(gens, 3)
            m = gens[0]
            for p in gens[1:]:
                m = m.meet(p)
            assert ideal == ideal_downset([m], 3)
            seen.add(ideal.members)
    assert len(seen) == 5


def test_ideal_downset_matches_fixpoint_oracle():
    for k in range(1, 4):
        lattice = partition_lattice(k)
        for n in range(4):
            for gens in combinations(lattice, n):
                assert_rebuilds(ideal_downset(gens, k))
                assert set(ideal_downset(gens, k)) == oracle_ideal_downset(gens, k)
    rng = random.Random(5)
    # fewer at κ=6: the fixpoint oracle is slow on its 203-member ideal
    for k, count in ((4, 40), (5, 25), (6, 8)):
        lattice = partition_lattice(k)
        for _ in range(count):
            gens = rng.sample(lattice, rng.randint(1, 3))
            assert_rebuilds(ideal_downset(gens, k))
            assert set(ideal_downset(gens, k)) == oracle_ideal_downset(gens, k)


def test_ideal_count_matches_the_bell_oracle():
    # the finest partition of 7 indices with b blocks has Bell(b)
    # coarsenings; the ideal check accepts exactly those and refuses them
    # with any one non-finest member left out
    rng = random.Random(41)
    limits = Limits(max_index=7)
    for b in range(1, 8):
        finest = Partition(7, tuple((i,) for i in range(b - 1)) + (tuple(range(b - 1, 7)),))
        ideal = ideal_downset([finest], 7, limits=limits)
        assert len(ideal) == bell_number(b)
        assert ideal.finest == finest and PartitionIdeal(7, ideal.members) == ideal
        others = [p for p in ideal.members if p != finest]
        kept = len(others)
        message = (
            f"not an ideal: {kept} members, but their common refinement "
            f"{finest.blocks} has more than {kept} coarsenings"
        )
        for p in others if b <= 5 else rng.sample(others, 10):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                PartitionIdeal(7, tuple(q for q in ideal.members if q != p))


def test_membership_by_refinement_matches_the_member_set():
    rng = random.Random(37)
    lattices = {k: list(all_partitions(k)) for k in range(1, 6)}
    for k, lattice in lattices.items():
        for _ in range(8):
            ideal = ideal_downset(rng.sample(lattice, rng.randint(0, min(2, len(lattice)))), k)
            members = set(ideal.members)
            for p in (p for parts in lattices.values() for p in parts):
                assert (p in ideal) == (p in members)


def accepts(k, members):
    try:
        PartitionIdeal(k, members)
    except ValueError:
        return False
    return True


def test_ideal_check_matches_definition_oracle():
    lattice = partition_lattice(3)
    for n in range(1, len(lattice) + 1):
        for members in combinations(lattice, n):
            assert accepts(3, members) == oracle_is_ideal(members, 3)
    lattice = partition_lattice(4)
    rng = random.Random(11)
    for _ in range(200):
        members = rng.sample(lattice, rng.randint(1, len(lattice)))
        assert accepts(4, members) == oracle_is_ideal(members, 4)
    # every ideal is the downset of its finest member, so these are all of
    # them; dropping or adding one partition gives the near misses
    for finest in lattice:
        ideal = oracle_ideal_downset([finest], 4)
        assert accepts(4, ideal) and oracle_is_ideal(ideal, 4)
        for p in lattice:
            members = ideal ^ {p}
            if members:
                assert accepts(4, members) == oracle_is_ideal(members, 4)


def test_diagonal_relation_matches_kernel_filter_oracle():
    # every ideal is the downset of one partition, so these are all ideals
    # at κ ≤ 4; at κ = 5 and 6 a seeded sample
    cases = [
        (ideal_downset([p], k), domain)
        for k in range(1, 5)
        for p in partition_lattice(k)
        for domain in (BOOL, THREE, Domain(4))
    ]
    rng = random.Random(23)
    for k in (5, 6):
        lattice = partition_lattice(k)
        for _ in range(10):
            ideal = ideal_downset(rng.sample(lattice, rng.randint(1, 2)), k)
            cases += [(ideal, BOOL), (ideal, THREE)]
    for ideal, domain in cases:
        assert ideal.finest == reduce(Partition.meet, ideal.members)
        assert diagonal_relation(ideal, domain) == oracle_diagonal_relation(ideal, domain)
        assert_rebuilds(diagonal_relation(ideal, domain))


def test_diagonal_of_trivial_ideal_is_plain_diagonal():
    assert diagonal_relation(ideal_downset([], 3), BOOL).tuples == ((0, 0, 0), (1, 1, 1))
    assert diagonal_relation(ideal_downset([], 2), THREE).tuples == ((0, 0), (1, 1), (2, 2))


def test_diagonal_of_one_merge_ideal():
    ideal = ideal_downset([P01_2], 3)
    assert diagonal_relation(ideal, BOOL).tuples == ((0, 0, 0), (0, 0, 1), (1, 1, 0), (1, 1, 1))


def test_diagonal_of_full_ideal_is_full_on_two_elements():
    # every tuple over a two-element domain has a kernel with at most two
    # blocks, all of which the full ideal contains
    ideal = ideal_downset([Partition.bottom(3)], 3)
    assert diagonal_relation(ideal, BOOL) == full_relation(BOOL, 3)


def test_diagonal_on_larger_domain_filters_kernels():
    ideal = ideal_downset([P01_2], 3)
    got = diagonal_relation(ideal, THREE)
    for t in THREE.tuples(3):
        assert (t in got) == (kernel_partition(t) in ideal)


def test_diagonal_materialization_cap():
    ideal = ideal_downset([], 3)
    with pytest.raises(ResourceBoundError, match=r"^diagonal relation needs 8, more than max_materialize \(7\)$"):
        diagonal_relation(ideal, BOOL, limits=Limits(max_materialize=7))


def test_diagonal_monotone_in_the_ideal():
    small = ideal_downset([], 3)
    large = ideal_downset([P01_2], 3)
    assert set(diagonal_relation(small, BOOL).tuples) <= set(diagonal_relation(large, BOOL).tuples)


def test_every_boolean_operation_preserves_every_diagonal():
    lattice = partition_lattice(3)
    ideals = {ideal_downset([p], 3) for p in lattice}
    assert len(ideals) == 5
    for ideal in ideals:
        for op in (AND, OR, NOT, XOR):
            assert check_finitary_preservation(op, ideal)


def test_finitary_preservation_matches_the_exhaustive_check():
    # held to every row combination of the diagonal itself, unrolled from
    # the definition; nullary operations included.  Pairs past 20,000
    # combinations (arity 3 on the d=3 diagonals of 4 free blocks) are
    # left out to keep the oracle quick.
    rng = random.Random(110)
    checked = 0
    for domain in (BOOL, THREE):
        ops = [random_operation(rng, domain, arity) for arity in range(4)]
        for kappa in range(1, 5):
            for p in all_partitions(kappa):
                ideal = ideal_downset([p], kappa)
                diag = diagonal_relation(ideal, domain)
                for op in ops:
                    if len(diag) ** op.arity <= 20_000:
                        assert check_finitary_preservation(op, ideal) == oracle_preserves(op, diag)
                        checked += 1
    assert checked == 2 * 4 * 23 - 1


def test_finitary_preservation_passes_a_candidate_cap_of_one():
    # every diagonal's core is {()}, so the check applies one row
    # combination however many the diagonal itself has (here 2^2)
    assert check_finitary_preservation(AND, ideal_downset([], 3), limits=Limits(max_candidates=1))


def test_image_kernel_coarsens_the_row_meet():
    # the structural fact behind diagonal invariance
    rng = random.Random(109)
    for _ in range(60):
        rows = [tuple(rng.randrange(2) for _ in range(4)) for _ in range(2)]
        image = tuple(AND(rows[0][j], rows[1][j]) for j in range(4))
        m = kernel_partition(rows[0]).meet(kernel_partition(rows[1]))
        assert m.refines(kernel_partition(image))


def test_parse_partition_round_trip():
    p = parse_partition("0,1|2", 3)
    assert p == P01_2
    assert format_partition(p) == "0,1|2"
    assert parse_partition(format_partition(Partition.bottom(4)), 4) == Partition.bottom(4)


def test_parse_partition_errors():
    with pytest.raises(ParseError):
        parse_partition("0,1|", 3)
    with pytest.raises(ParseError):
        parse_partition("0,1|1,2", 3)
    with pytest.raises(ParseError):
        parse_partition("0|2", 3)
    with pytest.raises(ParseError):
        parse_partition("0,x|1", 2)


def test_partition_rejects_bool():
    with pytest.raises(ValueError, match="index_size must be a positive integer, got True"):
        Partition(True, ((0,),))
    with pytest.raises(ValueError, match="block element True outside index set of size 2"):
        Partition(2, ((True,), (0,)))
    with pytest.raises(ValueError, match="block element False outside index set of size 2"):
        Partition(2, ((1,), (False,)))


def test_kernel_partition_examples():
    assert kernel_partition((0, 1, 0)) == Partition(3, ((0, 2), (1,)))
    assert kernel_partition((1, 1, 1)) == Partition.top(3)
    assert kernel_partition((0, 1, 2)) == Partition.bottom(3)


def test_kernel_partition_invariant_under_value_renaming():
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randint(1, 5)
        t = [rng.randrange(3) for _ in range(n)]
        swap = {0: 2, 1: 0, 2: 1}
        assert kernel_partition(t) == kernel_partition([swap[v] for v in t])


def test_partition_canonical_block_order():
    p = Partition(3, ((2, 1), (0,)))
    assert p.blocks == ((0,), (1, 2))
    assert Partition.bottom(3).blocks == ((0,), (1,), (2,))
    assert Partition.top(3).blocks == ((0, 1, 2),)


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition(3, ((0, 1),))
    with pytest.raises(ValueError):
        Partition(3, ((0, 1), (1, 2)))
    with pytest.raises(ValueError):
        Partition(2, ((0, 1, 2),))
    with pytest.raises(ValueError, match="^empty block in partition$"):
        Partition(3, ((0, 1, 2), ()))


def test_partition_refines():
    fine = Partition(3, ((0,), (1,), (2,)))
    mid = Partition(3, ((0, 1), (2,)))
    assert fine.refines(mid)
    assert not mid.refines(fine)
    assert mid.refines(mid)
    assert mid.refines(Partition.top(3))
    with pytest.raises(ValueError, match="^partitions over different index sets$"):
        mid.refines(Partition.top(2))


def test_partition_join_and_meet():
    p = Partition(4, ((0, 1), (2,), (3,)))
    q = Partition(4, ((0,), (1, 2), (3,)))
    assert p.join(q) == Partition(4, ((0, 1, 2), (3,)))
    assert p.meet(q) == Partition.bottom(4)
    big = Partition(4, ((0, 1, 2), (3,)))
    assert big.meet(Partition(4, ((0, 1), (2, 3)))) == Partition(4, ((0, 1), (2,), (3,)))
    with pytest.raises(ValueError, match="^partitions over different index sets$"):
        p.join(Partition.top(3))


def test_partition_lattice_laws():
    rng = random.Random(29)
    from polinv import all_partitions

    parts = list(all_partitions(4))
    for _ in range(60):
        p, q = rng.choice(parts), rng.choice(parts)
        j, m = p.join(q), p.meet(q)
        assert_rebuilds((j, m))
        assert p.refines(j) and q.refines(j)
        assert m.refines(p) and m.refines(q)
        assert p.join(q) == q.join(p)
        assert p.meet(q) == q.meet(p)
        assert p.join(p) == p and p.meet(p) == p


def _blocks(p):
    return {frozenset(b) for b in p.blocks}


def test_kernel_partition_matches_oracle():
    rng = random.Random(31)
    for _ in range(200):
        t = [rng.randrange(4) for _ in range(rng.randint(1, 7))]
        assert _blocks(kernel_partition(t)) == oracle_blocks(len(t), lambda i, j: t[i] == t[j])
        assert_rebuilds(kernel_partition(t))
    with pytest.raises(ValueError, match="^kernel of the empty tuple is undefined$"):
        kernel_partition(())


def test_partition_meet_matches_oracle():
    def together(p, i, j):
        return any(i in b and j in b for b in p.blocks)

    for n in range(1, 6):
        parts = list(all_partitions(n))
        for p in parts:
            for q in parts:
                want = oracle_blocks(n, lambda i, j: together(p, i, j) and together(q, i, j))
                assert _blocks(p.meet(q)) == want
                assert_rebuilds(p.meet(q))
    with pytest.raises(ValueError, match="^partitions over different index sets$"):
        Partition.top(2).meet(Partition.top(3))
