import random
import tracemalloc
from itertools import product
from pathlib import Path

import pytest

from polinv import (
    Domain,
    Limits,
    Operation,
    OperationSet,
    Partition,
    Relation,
    RelationSet,
    all_partitions,
    clone_closure,
    compose,
    galois_check,
    graph_relation,
    ideal_downset,
    inv,
    make_projection,
    partition_lattice,
    pol,
    preserves,
)
from polinv.cli import _require_enum_arity, run
from polinv.core import row_images

from helpers import (
    AND,
    BOOL,
    EQ,
    IDENT,
    LEQ,
    MAJ,
    NEQ,
    NOT,
    OR,
    THREE,
    XOR,
    arity_members,
    cylinder,
    empty_relation,
    full_relation,
    near_projection,
    oracle_compose,
    oracle_preserves,
    oracle_row_images,
    random_operation,
    random_relation,
    renamed,
    repeat_column,
)


def test_domain_tuples_lex_order_first_coordinate_most_significant():
    assert list(BOOL.tuples(2)) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert list(THREE.tuples(1)) == [(0,), (1,), (2,)]
    assert list(BOOL.tuples(0)) == [()]


def test_domain_tuple_index_roundtrip():
    for domain in (BOOL, THREE):
        for arity in range(4):
            ranks = [domain.tuple_index(t) for t in domain.tuples(arity)]
            assert ranks == list(range(domain.size**arity))


def test_domain_requires_positive_size():
    with pytest.raises(ValueError):
        Domain(0)


def test_operation_table_length_checked():
    with pytest.raises(ValueError):
        Operation(BOOL, 2, (0, 0, 0))
    with pytest.raises(ValueError):
        Operation(BOOL, 1, (0, 2))


def test_operation_apply_reads_table_lex():
    assert AND.apply((0, 0)) == 0
    assert AND.apply((0, 1)) == 0
    assert AND.apply((1, 0)) == 0
    assert AND.apply((1, 1)) == 1
    assert AND(1, 1) == 1
    assert NOT(0) == 1
    with pytest.raises(ValueError, match="^operation of arity 2 applied to 1 arguments$"):
        AND.apply((1,))


def test_operation_name_ignored_by_equality():
    assert AND == Operation(BOOL, 2, (0, 0, 0, 1), name="conj")


def test_make_projection_tables():
    pr0 = make_projection(BOOL, 2, 0)
    pr1 = make_projection(BOOL, 2, 1)
    assert pr0.table == (0, 0, 1, 1)
    assert pr1.table == (0, 1, 0, 1)
    assert make_projection(THREE, 1, 0).table == (0, 1, 2)


def test_make_projection_rejects_bad_index():
    with pytest.raises(ValueError):
        make_projection(BOOL, 2, 2)
    with pytest.raises(ValueError):
        make_projection(BOOL, 0, 0)


def test_make_projection_refuses_an_index_that_is_not_an_int():
    for index in (True, False, 1.0, "0"):
        with pytest.raises(ValueError, match=f"^projection index {index} out of range for arity 2$"):
            make_projection(BOOL, 2, index)


def test_projection_is_identity_on_its_argument():
    rng = random.Random(7)
    for _ in range(50):
        arity = rng.randint(1, 3)
        i = rng.randrange(arity)
        pr = make_projection(BOOL, arity, i)
        args = [rng.randrange(2) for _ in range(arity)]
        assert pr.apply(args) == args[i]


def test_compose_examples():
    pr0 = make_projection(BOOL, 1, 0)
    assert compose(AND, [pr0, pr0], 1).table == (0, 1)
    assert compose(NOT, [NOT], 1).table == (0, 1)
    pr0_2 = make_projection(BOOL, 2, 0)
    pr1_2 = make_projection(BOOL, 2, 1)
    assert compose(AND, [pr1_2, pr0_2], 2).table == (0, 0, 0, 1)


def test_compose_nullary_inner():
    zero = Operation(BOOL, 0, (0,), name="c0")
    assert compose(NOT, [zero], 0).table == (1,)
    composite = compose(AND, [zero, zero])
    assert composite.arity == 0 and composite.table == (0,)
    with pytest.raises(ValueError):
        compose(zero, [])
    # a nullary f takes its result arity from the argument
    assert compose(zero, [], 2) == Operation(BOOL, 2, (0, 0, 0, 0))


def test_compose_arity_mismatch_rejected():
    with pytest.raises(ValueError):
        compose(AND, [NOT], 1)
    with pytest.raises(ValueError):
        compose(AND, [NOT, make_projection(BOOL, 2, 0)], 2)
    with pytest.raises(ValueError, match="^declared arity 2 does not match inner arity 1$"):
        compose(NOT, [NOT], 2)
    with pytest.raises(ValueError, match="^composition across different domains$"):
        compose(NOT, [make_projection(THREE, 1, 0)])


def test_compose_refuses_an_explicit_arity_that_is_not_a_count():
    zero = Operation(BOOL, 0, (0,), name="c0")
    for arity in (-1, 1.5, "2", True):
        with pytest.raises(ValueError, match=f"^arity must be a nonnegative integer, got {arity!r}$"):
            compose(zero, [], arity)
    with pytest.raises(ValueError, match="^arity must be a nonnegative integer, got True$"):
        compose(NOT, [NOT], True)


def test_compose_matches_pointwise_oracle():
    rng = random.Random(11)
    for domain in (BOOL, THREE):
        for _ in range(40):
            outer = random_operation(rng, domain, rng.randint(1, 2))
            arity = rng.randint(0, 2)
            inner = [random_operation(rng, domain, arity) for _ in range(outer.arity)]
            assert compose(outer, inner, arity) == oracle_compose(outer, inner, arity)


def test_compose_with_projections_is_identity():
    rng = random.Random(13)
    for _ in range(30):
        f = random_operation(rng, BOOL, rng.randint(1, 3))
        prs = [make_projection(BOOL, f.arity, i) for i in range(f.arity)]
        assert compose(f, prs, f.arity) == f


def test_relation_canonical_form():
    r = Relation(BOOL, 2, ((1, 1), (0, 0), (1, 1)))
    assert r.tuples == ((0, 0), (1, 1))
    assert len(r) == 2
    assert (1, 1) in r and [0, 0] in r
    assert (0, 1) not in r and (1, 0) not in r
    assert (0, 2) not in r and (2, 2) not in r


def test_relation_entry_bounds_checked():
    with pytest.raises(ValueError):
        Relation(BOOL, 2, ((0, 2),))
    with pytest.raises(ValueError):
        Relation(BOOL, 2, ((0, 0, 1),))
    with pytest.raises(ValueError):
        Relation(BOOL, -1, ())


def test_relation_validation_messages():
    def message(arity, tuples):
        with pytest.raises(ValueError) as info:
            Relation(BOOL, arity, tuples)
        return str(info.value)

    assert message(2, ((0, 1), (0,))) == "tuple (0,) has length 1, expected arity 2"
    assert message(2, ((0, 2),)) == "tuple (0, 2) contains 2, not a domain element of size 2"
    assert message(2, ((0, -1),)) == "tuple (0, -1) contains -1, not a domain element of size 2"
    assert message(2, ((0, True),)) == "tuple (0, True) contains True, not a domain element of size 2"
    assert message(2, ((0, 1.0),)) == "tuple (0, 1.0) contains 1.0, not a domain element of size 2"
    assert message(-1, ()) == "arity must be a nonnegative integer, got -1"
    # a bad value equal to a good one elsewhere (True == 1, 1.0 == 1) is still caught
    assert message(2, ((0, 1), (True, 0))) == "tuple (True, 0) contains True, not a domain element of size 2"
    assert message(2, ((0, 1), (1.0, 0))) == "tuple (1.0, 0) contains 1.0, not a domain element of size 2"
    # the first bad tuple in canonical order is named, its length before its values
    assert message(2, ((1, 7), (0, 5))) == "tuple (0, 5) contains 5, not a domain element of size 2"
    assert message(2, ((1,), (0, 5))) == "tuple (0, 5) contains 5, not a domain element of size 2"
    assert message(2, ((0, 5, 1),)) == "tuple (0, 5, 1) has length 3, expected arity 2"
    # the bounds are checked on the values, so a large domain costs nothing
    tracemalloc.start()
    try:
        assert Relation(Domain(10**6), 1, [(0,), (5,)]).tuples == ((0,), (5,))
        assert tracemalloc.get_traced_memory()[1] < 2**20
    finally:
        tracemalloc.stop()


def test_relation_accepts_lists_and_removes_duplicates():
    r = Relation(BOOL, 2, [[1, 0], [0, 1], [1, 0]])
    assert r.tuples == ((0, 1), (1, 0))
    assert Relation(THREE, 0, [[], ()]).tuples == ((),)
    assert Relation(THREE, 1, [[2], [2]]).tuples == ((2,),)


def test_relation_full_and_empty():
    assert full_relation(BOOL, 2).tuples == ((0, 0), (0, 1), (1, 0), (1, 1))
    assert full_relation(BOOL, 2).is_full
    assert empty_relation(BOOL, 3).is_empty
    assert not LEQ.is_full
    assert not LEQ.is_empty


def test_preserves_examples():
    assert preserves(AND, LEQ)
    assert preserves(OR, LEQ)
    assert not preserves(NOT, LEQ)
    assert preserves(NOT, NEQ)
    assert not preserves(AND, NEQ)
    assert preserves(AND, EQ)
    with pytest.raises(ValueError, match="^operation and relation over different domains$"):
        preserves(AND, Relation(THREE, 1, [(2,)]))


def test_projections_preserve_everything():
    rng = random.Random(17)
    for _ in range(40):
        r = random_relation(rng, BOOL, rng.randint(1, 3))
        arity = rng.randint(1, 3)
        assert preserves(make_projection(BOOL, arity, rng.randrange(arity)), r)


def test_nullary_preservation_is_membership_of_constant_tuple():
    zero = Operation(BOOL, 0, (0,))
    one = Operation(BOOL, 0, (1,))
    assert preserves(zero, LEQ)
    assert preserves(one, LEQ)
    assert not preserves(zero, NEQ)
    assert not preserves(one, empty_relation(BOOL, 2))


def test_everything_preserves_the_empty_relation_except_nullary():
    empty = empty_relation(BOOL, 2)
    assert preserves(AND, empty)
    assert preserves(NOT, empty)


def test_preserves_matches_unrolled_oracle():
    rng = random.Random(19)
    for domain in (BOOL, THREE):
        for _ in range(60):
            f = random_operation(rng, domain, rng.randint(0, 2))
            r = random_relation(rng, domain, rng.randint(1, 2))
            assert preserves(f, r) == oracle_preserves(f, r)
        for _ in range(40):
            m = rng.randint(0, 3)
            f = random_operation(rng, domain, m)
            # ternary operations meet ternary relations on d=2 only, to keep the oracle quick
            r = random_relation(rng, domain, rng.randint(1, 3 if domain is BOOL or m < 3 else 2))
            assert preserves(f, r) == oracle_preserves(f, r)
    # arity-0 relations under operations of every arity up to 3
    for r in (empty_relation(BOOL, 0), Relation(BOOL, 0, ((),))):
        for m in range(4):
            for _ in range(3):
                f = random_operation(rng, BOOL, m)
                assert preserves(f, r) == oracle_preserves(f, r)
    # relations that their core shrinks: cylinder coordinates and repeated
    # columns inserted at random positions, and full, empty and arity-0
    # ones, on d = 1..3 under operations of arity 0-3, near-projections
    # among them so that both verdicts come up often
    verdicts = {True: 0, False: 0}
    for domain in (Domain(1), BOOL, THREE):
        cases = [make(domain, k) for make in (empty_relation, full_relation) for k in range(4)]
        for _ in range(80):
            r = random_relation(rng, domain, rng.randint(0, 2), max_size=6)
            for _ in range(rng.randint(0, 2)):
                r = cylinder(r, rng.randint(0, r.arity))
            for _ in range(rng.randint(0, 2) if r.arity else 0):
                r = repeat_column(r, rng.randrange(r.arity), rng.randint(0, r.arity))
            cases.append(r)
        for r in cases:
            for m in range(4):
                if len(r) ** m > 5000:  # keeps the unrolled oracle quick
                    continue
                near = m and domain.size > 1 and rng.random() < 0.5
                f = near_projection(rng, domain, m) if near else random_operation(rng, domain, m)
                verdict = preserves(f, r)
                assert verdict == oracle_preserves(f, r), (f, r)
                verdicts[verdict] += 1
    assert min(verdicts.values()) >= 100, verdicts


def test_row_images_match_pointwise_apply():
    rng = random.Random(29)
    for domain in (BOOL, THREE):
        d = domain.size
        for n in range(4):
            f = random_operation(rng, domain, n)
            for width in range(4):
                rows = list(domain.tuples(width))
                row_lists = [rng.choices(rows, k=rng.randint(1, 3)) for _ in range(n)]
                columns = [[[row[j] for row in combo] for j in range(width)] for combo in product(*row_lists)]
                keyed = [list(map(bytes, rows)) for rows in row_lists]
                want = [bytes(f.apply(col) for col in cols) for cols in columns]
                assert list(row_images(f.table, d, width, keyed)) == want
                want = [bytes(domain.tuple_index(col) for col in cols) for cols in columns]
                assert list(row_images(range(d**n), d, width, keyed)) == want


def test_row_images_match_the_dict_keyed_oracle():
    # same images in the same order: product(*row_lists) order, head rows
    # outermost, which a reversed head fold or a dropped last row breaks;
    # rows and images are keyed as bytes, but a range table past 256 cells
    # (d=2, arity 9) has values past a byte, so its images stay tuples
    rng = random.Random(31)
    cases = []
    for d in (1, 2, 3):
        domain = Domain(d)
        for m in range(4):
            for width in range(5):
                rows = list(domain.tuples(width))
                for table in (random_operation(rng, domain, m).table, range(d**m)):
                    for _ in range(8):
                        kinds = (
                            lambda: [],  # an empty list leaves no combination
                            lambda: [rng.choice(rows)] * rng.randint(2, 3),  # one row repeated
                            lambda: rng.choices(rows, k=rng.randint(1, 3)),
                        )
                        cases.append((table, d, width, [rng.choices(kinds, weights=(1, 2, 5))[0]() for _ in range(m)]))
    for width in (0, 2, 3):  # arity 9 folds its head; arity 8 (two rows a list) goes on byte lanes
        rows = list(BOOL.tuples(width))
        for table in (random_operation(rng, BOOL, 9).table, range(2**9), range(2**8)):
            cases.append((table, 2, width, [rng.sample(rows, min(2, len(rows))) for _ in range(len(table).bit_length() - 1)]))
    images = 0
    for table, d, width, row_lists in cases:
        key = bytes if max(table) < 256 else tuple
        want = list(map(key, oracle_row_images(table, d, width, row_lists)))
        assert list(row_images(table, d, width, [list(map(bytes, rows)) for rows in row_lists])) == want, (table, row_lists)
        images += len(want)
    assert images > 1000, images


def test_counts_refuse_bool_and_values_below_their_least():
    def message(make):
        with pytest.raises(ValueError) as info:
            make()
        return str(info.value)

    assert message(lambda: Operation(BOOL, True, (1, 0))) == "arity must be a nonnegative integer, got True"
    assert message(lambda: Relation(BOOL, True, [(0,), (1,)])) == "arity must be a nonnegative integer, got True"
    assert message(lambda: Operation(BOOL, -1, ())) == "arity must be a nonnegative integer, got -1"
    assert message(lambda: Relation(BOOL, 1.0, ())) == "arity must be a nonnegative integer, got 1.0"
    assert message(lambda: Domain(True)) == "domain size must be a positive integer, got True"
    assert message(lambda: Domain(0)) == "domain size must be a positive integer, got 0"
    assert message(lambda: Partition(0, ())) == "index_size must be a positive integer, got 0"
    assert message(lambda: Limits(max_index=True)) == "limit max_index must be a positive integer, got True"
    assert message(lambda: Limits(max_closure=0)) == "limit max_closure must be a positive integer, got 0"
    assert Operation(BOOL, 0, (1,)).arity == 0 and Relation(BOOL, 0, ()).arity == 0

    # every arity-like argument goes through the same check
    ops, rels = OperationSet(BOOL, (AND,)), RelationSet(BOOL, (LEQ,))
    and_ops = str(Path(__file__).parent / "data" / "and.ops")
    arguments = [
        ("arity", 0, lambda v: list(BOOL.tuples(v))),
        ("arity", 0, lambda v: inv(ops, v)),
        ("arity", 0, lambda v: pol(rels, v)),
        ("projection arity", 1, lambda v: make_projection(BOOL, v, 0)),
        ("arity", 1, lambda v: graph_relation(ops, v)),
        ("arity", 1, lambda v: galois_check(ops, v)),
        ("max_k", 1, lambda v: galois_check(ops, 1, max_k=v)),
        ("max_arity", 1, lambda v: clone_closure(ops, v)),
        ("index_size", 1, lambda v: list(all_partitions(v))),
        ("index_size", 1, lambda v: partition_lattice(v)),
        ("arity", 1, lambda v: _require_enum_arity(v, "pol --arity", Limits())),
    ]
    for what, least, call in arguments:
        kind = "positive" if least else "nonnegative"
        for value in (True, -1, 0) if least else (True, -1):
            assert message(lambda: call(value)) == f"{what} must be a {kind} integer, got {value!r}", what
    for value in ("0", "-1"):
        assert run(["inv", "--ops", and_ops, "--arity", value]) == (
            2, "", f"error: arity must be a positive integer, got {value}\n"
        )


def test_operation_set_pinned():
    c1 = Operation(BOOL, 0, (1,), name="c1")
    s = OperationSet(BOOL, (MAJ, OR, renamed(AND, "conj"), NOT, AND, c1, IDENT, renamed(NOT, "neg")))
    # canonical order: by arity, then by table; the first name given wins
    assert [op.name for op in s] == ["c1", "id", "NOT", "conj", "OR", "MAJ"]
    assert s.ops == tuple(s) and len(s) == 6
    assert arity_members(s, 2) == (AND, OR) and arity_members(s, 4) == ()
    assert s.max_arity() == 3 and OperationSet(BOOL, ()).max_arity() == 0
    assert renamed(AND, "x") in s and c1 in s
    assert XOR not in s and Operation(BOOL, 0, (0,)) not in s
    # same arity and table, other domain
    assert Operation(THREE, 0, (1,)) not in s
    assert Operation(THREE, 1, (0, 1, 1)) not in OperationSet(THREE, (Operation(THREE, 1, (0, 1, 2)),))
    with pytest.raises(ValueError, match=r"^operation \(1, 0, 2\) over a different domain$"):
        OperationSet(BOOL, (AND, Operation(THREE, 1, (1, 0, 2))))
    with pytest.raises(ValueError, match="^operation f over a different domain$"):
        OperationSet(BOOL, (Operation(THREE, 1, (1, 0, 2), name="f"),))


def test_relation_set_pinned():
    unary = Relation(BOOL, 1, ((1,),), name="one")
    true0 = Relation(BOOL, 0, ((),), name="true0")
    s = RelationSet(BOOL, (NEQ, renamed(LEQ, "order"), unary, EQ, LEQ, true0, empty_relation(BOOL, 1)))
    # canonical order: by arity, then by the sorted tuple list; the first name given wins
    assert [r.name for r in s] == ["true0", "", "one", "order", "eq", "neq"]
    assert s.rels == tuple(s) and len(s) == 6
    assert arity_members(s, 2) == (LEQ, EQ, NEQ) and arity_members(s, 3) == ()
    assert LEQ in s and Relation(BOOL, 1, ((1,),)) in s
    assert full_relation(BOOL, 2) not in s and empty_relation(BOOL, 0) not in s
    # same arity and tuples, other domain
    assert Relation(THREE, 2, NEQ.tuples) not in s
    assert Relation(THREE, 0, ((),)) not in s
    with pytest.raises(ValueError, match=r"^relation \(\(2,\),\) over a different domain$"):
        RelationSet(BOOL, (LEQ, Relation(THREE, 1, ((2,),))))
    with pytest.raises(ValueError, match="^relation r over a different domain$"):
        RelationSet(BOOL, (Relation(THREE, 1, ((2,),), name="r"),))


def test_membership_of_a_foreign_object_is_false():
    # answered as `in` on a tuple would: an object of another class, a
    # tuple whose entries do not compare with ints, or no iterable at all
    # is no member
    ideal = ideal_downset([Partition(2, ((0,), (1,)))], 2)
    cases = [
        (LEQ, OperationSet(BOOL, (AND,))),
        (AND, RelationSet(BOOL, (LEQ,))),
        (None, RelationSet(BOOL, (LEQ,))),
        ("x", ideal),
        (("a", 0), LEQ),
        (5, LEQ),
    ]
    assert [x in s for x, s in cases] == [False] * len(cases)
    assert [0, 0] in LEQ and (0, 1) in LEQ and [1, 0] not in LEQ
    assert Partition(2, ((0, 1),)) in ideal
