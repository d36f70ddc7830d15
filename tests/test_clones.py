import random
from itertools import combinations, product

import pytest

from polinv import (
    Domain,
    Operation,
    OperationSet,
    ResourceBoundError,
    clone_closure,
    clone_contains,
    essential_variables,
    galois_check,
    graph_relation,
    invariant_closure,
    make_projection,
    preserves,
)
from polinv.core import row_images
from polinv.limits import Limits

from helpers import (
    AND,
    BOOL,
    IDENT,
    MAJ,
    MINORITY,
    NOT,
    OR,
    THREE,
    XOR,
    arity_members,
    assert_rebuilds,
    near_projection,
    op,
    opset,
    oracle_clone_closure,
    oracle_compose,
    oracle_invariant_closure,
    oracle_row_images,
    random_operation,
    renamed,
)

MIN3 = op([min(x, y) for x, y in THREE.tuples(2)], domain=THREE, name="min")
SUC3 = op([(x + 1) % 3 for x in range(3)], domain=THREE, name="suc")
PLUS3 = op([(x + y) % 3 for x, y in THREE.tuples(2)], domain=THREE, name="plus")
NEG3 = op([2 - x for x in range(3)], domain=THREE, name="neg")
# Webb's function max(x, y) + 1 mod 3 generates every operation on {0, 1, 2}
WEBB3 = op([(max(x, y) + 1) % 3 for x, y in THREE.tuples(2)], domain=THREE, name="webb")


def closure_tables(generators, max_arity):
    return {(f.arity, f.table) for f in clone_closure(opset(generators), max_arity)}


def test_closure_of_nothing_is_projections():
    got = clone_closure(opset([]), 2)
    assert len(got) == 3
    expected = {make_projection(BOOL, 1, 0), make_projection(BOOL, 2, 0), make_projection(BOOL, 2, 1)}
    assert set(got) == expected


def test_closure_of_and_at_arity_two():
    got = clone_closure(opset([AND]), 2)
    assert len(got) == 4
    assert AND in got


def test_closure_of_not_at_arity_one():
    got = clone_closure(opset([NOT]), 1)
    assert set(got) == {NOT, IDENT}


def test_closure_keeps_nullary_generators():
    zero = Operation(BOOL, 0, (0,), name="c0")
    with_null = clone_closure(opset([zero]), 1)
    arities = {f.arity for f in with_null}
    assert 0 in arities
    # the unary constant arises from the nullary generator by superposition
    assert Operation(BOOL, 1, (0, 0)) in with_null


def test_nullary_generators_need_no_flag():
    one = Operation(BOOL, 0, (1,), name="c1")
    zero = Operation(THREE, 0, (0,), name="z")
    suc = Operation(THREE, 1, (1, 2, 0), name="suc")
    # the nullary members are the constants the nullary generators generate;
    # max_k=2 keeps d=3 under inv's candidate cap, and suffices there
    cases = [(opset([one, AND]), 2, None, [(1,)]), (opset([zero, suc], THREE), 1, 2, [(0,), (1,), (2,)])]
    for gens, max_arity, max_k, constants in cases:
        domain = gens.domain
        closed = clone_closure(gens, max_arity)
        assert all(g in closed for g in gens)
        assert [f.table for f in arity_members(closed, 0)] == constants
        for n in range(max_arity + 1):
            members = arity_members(closed, n)
            for table in product(domain.elements(), repeat=domain.size**n):
                op = Operation(domain, n, table)
                assert clone_contains(gens, op, max_arity) == (op in members)
            if n:
                assert graph_relation(gens, n).tuples == tuple(sorted(f.table for f in members))
                report = galois_check(gens, n, max_k=max_k)
                assert report.passed and set(report.clone_ops) == set(members)


def test_closure_is_extensive_and_contains_projections():
    rng = random.Random(31)
    for _ in range(20):
        gens = [random_operation(rng, BOOL, rng.randint(1, 2)) for _ in range(rng.randint(0, 2))]
        got = clone_closure(opset(gens), 2)
        for g in gens:
            assert g in got
        for arity in (1, 2):
            for i in range(arity):
                assert make_projection(BOOL, arity, i) in got


def test_closure_is_idempotent_and_monotone():
    rng = random.Random(37)
    for _ in range(12):
        gens = [random_operation(rng, BOOL, rng.randint(1, 2)) for _ in range(rng.randint(0, 2))]
        extra = [random_operation(rng, BOOL, rng.randint(1, 2))]
        first = closure_tables(gens, 2)
        assert closure_tables([Operation(BOOL, a, t) for a, t in first], 2) == first
        assert first <= closure_tables(gens + extra, 2)


def test_closure_is_closed_under_composition():
    rng = random.Random(41)
    got = list(clone_closure(opset([OR, NOT]), 2))
    members = {(f.arity, f.table) for f in got}
    binary = [g for g in got if g.arity == 2]
    for _ in range(60):
        f = rng.choice(got)
        gs = [rng.choice(binary) for _ in range(f.arity)]
        h = oracle_compose(f, gs, 2)
        assert (h.arity, h.table) in members


def test_closure_of_or_not_is_everything():
    # {OR, NOT} generates all boolean operations at each arity
    got = clone_closure(opset([OR, NOT]), 2)
    assert len(arity_members(got, 1)) == 4
    assert len(arity_members(got, 2)) == 16


def test_closure_generator_above_bound_rejected():
    ternary = Operation(BOOL, 3, tuple([0] * 8))
    with pytest.raises(ValueError):
        clone_closure(opset([ternary]), 2)


def test_closure_size_cap():
    # the binary slice is refused within its own rounds, before the running total
    with pytest.raises(ResourceBoundError, match=r"^clone slice at arity 2 needs 10, more than max_closure \(5\)$"):
        clone_closure(opset([OR, NOT]), 2, limits=Limits(max_closure=5))


def test_closure_round_and_table_caps():
    # a round counts the new row combinations of one slice; both sets are
    # complete, so the widest slice grows toward all 3^9 (d=3, arity 2) or
    # 2^16 (d=2, arity 4) tables and one of its rounds outgrows the cap
    for ops, max_arity, combos in ((opset([MIN3, SUC3], THREE), 2, 25465202), (opset([AND, OR, NOT, XOR]), 4, 2864650000)):
        with pytest.raises(
            ResourceBoundError,
            match=rf"^clone slice round at arity {max_arity} needs {combos}, more than max_candidates \(10000000\)$",
        ):
            clone_closure(ops, max_arity)
    # every projection table is refused before one is built
    with pytest.raises(ResourceBoundError, match=r"^clone closure table at arity 17 needs 131072, more than max_materialize \(65536\)$"):
        clone_closure(opset([]), 17)
    with pytest.raises(ResourceBoundError, match=r"^clone closure table at arity 3 needs 27, more than max_materialize \(26\)$"):
        clone_closure(opset([SUC3], THREE), 3, limits=Limits(max_materialize=26))


def test_closure_matches_the_naive_oracle():
    # (domain, max_arity, random generators' top arity, how many at most):
    # kept small enough for the naive fixpoint
    settings = [(BOOL, 1, 1, 2), (BOOL, 2, 2, 2), (BOOL, 3, 1, 2), (THREE, 1, 1, 2), (THREE, 2, 1, 1)]
    rng = random.Random(59)
    for trial in range(40):
        domain, max_arity, top, most = rng.choice(settings)
        gens = [random_operation(rng, domain, rng.randint(0, top), name=f"g{i}") for i in range(rng.randint(0, most))]
        if rng.random() < 0.3:
            gens.append(random_operation(rng, domain, 0, name="c"))
        if max_arity == 3 and rng.random() < 0.3:  # alone, each has few ternary members
            gens = [rng.choice([AND, MAJ, MINORITY])]
        if rng.random() < 0.5:  # a projection under another name
            n = rng.randint(1, max_arity)
            gens.append(make_projection(domain, n, rng.randrange(n), name="p"))
        closed = clone_closure(opset(gens, domain), max_arity)
        assert_rebuilds(closed)
        got = {(f.arity, f.table): f.name for f in closed}
        assert got == oracle_clone_closure(opset(gens, domain), max_arity, domain), (trial, gens)


def test_images_match_the_dict_keyed_oracle():
    # _closing's kernel at each semi-naive position
    # [older]*i + [fresh] + [every]*(m-1-i): byte lanes up to 256 cells,
    # the head fold past them on bytes rows (d=2, arity 9) and on tuple
    # rows past a byte (d=300); a nullary table has the one position []
    rng = random.Random(37)
    shapes = [(d, m, 4) for d in (1, 2, 3, 4) for m in range(4)] + [(2, 9, 1), (300, 0, 4), (300, 1, 4)]
    images = 0
    for d, m, most in shapes:
        domain = Domain(d)
        key = bytes if d <= 256 else tuple
        for width in range(10):
            for _ in range(3):
                table = random_operation(rng, domain, m).table
                older, fresh = [[tuple(rng.choices(range(d), k=width)) for _ in range(rng.randint(low, most))] for low in (0, 1)]
                every = older + fresh
                for row_lists in [[older] * i + [fresh] + [every] * (m - 1 - i) for i in range(m)] or [[]]:
                    want = list(map(key, oracle_row_images(table, d, width, row_lists)))
                    got = row_images(table, d, width, [list(map(key, rows)) for rows in row_lists])
                    assert list(got) == want, (d, table, row_lists)
                    images += len(want)
    assert images > 1000, images


def test_closures_with_a_wide_member_match_the_naive_oracles():
    # members past the byte lanes go through row_images: unary members on
    # d=300, whose rows are keyed as tuples, and an arity-9 near-projection
    # on d=2 (with a constant on odd trials), whose rows are keyed as bytes;
    # unary members into three points keep the d=300 closures small; on
    # d=2 a unary relation, the unary slice (width 2) and, on two trials, a
    # binary relation from 3 seeds are closed: the naive fixpoint applies
    # the arity-9 member to every combination, 4^9 once all 4 tuples are held
    rng = random.Random(43)
    wide = Domain(300)
    for trial in range(6):
        points = rng.sample(range(300), 3)
        gens = [Operation(wide, 1, tuple(rng.choices(points, k=300)), name=f"g{i}") for i in range(rng.randint(1, 2))]
        if trial % 2:
            gens.append(Operation(wide, 0, (rng.randrange(300),), name="c"))
        ops = opset(gens, wide)
        closed = oracle_clone_closure(ops, 1, wide)
        assert {(f.arity, f.table): f.name for f in clone_closure(ops, 1)} == closed, trial
        assert set(graph_relation(ops, 1).tuples) == {t for k, t in closed if k == 1}, trial
        assert_rebuilds(graph_relation(ops, 1))
        seeds = [tuple(rng.choices(range(300), k=2)) for _ in range(rng.randint(1, 3))]
        assert invariant_closure(ops, seeds, 2) == oracle_invariant_closure(gens, seeds, 2, wide), trial
        assert_rebuilds(invariant_closure(ops, seeds, 2))
    sizes = []
    for trial in range(6):
        gens = [near_projection(rng, BOOL, 9)] + [random_operation(rng, BOOL, 0) for _ in range(trial % 2)]
        ops = opset(gens)
        seeds = rng.sample([(0,), (1,)], rng.randint(1, 2))
        assert invariant_closure(ops, seeds, 1) == oracle_invariant_closure(gens, seeds, 1, BOOL), trial
        if trial < 2:  # with and without a constant: the slowest closures here
            seeds = rng.sample(list(BOOL.tuples(2)), 3)
            closed = invariant_closure(ops, seeds, 2)
            assert_rebuilds(closed)
            assert closed == oracle_invariant_closure(gens, seeds, 2, BOOL), trial
            sizes.append(len(closed))
        # the unary slice is the closure of the identity's table
        assert graph_relation(ops, 1) == oracle_invariant_closure(gens, [(0, 1)], 2, BOOL), trial
        assert_rebuilds(graph_relation(ops, 1))
    assert 4 in sizes, sizes


def test_closure_is_the_union_of_its_slices():
    # the generator sets of the closure benchmark: every member of
    # clone_closure(F, n) is reached within its own arity's slice, and
    # the closure holds every slice; {plus, suc} and {min, neg} close d=3
    # under two generators
    cases = [
        (BOOL, 3, [[NOT], [XOR], [AND], [AND, OR], [XOR, NOT]]),
        (THREE, 2, [[MIN3], [SUC3], [PLUS3], [PLUS3, SUC3], [MIN3, NEG3]]),
    ]
    sizes = []
    for domain, max_arity, generator_sets in cases:
        for gens in generator_sets:
            ops = opset(gens, domain)
            slices = {(k, t) for k in range(1, max_arity + 1) for t in graph_relation(ops, k).tuples}
            assert {(f.arity, f.table) for f in clone_closure(ops, max_arity)} == slices, gens
            sizes.append(len(slices))
    assert sizes == [12, 14, 11, 23, 28, 4, 9, 12, 36, 86]

def test_clone_contains_examples():
    assert not clone_contains(opset([AND]), OR, 2)
    assert clone_contains(opset([AND]), make_projection(BOOL, 2, 0), 2)
    assert clone_contains(opset([NOT]), IDENT, 1)
    assert clone_contains(opset([OR, NOT]), AND, 2)


def test_clone_contains_arity_above_bound_rejected():
    with pytest.raises(ValueError):
        clone_contains(opset([AND]), Operation(BOOL, 3, tuple([0] * 8)), 2)


def test_clone_contains_checks_the_bound_before_the_operation():
    with pytest.raises(ValueError, match="^max_arity must be a positive integer, got True$"):
        clone_contains(opset([]), AND, True)


def test_operation_set_deduplicates_by_table():
    s = OperationSet(BOOL, (AND, renamed(AND, "conj"), NOT))
    assert len(s) == 2
    assert [op.name for op in s] == ["NOT", "AND"]
    assert renamed(AND, "x") in s and NOT in s
    assert OR not in s and IDENT not in s
    assert Operation(THREE, 1, (1, 0, 2)) not in s
    assert Operation(THREE, 0, (1,)) not in OperationSet(BOOL, (Operation(BOOL, 0, (1,)),))


def test_operation_set_canonical_order():
    s = OperationSet(BOOL, (AND, NOT, OR))
    assert [op.arity for op in s] == [1, 2, 2]
    assert [op.table for op in arity_members(s, 2)] == [(0, 0, 0, 1), (0, 1, 1, 1)]


def test_operation_set_rejects_foreign_domain():
    with pytest.raises(ValueError):
        OperationSet(BOOL, (random_operation(random.Random(0), THREE, 1),))


def test_graph_relation_examples():
    assert graph_relation(opset([NOT]), 1).tuples == ((0, 1), (1, 0))

    all_unary = opset([NOT, Operation(BOOL, 1, (0, 0)), Operation(BOOL, 1, (1, 1))])
    assert graph_relation(all_unary, 1).tuples == ((0, 0), (0, 1), (1, 0), (1, 1))

    assert graph_relation(opset([]), 2).tuples == ((0, 0, 1, 1), (0, 1, 0, 1))


def test_graph_relation_rows_are_member_tables():
    clone = clone_closure(opset([AND]), 2)
    gamma = graph_relation(clone, 2)
    assert set(gamma.tuples) == {f.table for f in arity_members(clone, 2)}
    assert gamma.arity == 4


def test_graph_relation_is_invariant_under_the_clone():
    for gens in ([], [AND], [NOT], [AND, NOT]):
        clone = clone_closure(opset(gens), 2)
        gamma = graph_relation(clone, 2)
        for f in clone:
            assert preserves(f, gamma)


def test_graph_relation_width_cap():
    with pytest.raises(ResourceBoundError, match=r"^clone slice table at arity 2 needs 4, more than max_materialize \(3\)$"):
        graph_relation(opset([]), 2, limits=Limits(max_materialize=3))


def test_essential_variables_examples():
    assert essential_variables(make_projection(BOOL, 2, 0)).indices == (0,)
    assert essential_variables(Operation(BOOL, 1, (0, 0))).indices == ()
    assert essential_variables(AND).indices == (0, 1)
    assert essential_variables(XOR).indices == (0, 1)


def test_essential_set_rejects_wrong_indices():
    from polinv import EssentialSet

    with pytest.raises(ValueError, match=r"^indices \(0,\) are not the essential coordinates of AND$"):
        EssentialSet(AND, (0,))
    assert EssentialSet(AND, (1, 0, 1)).indices == (0, 1)
    assert EssentialSet(NOT).indices == (0,)


def test_essential_variables_scans_the_table_once(monkeypatch):
    from polinv import clones

    scanned = []
    scan = clones._essential_indices
    monkeypatch.setattr(clones, "_essential_indices", lambda op: scanned.append(op) or scan(op))
    assert essential_variables(AND).indices == (0, 1)
    assert scanned == [AND]


def test_essential_variables_random_cross_check():
    rng = random.Random(43)
    for _ in range(40):
        f = random_operation(rng, BOOL, rng.randint(1, 3))
        ess = set(essential_variables(f).indices)
        for i in range(f.arity):
            depends = False
            for args in BOOL.tuples(f.arity):
                for v in range(2):
                    changed = list(args)
                    changed[i] = v
                    if f.apply(changed) != f.apply(args):
                        depends = True
            assert (i in ess) == depends


def test_essential_variables_rejects_nullary():
    with pytest.raises(ValueError):
        essential_variables(Operation(BOOL, 0, (0,)))


def test_slices_match_the_closure_oracle():
    # graph_relation, clone_contains and galois_check close only the arity
    # they test; the naive fixpoint oracle_clone_closure is their oracle.  It
    # takes 0.6-3.7 s on each set in slow, so those are held to clone_closure,
    # which closes every arity up to the bound through the same _closing loop
    rng = random.Random(53)
    x_and_y_or_z = near_projection(random.Random(1), BOOL, 3)  # 10 ternary members
    cases = [(list(gens), (1, 2)) for r in range(5) for gens in combinations((AND, OR, NOT, XOR), r)]
    cases += [(gens, (1, 2)) for gens in ([MIN3], [SUC3], [PLUS3], [PLUS3, SUC3])]
    cases += [(gens, (1, 2)) for gens in ([MAJ], [x_and_y_or_z], [MAJ, NOT])]  # generators above n
    constants = [op((1,), arity=0), op((0,), arity=0, domain=THREE)]
    nullary = [[constants[0]], [constants[0], AND], [constants[0], op((0,), arity=0)], [constants[1], SUC3]]
    cases += [(gens, (0, 1, 2)) for gens in nullary]
    slow = [[PLUS3, SUC3], [x_and_y_or_z], [MAJ, NOT]]
    for gens, arities in cases:
        domain = gens[0].domain if gens else BOOL
        ops = opset(gens, domain)
        bound = max(2, ops.max_arity())
        if gens in slow:
            closed = {(f.arity, f.table) for f in clone_closure(ops, bound)}
        else:
            closed = oracle_clone_closure(gens, bound, domain)
        for n in arities:
            want = {t for k, t in closed if k == n}
            tables = list(product(domain.elements(), repeat=domain.size**n))
            queries = tables if len(tables) <= 16 else rng.sample(tables, 16)
            for f in [Operation(domain, n, t) for t in [*queries, *want]]:
                assert clone_contains(ops, f, bound) == (f.table in want), (gens, n, f.table)
            if n:
                assert set(graph_relation(ops, n).tuples) == want, (gens, n)
                assert {f.table for f in galois_check(ops, n, max_k=1).clone_ops} == want, (gens, n)


def test_ternary_slices_match_posts_lattice():
    # the sizes of the ternary parts of these boolean clones, from Post's
    # lattice; closing every arity up to 3 at once does not finish on most
    counts = [([AND], 7), ([NOT], 6), ([XOR], 8), ([XOR, NOT], 16), ([AND, OR], 18), ([AND, XOR], 128), ([MAJ], 4)]
    counts.append(([AND, OR, NOT, XOR], 256))
    for gens, count in counts:
        assert len(graph_relation(opset(gens), 3)) == count, gens
        assert len(galois_check(opset(gens), 3, max_k=1).clone_ops) == count, gens
    # the majority is monotone and preserves 0, but is not affine
    assert clone_contains(opset([AND, OR]), MAJ, 3) and clone_contains(opset([AND, XOR]), MAJ, 3)
    assert not clone_contains(opset([XOR, NOT]), MAJ, 3)


def test_slice_refusals():
    bool_ops = opset([AND, OR, NOT, XOR])
    small = Limits(max_closure=5)  # the binary slice of bool_ops has 16 members
    for call in (
        lambda: graph_relation(bool_ops, 2, limits=small),
        lambda: clone_contains(bool_ops, AND, 2, limits=small),
        lambda: galois_check(bool_ops, 2, limits=small),
    ):
        with pytest.raises(ResourceBoundError, match=r"^clone slice at arity 2 needs 8, more than max_closure \(5\)$"):
            call()
    # the round guard counts only the row combinations holding a new tuple:
    # 584 in the largest round here, against 3 * 16^2 + 16 for every one
    assert len(graph_relation(bool_ops, 2, limits=Limits(max_candidates=584))) == 16
    with pytest.raises(ResourceBoundError, match=r"^clone slice round at arity 2 needs 584, more than max_candidates \(583\)$"):
        graph_relation(bool_ops, 2, limits=Limits(max_candidates=583))
    # the binary slice of Webb's function holds all 19,683 tables
    webb, tight = opset([WEBB3], THREE), Limits(max_candidates=100_000)
    for call in (
        lambda: graph_relation(webb, 2, limits=tight),
        lambda: clone_contains(webb, WEBB3, 2, limits=tight),
        lambda: galois_check(webb, 2, max_k=1, limits=tight),
    ):
        with pytest.raises(ResourceBoundError, match=r"^clone slice round at arity 2 needs 2244368, more than max_candidates \(100000\)$"):
            call()
