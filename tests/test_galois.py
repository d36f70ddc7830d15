import random
import re
from collections import Counter
from itertools import combinations, permutations, product

import pytest

from polinv import (
    Domain,
    Operation,
    Relation,
    RelationSet,
    ResourceBoundError,
    all_partitions,
    diagonal_relation,
    galois_check,
    ideal_downset,
    inv,
    invariant_closure,
    pol,
    preserves,
)
from polinv import galois
from polinv.core import _core
from polinv.galois import (
    _constraints,
    _image_table,
    _invariant_masks,
    _maximal_invariants,
    _prefers_reversed,
    _relations,
    _tables,
)
from polinv.limits import DEFAULT_LIMITS, Limits

from helpers import (
    AND,
    BOOL,
    EQ,
    LEQ,
    MAJ,
    MINORITY,
    NEQ,
    NOT,
    OR,
    THREE,
    XOR,
    cylinder,
    empty_relation,
    full_relation,
    near_projection,
    op,
    opset,
    oracle_core,
    oracle_image_table,
    oracle_inv,
    oracle_invariant_closure,
    oracle_kept_invariants,
    oracle_maximal_invariants,
    oracle_pol,
    oracle_preserves,
    random_operation,
    random_relation,
    relation_set,
    renamed,
    repeat_column,
)


def test_relation_set_deduplicates_and_orders():
    s = RelationSet(BOOL, (NEQ, LEQ, renamed(LEQ, "order")))
    assert len(s) == 2
    assert s.rels[0] == LEQ  # tuple lists compare lexicographically at equal arity
    assert s.rels[0].name == "leq"
    assert NEQ in s and renamed(LEQ, "other") in s
    assert EQ not in s
    assert Relation(THREE, 2, NEQ.tuples) not in s


def test_relation_set_rejects_foreign_domain():
    with pytest.raises(ValueError):
        RelationSet(BOOL, (Relation(THREE, 1, ((2,),)),))


def test_inv_unary_examples():
    assert len(inv(opset([AND]), 1)) == 4
    assert len(inv(opset([NOT]), 1)) == 2
    assert len(inv(opset([]), 1)) == 4


def test_inv_members_are_actually_invariant():
    got = inv(opset([AND, NOT]), 2)
    for r in got:
        assert preserves(AND, r) and preserves(NOT, r)


def test_inv_matches_filtering_oracle():
    rng = random.Random(47)
    cases = []
    for _ in range(8):
        ops = [random_operation(rng, BOOL, rng.randint(1, 2)) for _ in range(rng.randint(0, 2))]
        cases += [(BOOL, ops, 1), (BOOL, ops, 2)]
    # ops of arity 3 and 4, alone and beside a nullary or binary op; the
    # d=3 arity-4 cases at k=2 need images of four distinct rows
    for domain, ks, arities in [(BOOL, (1, 2, 3), (3, 4))] * 5 + [(THREE, (1, 2), (3,)), (THREE, (2,), (4,))] * 2:
        wide = [near_projection(rng, domain, rng.choice(arities))]
        mixed = [random_operation(rng, domain, rng.choice((0, 2)))] + wide
        cases += [(domain, ops, k) for ops in (wide, mixed) for k in ks]
    cases.append((BOOL, [AND, NOT], 3))
    cases.append((BOOL, [op((1,), arity=0), AND], 2))  # the constant 1 must sit in every invariant
    cases += [(BOOL, [f], k) for f in (MAJ, MINORITY) for k in (1, 2, 3)]
    cases += [(BOOL, [], k) for k in (1, 2, 3)]
    # the dual discriminator is not symmetric: every position of the new row counts
    dual_discriminator = op([x if x == y else z for x, y, z in THREE.tuples(3)], domain=THREE)
    max_neg = [op([max(t) for t in THREE.tuples(3)], domain=THREE), op((2, 1, 0), domain=THREE)]
    cases += [(THREE, ops, k) for ops in ([dual_discriminator], max_neg) for k in (1, 2)]
    # x - y and max(x - y, 0) do not commute: both orders of two rows count
    minus = op([(x - y) % 3 for x, y in THREE.tuples(2)], domain=THREE)
    monus = op([max(x - y, 0) for x, y in THREE.tuples(2)], domain=THREE)
    cases += [(THREE, [f], k) for f in (minus, monus) for k in (1, 2)]
    # images ranked at or above their rows: the search runs in reversed order
    cases += [(BOOL, ops, k) for ops in ([OR], [OR, NOT]) for k in (1, 2, 3)]
    max3 = op([max(x, y) for x, y in THREE.tuples(2)], domain=THREE)
    cases += [(THREE, [max3], k) for k in (1, 2)]
    for domain, ops, arity in cases:
        got = {r.tuples for r in inv(opset(ops, domain), arity)}
        want = {r.tuples for r in oracle_inv(ops, arity, domain)}
        assert got == want


def _conjugate(f, sigma):
    """f^sigma: x -> sigma(f(sigma^-1 x)), applied coordinatewise."""
    back = [sigma.index(a) for a in range(f.domain.size)]
    table = tuple(sigma[f.table[f.domain.tuple_index([back[a] for a in x])]] for x in f.domain.tuples(f.arity))
    return Operation(f.domain, f.arity, table)


def test_inv_commutes_with_domain_permutations():
    # Inv(F^sigma) = sigma(Inv F) for every permutation sigma of the domain.
    # Conjugating by a -> d-1-a reverses the tuple ranks, so outside ties
    # it swaps the rank order the search runs in: each such pair compares
    # the two orders.  Ternary members run the wide part of the image table
    # under either order.
    rng = random.Random(241)
    cases = []
    for domain, ks in ((BOOL, (0, 1, 2, 3)), (THREE, (0, 1, 2))):
        for trial in range(20):
            gens = [random_operation(rng, domain, rng.randint(0, 2)) for _ in range(rng.randint(0, 1))]
            gens.append(near_projection(rng, domain, 3) if trial % 2 else random_operation(rng, domain, rng.randint(1, 3)))
            cases += [(domain, gens, k) for k in ks]
    cases += [(BOOL, [f], k) for f in (AND, OR, MAJ) for k in (2, 3)]

    orders = Counter()  # (reversed order, with a ternary member)
    for domain, gens, k in cases:
        flip = _prefers_reversed(opset(gens, domain))
        orders[flip, any(f.arity == 3 for f in gens)] += 1
        # where the members pick the reversed order, their conjugates by
        # a -> d-1-a do not
        mirrored = opset([_conjugate(f, list(range(domain.size))[::-1]) for f in gens], domain)
        assert not (flip and _prefers_reversed(mirrored))
        got = {r.tuples for r in inv(opset(gens, domain), k)}
        for sigma in permutations(range(domain.size)):
            moved = inv(opset([_conjugate(f, list(sigma)) for f in gens], domain), k)
            assert {r.tuples for r in moved} == {
                tuple(sorted(tuple(sigma[a] for a in t) for t in r)) for r in got
            }, (gens, k, sigma)
    assert min(orders[flip, True] for flip in (False, True)) >= 10, orders


def test_image_table_files_each_row_combination_in_one_slot():
    # root, every lane int and every wide dict against pointwise
    # evaluation: a pair of rows sits only in the lane of its lower rank,
    # so every field of lane[b] below b is empty.  Each member set also
    # runs conjugated by a -> d-1-a, the table a reversed search builds
    rng = random.Random(243)
    cases = [(BOOL, [f], k) for f in (NOT, AND, OR, XOR, MAJ) for k in (1, 2, 3)]
    for domain, arities, ks, trials in ((BOOL, 4, (0, 1, 2, 3), 24), (THREE, 3, (1, 2), 16), (Domain(4), 2, (1,), 8)):
        for trial in range(trials):
            gens = [random_operation(rng, domain, rng.randint(0, arities)) for _ in range(rng.randint(1, 2))]
            if trial % 2:
                gens.append(near_projection(rng, domain, rng.randint(1, arities)))
            cases += [(domain, gens, k) for k in ks]
    seen = set()
    for domain, gens, k in cases:
        mirrored = [_conjugate(f, list(range(domain.size))[::-1]) for f in gens]
        for members in (gens, mirrored):
            ops = opset(members, domain)
            assert _image_table(ops, k) == oracle_image_table(ops, k), (members, k)
            seen.update(f.arity for f in members)
    assert seen == {0, 1, 2, 3, 4}


def test_rank_order_on_the_roundtrip_sets_is_the_cheaper_one():
    # The order picked for the nonempty subsets of {AND, OR, NOT, XOR}, the
    # check --arity 2 sets of the roundtrip benchmark up to its seeded
    # relabelling, with the nodes the search at max_k = 4 visits in
    # natural / reversed order: the pick is never the costlier one, and a
    # tie keeps natural
    orders = {
        ("AND",): False,  # 4960 / 12676
        ("OR",): True,  # 12676 / 4960
        ("NOT",): False,  # 1280 / 1280
        ("XOR",): False,  # 155 / 433
        ("AND", "OR"): False,  # 1301 / 1301
        ("AND", "NOT"): False,  # 267 / 491
        ("AND", "XOR"): False,  # 115 / 331
        ("OR", "NOT"): True,  # 491 / 267
        ("OR", "XOR"): False,  # 144 / 253
        ("NOT", "XOR"): False,  # 78 / 310
        ("AND", "OR", "NOT"): False,  # 177 / 177
        ("AND", "OR", "XOR"): False,  # 115 / 229
        ("AND", "NOT", "XOR"): False,  # 72 / 245
        ("OR", "NOT", "XOR"): False,  # 74 / 169
        ("AND", "OR", "NOT", "XOR"): False,  # 72 / 145
    }
    named = {"AND": AND, "OR": OR, "NOT": NOT, "XOR": XOR}
    assert {names: _prefers_reversed(opset([named[g] for g in names])) for names in orders} == orders


def test_galois_check_counts_every_arity_like_the_filtering_oracle():
    # invariant_count sums the invariants of arities 1..max_k, against the
    # sweep over all tuple sets at each arity
    rng = random.Random(242)
    cases = [(BOOL, [], 1, 3), (THREE, [], 1, 2), (BOOL, [OR], 2, 3), (BOOL, [MAJ], 1, 3)]
    for domain, most in ((BOOL, 3), (THREE, 2)):
        for _ in range(20):
            gens = _random_generators(rng, domain)
            cases.append((domain, gens, 1, rng.randint(1, most)))
    assert any(max_k == 1 for *_, max_k in cases)
    counts = {}
    for domain, gens, n, max_k in cases:
        want = 0
        for k in range(1, max_k + 1):
            key = (domain.size, tuple((f.arity, f.table) for f in gens), k)
            if key not in counts:
                counts[key] = len(oracle_inv(gens, k, domain))
            want += counts[key]
        assert galois_check(opset(gens, domain), n, max_k=max_k).invariant_count == want, (gens, max_k)


def test_inv_counts_in_closed_form():
    for k in range(1, 5):
        # twice the Moore families on a k-set: with or without the empty relation
        assert len(inv(opset([AND]), k)) == (4, 14, 122, 4960)[k - 1]
        assert len(inv(opset([NOT]), k)) == 2 ** 2 ** (k - 1)
        # the empty relation plus every subspace of GF(2)^k
        assert len(inv(opset([XOR]), k)) == 1 + (2, 5, 16, 67)[k - 1]
        # the empty relation plus every affine subspace of GF(2)^k
        assert len(inv(opset([MINORITY]), k)) == (4, 12, 52, 308)[k - 1]
        assert len(inv(opset([]), k)) == 2 ** 2**k
    assert len(inv(opset([MAJ]), 4)) == 4170


def test_inv_at_arity_zero():
    # both arity-0 relations are invariant under any nonnullary operation
    assert len(inv(opset([AND]), 0)) == 2


def test_inv_candidate_cap():
    with pytest.raises(ResourceBoundError, match=r"^inv at arity 5 needs 4294967296, more than max_candidates \(10000000\)$"):
        inv(opset([AND]), 5)
    # every row combination is applied up front: 16^6 of them at arity 4
    senary = random_operation(random.Random(6), BOOL, 6)
    with pytest.raises(ResourceBoundError, match=r"^inv row combinations at arity 4 needs 16777216, more than max_candidates \(10000000\)$"):
        inv(opset([senary]), 4)
    assert len(inv(opset([senary]), 2)) >= 2  # 4^6 combinations pass


def test_inv_caps_refuse_before_the_rank_order_is_chosen(monkeypatch):
    # the caps run before any per-cell work: the rule that reads every cell
    # of every member is never reached on a refused call
    def walked(ops):
        raise AssertionError("the rank-order rule ran before the caps")

    monkeypatch.setattr(galois, "_prefers_reversed", walked)
    senary = random_operation(random.Random(6), BOOL, 6)
    refusals = [
        (lambda: inv(opset([AND]), 5), "inv at arity 5 needs 4294967296, more than max_candidates (10000000)"),
        (lambda: inv(opset([senary]), 4), "inv row combinations at arity 4 needs 16777216, more than max_candidates (10000000)"),
        (
            lambda: inv(opset([NOT]), 3, limits=Limits(max_materialize=7)),
            "inv relation at arity 3 needs 8, more than max_materialize (7)",
        ),
        (
            lambda: galois_check(opset([MAJ]), 1, max_k=2, limits=Limits(max_candidates=63)),
            "inv row combinations at arity 2 needs 64, more than max_candidates (63)",
        ),
    ]
    for call, refusal in refusals:
        with pytest.raises(ResourceBoundError) as err:
            call()
        assert str(err.value) == refusal


def test_pol_examples():
    assert len(pol(relation_set([LEQ]), 1)) == 3
    assert {f.table for f in pol(relation_set([LEQ]), 1)} == {(0, 0), (0, 1), (1, 1)}
    assert len(pol(relation_set([LEQ]), 2)) == 6
    assert len(pol(relation_set([NEQ]), 2)) == 4
    assert len(pol(relation_set([]), 2)) == 16


def test_pol_members_actually_preserve():
    got = pol(relation_set([LEQ, NEQ]), 2)
    for f in got:
        assert preserves(f, LEQ) and preserves(f, NEQ)


def test_pol_nullary():
    consts = pol(relation_set([LEQ]), 0)
    assert {f.table for f in consts} == {(0,), (1,)}
    assert len(pol(relation_set([NEQ]), 0)) == 0


def test_pol_of_empty_relation():
    empty = empty_relation(BOOL, 2)
    assert len(pol(relation_set([empty]), 1)) == 4
    assert len(pol(relation_set([empty]), 0)) == 0


def test_pol_matches_filtering_oracle():
    rng = random.Random(53)
    cases = []
    for _ in range(8):
        rels = [random_relation(rng, BOOL, rng.randint(1, 2)) for _ in range(rng.randint(0, 2))]
        cases += [(BOOL, rels, 1), (BOOL, rels, 2)]
    cases.append((THREE, [Relation(THREE, 2, ((0, 0), (1, 1), (2, 2), (0, 1)))], 1))
    for domain, rels, arity in cases:
        got = {f.table for f in pol(relation_set(rels, domain), arity)}
        want = {f.table for f in oracle_pol(rels, arity, domain)}
        assert got == want


def test_tables_match_a_filter_of_every_choice():
    # the generator against product(*choices) filtered by the same checks,
    # in exact order: every cell free or pinned to one value, d=2 at
    # arities 0-2 and d=3 at arities 0-1
    rng = random.Random(113)
    pinned_without_table = 0
    for domain, arities in ((BOOL, (0, 1, 2)), (THREE, (0, 1))):
        envs = [[], [empty_relation(domain, 2)], [Relation(domain, 2, ((0, 1), (1, 0)))]]
        for _ in range(5):
            envs.append([random_relation(rng, domain, rng.randint(1, 3), allow_empty=False) for _ in range(rng.randint(1, 2))])
        free = range(domain.size)
        for rels in envs:
            for arity in arities:
                checks = _constraints(relation_set(rels, domain), arity, DEFAULT_LIMITS)
                options = [free] + [(v,) for v in domain.elements()]
                for choices in product(options, repeat=domain.size**arity):
                    want = [
                        t for t in product(*choices)
                        if all(tuple(t[c] for c in vec) in tset for row in checks for tset, vec in row)
                    ]
                    assert list(_tables(checks, choices)) == want
                    pinned_without_table += not want and free not in choices
    assert pinned_without_table
    # NEQ's unary polymorphisms are the two permutations, so no table has
    # two equal cells
    checks = _constraints(relation_set([NEQ]), 1, DEFAULT_LIMITS)
    assert list(_tables(checks, [range(2), range(2)])) == [(0, 1), (1, 0)]
    assert list(_tables(checks, [(0,), (0,)])) == []


def test_maximal_invariants_have_the_same_polymorphisms():
    subsets = [gens for n in range(5) for gens in combinations((AND, OR, NOT, XOR), n)]
    cases = [(gens, k, (1, 2)) for gens in subsets for k in (1, 2, 3)]
    three_min = Operation(THREE, 2, tuple(min(a, b) for a in range(3) for b in range(3)))
    three_neg = Operation(THREE, 1, (2, 1, 0))
    cases += [((three_min, three_neg), k, (1, 2)) for k in (1, 2)]
    cases.append(((AND,), 4, (2,)))  # 302,462 row combinations over all invariants
    for gens, k, arities in cases:
        domain = gens[0].domain if gens else BOOL
        invariants = inv(opset(gens, domain), k)
        masks = [sum(1 << domain.tuple_index(t) for t in r) for r in invariants]
        kept = set(oracle_maximal_invariants(masks, domain.size**k))
        assert kept <= set(masks)
        kept_rels = relation_set([r for r, m in zip(invariants, masks) if m in kept], domain)
        for arity in arities:
            assert pol(kept_rels, arity) == pol(invariants, arity)
    # with no generators every relation is invariant: the maximal ones miss one tuple each
    every = [sum(1 << BOOL.tuple_index(t) for t in r) for r in inv(opset([]), 3)]
    assert sorted(m.bit_count() for m in oracle_maximal_invariants(every, 8)) == [7] * 8
    # one per orbit of the avoided tuple: 000, 001, 011 and 111
    assert sorted(m.bit_count() for m in _maximal_invariants(every, BOOL, 3)) == [7] * 4


def _permuted(mask, domain, arity, perm):
    """The bitmask of the relation whose tuples are (t[perm[0]], ...) for
    each tuple t of the relation with bitmask mask."""
    return sum(
        1 << domain.tuple_index([t[p] for p in perm])
        for i, t in enumerate(domain.tuples(arity))
        if mask >> i & 1
    )


def _random_generators(rng, domain):
    """Zero to two random operations of arity 0..2, or near-projections,
    which keep many invariants."""
    return [
        near_projection(rng, domain, rng.randint(1, 2)) if rng.random() < 0.5
        else random_operation(rng, domain, rng.randint(0, 2))
        for _ in range(rng.randint(0, 2))
    ]


def test_maximal_invariants_are_the_oracles_up_to_coordinate_permutations():
    subsets = [gens for n in range(5) for gens in combinations((AND, OR, NOT, XOR), n)]
    cases = [(BOOL, gens, k) for gens in subsets for k in (1, 2, 3)]
    cases += [(BOOL, (f,), 4) for f in (AND, NOT, XOR)]
    three_min = Operation(THREE, 2, tuple(min(a, b) for a in range(3) for b in range(3)))
    three_neg = Operation(THREE, 1, (2, 1, 0))
    cases += [(THREE, gens, k) for gens in ((), (three_min,), (three_neg,), (three_min, three_neg)) for k in (1, 2)]
    rng = random.Random(181)
    for _ in range(150):
        domain, k = rng.choice(((BOOL, 1), (BOOL, 2), (BOOL, 3), (THREE, 1), (THREE, 2)))
        cases.append((domain, _random_generators(rng, domain), k))
    assert any(f.arity == 0 for _, gens, _ in cases for f in gens)
    for domain, gens, k in cases:
        masks = _invariant_masks(opset(gens, domain), k, Limits())
        kept = _maximal_invariants(masks, domain, k)
        want = set(oracle_maximal_invariants(masks, domain.size**k))
        assert set(kept) <= want
        assert {_permuted(m, domain, k, p) for m in kept for p in permutations(range(k))} == want


def test_galois_check_matches_the_all_arity_all_x_oracle():
    rng = random.Random(182)
    verdicts = {"PASS": 0, "FAIL": 0, "refused": 0}
    for _ in range(100):
        domain, n = rng.choice(((BOOL, 1), (BOOL, 2), (THREE, 1)))
        gens = opset(_random_generators(rng, domain), domain)
        max_k = rng.randint(1, domain.size**n + 1)
        try:
            report = galois_check(gens, n, max_k=max_k)
        except ResourceBoundError as refusal:
            with pytest.raises(ResourceBoundError, match=f"^{re.escape(str(refusal))}$"):
                oracle_kept_invariants(gens, max_k)
            verdicts["refused"] += 1
            continue
        count, kept = oracle_kept_invariants(gens, max_k)
        recovered = pol(relation_set(kept, domain), n)
        assert (report.invariant_count, report.recovered_ops) == (count, recovered)
        clone = {f.table for f in report.clone_ops}
        assert {f.table for f in report.witnesses} == clone ^ {f.table for f in recovered}
        verdicts["PASS" if report.passed else "FAIL"] += 1
    assert min(verdicts.values()) >= 5, verdicts


def _proper_relation(rng, domain):
    """A random relation of arity 1 or 2, neither empty nor full."""
    arity = rng.randint(1, 2)
    return random_relation(rng, domain, arity, allow_empty=False, max_size=min(4, domain.size**arity - 1))


def test_pol_by_cores_matches_the_filtering_oracle():
    # each set holds a relation with a repeated column, the cylinders of
    # another at every position, a full relation and, in half the cases,
    # an empty one; the first two share their core with a bare copy
    rng = random.Random(151)
    for domain, count in ((BOOL, 6), (THREE, 3)):
        for case in range(count):
            a, b = (_proper_relation(rng, domain) for _ in "ab")
            rels = [a, repeat_column(a, rng.randrange(a.arity), rng.randint(0, a.arity)), b]
            rels += [cylinder(b, pos) for pos in range(b.arity + 1)]
            rels.append(full_relation(domain, rng.randint(1, 2)))
            if case % 2:
                rels.append(empty_relation(domain, rng.randint(1, 2)))
            assert all(_core(r).arity < r.arity for r in rels[1:] if r is not b)
            for arity in (0, 1, 2):
                got = pol(relation_set(rels, domain), arity)
                assert [f.table for f in got] == sorted(f.table for f in oracle_pol(rels, arity, domain))


def test_core_merges_columns_and_drops_cylinders():
    assert _core(LEQ) == LEQ
    assert _core(repeat_column(cylinder(NEQ, 1), 0, 3)) == NEQ
    assert _core(full_relation(THREE, 3)) == full_relation(THREE, 0)
    for arity in (0, 1, 3):
        assert _core(empty_relation(BOOL, arity)) == empty_relation(BOOL, 0)


def test_diagonal_relations_have_a_full_core():
    # every finitary operation preserves every diagonal, so none constrains pol
    for domain in (BOOL, THREE):
        for kappa in range(1, 5):
            for p in all_partitions(kappa):
                assert _core(diagonal_relation(ideal_downset([p], kappa), domain)).is_full


def test_cylinders_keep_the_core():
    rng = random.Random(152)
    for domain in (BOOL, THREE):
        for _ in range(20):
            r = random_relation(rng, domain, rng.randint(0, 3), max_size=6)
            for pos in range(r.arity + 1):
                assert _core(cylinder(r, pos)) == _core(r)
        # tuple ranks past 64 bits
        wide = repeat_column(Relation(domain, 70, [[rng.randrange(domain.size) for _ in range(70)] for _ in range(9)]), 3, 70)
        assert _core(cylinder(wide, 35)) == _core(wide) and _core(wide).arity < wide.arity


def test_core_matches_the_oracle():
    # d = 1..3 from arity 0 with empty and full relations, cylinders and
    # repeated columns inserted at random positions, wide relations whose
    # ranks the oracle builds over hundreds of digits, and values past a byte
    rng = random.Random(154)
    cases = []
    for domain in (Domain(1), BOOL, THREE):
        for arity in range(4):
            cases += [empty_relation(domain, arity), full_relation(domain, arity)]
        for _ in range(300):
            r = random_relation(rng, domain, rng.randint(0, 3), max_size=12)
            for _ in range(rng.randint(0, 2)):
                r = cylinder(r, rng.randint(0, r.arity))
            for _ in range(rng.randint(0, 2) if r.arity else 0):
                r = repeat_column(r, rng.randrange(r.arity), rng.randint(0, r.arity))
            cases.append(r)
    for arity, size in ((400, 100), (200, 200)):
        wide = Relation(BOOL, arity, [[rng.randrange(2) for _ in range(arity)] for _ in range(size)])
        cases += [wide, cylinder(repeat_column(wide, 7, 150), 99)]
    cases.append(cylinder(repeat_column(Relation(Domain(300), 2, [(0, 299), (299, 1), (5, 5)]), 0, 2), 1))
    for r in cases:
        assert _core(r) == oracle_core(r), r


def test_core_has_no_repeated_column_and_no_cylinder_coordinate():
    rng = random.Random(153)
    for domain in (BOOL, THREE):
        for _ in range(60):
            r = random_relation(rng, domain, rng.randint(0, 4), max_size=12)
            if rng.random() < 0.5 and r.arity:
                r = repeat_column(r, rng.randrange(r.arity), rng.randint(0, r.arity))
            core = _core(r)
            assert core.is_empty == r.is_empty and (core.arity == 0 or not core.is_full)
            columns = list(zip(*core.tuples))
            assert len(set(columns)) == len(columns)
            for j in range(core.arity):
                assert len({t[:j] + t[j + 1 :] for t in core}) * domain.size > len(core)


def test_pol_constrains_by_cores():
    # the maximal invariants of {AND} of every arity k <= 4, avoiding every x
    kept = oracle_kept_invariants(opset([AND]), 4)[1]
    cores = {_core(r) for r in kept} - {full_relation(BOOL, 0)}
    assert (len(kept), sum(len(r) ** 2 for r in kept)) == (53, 5958)
    assert (len(cores), sum(len(c) ** 2 for c in cores)) == (14, 1350)
    # the constraint cap counts the combinations of the cores
    assert len(pol(relation_set(kept), 2, limits=Limits(max_candidates=1350))) == 3
    with pytest.raises(ResourceBoundError, match=r"^pol constraints at arity 2 needs 1350, more than max_candidates \(1349\)$"):
        pol(relation_set(kept), 2, limits=Limits(max_candidates=1349))
    # a complete generating set leaves only the empty core: no combinations
    kept = oracle_kept_invariants(opset([AND, NOT]), 4)[1]
    assert {_core(r) for r in kept} - {full_relation(BOOL, 0)} == {empty_relation(BOOL, 0)}
    assert len(pol(relation_set(kept), 2, limits=Limits(max_candidates=16))) == 16


def test_galois_check_hands_pol_one_maximal_invariant_per_orbit_at_max_k():
    # what galois_check hands pol for {AND} at n = 2 (max_k = 4), against
    # the 53 relations, 14 cores and 1,350 combinations of every arity and x
    kept = _relations(BOOL, 4, _maximal_invariants(_invariant_masks(opset([AND]), 4, Limits()), BOOL, 4))
    cores = {_core(r) for r in kept} - {full_relation(BOOL, 0)}
    assert (len(kept), len(cores), sum(len(c) ** 2 for c in cores)) == (11, 5, 509)
    assert pol(relation_set(kept), 2, limits=Limits(max_candidates=509)) == galois_check(opset([AND]), 2).clone_ops
    with pytest.raises(ResourceBoundError, match=r"^pol constraints at arity 2 needs 509, more than max_candidates \(508\)$"):
        pol(relation_set(kept), 2, limits=Limits(max_candidates=508))


def test_pol_table_cap():
    with pytest.raises(ResourceBoundError, match=r"^pol at arity 5 needs 4294967296, more than max_candidates \(10000000\)$"):
        pol(relation_set([LEQ]), 5)


def test_galois_maps_are_antitone():
    rng = random.Random(61)
    for _ in range(10):
        small_ops = [random_operation(rng, BOOL, rng.randint(1, 2))]
        big_ops = small_ops + [random_operation(rng, BOOL, rng.randint(1, 2))]
        inv_small = {r.tuples for r in inv(opset(small_ops), 2)}
        inv_big = {r.tuples for r in inv(opset(big_ops), 2)}
        assert inv_big <= inv_small

        small_rels = [random_relation(rng, BOOL, rng.randint(1, 2))]
        big_rels = small_rels + [random_relation(rng, BOOL, rng.randint(1, 2))]
        pol_small = {f.table for f in pol(relation_set(small_rels), 2)}
        pol_big = {f.table for f in pol(relation_set(big_rels), 2)}
        assert pol_big <= pol_small


def test_galois_round_trips_are_extensive():
    rng = random.Random(67)
    for _ in range(8):
        ops = [random_operation(rng, BOOL, 2) for _ in range(rng.randint(1, 2))]
        invariants = inv(opset(ops), 2)
        recovered = pol(invariants, 2)
        for f in ops:
            assert f in recovered

        rels = [random_relation(rng, BOOL, 2) for _ in range(rng.randint(1, 2))]
        polymorphisms = pol(relation_set(rels), 2)
        closed = inv(polymorphisms, 2)
        for r in rels:
            assert r in closed


def test_invariant_closure_examples():
    assert invariant_closure(opset([AND]), [(0, 1), (1, 0)], 2).tuples == ((0, 0), (0, 1), (1, 0))
    assert invariant_closure(opset([NOT]), [(0, 0)], 2).tuples == ((0, 0), (1, 1))
    assert invariant_closure(opset([]), [(0, 1)], 2).tuples == ((0, 1),)


def test_invariant_closure_validates_seeds():
    with pytest.raises(ValueError):
        invariant_closure(opset([AND]), [(0, 1, 0)], 2)
    with pytest.raises(ValueError):
        invariant_closure(opset([AND]), [(0, 2)], 2)


def test_invariant_closure_is_least_closed_superset():
    rng = random.Random(71)
    universe = list(BOOL.tuples(2))
    for _ in range(12):
        ops = [random_operation(rng, BOOL, rng.randint(0, 3)) for _ in range(rng.randint(1, 2))]
        seeds = rng.sample(universe, rng.randint(1, 3))
        got = set(invariant_closure(opset(ops), seeds, 2).tuples)
        closed_supersets = []
        for mask in range(16):
            s = {t for i, t in enumerate(universe) if mask >> i & 1}
            if not set(seeds) <= s:
                continue
            if all(oracle_preserves(f, Relation(BOOL, 2, tuple(s))) for f in ops):
                closed_supersets.append(s)
        want = min(closed_supersets, key=len)
        assert got == want


def test_invariant_closure_is_extensive_monotone_idempotent():
    rng = random.Random(73)
    universe = list(BOOL.tuples(2))
    for _ in range(12):
        ops = opset([random_operation(rng, BOOL, rng.randint(1, 2))])
        seeds = set(rng.sample(universe, rng.randint(1, 3)))
        got = set(invariant_closure(ops, seeds, 2).tuples)
        assert seeds <= got
        assert got == set(invariant_closure(ops, got, 2).tuples)
        wider = seeds | {rng.choice(universe)}
        assert got <= set(invariant_closure(ops, wider, 2).tuples)


def test_invariant_closure_matches_naive_oracle():
    # the semi-naive rounds against the naive fixpoint, which applies every
    # op to every row combination in every round
    rng = random.Random(79)
    for domain, arities in [(BOOL, (1, 2, 3)), (THREE, (1, 2))]:
        universe = list(domain.tuples(max(arities)))
        for _ in range(20):
            ops = [random_operation(rng, domain, rng.randint(0, 3)) for _ in range(rng.randint(1, 3))]
            arity = rng.choice(arities)
            seeds = [t[:arity] for t in rng.sample(universe, rng.randint(0, 3))]
            got = invariant_closure(opset(ops, domain), seeds, arity)
            assert got == oracle_invariant_closure(ops, seeds, arity, domain), (ops, seeds, arity)


def test_limits_from_env(monkeypatch):
    monkeypatch.setenv("GALOIS_MAX_CANDIDATES", "123")
    assert Limits.from_env().max_candidates == 123
    monkeypatch.delenv("GALOIS_MAX_CANDIDATES")
    assert Limits.from_env().max_candidates == Limits().max_candidates
    monkeypatch.setenv("GALOIS_MAX_CANDIDATES", "not a number")
    with pytest.raises(ValueError):
        Limits.from_env()
