import random
from itertools import combinations

import pytest

from polinv import (
    Operation,
    Relation,
    RelationSet,
    ResourceBoundError,
    inv,
    invariant_closure,
    pol,
    preserves,
)
from polinv.galois import _maximal_invariants
from polinv.limits import Limits

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
    near_projection,
    op,
    opset,
    oracle_inv,
    oracle_pol,
    oracle_preserves,
    random_operation,
    random_relation,
    relation_set,
)


def test_relation_set_deduplicates_and_orders():
    s = RelationSet(BOOL, (NEQ, LEQ, LEQ.renamed("order")))
    assert len(s) == 2
    assert s.rels[0] == LEQ  # tuple lists compare lexicographically at equal arity
    assert s.rels[0].name == "leq"
    assert NEQ in s and LEQ.renamed("other") in s
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
    for domain, ops, arity in cases:
        got = {r.tuples for r in inv(opset(ops, domain), arity)}
        want = {r.tuples for r in oracle_inv(ops, arity, domain)}
        assert got == want


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
    with pytest.raises(ResourceBoundError):
        inv(opset([AND]), 5)
    # every row combination is applied up front: 16^6 of them at arity 4
    senary = random_operation(random.Random(6), BOOL, 6)
    with pytest.raises(ResourceBoundError, match="^inv row combinations at arity 4 needs 16777216 candidates"):
        inv(opset([senary]), 4)
    assert len(inv(opset([senary]), 2)) >= 2  # 4^6 combinations pass


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
    empty = Relation.empty(BOOL, 2)
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
        kept = set(_maximal_invariants(masks, domain.size**k))
        assert kept <= set(masks)
        kept_rels = relation_set([r for r, m in zip(invariants, masks) if m in kept], domain)
        for arity in arities:
            assert pol(kept_rels, arity) == pol(invariants, arity)
    # with no generators every relation is invariant: the maximal ones miss one tuple each
    every = [sum(1 << BOOL.tuple_index(t) for t in r) for r in inv(opset([]), 3)]
    assert sorted(m.bit_count() for m in _maximal_invariants(every, 8)) == [7] * 8


def test_pol_table_cap():
    with pytest.raises(ResourceBoundError):
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


def test_limits_from_env(monkeypatch):
    monkeypatch.setenv("GALOIS_MAX_CANDIDATES", "123")
    assert Limits.from_env().max_candidates == 123
    monkeypatch.delenv("GALOIS_MAX_CANDIDATES")
    assert Limits.from_env().max_candidates == Limits().max_candidates
    monkeypatch.setenv("GALOIS_MAX_CANDIDATES", "not a number")
    with pytest.raises(ValueError):
        Limits.from_env()
