"""Acceptance gate: ten end-to-end checks, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -s` to see the verdict lines
as they complete.  Each criterion recomputes its expectations from
definitions or independent oracles, never from the code paths under
test.
"""

import os
import random
import subprocess
import sys
from contextlib import contextmanager
from itertools import combinations, product
from pathlib import Path

import polinv
from polinv import (
    Operation,
    Relation,
    all_partitions,
    clone_closure,
    diagonal_relation,
    eval_pp,
    galois_check,
    graph_relation,
    ideal_downset,
    inv,
    invariant_closure,
    is_pp_definable,
    pol,
    pp_closure_of,
    preserves,
)
from polinv.limits import Limits

from helpers import (
    AND,
    BOOL,
    EQ,
    LEQ,
    NEQ,
    NOT,
    OR,
    THREE,
    XOR,
    arity_members,
    naive_eval_pp,
    opset,
    oracle_least_invariant_superset,
    oracle_partitions,
    random_formula,
    random_operation,
    random_relation,
    relation_set,
)

DATA = Path(__file__).parent / "data"
BASE_OPS = (AND, OR, NOT, XOR)


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"criterion {number} FAIL {label}", flush=True)
        raise
    print(f"criterion {number} PASS {label}", flush=True)


def generator_subsets():
    for n in range(len(BASE_OPS) + 1):
        yield from combinations(BASE_OPS, n)


def test_criterion_1_round_trip_recovers_every_generated_clone():
    with criterion(1, "bounded round trip recovers each of the 16 generated clones"):
        closures = {1: set(), 2: set()}
        for gens in generator_subsets():
            for arity in (1, 2):
                report = galois_check(opset(gens), arity)
                assert report.passed, f"round trip failed for {[g.name for g in gens]} at arity {arity}"
                assert report.max_k == 2**arity
                closures[arity].add(frozenset((f.arity, f.table) for f in report.clone_ops))
        # distinct slices among the 16 subsets; the unary ones are
        # {id}, {id, NOT}, {id, 0} and all four unary operations
        assert len(closures[1]) == 4
        assert len(closures[2]) == 9


def test_criterion_2_graph_relation_separates_membership():
    with criterion(2, "clone membership at arity 2 equals preservation of the graph relation"):
        seen = set()
        for gens in generator_subsets():
            clone = clone_closure(opset(gens), 2)
            key = frozenset((f.arity, f.table) for f in clone)
            if key in seen:
                continue
            seen.add(key)
            gamma = graph_relation(clone, 2)
            members = {f.table for f in arity_members(clone, 2)}
            for table in product(range(2), repeat=4):
                g = Operation(BOOL, 2, table)
                assert (table in members) == preserves(g, gamma)


def test_criterion_3_polymorphism_counts():
    with criterion(3, "polymorphism counts on the two-element order and disequality"):
        assert len(pol(relation_set([LEQ]), 1)) == 3
        assert len(pol(relation_set([LEQ]), 2)) == 6
        assert len(pol(relation_set([NEQ]), 2)) == 4
        assert len(pol(relation_set([]), 2)) == 16


def test_criterion_4_formula_evaluation_matches_naive_oracle():
    with criterion(4, "200 random pp formulas evaluate like the all-assignments oracle"):
        rng = random.Random(2024)
        for domain in (BOOL, THREE):
            for round_ in range(20):
                env = relation_set(
                    [
                        random_relation(rng, domain, 1, name="r0"),
                        random_relation(rng, domain, 2, name="r1"),
                        random_relation(rng, domain, 2, name="r2"),
                    ],
                    domain,
                )
                # equal tuple sets collapse in the environment, so draw the
                # usable names from what survived
                env_rels = {r.name: r for r in env}
                for _ in range(5):
                    phi = random_formula(rng, domain, env_rels)
                    assert eval_pp(phi, env, domain) == naive_eval_pp(phi, env_rels, domain)


def test_criterion_5_definability_matches_brute_force():
    with criterion(5, "pp-definability agrees with the superset-filtering oracle"):
        order_env = relation_set([LEQ])
        assert is_pp_definable(EQ, order_env)
        assert not is_pp_definable(NEQ, order_env)
        assert pp_closure_of(NEQ, order_env) == oracle_least_invariant_superset(NEQ, [LEQ])

        rng = random.Random(2025)
        for _ in range(50):
            r = random_relation(rng, BOOL, 2, allow_empty=False)
            while len(r) > 3:
                r = random_relation(rng, BOOL, 2, allow_empty=False)
            rels = [random_relation(rng, BOOL, rng.randint(1, 2)) for _ in range(rng.randint(1, 2))]
            want = oracle_least_invariant_superset(r, rels)
            assert pp_closure_of(r, relation_set(rels)) == want
            assert is_pp_definable(r, relation_set(rels)) == (want == r)


def test_criterion_6_partition_enumeration_matches_recursive_oracle():
    with criterion(6, "partition lattices match the insertion oracle (2, 5, 15, 52)"):
        for size, count in ((2, 2), (3, 5), (4, 15), (5, 52)):
            parts = list(all_partitions(size))
            assert len(parts) == count
            got = {frozenset(frozenset(b) for b in p.blocks) for p in parts}
            assert got == oracle_partitions(size)


def test_criterion_7_every_operation_preserves_every_diagonal():
    with criterion(7, "all operations of arity <= 3 preserve all diagonals on kappa <= 4"):
        ops_pool = [
            Operation(BOOL, arity, table)
            for arity in range(4)
            for table in product(range(2), repeat=2**arity)
        ]
        assert len(ops_pool) == 2 + 4 + 16 + 256
        for kappa in range(1, 5):
            seen = set()
            for p in all_partitions(kappa):
                ideal = ideal_downset([p], kappa)
                diag = diagonal_relation(ideal, BOOL)
                if diag.tuples in seen:
                    continue
                seen.add(diag.tuples)
                for f in ops_pool:
                    assert preserves(f, diag), (kappa, p.blocks, f.arity, f.table)


def test_criterion_8_closure_operator_laws():
    with criterion(8, "100 random instances of the three closure operators obey the laws"):
        rng = random.Random(2026)
        universe = list(BOOL.tuples(2))

        for _ in range(34):
            gens = [random_operation(rng, BOOL, rng.randint(1, 2)) for _ in range(rng.randint(0, 2))]
            extra = [random_operation(rng, BOOL, rng.randint(1, 2))]
            closed = clone_closure(opset(gens), 2)
            tables = {(f.arity, f.table) for f in closed}
            assert all((g.arity, g.table) in tables for g in gens)
            again = clone_closure(closed, 2)
            assert {(f.arity, f.table) for f in again} == tables
            wider = clone_closure(opset(gens + extra), 2)
            assert tables <= {(f.arity, f.table) for f in wider}

        for _ in range(33):
            ops = opset([random_operation(rng, BOOL, rng.randint(1, 2)) for _ in range(rng.randint(1, 2))])
            seeds = set(rng.sample(universe, rng.randint(1, 3)))
            closed = set(invariant_closure(ops, seeds, 2).tuples)
            assert seeds <= closed
            assert closed == set(invariant_closure(ops, closed, 2).tuples)
            wider = seeds | {rng.choice(universe)}
            assert closed <= set(invariant_closure(ops, wider, 2).tuples)

        for _ in range(33):
            rels = relation_set([LEQ] if rng.random() < 0.5 else [NEQ, EQ])
            r = random_relation(rng, BOOL, 2, allow_empty=False)
            while len(r) > 3:
                r = random_relation(rng, BOOL, 2, allow_empty=False)
            closed = pp_closure_of(r, rels)
            assert set(r.tuples) <= set(closed.tuples)
            assert pp_closure_of(closed, rels) == closed
            wider = Relation(BOOL, 2, r.tuples + (rng.choice(universe),))
            assert set(closed.tuples) <= set(
                pp_closure_of(Relation(BOOL, 2, wider.tuples + closed.tuples), rels).tuples
            )


CLI_SUITE = (
    ["clone-gen", "--ops", str(DATA / "bool.ops"), "--max-arity", "2"],
    ["pol", "--rels", str(DATA / "leq.rel"), "--arity", "2"],
    ["inv", "--ops", str(DATA / "and.ops"), "--arity", "2"],
    ["gamma", "--ops", str(DATA / "not.ops"), "--arity", "1"],
    ["ppeval", "--rels", str(DATA / "order.rel"), "--formula", str(DATA / "order.pp"), "--name", "comp"],
    ["ppdef", "--rels", str(DATA / "order.rel"), "--target", "neq"],
    ["ppdef", "--rels", str(DATA / "eq4.rel"), "--target", "eq"],
    ["ppdef", "--rels", str(DATA / "eq4.rel"), "--target", "odd"],
    ["ppdef", "--rels", str(DATA / "eq4.rel"), "--target", "all"],
    ["diag", "--kappa", "3", "--generators", "0,1|2", "--domain", "2"],
    ["essential", "--ops", str(DATA / "bool.ops"), "--name", "XOR"],
    ["check", "--ops", str(DATA / "and.ops"), "--arity", "2"],
    ["inv", "--ops", str(DATA / "and.ops"), "--arity", "5"],
    ["pol", "--rels", str(DATA / "short_table.ops"), "--arity", "1"],
)


def test_criterion_9_cli_runs_are_byte_identical():
    with criterion(9, "three repeated CLI runs of the command suite are byte-identical"):
        # the child processes run the same package this test imported
        path = [str(Path(polinv.__file__).resolve().parent.parent), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
        outcomes = []
        for _ in range(3):
            batch = []
            for args in CLI_SUITE:
                proc = subprocess.run(
                    [sys.executable, "-m", "polinv", *args],
                    capture_output=True,
                    env=env,
                    timeout=300,
                )
                batch.append((args[0], proc.returncode, proc.stdout, proc.stderr))
            outcomes.append(batch)
        assert outcomes[0] == outcomes[1] == outcomes[2]
        codes = [entry[1] for entry in outcomes[0]]
        assert codes == [0] * 12 + [3, 2]


def test_criterion_10_sheffer_invariants_are_the_diagonals():
    with criterion(10, "a Sheffer operation's invariants are the empty relation and the Bell(k) diagonals"):
        nand = Operation(BOOL, 2, (1, 1, 1, 0))
        webb = Operation(THREE, 2, tuple((max(x, y) + 1) % 3 for x in range(3) for y in range(3)))
        bell = {1: 1, 2: 2, 3: 5, 4: 15}
        # inv's up-front cap counts 2^(3^3) candidate sets for d=3, kappa=3
        runs = [(nand, k, Limits()) for k in (1, 2, 3, 4)]
        runs += [(webb, 1, Limits()), (webb, 2, Limits()), (webb, 3, Limits(max_candidates=2**27))]
        for f, kappa, limits in runs:
            domain = f.domain
            want = {frozenset()}
            for blocks in oracle_partitions(kappa):
                # the diagonal of a partition: the tuples constant on each block
                diag = [t for t in domain.tuples(kappa) if all(len({t[i] for i in b}) == 1 for b in blocks)]
                want.add(frozenset(diag))
            assert len(want) == bell[kappa] + 1
            got = {frozenset(r.tuples) for r in inv(opset([f], domain), kappa, limits=limits)}
            assert got == want, (domain.size, kappa)
