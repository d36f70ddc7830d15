"""The trust test of core._built catches a producer that breaks its promise.

The differential tests run assert_rebuilds on every value a producer
builds without checks.  Here one producer at a time is patched to emit a
value that is wrong in one way the public constructor would have mended
or refused (one tuple out of order, a block unsorted, a list for a
tuple, a wrong finest member), and assert_rebuilds must fail on it,
after passing on the unpatched output.
"""

import pytest

from polinv import (
    Domain, Partition, Relation, diagonal_relation, eval_pp, ideal_downset, inv, invariant_closure, parse_pp, pol,
    pp_closure_of,
)
from polinv import clones, core, galois, partitions, pp

from helpers import AND, BOOL, EQ, LEQ, assert_rebuilds, opset, relation_set


def _swap_first_two(values):
    return values[1::-1] + values[2:]


def _reverse_first_long(blocks):
    i = next(i for i, b in enumerate(blocks) if len(b) > 1)
    return (*blocks[:i], blocks[i][::-1], *blocks[i + 1 :])


TEXT = "def below(x, y) := exists z . leq(x, z) & leq(z, y)"
FORMULA = parse_pp(TEXT)
LEQ_CYLINDER = Relation(BOOL, 3, [(a, b, c) for a, b in LEQ for c in (0, 1)])  # its core is LEQ

# the module whose _built is patched, the class and field it corrupts, how,
# and the producer run
ROWS = {
    "diagonal tuple out of order": (
        partitions, Relation, "tuples", _swap_first_two,
        lambda: diagonal_relation(ideal_downset([Partition.bottom(3)], 3), Domain(2)),
    ),
    "ideal member with an unsorted block": (
        partitions, Partition, "blocks", _reverse_first_long,
        lambda: ideal_downset([Partition(3, ((0, 1), (2,)))], 3),
    ),
    "ideal with a wrong finest member": (
        partitions, partitions.PartitionIdeal, "finest", lambda finest: Partition.top(finest.index_size),
        lambda: ideal_downset([Partition.bottom(2)], 2),
    ),
    "invariant tuple out of order": (
        galois, Relation, "tuples", _swap_first_two,
        lambda: inv(opset([AND]), 2),
    ),
    "polymorphism table as a list": (
        galois, galois.Operation, "table", list,
        lambda: pol(relation_set([LEQ]), 2),
    ),
    "evaluated tuple out of order": (
        pp, Relation, "tuples", _swap_first_two,
        lambda: eval_pp(FORMULA, [LEQ], BOOL),
    ),
    "parsed atom variables as a list": (
        pp, pp.RelationAtom, "variables", list,
        lambda: parse_pp(TEXT),
    ),
    "closure tuple out of order": (
        clones, Relation, "tuples", _swap_first_two,
        lambda: invariant_closure(opset([AND]), [(0, 1), (1, 0)], 2),
    ),
    "core tuple out of order": (
        core, Relation, "tuples", _swap_first_two,
        lambda: core._core(LEQ_CYLINDER),
    ),
}


@pytest.mark.parametrize("row", ROWS)
def test_trust_test_catches_a_broken_producer(row, monkeypatch):
    module, cls, name, corrupt, produce = ROWS[row]
    assert_rebuilds(produce())
    built = module._built

    def broken(kind, **fields):
        if kind is cls:
            fields[name] = corrupt(fields[name])
        return built(kind, **fields)

    monkeypatch.setattr(module, "_built", broken)
    with pytest.raises(AssertionError):
        assert_rebuilds(produce())


def test_built_values_carry_the_names_they_are_given():
    # a rebuild copies the name it is given, so the names are pinned here
    assert eval_pp(FORMULA, [LEQ], BOOL).name == "below"
    assert pp_closure_of(EQ, relation_set([LEQ])).name == "eq"
    assert {r.name for r in inv(opset([AND]), 2)} == {f.name for f in pol(relation_set([LEQ]), 2)} == {""}
