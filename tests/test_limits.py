"""Every resource cap refusal, one row per checking site.

Each row runs one layer's call with a single cap set to the work the call
needs, where it must pass, and then one below, where the same work is
cap + 1 and must be refused with the one message shape
"{what} needs {count}, more than {field} ({cap})".
"""

from argparse import Namespace
from pathlib import Path

import pytest

from polinv import (
    ResourceBoundError,
    clone_closure,
    clone_contains,
    diagonal_relation,
    galois_check,
    graph_relation,
    ideal_downset,
    inv,
    invariant_closure,
    load_workspace,
    partition_lattice,
    pol,
)
from polinv.cli import _cmd_diag, _cmd_gamma
from polinv.limits import Limits

from helpers import AND, BOOL, LEQ, MAJ, NOT, OR, XOR, opset, rel, relation_set

DATA = Path(__file__).parent / "data"
# five tuples, no repeated column and no cylinder coordinate: its own core
FIVE = rel(tuple(BOOL.tuples(3))[:5], 3)

# (layer's call on limits, field, the count the call needs, what the refusal names)
REFUSALS = {
    "clone_closure table": (
        lambda lim: clone_closure(opset([NOT]), 2, limits=lim),
        "max_materialize", 4, "clone closure table at arity 2",
    ),
    "clone slice round, from clone_closure": (
        lambda lim: clone_closure(opset([OR, NOT]), 2, limits=lim),
        "max_candidates", 100, "clone slice round at arity 2",
    ),
    "clone_closure members": (
        lambda lim: clone_closure(opset([OR, NOT]), 2, limits=lim),
        "max_closure", 20, "clone closure",
    ),
    "clone_closure seeds": (
        lambda lim: clone_closure(opset([]), 3, limits=lim),
        "max_closure", 6, "clone closure",
    ),
    "clone_closure seeds, with a generator": (
        lambda lim: clone_closure(opset([NOT]), 1, limits=lim),
        "max_closure", 2, "clone closure",
    ),
    "invariant_closure round": (
        lambda lim: invariant_closure(opset([MAJ]), [(0, 0, 1), (0, 1, 0), (1, 0, 0)], 3, limits=lim),
        "max_candidates", 37, "invariant closure round at arity 3",
    ),
    "clone slice table, from clone_contains": (
        lambda lim: clone_contains(opset([NOT]), AND, 2, limits=lim),
        "max_materialize", 4, "clone slice table at arity 2",
    ),
    "clone slice round, from graph_relation": (
        lambda lim: graph_relation(opset([AND, OR, NOT, XOR]), 2, limits=lim),
        "max_candidates", 584, "clone slice round at arity 2",
    ),
    "clone slice members, from galois_check": (
        lambda lim: galois_check(opset([OR, NOT]), 2, max_k=1, limits=lim),
        "max_closure", 16, "clone slice at arity 2",
    ),
    "inv relation": (lambda lim: inv(opset([NOT]), 2, limits=lim), "max_materialize", 4, "inv relation at arity 2"),
    "inv candidates": (lambda lim: inv(opset([NOT]), 2, limits=lim), "max_candidates", 16, "inv at arity 2"),
    "inv row combinations": (
        lambda lim: inv(opset([MAJ]), 1, limits=lim),
        "max_candidates", 8, "inv row combinations at arity 1",
    ),
    "pol table": (lambda lim: pol(relation_set([LEQ]), 2, limits=lim), "max_materialize", 4, "pol table at arity 2"),
    "pol candidates": (lambda lim: pol(relation_set([LEQ]), 2, limits=lim), "max_candidates", 16, "pol at arity 2"),
    "pol constraints": (
        lambda lim: pol(relation_set([FIVE]), 1, limits=lim),
        "max_candidates", 5, "pol constraints at arity 1",
    ),
    "partition_lattice": (lambda lim: partition_lattice(3, limits=lim), "max_index", 3, "partition lattice"),
    "ideal_downset": (lambda lim: ideal_downset([], 3, limits=lim), "max_index", 3, "ideal downset"),
    "diagonal_relation": (
        lambda lim: diagonal_relation(ideal_downset([], 3), BOOL, limits=lim),
        "max_materialize", 8, "diagonal relation",
    ),
    "load_workspace domain": (
        lambda lim: load_workspace([DATA / "leq.rel"], limits=lim),
        "max_domain", 2, "workspace domain",
    ),
    "cli enumeration arity": (
        lambda lim: _cmd_gamma(Namespace(ops=[DATA / "not.ops"], arity=2), lim),
        "max_enum_arity", 2, "gamma --arity",
    ),
    "cli diag domain": (
        lambda lim: _cmd_diag(Namespace(kappa=2, generators="", domain=2), lim),
        "max_domain", 2, "diag --domain",
    ),
}


@pytest.mark.parametrize("call, field, count, what", REFUSALS.values(), ids=REFUSALS)
def test_each_cap_passes_at_the_count_and_refuses_one_below(call, field, count, what):
    call(Limits(**{field: count}))
    with pytest.raises(ResourceBoundError) as err:
        call(Limits(**{field: count - 1}))
    assert str(err.value) == f"{what} needs {count}, more than {field} ({count - 1})"


def test_galois_check_refuses_at_the_lowest_arity_over_a_cap():
    # every arity 1..max_k is held to inv's caps in increasing order, each
    # cap in inv's own order, so a refusal names the lowest arity over a cap
    # even where the search itself runs only at max_k
    cases = [
        ([NOT], 2, "max_candidates", 3, "inv at arity 1 needs 4, more than max_candidates (3)"),
        ([NOT], 2, "max_candidates", 15, "inv at arity 2 needs 16, more than max_candidates (15)"),
        ([NOT], 2, "max_candidates", 16, None),
        ([MAJ], 2, "max_candidates", 7, "inv row combinations at arity 1 needs 8, more than max_candidates (7)"),
        ([MAJ], 2, "max_candidates", 8, "inv at arity 2 needs 16, more than max_candidates (8)"),
        ([MAJ], 2, "max_candidates", 63, "inv row combinations at arity 2 needs 64, more than max_candidates (63)"),
        ([MAJ], 2, "max_candidates", 64, None),
        ([NOT], 3, "max_materialize", 3, "inv relation at arity 2 needs 4, more than max_materialize (3)"),
        ([NOT], 3, "max_materialize", 7, "inv relation at arity 3 needs 8, more than max_materialize (7)"),
        ([NOT], 3, "max_materialize", 8, None),
    ]
    for ops, max_k, field, cap, refusal in cases:
        limits = Limits(**{field: cap})
        if refusal is None:
            assert galois_check(opset(ops), 1, max_k=max_k, limits=limits).passed
            continue
        with pytest.raises(ResourceBoundError) as err:
            galois_check(opset(ops), 1, max_k=max_k, limits=limits)
        assert str(err.value) == refusal
