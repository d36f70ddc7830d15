"""Seeded input generation for the four workloads.

Runs in the benchmark's parent process.  Everything a workload process
receives is written here from the seed: operation and relation files in
the library's data format, formula files in the pp grammar, partition
texts, and a JSON spec listing the instances.  Each instance also
carries the plain data (tables, tuples, formula structure) that the
oracles need, so the parent never reads answers back through the
library.  The same seed gives byte-identical files.

Work per pass is held steady across seeds on purpose: the seed relabels
the domain (an isomorphism, so clone and relation sizes do not change),
renames operations, picks tuples and tables inside fixed size classes,
and shuffles the instance order.  Only cheap instances draw their sizes
at random.
"""

from __future__ import annotations

import json
import random
import string
from itertools import combinations, permutations, product
from pathlib import Path

WORKLOADS = ("roundtrip", "closure", "pp", "diagonals")

BOOL_OPS = {
    "AND": (2, (0, 0, 0, 1)),
    "OR": (2, (0, 1, 1, 1)),
    "NOT": (1, (1, 0)),
    "XOR": (2, (0, 1, 1, 0)),
}
THREE_OPS = {
    "min": (2, tuple(min(a, b) for a in range(3) for b in range(3))),
    "suc": (1, tuple((a + 1) % 3 for a in range(3))),
    "plus": (2, tuple((a + b) % 3 for a in range(3) for b in range(3))),
    "neg": (1, tuple(2 - a for a in range(3))),
}
BOOL_RELS = {
    "leq": ((0, 0), (0, 1), (1, 1)),
    "neq": ((0, 1), (1, 0)),
    "eq": ((0, 0), (1, 1)),
}
# The d=3 pp environment, up to a seeded relabelling.  A freshly drawn
# environment would make definability cost swing with the seed (from 2
# to 78 binary polymorphisms in trials); this one has 17.
THREE_RELS = (
    (1, ((0,), (2,))),
    (2, ((0, 0), (0, 1), (1, 0), (1, 2), (2, 0), (2, 1), (2, 2))),
    (2, ((0, 0), (1, 0), (2, 2))),
)

# clone_closure instances: d=2 at max-arity 3, d=3 at max-arity 2.
CLOSURE_SETS = {
    2: (("NOT",), ("XOR",), ("AND",), ("AND", "OR"), ("XOR", "NOT")),
    3: (("min",), ("suc",), ("plus",), ("plus", "suc"), ("min", "neg")),
}
# Graph relations and membership queries close their generators again,
# once per instance.  {min, neg} (86 binary members, seconds per closure)
# is left out of both; {plus, suc} (about 0.2 s) gets few queries.
REPEATED_SETS = {2: CLOSURE_SETS[2], 3: (("min",), ("suc",), ("plus",), ("plus", "suc"))}
CONTAINS_PER_SET = 12
CONTAINS_ON_PLUS_SUC = 4

# (kappa, number of downsets, block counts of the finest generator, cycled)
DOWNSET_PLAN = (
    (2, 3, (1, 2)),
    (3, 5, (1, 2, 3)),
    (4, 12, (1, 2, 3, 4)),
    (5, 10, (2, 3, 4, 5)),
    (6, 10, (6, 6, 5, 5, 5, 4, 4, 3, 3, 2)),
)


class _Names:
    """Seeded, unique identifiers for operations and relations."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.used: set[str] = set()

    def __call__(self) -> str:
        while True:
            name = self.rng.choice(string.ascii_lowercase) + "".join(
                self.rng.choice(string.ascii_lowercase + string.digits) for _ in range(5)
            )
            if name not in self.used:
                self.used.add(name)
                return name


def conjugate_table(table, arity: int, d: int, perm, order=None) -> list[int]:
    """Table of x -> perm(f(perm^-1(x_order[0]), ..., perm^-1(x_order[-1]))),
    an isomorphic copy of f with its coordinates reordered."""
    inv = [0] * d
    for a, b in enumerate(perm):
        inv[b] = a
    order = range(arity) if order is None else order
    out = []
    for args in product(range(d), repeat=arity):
        idx = 0
        for c in order:
            idx = idx * d + inv[args[c]]
        out.append(perm[table[idx]])
    return out


def _ops_text(d: int, ops, rng: random.Random) -> str:
    """ops: (name, arity, table) triples.  Each table is split over a
    seeded number of lines, which the file format allows."""
    lines = [f"domain {d}"]
    for name, arity, table in ops:
        lines.append(f"op {name} {arity}")
        cut = rng.randint(1, len(table))
        lines.append(" ".join(map(str, table[:cut])))
        if table[cut:]:
            lines.append(" ".join(map(str, table[cut:])))
    return "\n".join(lines) + "\n"


def _rels_text(d: int, rels) -> str:
    """rels: (name, arity, tuples) triples."""
    lines = [f"domain {d}"]
    for name, arity, tuples in rels:
        lines.append(f"rel {name} {arity}")
        lines.extend(" ".join(map(str, t)) for t in tuples)
        lines.append("end")
    return "\n".join(lines) + "\n"


def _write(workdir: Path, name: str, text: str) -> str:
    (workdir / name).write_text(text, encoding="utf-8")
    return name


def _perm(rng: random.Random, d: int) -> tuple[int, ...]:
    return rng.choice(list(permutations(range(d))))


def _random_table(rng: random.Random, d: int, arity: int) -> list[int]:
    return [rng.randrange(d) for _ in range(d**arity)]


def _term_table(rng: random.Random, gens, d: int, arity: int) -> list[int]:
    """Value table of a random term over gens, so a member of the clone."""
    pool = [[t[i] for t in product(range(d), repeat=arity)] for i in range(arity)]
    for _ in range(rng.randint(1, 3)):
        g_arity, g_table = rng.choice(gens)
        args = [rng.choice(pool) for _ in range(g_arity)]
        out = []
        for p in range(d**arity):
            idx = 0
            for a in args:
                idx = idx * d + a[p]
            out.append(g_table[idx])
        pool.append(out)
    return pool[-1]


def gen_roundtrip(rng: random.Random, workdir: Path) -> tuple[list[dict], dict]:
    """One `check --arity 2` per nonempty subset of {AND, OR, NOT, XOR},
    conjugated by a seeded permutation of the domain."""
    names = _Names(rng)
    perm = _perm(rng, 2)
    instances = []
    for size in range(1, len(BOOL_OPS) + 1):
        for subset in combinations(BOOL_OPS, size):
            ops = [(names(), BOOL_OPS[g][0], conjugate_table(BOOL_OPS[g][1], BOOL_OPS[g][0], 2, perm)) for g in subset]
            path = _write(workdir, f"rt{len(instances)}.ops", _ops_text(2, ops, rng))
            instances.append({"kind": "check", "ops_file": path, "arity": 2, "gen_tables": [[a, t] for _, a, t in ops]})
    rng.shuffle(instances)
    return instances, {}


def gen_closure(rng: random.Random, workdir: Path) -> tuple[list[dict], dict]:
    names = _Names(rng)
    catalogue = {2: BOOL_OPS, 3: THREE_OPS}
    named = {}  # (d, base name) -> (name, arity, table)
    extra = {2: [], 3: []}  # query and essential-variable operations
    perms = {d: _perm(rng, d) for d in (2, 3)}
    for d in (2, 3):
        for base, (arity, table) in catalogue[d].items():
            named[d, base] = (names(), arity, conjugate_table(table, arity, d, perms[d]))

    def gens(d, bases):
        return {"d": d, "gens": [named[d, b][0] for b in bases], "gen_tables": [[named[d, b][1], named[d, b][2]] for b in bases]}

    instances = []
    for d, max_arity in ((2, 3), (3, 2)):
        for bases in CLOSURE_SETS[d]:
            instances.append({"kind": "clone_closure", "max_arity": max_arity, **gens(d, bases)})
    for d, sets in REPEATED_SETS.items():
        for bases in sets:
            for arity in (1, 2):
                instances.append({"kind": "graph_relation", "arity": arity, **gens(d, bases)})
            count = CONTAINS_ON_PLUS_SUC if bases == ("plus", "suc") else CONTAINS_PER_SET
            for i in range(count):
                arity = rng.randint(1, 2)
                if i % 2 == 0:
                    table = _term_table(rng, [(named[d, b][1], named[d, b][2]) for b in bases], d, arity)
                else:
                    table = _random_table(rng, d, arity)
                op = (names(), arity, table)
                extra[d].append(op)
                instances.append({"kind": "clone_contains", "max_arity": 2, "op": op[0], "op_table": [arity, table], **gens(d, bases)})

    # Essential-variable and invariant-closure instances are fixed base
    # instances, relabelled by the seed's domain permutation and a seeded
    # coordinate order, so that their cost does not depend on the seed.
    base = random.Random("closure")
    for i in range(100):
        d = 2 if i % 2 == 0 else 3
        arity = base.randint(1, 4 if d == 2 else 3)
        live = [c for c in range(arity) if base.random() < 0.6]
        inner = _random_table(base, d, len(live))
        table = []
        for args in product(range(d), repeat=arity):
            idx = 0
            for c in live:
                idx = idx * d + args[c]
            table.append(inner[idx])
        table = conjugate_table(table, arity, d, perms[d], rng.sample(range(arity), arity))
        op = (names(), arity, table)
        extra[d].append(op)
        instances.append({"kind": "essential_variables", "d": d, "op": op[0], "op_table": [arity, table]})

    all_sets = [(d, b) for d in (2, 3) for b in CLOSURE_SETS[d]]
    for i in range(100):
        d, bases = all_sets[i % len(all_sets)]
        k = base.randint(4, 6) if d == 2 else base.randint(2, 4)
        order = rng.sample(range(k), k)
        seeds = [[perms[d][t[c]] for c in order] for t in base.sample(list(product(range(d), repeat=k)), base.randint(1, 3))]
        instances.append({"kind": "invariant_closure", "k": k, "seeds": seeds, **gens(d, bases)})

    files = {}
    for d in (2, 3):
        ops = [entry for (dd, _), entry in named.items() if dd == d] + extra[d]
        files[str(d)] = [_write(workdir, f"ops{d}.ops", _ops_text(d, ops, rng))]
    rng.shuffle(instances)
    return instances, {"files": files}


def _formula(rng: random.Random, rels: list[tuple[str, int]], name: str) -> dict:
    """A random pp formula over relations given as (name, arity), as
    structure.  A formula with existential variables gets at least one
    atom, since the grammar has no spelling for quantifiers over an
    empty body."""
    free = [f"x{i}" for i in range(rng.randint(1, 3))]
    exist = [f"y{i}" for i in range(rng.randint(0, 3))]
    variables = free + exist
    atoms = []
    for _ in range(rng.randint(1 if exist else 0, 4)):
        if rng.random() < 0.8:
            rel, arity = rels[rng.randrange(len(rels))]
            atoms.append([rel, [rng.choice(variables) for _ in range(arity)]])
        else:
            atoms.append(["=", [rng.choice(variables), rng.choice(variables)]])
    return {"name": name, "free": free, "exist": exist, "atoms": atoms}


def formula_text(phi: dict) -> str:
    head = f"def {phi['name']}({', '.join(phi['free'])}) := "
    if not phi["atoms"]:
        return head + "true"
    body = f"exists {', '.join(phi['exist'])} . " if phi["exist"] else ""
    parts = [f"{args[0]} = {args[1]}" if rel == "=" else f"{rel}({', '.join(args)})" for rel, args in phi["atoms"]]
    return head + body + " & ".join(parts)


def gen_pp(rng: random.Random, workdir: Path) -> tuple[list[dict], dict]:
    """300 formulas and 100 definability queries.  Of the queries, 56 are
    on d=2, one per (nonempty subset of {leq, neq, eq}, arity 2..3,
    |r| = 1..4); the subset {eq} at |r| = 4 is the heavy tail.  The other
    44 are on d=3, arity 2, |r| = 1..2, over the relabelled THREE_RELS.

    Formula shapes and target tuples come from a fixed base; the seed
    relabels the domain of environment and targets together (an
    isomorphism, so costs and verdicts stay), renames and shuffles.  With
    shapes drawn from the seed, `item_p90_ms` moved with the seed's mix
    of costly d=3 formulas (0.52 to 0.68 ms over ten seeds)."""
    names = _Names(rng)
    base = random.Random("pp")
    perm2, perm3 = _perm(rng, 2), _perm(rng, 3)
    env2 = {b: (names(), 2, sorted([perm2[a] for a in t] for t in ts)) for b, ts in BOOL_RELS.items()}
    env3 = [(names(), arity, sorted([perm3[a] for a in t] for t in ts)) for arity, ts in THREE_RELS]
    binary = [list(t) for t in product(range(3), repeat=2)]
    envs = {2: list(env2.values()), 3: env3}
    instances = []
    formulas = {2: [], 3: []}
    for i in range(300):
        d = 2 if i % 2 == 0 else 3
        phi = _formula(base, [(n, a) for n, a, _ in envs[d]], f"phi{i}")
        formulas[d].append(phi)
        instances.append({"kind": "formula", "d": d, "formula": phi})

    targets = {2: [], 3: []}
    for size in range(1, 4):
        for subset in combinations(BOOL_RELS, size):
            for arity in (2, 3):
                for count in (1, 2, 3, 4):
                    picked = base.sample([list(t) for t in product(range(2), repeat=arity)], count)
                    tuples = sorted([perm2[a] for a in t] for t in picked)
                    targets[2].append((names(), arity, tuples))
                    instances.append({"kind": "definable", "d": 2, "target": targets[2][-1][0], "target_tuples": tuples, "env": [env2[b][0] for b in subset]})
    for i in range(44):
        tuples = sorted([perm3[a] for a in t] for t in base.sample(binary, 1 + i % 2))
        targets[3].append((names(), 2, tuples))
        instances.append({"kind": "definable", "d": 3, "target": targets[3][-1][0], "target_tuples": tuples, "env": [r[0] for r in env3]})

    files = {}
    for d in (2, 3):
        files[str(d)] = [
            _write(workdir, f"env{d}.rel", _rels_text(d, envs[d])),
            _write(workdir, f"targets{d}.rel", _rels_text(d, targets[d])),
            _write(workdir, f"formulas{d}.pp", "\n".join(map(formula_text, formulas[d])) + "\n"),
        ]
    rng.shuffle(instances)
    relations = {str(d): {n: [a, ts] for n, a, ts in envs[d]} for d in (2, 3)}
    return instances, {"files": files, "relations": relations}


def _random_partition(rng: random.Random, kappa: int, blocks: int) -> list[list[int]]:
    """A random partition of range(kappa) with exactly `blocks` blocks."""
    while True:
        labels = [rng.randrange(blocks) for _ in range(kappa)]
        if len(set(labels)) == blocks:
            break
    groups: dict[int, list[int]] = {}
    for i, lab in enumerate(labels):
        groups.setdefault(lab, []).append(i)
    return sorted(groups.values())


def _coarsen(rng: random.Random, blocks: list[list[int]]) -> list[list[int]]:
    merged = [list(b) for b in blocks]
    for _ in range(rng.randint(1, max(1, len(merged) - 1))):
        if len(merged) < 2:
            break
        i, j = sorted(rng.sample(range(len(merged)), 2))
        merged[i] = sorted(merged[i] + merged.pop(j))
    return sorted(merged)


def partition_text(blocks) -> str:
    return "|".join(",".join(map(str, b)) for b in blocks)


def gen_diagonals(rng: random.Random, workdir: Path) -> tuple[list[dict], dict]:
    """Downsets first, then their diagonal relations on d=2 and d=3, then
    preservation checks that use the ideals built earlier in the pass.

    The ideal generated by a partition m and coarsenings of m is the set
    of coarsenings of m, so its size, and the work to build it, is fixed
    by the block count of m, which DOWNSET_PLAN prescribes.  Partitions,
    operations and pairings come from a fixed base; the seed relabels
    index sets and domains, renames and reorders, so that the work per
    pass does not depend on the seed.
    """
    names = _Names(rng)
    base = random.Random("diagonals")
    planned = []
    for kappa, count, block_counts in DOWNSET_PLAN:
        for i in range(count):
            finest = _random_partition(base, kappa, block_counts[i % len(block_counts)])
            gens = [finest] + [_coarsen(base, finest) for _ in range(base.randint(0, 2))]
            where = rng.sample(range(kappa), kappa)
            gens = [partition_text(sorted(sorted(where[x] for x in b) for b in g)) for g in gens]
            rng.shuffle(gens)
            planned.append({"kind": "ideal_downset", "kappa": kappa, "generators": gens})
    order = rng.sample(range(len(planned)), len(planned))
    downsets = [planned[i] for i in order]
    position = {i: pos for pos, i in enumerate(order)}
    diagonals = [{"kind": "diagonal_relation", "ideal": i, "d": d} for i in range(len(downsets)) for d in (2, 3)]
    rng.shuffle(diagonals)
    ops = {2: [], 3: []}
    checks = []
    small = {2: [i for i, s in enumerate(planned) if s["kappa"] <= 4], 3: [i for i, s in enumerate(planned) if s["kappa"] <= 3]}
    perms = {d: _perm(rng, d) for d in (2, 3)}
    for j in range(100):
        d = 2 if j < 60 else 3
        arity = base.randint(1, 3 if d == 2 else 2)
        op = (names(), arity, conjugate_table(_random_table(base, d, arity), arity, d, perms[d]))
        ops[d].append(op)
        checks.append({"kind": "check_finitary_preservation", "d": d, "op": op[0], "ideal": position[base.choice(small[d])]})
    rng.shuffle(checks)
    files = {str(d): [_write(workdir, f"ops{d}.ops", _ops_text(d, ops[d], rng))] for d in (2, 3)}
    return downsets + diagonals + checks, {"files": files}


GENERATORS = {"roundtrip": gen_roundtrip, "closure": gen_closure, "pp": gen_pp, "diagonals": gen_diagonals}


def generate(workload: str, seed: int, workdir: Path) -> dict:
    """Write the inputs of one workload for one seed into workdir and
    return the spec (also written as workdir/spec.json)."""
    rng = random.Random(f"{workload}:{seed}")
    workdir.mkdir(parents=True, exist_ok=True)
    instances, extra = GENERATORS[workload](rng, workdir)
    spec = {"workload": workload, "seed": seed, "files": {}, "relations": {}, **extra, "instances": instances}
    (workdir / "spec.json").write_text(json.dumps(spec, sort_keys=True), encoding="utf-8")
    return spec
