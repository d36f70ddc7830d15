"""The workload process: one caller, instances in the spec's order.

Usage (started by run.py, not by hand):

    python3 perfbench/worker.py SPEC_DIR SECONDS TRACE OUT [--setup-only]

Set-up is everything from interpreter start until the first instance is
ready: importing polinv and loading the inputs through the library.
With --setup-only the process prints the moment it became ready on the
monotonic clock, with the times of SETUP_REFS reference chunks run right
after (see pace.py), and exits.  Otherwise it runs one pass over every
instance, then keeps sampling for about SECONDS, and writes every
instance's times, the reference chunks' times, the first pass's
results and, when traced, per-layer metrics to OUT as JSON.
Untraced, the later samples come in rounds
(see rounds()), with instances under SAMPLE_S repeated within a sample;
traced, in whole passes that alternate between untraced and traced.
"""

import sys
import time

from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import json  # noqa: E402
import resource  # noqa: E402

import polinv  # noqa: E402
from polinv import (  # noqa: E402
    Domain,
    EqualityAtom,
    OperationSet,
    RelationSet,
    ResourceBoundError,
    load_workspace,
    parse_partition,
)
from polinv import cli  # noqa: E402

from pace import Pacer  # noqa: E402


SAMPLE_S = 0.002  # shortest sample; cheaper instances repeat within one
TINY_S = 0.02  # samples cheaper than this are taken in every round
SETUP_REFS = 40  # reference chunks a --setup-only process measures after set-up


def _ops(ws, names):
    return OperationSet(ws.domain, tuple(ws.ops_by_name[n] for n in names))


def _tuples(rel):
    return [list(t) for t in rel.tuples]


def build(spec: dict, workdir: Path) -> list:
    """(run, view) pairs: run() makes the timed library call; view(result)
    turns its result into plain data outside the timed region."""
    ws = {int(d): load_workspace([str(workdir / f) for f in files]) for d, files in spec["files"].items()}
    # Timed calls go through polinv's module attributes, looked up at
    # call time, so that a traced pass reaches the tracer's wrappers.
    built = []
    ideals: dict[int, object] = {}
    for pos, inst in enumerate(spec["instances"]):
        kind = inst["kind"]
        d = inst.get("d")
        if kind == "check":
            argv = ["check", "--ops", str(workdir / inst["ops_file"]), "--arity", str(inst["arity"])]
            built.append((lambda argv=argv: cli.run(argv), lambda r: {"code": r[0], "out": r[1].splitlines(), "err": r[2]}))
        elif kind == "clone_closure":
            gens, n = _ops(ws[d], inst["gens"]), inst["max_arity"]
            built.append((lambda gens=gens, n=n: polinv.clone_closure(gens, n), lambda r: sorted([op.arity, list(op.table)] for op in r)))
        elif kind == "graph_relation":
            gens, n = _ops(ws[d], inst["gens"]), inst["arity"]
            built.append((lambda gens=gens, n=n: polinv.graph_relation(gens, n), lambda r: [r.arity, _tuples(r)]))
        elif kind == "clone_contains":
            gens, op, n = _ops(ws[d], inst["gens"]), ws[d].ops_by_name[inst["op"]], inst["max_arity"]
            built.append((lambda gens=gens, op=op, n=n: polinv.clone_contains(gens, op, n), bool))
        elif kind == "essential_variables":
            op = ws[d].ops_by_name[inst["op"]]
            built.append((lambda op=op: polinv.essential_variables(op), lambda r: list(r.indices)))
        elif kind == "invariant_closure":
            gens, seeds, k = _ops(ws[d], inst["gens"]), [tuple(t) for t in inst["seeds"]], inst["k"]
            built.append((lambda gens=gens, seeds=seeds, k=k: polinv.invariant_closure(gens, seeds, k), _tuples))
        elif kind == "formula":
            w = ws[d]
            env = RelationSet(w.domain, tuple(w.rels_by_name[n] for n in spec["relations"][str(d)]))
            phi = w.formulas_by_name[inst["formula"]["name"]]

            def run_formula(phi=phi, env=env, domain=w.domain):
                parsed = polinv.parse_pp(phi.to_text())
                return parsed, polinv.eval_pp(parsed, env, domain)

            built.append((run_formula, _view_formula))
        elif kind == "definable":
            w = ws[d]
            env = RelationSet(w.domain, tuple(w.rels_by_name[n] for n in inst["env"]))
            target = w.rels_by_name[inst["target"]]
            built.append((lambda target=target, env=env: polinv.is_pp_definable(target, env), bool))
        elif kind == "ideal_downset":
            kappa = inst["kappa"]
            gens = tuple(parse_partition(text, kappa) for text in inst["generators"])

            def run_downset(gens=gens, kappa=kappa, pos=pos):
                ideals[pos] = polinv.ideal_downset(gens, kappa)
                return ideals[pos]

            built.append((run_downset, lambda r: sorted([list(b) for b in p.blocks] for p in r)))
        elif kind == "diagonal_relation":
            domain = Domain(d)
            built.append((lambda i=inst["ideal"], domain=domain: polinv.diagonal_relation(ideals[i], domain), _tuples))
        elif kind == "check_finitary_preservation":
            op = ws[d].ops_by_name[inst["op"]]
            built.append((lambda i=inst["ideal"], op=op: polinv.check_finitary_preservation(op, ideals[i]), bool))
        else:
            raise ValueError(f"unknown instance kind {kind!r}")
    return built


def _view_formula(result):
    parsed, rel = result
    atoms = [
        ["=", [a.left, a.right]] if isinstance(a, EqualityAtom) else [a.relation, list(a.variables)]
        for a in parsed.atoms
    ]
    structure = {"name": parsed.name, "free": list(parsed.free_vars), "exist": list(parsed.exist_vars), "atoms": atoms}
    return {"parsed": structure, "tuples": _tuples(rel)}


def run_instances(built: list, indices: list[int], repeats: list[int], pacer: Pacer, tracer=None) -> tuple[list, list]:
    """Run the given instances in order, each repeats[i] times back to
    back; returns (seconds per call, start, end) per instance, the
    pacer's reference chunks left out of the seconds, and the last
    results.
    A refused or failing instance yields an error record instead of a
    result, so one bad instance does not stop the run."""
    times, results = [], []
    clock = time.perf_counter
    for i in indices:
        run, view = built[i]
        calls = repeats[i]
        pacer.measure()
        since = len(pacer.mids)
        root = tracer.open("bench.instance") if tracer else None
        start = clock()
        try:
            for _ in range(calls):
                raw = run()
            ok = True
        except ResourceBoundError as exc:
            raw, ok = {"refused": str(exc)}, False
        except Exception as exc:  # counted as a failed instance, not a crash
            raw, ok = {"error": f"{type(exc).__name__}: {exc}"}, False
        end = clock()
        times.append(((end - start - pacer.paused(since, start, end)) / calls, start, end))
        if root:
            tracer.close(root)
        results.append(view(raw) if ok else raw)
    return times, results


def rounds(costs: list[float]):
    """Batches of instance indices for the sampling after the first pass.

    An instance whose sample costs under TINY_S goes into every batch.
    The others follow in turn, costliest first, as many per batch as
    together cost about as much as the tiny ones (at least one): tiny
    instances get many samples, and the few instances that make up most
    of wall_s get their second sample early in the run.  Each batch is
    in the spec's order; the generator never ends."""
    tiny = [i for i, c in enumerate(costs) if c < TINY_S]
    rest = sorted((i for i, c in enumerate(costs) if c >= TINY_S), key=costs.__getitem__, reverse=True)
    budget = sum(costs[i] for i in tiny)
    turn = 0
    while True:
        picked: list[int] = []
        while rest and len(picked) < len(rest) and (not picked or sum(costs[i] for i in picked) < budget):
            picked.append(rest[turn % len(rest)])
            turn += 1
        yield sorted(tiny + picked)


def main(argv: list[str]) -> int:
    spec_dir, seconds, trace, out_path = Path(argv[0]), float(argv[1]), argv[2] == "1", Path(argv[3])
    spec = json.loads((spec_dir / "spec.json").read_text(encoding="utf-8"))
    built = build(spec, spec_dir)
    ready = time.monotonic()
    pacer = Pacer()
    if "--setup-only" in argv:
        for _ in range(SETUP_REFS):
            pacer.measure()
        print(json.dumps({"ready": ready, "refs": [pacer.mids, pacer.times]}))
        return 0

    tracer = None
    if trace:
        from layertrace import Tracer, median_metrics, pass_metrics, polinv_modules

        tracer = Tracer(polinv_modules(), ResourceBoundError)
    deadline = time.monotonic() + seconds
    everything = list(range(len(built)))
    samples = {False: [[] for _ in built], True: [[] for _ in built]}  # traced? -> per instance
    stamps = {False: [[] for _ in built], True: [[] for _ in built]}  # (start, end) of each sample
    layer_metrics, first, mismatched = [], [], set()
    repeats = [1] * len(built)

    def measure(indices: list[int], traced: bool = False) -> None:
        # Traced passes run without the pacer's timer, so that spans
        # hold no reference chunks; the chunk before each sample still
        # runs, outside the spans.
        if traced:
            mark = len(tracer.spans)
            tracer.install()
        else:
            pacer.start()
        try:
            times, results = run_instances(built, indices, repeats, pacer, tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
            else:
                pacer.stop()
        if traced:
            layer_metrics.append(pass_metrics(tracer.spans[mark:]))
        if not first:
            first.extend(results)
        mismatched.update(i for i, r in zip(indices, results) if r != first[i])
        for i, (t, start, end) in zip(indices, times):
            samples[traced][i].append(t)
            stamps[traced][i].append((start, end))

    def fits(indices: list[int]) -> bool:
        return time.monotonic() + sum(samples[False][i][-1] * repeats[i] for i in indices) <= deadline

    measure(everything)
    if trace:
        # Whole passes, alternating, so each traced pass is comparable.
        measure(everything, traced=True)
        while fits(everything):
            measure(everything, traced=len(samples[True][0]) < len(samples[False][0]))
    else:
        # An instance under SAMPLE_S is called back to back within a
        # sample, so that its time is not set by what the previous
        # instance left in the caches.
        repeats = [max(1, min(100, round(SAMPLE_S / t[0]))) for t in samples[False]]
        costs = [t[0] * r for t, r in zip(samples[False], repeats)]
        for batch in rounds(costs):
            if not fits(batch):
                # Near the end only the tiny instances may still fit.
                batch = [i for i in batch if costs[i] < TINY_S]
                if not batch or not fits(batch):
                    break
            measure(batch)

    output = {
        "ready": ready,
        "samples": samples[False],
        "traced_samples": samples[True],
        "stamps": stamps[False],
        "traced_stamps": stamps[True],
        "refs": [pacer.mids, pacer.times],
        "results": first,
        "mismatched": sorted(mismatched),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if trace:
        output["layers"] = median_metrics(layer_metrics)
        tracer.write(out_path.with_name("spans.jsonl"))
    out_path.write_text(json.dumps(output), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
