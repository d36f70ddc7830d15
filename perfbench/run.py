"""Benchmark for polinv: time to verdict on four seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
./src and the oracles from ./tests/helpers.py.  Generated inputs, worker
output and trace spans go under ./.bench_out/.

With --trace 0 the last line of stdout is a JSON object holding the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of a
traced run.  The line before it is a human-readable summary.  Every
verdict is checked against an oracle in this process, after the worker
has exited, so the checks touch neither set-up time nor the worker's
memory.  See perfbench/DESIGN.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 7  # set-up-only processes per run
CHILD_TIMEOUT_S = 150

sys.path.insert(0, str(HERE))
from inputs import WORKLOADS, generate  # noqa: E402
from layertrace import LAYERS, PER_LAYER  # noqa: E402
from pace import Pace  # noqa: E402

END_TO_END = {
    "wall_s": "s",
    "item_p50_ms": "ms",
    "item_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def worker_cmd(spec_dir: Path, seconds: float, trace: bool, out: Path, *extra: str) -> list[str]:
    return [sys.executable, str(HERE / "worker.py"), str(spec_dir), str(seconds), "1" if trace else "0", str(out), *extra]


def spawn(cmd: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    """Run one worker to completion; returns its start on the monotonic
    clock, which the worker's own ready stamp is compared with."""
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr}")
    return start, proc


def per_instance(samples: list[list[float]], stamps: list[list], pace: Pace) -> list[float]:
    """Per-instance time: the median over its samples, each scaled to
    the reference pace by the reference chunks measured around it."""
    return [
        statistics.median(t * pace.scale(start, end) for t, (start, end) in zip(times, spans))
        for times, spans in zip(samples, stamps)
    ]


def verdicts(spec: dict, worker: dict, expected: list | None = None) -> tuple[int, int]:
    """(attempted, failed) over every execution of every instance.  An
    instance fails when its first result differs from the oracle's
    expected answer (computed here unless given), or when a later
    execution disagreed with the first."""
    import oracles  # imports polinv and tests/helpers in this process only

    wrong = set(oracles.failures(spec, worker["results"], expected)) | set(worker["mismatched"])
    runs = [len(a) + len(b) for a, b in zip(worker["samples"], worker["traced_samples"])]
    return sum(runs), sum(runs[i] for i in wrong)


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Generate inputs, run the worker and check its verdicts.  Returns
    the summary fields used for printing."""
    spec_dir = OUT / f"{workload}-{seed}"
    shutil.rmtree(spec_dir, ignore_errors=True)
    spec = generate(workload, seed, spec_dir)
    import polinv  # noqa: F401  compiles the bytecode cache before any timed start-up
    result_path = spec_dir / "result.json"

    setups = []
    if not trace:
        for _ in range(SETUP_SAMPLES):
            start, proc = spawn(worker_cmd(spec_dir, seconds, False, result_path, "--setup-only"))
            ready = json.loads(proc.stdout.strip().splitlines()[-1])
            setups.append((ready["ready"] - start) * Pace(*ready["refs"]).overall())
    spawn(worker_cmd(spec_dir, seconds, trace, result_path))
    worker = json.loads(result_path.read_text(encoding="utf-8"))

    attempted, failed = verdicts(spec, worker)
    per_item = per_instance(worker["samples"], worker["stamps"], Pace(*worker["refs"]))
    counts = [len(times) for times in worker["samples"]]
    summary = {
        "attempted": attempted,
        "failed": failed,
        "samples": f"{min(counts)}..{max(counts)}",
        "raw_wall_s": sum(statistics.median(times) for times in worker["samples"]),
        "instances": len(spec["instances"]),
        "metrics": {
            "wall_s": sum(per_item),
            "item_p50_ms": 1000 * statistics.median(per_item),
            "item_p90_ms": 1000 * nearest_rank(per_item, 0.9),
            "setup_s": statistics.median(setups) if setups else None,  # untraced runs only
            "peak_rss_mb": worker["peak_rss_kb"] / 1024,
        },
    }
    if trace:
        layers = dict(worker["layers"])
        traced = per_instance(worker["traced_samples"], worker["traced_stamps"], Pace(*worker["refs"]))
        layers["trace.overhead"] = sum(traced) / summary["metrics"]["wall_s"]
        summary["layers"] = layers
    return summary


def report(workload: str, trace: bool, s: dict) -> str:
    """The human-readable line printed before the JSON result."""
    fail_frac = s["failed"] / s["attempted"]
    m = s["metrics"]
    head = (
        f"{workload}: wall_s={m['wall_s']:.4f} (each instance the median of {s['samples']} samples, at the reference pace; "
        f"raw_wall_s={s['raw_wall_s']:.4f}) "
        f"item_p50_ms={m['item_p50_ms']:.4f} item_p90_ms={m['item_p90_ms']:.4f} "
        f"(n={s['instances']} instances) fail_frac={fail_frac:.4f} "
        f"({s['failed']}/{s['attempted']})"
    )
    if not trace:
        return head + f" setup_s={m['setup_s']:.4f} (median of {SETUP_SAMPLES}, at the reference pace) peak_rss_mb={m['peak_rss_mb']:.1f}"
    layers = {name: s["layers"][f"layer.{name}.self_s"] for name in LAYERS}
    top = max(layers, key=layers.get)
    shares = " ".join(f"{k}={v:.3f}" for k, v in sorted(layers.items(), key=lambda kv: -kv[1]))
    return f"{head} trace.overhead={s['layers']['trace.overhead']:.3f} largest self time: {top}; layer self_s: {shares}"


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    for needed in (ROOT / "src" / "polinv" / "__init__.py", ROOT / "tests" / "helpers.py"):
        if not needed.is_file():
            print(f"error: {needed.relative_to(ROOT)} not found; run from a polinv source checkout", file=sys.stderr)
            return 2
    sys.path[1:1] = [str(ROOT / "src"), str(ROOT / "tests")]
    trace = bool(args.trace)
    try:
        s = measure(args.workload, args.seed, args.seconds, trace)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(report(args.workload, trace, s))
    if trace:
        metrics = {name: {"value": s["layers"][name], "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        metrics = {name: {"value": s["metrics"][name], "unit": unit} for name, unit in END_TO_END.items()}
    result = {"correct": s["failed"] == 0, "attempted": s["attempted"], "failed": s["failed"], "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
