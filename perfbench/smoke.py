"""Smoke test of the benchmark itself (about two minutes on 2 cores).

    python3 perfbench/smoke.py

From the root of a source checkout.  For every workload it makes one
short untraced and one short traced run and checks that the last line
names exactly the metrics BENCHMARK.json lists, with their units, and
reports no failures.  It then replaces one expected answer with a wrong
one and checks that the failure count rises, and checks that run.py
refuses, without a result line, in a directory holding only the
benchmark's own files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src"), str(ROOT / "tests")]

import oracles  # noqa: E402
import run  # noqa: E402
from inputs import WORKLOADS  # noqa: E402


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )


def check_metrics() -> None:
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for trace, listed in (("0", config["end_to_end"]), ("1", config["per_layer"])):
        want = {m["name"]: m["unit"] for m in listed}
        for workload in WORKLOADS:
            proc = bench("--workload", workload, "--seed", "0", "--seconds", "0", "--trace", trace)
            assert proc.returncode == 0, proc.stderr
            *head, last = proc.stdout.strip().splitlines()
            result = json.loads(last)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, (workload, trace, set(got) ^ set(want))
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, (workload, head)
            assert "fail_frac=0.0000" in head[-1], head[-1]
            print(f"ok {workload} trace={trace}: {head[-1]}")


def check_wrong_answer_counts() -> None:
    """A wrong expected answer must show up as failures."""
    spec_dir = run.OUT / "diagonals-0"
    spec = json.loads((spec_dir / "spec.json").read_text(encoding="utf-8"))
    worker = json.loads((spec_dir / "result.json").read_text(encoding="utf-8"))
    oracle = oracles.Oracle(spec)
    expected = [oracle.expected(inst) for inst in spec["instances"]]
    attempted, failed = run.verdicts(spec, worker, expected)
    assert failed == 0, failed
    flip = next(i for i, inst in enumerate(spec["instances"]) if inst["kind"] == "check_finitary_preservation")
    expected[flip] = not expected[flip]
    attempted, failed = run.verdicts(spec, worker, expected)
    runs = len(worker["samples"][flip]) + len(worker["traced_samples"][flip])
    assert failed == runs and failed / attempted > 0, (failed, runs, attempted)
    print(f"ok wrong expected answer: fail_frac={failed / attempted:.4f}")


def check_bare_directory_refuses() -> None:
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "pp", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    print("ok bare directory refused")


if __name__ == "__main__":
    check_metrics()
    check_wrong_answer_counts()
    check_bare_directory_refuses()
    print("smoke test passed")
