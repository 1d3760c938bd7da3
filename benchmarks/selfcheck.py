"""Tiny-size self-check of the benchmark itself.

    python3 benchmarks/selfcheck.py

Runs every workload briefly with --tiny: untraced once, traced twice with
the same seed. Fails unless every run exits 0 with correct outputs, every
metric name matches [A-Za-z0-9_.-]+ and has a unit, the names equal those
in BENCHMARK.json, and every count repeats between the two traced runs.
Last, it copies only BENCHMARK.json and this directory into a throwaway
directory under .bench_out and confirms that run.py refuses to run there.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys

from workloads import HERE, OUT_DIR, ROOT, WORKLOADS

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def run(*args: str, root=ROOT) -> tuple[int, str]:
    """run.py of the checkout at root, started from root: (exit code, stdout)."""
    done = subprocess.run([sys.executable, str(root / HERE.name / "run.py"), *args], cwd=root,
                          stdout=subprocess.PIPE, text=True, timeout=600)
    return done.returncode, done.stdout


def result(workload: str, trace: int, problems: list[str]) -> dict:
    code, out = run("--workload", workload, "--seed", "7", "--seconds", "1",
                    "--trace", str(trace), "--tiny")
    last = json.loads(out.strip().splitlines()[-1])
    if code != 0 or not last["correct"]:
        problems.append(f"{workload} trace={trace}: exit {code}, correct={last['correct']}")
    return last


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"] for m in declared["end_to_end"]},
        1: {m["name"] for m in declared["per_layer"]},
    }
    problems: list[str] = []
    for workload in WORKLOADS:
        runs = {0: [result(workload, 0, problems)],
                1: [result(workload, 1, problems), result(workload, 1, problems)]}
        for trace, results in runs.items():
            for res in results:
                metrics = res["metrics"]
                if set(metrics) != expected[trace]:
                    problems.append(f"{workload} trace={trace}: names differ from "
                                    f"BENCHMARK.json: {sorted(set(metrics) ^ expected[trace])}")
                for name, metric in metrics.items():
                    if not NAME.fullmatch(name):
                        problems.append(f"{workload}: bad metric name {name!r}")
                    if not metric.get("unit"):
                        problems.append(f"{workload}: metric {name} has no unit")
        first, second = (
            {n: m["value"] for n, m in r["metrics"].items() if m["unit"] == "count"}
            for r in runs[1])
        if first != second:
            problems.append(f"{workload}: counts differ between traced runs: {first} vs {second}")
        print(f"{workload}: checked, counts {first}")

    bare = OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / HERE.name).mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.glob("*"):
        if path.is_file():
            shutil.copy(path, bare / HERE.name)
    code, out = run("--workload", next(iter(WORKLOADS)), "--seconds", "1", root=bare)
    shutil.rmtree(bare)
    if code == 0 or out.strip():
        problems.append(f"without a source tree run.py exited {code} and printed {out!r}")

    for problem in problems:
        print(f"FAILED {problem}")
    print("selfcheck", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
