"""umarfid benchmark: trial throughput end to end, per-module timings traced.

    python3 benchmarks/run.py [--workload NAME|all] [--seed S] [--seconds T] [--trace 0|1]

Run from the root of a source checkout. Each workload runs in its own
process (workload.py) that drives ``umarfid.cli.main(argv)`` in a closed
loop and checks every output. This script adds the set-up time of a fresh
interpreter, prints every metric by name with its unit, and ends with one
JSON line per workload:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones. The exit code is 0 only when every correctness check
passed; with no source tree it is 2 and nothing is printed on stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

from workloads import END_TO_END, HERE, OUT_DIR, PER_LAYER, ROOT, SRC, WORKLOADS

SETUP_SNIPPET = (
    "import time\n"
    "from umarfid import cli\n"
    "cli.build_parser()\n"
    "print(time.monotonic())\n"
)
SETUP_LAUNCHES = 15
RUN_LIMIT_S = 160  # one workload process; set-up launches come on top


def measure_setup(launches: int) -> list[float]:
    """Seconds from spawning a fresh interpreter until the CLI parser exists.

    CLOCK_MONOTONIC is system-wide, so the child's reading compares with
    ours. One extra launch first fills the bytecode cache.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    samples = []
    for _ in range(launches + 1):
        t0 = time.monotonic()
        done = subprocess.run([sys.executable, "-c", SETUP_SNIPPET], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=60, check=True)
        samples.append(float(done.stdout.split()[-1]) - t0)
    return samples[1:]


def run_metadata() -> dict:
    """Informational: interpreter, CPUs, source revision and size."""
    rev = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else ref[5:]
        rev = ref
    src_lines = sum(
        1
        for path in sorted((SRC / "umarfid").rglob("*.py"))
        for line in path.read_text().splitlines()
        if line.strip()
    )
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_rev": rev,
        "src_lines": src_lines,
    }


def run_workload(name: str, args) -> dict:
    """Run one workload process; returns its report (metrics, problems, totals)."""
    setup = measure_setup(2 if args.tiny else SETUP_LAUNCHES) if not args.trace else []
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", name,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
    # Own process group, so a timeout also stops the pool workers it forked.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_LIMIT_S)
        lines = stdout.strip().splitlines()
        child = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        problem = f"workload process exited with {proc.returncode}"
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        child, problem = None, f"workload process exceeded {RUN_LIMIT_S} s"
    if child is None:
        child = {"problems": [problem], "attempted": 0, "failed": 1, "values": {}}
    values = child["values"]
    if setup:
        values["setup_s"] = {
            "value": statistics.median(setup),
            "p99": max(setup),
            "n": len(setup),
        }
    units = PER_LAYER if args.trace else END_TO_END
    missing = [m for m in units if m not in values]
    if missing and not child["problems"]:
        child["problems"].append(f"metrics not measured: {missing}")
    return {
        "workload": name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "problems": child["problems"],
        "attempted": child["attempted"],
        "failed": child["failed"],
        "values": values,
        "units": units,
    }


def print_report(report: dict, meta: dict) -> None:
    print(f"# workload={report['workload']} seed={report['seed']} "
          f"seconds={report['seconds']} trace={report['trace']}")
    print("# meta " + " ".join(f"{k}={v}" for k, v in meta.items()))
    for name, unit in report["units"].items():
        v = report["values"].get(name)
        if v is None:
            continue
        extra = "" if v.get("p99") is None else f"  p99={v['p99']:.6g} n={v['n']}"
        if v.get("n") == 0:
            extra = "  (not exercised by this workload)"
        print(f"{name:32s} {v['value']:>14.6g} {unit}{extra}")
    if not report["trace"]:
        attempted = max(report["attempted"], 1)
        print(f"{'fail_share':32s} {report['failed'] / attempted:>14.6g} ratio"
              f"  ({report['failed']} failed of {report['attempted']} attempted)")
    for problem in report["problems"]:
        print(f"# FAILED {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small passes and few set-up launches (self-check only)")
    args = parser.parse_args(argv)

    if not (SRC / "umarfid" / "cli.py").is_file():
        print(f"error: no umarfid source tree at {SRC}", file=sys.stderr)
        return 2

    meta = run_metadata()
    OUT_DIR.mkdir(exist_ok=True)
    all_correct = True
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        report = run_workload(name, args)
        correct = not report["problems"] and report["failed"] == 0
        all_correct = all_correct and correct
        print_report(report, meta)
        path = OUT_DIR / f"report-{name}-trace{args.trace}.json"
        path.write_text(json.dumps({"meta": meta, **report}, indent=1) + "\n")
        print(json.dumps({
            "correct": correct,
            "attempted": max(report["attempted"], 1),
            "failed": report["failed"],
            "metrics": {
                m: {"value": report["values"].get(m, {}).get("value", 0), "unit": unit}
                for m, unit in report["units"].items()
            },
        }))
        sys.stdout.flush()
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
