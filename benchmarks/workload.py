"""Run one benchmark workload in this process and print its figures.

    python3 benchmarks/workload.py --workload NAME --seed S --seconds T --trace 0|1 [--tiny]

Started by run.py, one process per workload so that peak RSS belongs to
the workload alone. The program is reached only through the CLI argv
(``umarfid.cli.main``), module-level functions and ``Bench``. The last
line of standard output is a JSON object for run.py.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import io
import json
import math
import resource
import statistics
import sys
import time
import traceback

from tracer import Tracer
from workloads import (
    GOLDEN, OUT_DIR, PASS_STRIDE, PER_LAYER, SRC, WORD_BITS, WORKLOADS,
    command_argv, records_digest,
)

sys.path.insert(0, str(SRC))
from umarfid import attacks, cli, protocol  # noqa: E402

# Layer boundaries the traced run wraps; True marks the call whose
# non-None result counts as an accepted probe.
TRACE_TARGETS = [
    ("word.derive_seed", False),
    ("protocol.run_honest_session", False),
    ("protocol.ReaderState.begin", False),
    ("protocol.ReaderState.complete", False),
    ("protocol.TagState.respond", True),
    ("adversary.run_untraceability_game", False),
    ("attacks.attack_full_disclosure", False),
    ("attacks.attack_clone", False),
    ("attacks.attack_desync_mitm", False),
    ("attacks.attack_desync_bitflip", False),
    ("harness.run_trials", False),
    ("harness.render", False),
    ("cli.main", False),
]

# Stop adding traced rounds past this many spans (5 arrays of 8 bytes each).
SPAN_CAP = 400_000


def percentile(values, q: float) -> float:
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def summarize(values, scale: float = 1.0) -> dict:
    """Median and p99 of samples, divided by scale, with the sample count."""
    if not values:
        return {"value": 0, "p99": 0, "n": 0}
    return {
        "value": statistics.median(values) / scale,
        "p99": percentile(values, 0.99) / scale,
        "n": len(values),
    }


def count(value) -> dict:
    return {"value": value, "p99": None, "n": 1}


class Runner:
    """Runs passes of one workload through cli.main and checks every output."""

    def __init__(self, workload: str, tiny: bool):
        self.commands = [(words, tiny_n if tiny else full_n)
                         for words, full_n, tiny_n in WORKLOADS[workload]]
        self.parallel = any("--workers" in words for words, _ in self.commands)
        OUT_DIR.mkdir(exist_ok=True)
        self.out = OUT_DIR / f"{workload}.out.jsonl"
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.verified = 0

    def argvs(self, cli_seed: int, serial: bool = False):
        for words, trials in self.commands:
            if serial:
                words = tuple("1" if prev == "--workers" else w
                              for prev, w in zip(("",) + words, words))
            yield command_argv(words, trials, cli_seed), trials

    def run(self, argv: list[str], trials: int, counted: bool = True):
        """One CLI run: (wall seconds, records, summary) after checking them.

        The time covers argument parsing, the run, rendering json-lines
        and writing --out. A run that aborts or whose output fails a check
        adds to self.problems; with counted, its trials go into the totals.
        """
        label = " ".join(argv)
        sink = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink):
                code = cli.main([*argv, "--out", str(self.out)])
        except SystemExit as exc:  # argparse and usage errors exit this way
            code = exc.code
        except Exception:  # the program crashed: report it, keep measuring
            traceback.print_exc()
            code = None
        wall = time.perf_counter() - t0

        records, summary, bad = [], {}, []
        if code != 0:
            bad.append(f"exit code {code}")
        aborted = code not in (0, 1)
        if not aborted:
            try:
                lines = self.out.read_text().splitlines()
                records = [json.loads(line) for line in lines[:-1]]
                summary = json.loads(lines[-1])["summary"]
            except (OSError, ValueError, IndexError, KeyError, TypeError) as err:
                bad.append(f"unreadable output: {err!r}")
        failed_trials = trials - sum(1 for r in records if r.get("success") is True)
        if not aborted:
            if len(records) != trials or [r.get("trial") for r in records] != list(range(trials)):
                bad.append(f"expected records 0..{trials - 1}, got {len(records)}")
            if failed_trials:
                bad.append(f"{failed_trials} trials failed")
            if summary.get("trials") != trials or summary.get("successes") != trials:
                bad.append(f"summary {summary.get('successes')}/{summary.get('trials')}")
            if argv[0] == "game" and summary.get("advantage") != 0.5:
                bad.append(f"advantage {summary.get('advantage')} != 0.5")
        if bad:
            self.problems.append(f"{label}: {'; '.join(bad)}")
        if counted:
            self.attempted += trials
            self.failed += 1 if aborted else failed_trials
            self.verified += 0 if aborted else trials - failed_trials
        return wall, records, summary

    def run_pass(self, cli_seed: int, serial: bool = False, counted: bool = True):
        """All commands of one pass: (summed CLI wall, [(argv, records, summary)])."""
        wall, results = 0.0, []
        for argv, trials in self.argvs(cli_seed, serial):
            seconds, records, summary = self.run(argv, trials, counted)
            wall += seconds
            results.append((argv, records, summary))
        return wall, results

    def golden_check(self) -> None:
        """Run pass 0 at the CLI's default seed and compare pinned digests.

        Untimed; it also warms imports and the allocator before measuring.
        """
        golden = json.loads(GOLDEN.read_text())
        _, results = self.run_pass(0, counted=False)
        for argv, records, summary in results:
            key = " ".join(argv)
            want = golden.get(key)
            if want is None:
                self.problems.append(f"no golden digest for {key!r}")
            elif records_digest(records, summary) != want:
                self.problems.append(f"golden digest mismatch for {key!r}")

    def timed(self, seed: int, seconds: float) -> dict:
        """Closed loop of passes for about `seconds`; end-to-end figures."""
        walls = []
        started = time.perf_counter()
        while True:
            wall, _ = self.run_pass(seed * PASS_STRIDE + len(walls))
            walls.append(wall)
            elapsed = time.perf_counter() - started
            if elapsed * (len(walls) + 1) / len(walls) > seconds:
                break
        usage_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        usage_children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        return {
            "trials_per_s": {"value": self.verified / sum(walls), "p99": None,
                             "n": len(walls), "pass_walls": walls},
            "peak_rss_mb": {"value": (usage_self + usage_children) / 1024,
                            "p99": None, "n": 1},
        }

    def traced(self, seed: int, seconds: float) -> tuple[dict, object]:
        """Isolated primitive loops, then rounds of untraced and traced passes."""
        values = self.isolated_loops(seed)
        tracer = Tracer(TRACE_TARGETS)
        for target in tracer.missing:
            self.problems.append(f"trace target {target} not found")
        cli_seed = seed * PASS_STRIDE
        untraced, traced, serial, passes = [], [], [], []
        digests = None
        started = time.perf_counter()
        while True:
            wall, results = self.run_pass(cli_seed)
            untraced.append(wall)
            first = len(tracer)
            tracer.install()
            try:
                wall, traced_results = self.run_pass(cli_seed)
            finally:
                tracer.uninstall()
            traced.append(wall)
            passes.append((first, len(tracer), traced_results))
            rounds = [results, traced_results]
            if self.parallel:
                wall, serial_results = self.run_pass(cli_seed, serial=True)
                serial.append(wall)
                rounds.append(serial_results)
            for res in rounds:
                got = [records_digest(r, s) for _, r, s in res]
                if digests is None:
                    digests = got
                elif got != digests:
                    self.problems.append("records differ between passes of one seed")
            elapsed = time.perf_counter() - started
            n = len(traced)
            if n >= 2 and (elapsed * (n + 1) / n > seconds or len(tracer) > SPAN_CAP):
                break
        values.update(self.layer_metrics(tracer, passes))
        values["trace.overhead_ms"] = {
            "value": (statistics.median(traced) - statistics.median(untraced)) * 1e3,
            "p99": None, "n": len(traced),
            "share": statistics.median(traced) / statistics.median(untraced) - 1,
        }
        if serial:
            serial_s, parallel_s = statistics.median(serial), statistics.median(untraced)
            values["harness.speedup_2w"] = {
                "value": serial_s / parallel_s, "p99": None, "n": len(serial)}
            values["harness.pool_overhead_s"] = {
                "value": parallel_s - serial_s / 2, "p99": None, "n": len(serial)}
        return values, tracer

    def isolated_loops(self, seed: int) -> dict:
        """ns per call of compute_a/b/c and next_pair at L=128.

        Operands are the key, nonce and pair of real honest sessions on a
        Bench: the nonce is A xor K, checked against B. Each sample is the
        mean over one batch, loop and call overhead included.
        """
        bench = attacks.Bench(WORD_BITS, seed)
        operands = []
        for _ in range(16):
            key = bench.tag.current.key
            transcript = bench.run_honest()
            nonce = transcript.a ^ key
            if protocol.compute_b(key, nonce) != transcript.b:
                self.problems.append("isolated loops: nonce does not reproduce B")
            operands.append((key, nonce, bench.tag.previous))
        values = {}
        loops = [
            ("protocol.compute_a_ns", protocol.compute_a, [(k, n) for k, n, _ in operands]),
            ("protocol.compute_b_ns", protocol.compute_b, [(k, n) for k, n, _ in operands]),
            ("protocol.compute_c_ns", protocol.compute_c, [(k, n) for k, n, _ in operands]),
            ("protocol.next_pair_ns", protocol.next_pair, [(p, n) for _, n, p in operands]),
        ]
        clock = time.perf_counter_ns
        reps = 32
        for name, fn, args in loops:
            samples = []
            for _ in range(60):
                t0 = clock()
                for _ in range(reps):
                    for x, y in args:
                        fn(x, y)
                samples.append((clock() - t0) / (reps * len(args)))
            values[name] = summarize(samples)
        return values

    def layer_metrics(self, tracer, passes) -> dict:
        """Per-layer figures from the spans and records of the traced passes."""
        dur, self_time = tracer.durations()
        by_name = {name: [] for name in tracer.names}
        for span, nid in enumerate(tracer.name):
            by_name[tracer.names[nid]].append(span)

        def spans(name, lo=0, hi=None):
            found = by_name.get(name, [])
            hi = len(tracer) if hi is None else hi
            return found[bisect.bisect_left(found, lo):bisect.bisect_left(found, hi)]

        def times(name, table):
            return [table[i] for i in spans(name)]

        per_pass = []
        bitflip_probe_ns = []
        for lo, hi, results in passes:
            records = [r for _, recs, _ in results for r in recs]
            responds = spans("protocol.TagState.respond", lo, hi)
            bitflips = spans("attacks.attack_desync_bitflip", lo, hi)
            probes = [r["c2_trials"] for r in records if r.get("c2_trials") is not None]
            if len(probes) == len(bitflips):  # serial: spans follow trial order
                bitflip_probe_ns += [dur[s] / p for s, p in zip(bitflips, probes) if p]
            per_pass.append({
                "cli.trials": sum(s.get("trials", 0) for _, _, s in results),
                "harness.records": len(records),
                "protocol.sessions": len(spans("protocol.run_honest_session", lo, hi)),
                "protocol.respond_calls": len(responds),
                "protocol.respond_accepts": sum(tracer.flag[i] for i in responds),
                "attacks.bitflip_probes": sum(probes),
                "attacks.bitflip_rounds": sum(r.get("c1_rounds") or 0 for r in records),
                "run_trials": sum(dur[i] for i in spans("harness.run_trials", lo, hi)),
                "render": sum(dur[i] for i in spans("harness.render", lo, hi)),
            })
        counts = {k: v for k, v in per_pass[0].items() if k in PER_LAYER}
        if any({k: p[k] for k in counts} != counts for p in per_pass):
            self.problems.append("deterministic counts differ between traced passes")

        values = {name: count(value) for name, value in counts.items()}
        calls = counts["protocol.respond_calls"]
        values["protocol.respond_accept_ratio"] = count(
            counts["protocol.respond_accepts"] / calls if calls else 0)
        values["word.derive_seed_ns"] = summarize(times("word.derive_seed", dur))
        values["protocol.session_us"] = summarize(times("protocol.run_honest_session", dur), 1e3)
        values["protocol.reader_begin_us"] = summarize(times("protocol.ReaderState.begin", dur), 1e3)
        values["protocol.reader_complete_us"] = summarize(
            times("protocol.ReaderState.complete", dur), 1e3)
        values["protocol.respond_us"] = summarize(times("protocol.TagState.respond", dur), 1e3)
        values["adversary.game_us"] = summarize(
            times("adversary.run_untraceability_game", self_time), 1e3)
        values["attacks.full_disclosure_us"] = summarize(
            times("attacks.attack_full_disclosure", self_time), 1e3)
        values["attacks.clone_us"] = summarize(times("attacks.attack_clone", self_time), 1e3)
        values["attacks.desync_mitm_us"] = summarize(
            times("attacks.attack_desync_mitm", self_time), 1e3)
        values["attacks.bitflip_trial_ms"] = summarize(
            times("attacks.attack_desync_bitflip", dur), 1e6)
        values["attacks.bitflip_self_ms"] = summarize(
            times("attacks.attack_desync_bitflip", self_time), 1e6)
        values["attacks.bitflip_probe_us"] = summarize(bitflip_probe_ns, 1e3)
        values["harness.run_trials_s"] = summarize([p["run_trials"] for p in per_pass], 1e9)
        values["harness.render_us_per_record"] = summarize(
            [p["render"] / p["harness.records"] for p in per_pass if p["harness.records"]], 1e3)
        values["cli.overhead_ms"] = summarize(times("cli.main", self_time), 1e6)
        return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    if not cli.__file__.startswith(str(SRC)):
        print(f"error: imported umarfid from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    runner = Runner(args.workload, args.tiny)
    runner.golden_check()
    tracer = None
    if args.trace:
        values, tracer = runner.traced(args.seed, args.seconds)
        for name in PER_LAYER:
            values.setdefault(name, {"value": 0, "p99": 0, "n": 0})
    else:
        values = runner.timed(args.seed, args.seconds)
    print(json.dumps({
        "problems": runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "values": values,
    }))
    sys.stdout.flush()
    if tracer is not None:
        tracer.write(OUT_DIR / f"spans-{args.workload}.tsv")
    return 0


if __name__ == "__main__":
    sys.exit(main())
