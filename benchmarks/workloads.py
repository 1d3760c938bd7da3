"""Workloads, metric catalogue and the golden record projection.

Shared by run.py (the command the benchmark is driven through) and
workload.py (the process that runs one workload). Importing this module
does not import umarfid, so run.py can refuse to start in a directory
that has no source tree.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
GOLDEN = HERE / "golden.json"

WORD_BITS = 128

# Pass i of a run with benchmark seed s hands the CLI --seed s*PASS_STRIDE+i,
# so every pass simulates fresh trials and pass 0 of seed 0 is the CLI's
# default seed, the one the golden digests were taken at.
PASS_STRIDE = 1_000_000

# Each workload is one pass: a list of (CLI words, full trials, tiny trials).
# A run repeats passes in a closed loop with a single caller.
WORKLOADS: dict[str, tuple[tuple[tuple[str, ...], int, int], ...]] = {
    # Honest-session word and protocol work on the accepting path, where
    # tag and reader commit state. The bit-flip probe is never reached.
    "attacks-128": (
        (("session",), 200, 20),
        (("game",), 200, 20),
        (("attack", "full-disclosure"), 200, 20),
        (("attack", "clone"), 200, 20),
        (("attack", "desync-mitm"), 200, 20),
        (("verify-identities",), 200, 20),
    ),
    # Mostly rejected TagState.respond probes: the read-only reject path.
    "bitflip-128": (
        (("attack", "desync-bitflip"), 10, 2),
    ),
    # The only ProcessPoolExecutor path: pickling, parent-side render,
    # every record held in memory.
    "clone-2w": (
        (("attack", "clone", "--workers", "2"), 20000, 400),
    ),
}

# End-to-end metrics reported with --trace 0, name -> unit.
END_TO_END = {
    "trials_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics reported with --trace 1, name -> unit.
PER_LAYER = {
    "word.derive_seed_ns": "ns",
    "protocol.compute_a_ns": "ns",
    "protocol.compute_b_ns": "ns",
    "protocol.compute_c_ns": "ns",
    "protocol.next_pair_ns": "ns",
    "protocol.session_us": "us",
    "protocol.reader_begin_us": "us",
    "protocol.reader_complete_us": "us",
    "protocol.sessions": "count",
    "protocol.respond_us": "us",
    "protocol.respond_calls": "count",
    "protocol.respond_accepts": "count",
    "protocol.respond_accept_ratio": "ratio",
    "adversary.game_us": "us",
    "attacks.full_disclosure_us": "us",
    "attacks.clone_us": "us",
    "attacks.desync_mitm_us": "us",
    "attacks.bitflip_trial_ms": "ms",
    "attacks.bitflip_self_ms": "ms",
    "attacks.bitflip_probe_us": "us",
    "attacks.bitflip_probes": "count",
    "attacks.bitflip_rounds": "count",
    "cli.trials": "count",
    "harness.records": "count",
    "harness.run_trials_s": "s",
    "harness.render_us_per_record": "us",
    "harness.speedup_2w": "ratio",
    "harness.pool_overhead_s": "s",
    "cli.overhead_ms": "ms",
    "trace.overhead_ms": "ms",
}

# The record and summary fields that exist at the commit the digests were
# taken from. Fields added later are left out of the projection, so adding
# one does not change a digest; duration_s is wall time and never pinned.
RECORD_FIELDS = frozenset({
    "trial", "success", "detail", "label",
    "b", "d", "executes", "sends",
    "attack", "recovered_key", "recovered_nonce", "cloned_idt", "cloned_key",
    "c1_rounds", "c2_trials", "a_mask", "b_mask", "hw_matched",
    "synchronized", "followups",
})
SUMMARY_FIELDS = frozenset({
    "experiment", "trials", "successes", "success_rate",
    "wilson95_low", "wilson95_high", "advantage",
    "attempts_mean", "attempts_median", "attempts_max",
})


def command_argv(words, trials: int, cli_seed: int) -> list[str]:
    """The CLI argv for one command of a pass, without --out."""
    return [*words, "--bits", str(WORD_BITS), "--trials", str(trials),
            "--seed", str(cli_seed), "--format", "json-lines"]


def records_digest(records: list[dict], summary: dict) -> str:
    """SHA-256 over the fixed projection of every record and the summary."""
    h = hashlib.sha256()
    for rec in records:
        proj = {k: v for k, v in rec.items() if k in RECORD_FIELDS}
        h.update(json.dumps(proj, sort_keys=True).encode() + b"\n")
    proj = {k: v for k, v in summary.items() if k in SUMMARY_FIELDS}
    h.update(json.dumps({"summary": proj}, sort_keys=True).encode() + b"\n")
    return h.hexdigest()
