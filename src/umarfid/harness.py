"""Monte Carlo trial runner and statistics for protocol experiments.

Each experiment maps a (config, trial index) pair to one report; the
trial seed is derived from the base seed and the index, so a config
determines every byte of output no matter how many workers run it.
"""

from __future__ import annotations

import csv
import io
import json
import statistics
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

from . import adversary, attacks
from .adversary import GameConfig, GameOutcome, wilson_interval
from .attacks import AttackReport, Bench
from .protocol import MSG_C, Channel, Outcome, PairState, compute_a, compute_b, next_pair
from .word import WordStream, check_width, derive_seed, rot

STRATEGIES = {
    "distinguish": attacks.distinguish_strategy,
    "random-guess": adversary.random_guess_strategy,
}


@dataclass(frozen=True)
class TrialConfig:
    """One experiment run: what to execute, how often, and under which seed."""

    experiment: str
    word_len: int = 128
    trials: int = 100
    seed: int = 0
    followups: int = 3  # honest recovery attempts after a desync
    c1_round_cap: int = 64  # safety cap on bit-flip mask redraws
    execute_budget: int = 2  # game budgets
    send_budget: int = 1
    strategy: str = "distinguish"

    def __post_init__(self):
        check_width(self.word_len)
        if self.trials < 1:
            raise ValueError("trials must be >= 1")


@dataclass(frozen=True)
class TrialResult:
    """Report type for scenario experiments (smoke runs, identity checks)."""

    label: str
    success: bool
    detail: str = ""


@dataclass(frozen=True)
class SummaryStats:
    """Aggregate over one experiment's reports."""

    experiment: str
    trials: int
    successes: int
    success_rate: float
    wilson_low: float
    wilson_high: float
    advantage: float | None = None  # games only
    attempts_mean: float | None = None  # bit-flip interaction counts
    attempts_median: float | None = None
    attempts_max: int | None = None
    duration_s: float = 0.0


def _session_trial(config: TrialConfig, trial: int) -> TrialResult:
    """Smoke scenario: honest runs, one blocked C, recovery, resync checks."""
    seed = derive_seed(config.seed, config.experiment, trial)
    bench = Bench(config.word_len, seed)
    checks = []

    for _ in range(2):
        t = bench.run_honest()
        checks.append(t.outcome is Outcome.MUTUAL_SUCCESS)
        checks.append(bench.synchronized())
        checks.append(t.transmissions() == 3)

    # Block the closing C: tag moves ahead, reader keeps the stale pair.
    channel = Channel()
    channel.block(bench.session, MSG_C)
    blocked = bench.run_honest(channel)
    checks.append(blocked.outcome is Outcome.BLOCKED)
    checks.append(bench.synchronized())  # previous pair still matches

    # Next honest session must identify via the fallback and resync.
    recovery = bench.run_honest()
    checks.append(recovery.outcome is Outcome.MUTUAL_SUCCESS)
    checks.append(len(recovery.presented_idts) == 2)
    checks.append(bench.reader.entries.get(bench.tag.current.idt) is not None)

    final = bench.run_honest()
    checks.append(final.outcome is Outcome.MUTUAL_SUCCESS)
    checks.append(len(final.presented_idts) == 1)

    bad = [i for i, ok in enumerate(checks) if not ok]
    return TrialResult(
        label="session",
        success=not bad,
        detail="" if not bad else f"failed checks {bad}",
    )


def _identities_trial(config: TrialConfig, trial: int) -> TrialResult:
    """Algebra behind the attacks, checked on fresh random key and nonce.

    The three public words of consecutive sessions XOR to the updated
    key, and B xor next pseudonym is a key-only constant.
    """
    seed = derive_seed(config.seed, config.experiment, trial)
    width = config.word_len
    rng = WordStream(width, seed)
    key, nonce = rng.next_word(), rng.next_word()

    updated = next_pair(PairState(idt=rng.next_word(), key=key), nonce, width)
    a, b = compute_a(key, nonce), compute_b(key, nonce, width)
    key_identity = a ^ b ^ updated.idt == updated.key
    pseudonym_identity = b ^ updated.idt == rot(key, key, width) ^ key
    ok = key_identity and pseudonym_identity
    return TrialResult(
        label="identities",
        success=ok,
        detail="" if ok else f"key={key_identity} pseudonym={pseudonym_identity}",
    )


def _game_trial(config: TrialConfig, trial: int) -> GameOutcome:
    strategy = STRATEGIES.get(config.strategy)
    if strategy is None:
        raise ValueError(
            f"unknown strategy {config.strategy!r}; choose from {sorted(STRATEGIES)}"
        )
    game_config = GameConfig(
        word_len=config.word_len,
        execute_budget=config.execute_budget,
        send_budget=config.send_budget,
        seed=config.seed,
    )
    return adversary.run_untraceability_game(strategy, game_config, trial)


def _bench_for(config: TrialConfig, trial: int) -> Bench:
    return Bench(config.word_len, derive_seed(config.seed, config.experiment, trial))


def _full_disclosure_trial(config, trial) -> AttackReport:
    return attacks.attack_full_disclosure(_bench_for(config, trial))


def _clone_trial(config, trial) -> AttackReport:
    return attacks.attack_clone(_bench_for(config, trial))


def _desync_mitm_trial(config, trial) -> AttackReport:
    return attacks.attack_desync_mitm(_bench_for(config, trial), config.followups)


def _desync_bitflip_trial(config, trial) -> AttackReport:
    return attacks.attack_desync_bitflip(
        _bench_for(config, trial), config.c1_round_cap, config.followups
    )


EXPERIMENTS = {
    "session": _session_trial,
    "untraceability": _game_trial,
    "full-disclosure": _full_disclosure_trial,
    "clone": _clone_trial,
    "desync-mitm": _desync_mitm_trial,
    "desync-bitflip": _desync_bitflip_trial,
    "identities": _identities_trial,
}


def _run_one(args: tuple[TrialConfig, int]):
    config, trial = args
    return EXPERIMENTS[config.experiment](config, trial)


def run_trials(config: TrialConfig, workers: int = 1):
    """Execute every trial of an experiment; returns (reports, summary).

    Per-trial seeds derive from (base seed, trial index): identical
    config gives bit-identical reports for any worker count.
    """
    if config.experiment not in EXPERIMENTS:
        raise ValueError(
            f"unknown experiment {config.experiment!r}; "
            f"choose from {sorted(EXPERIMENTS)}"
        )
    started = time.perf_counter()
    jobs = [(config, trial) for trial in range(config.trials)]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            reports = list(pool.map(_run_one, jobs, chunksize=64))
    else:
        reports = [_run_one(job) for job in jobs]
    stats = summarize(config.experiment, reports)
    return reports, replace(stats, duration_s=time.perf_counter() - started)


def summarize(experiment: str, reports) -> SummaryStats:
    """Fold reports into counts, a Wilson 95% interval, and extras."""
    if not reports:
        raise ValueError("summarize needs at least one report")
    successes = sum(1 for r in reports if r.success)
    trials = len(reports)
    rate = successes / trials
    low, high = wilson_interval(successes, trials)

    advantage = None
    if all(isinstance(r, GameOutcome) for r in reports):
        advantage = adversary.estimate_advantage(list(reports)).advantage

    attempts = [
        r.c2_trials
        for r in reports
        if isinstance(r, AttackReport) and r.c2_trials is not None
    ]
    return SummaryStats(
        experiment=experiment,
        trials=trials,
        successes=successes,
        success_rate=rate,
        wilson_low=low,
        wilson_high=high,
        advantage=advantage,
        attempts_mean=statistics.fmean(attempts) if attempts else None,
        attempts_median=statistics.median(attempts) if attempts else None,
        attempts_max=max(attempts) if attempts else None,
    )


def report_record(report, trial: int, width: int) -> dict:
    """Flat record for any report; words become width // 4 hex digits."""
    if isinstance(report, GameOutcome):
        return adversary.outcome_record(report, trial)
    if isinstance(report, AttackReport):
        return attacks.attack_record(report, trial, width)
    if isinstance(report, TrialResult):
        return {
            "trial": trial,
            "label": report.label,
            "success": report.success,
            "detail": report.detail,
        }
    raise TypeError(f"unknown report type {type(report).__name__}")


def summary_record(stats: SummaryStats) -> dict:
    record = {
        "experiment": stats.experiment,
        "trials": stats.trials,
        "successes": stats.successes,
        "success_rate": round(stats.success_rate, 6),
        "wilson95_low": round(stats.wilson_low, 6),
        "wilson95_high": round(stats.wilson_high, 6),
    }
    if stats.advantage is not None:
        record["advantage"] = round(stats.advantage, 6)
    if stats.attempts_mean is not None:
        record["attempts_mean"] = round(stats.attempts_mean, 3)
        record["attempts_median"] = stats.attempts_median
        record["attempts_max"] = stats.attempts_max
    record["duration_s"] = round(stats.duration_s, 3)
    return record


def render(reports, stats: SummaryStats, width: int, fmt: str = "text") -> str:
    """Render reports of a width-bit run plus summary as text, json-lines or csv."""
    records = [report_record(r, i, width) for i, r in enumerate(reports)]
    if fmt == "text":
        lines = [
            " ".join(f"{k}={'' if v is None else v}" for k, v in rec.items())
            for rec in records
        ]
        lines.append("# summary")
        lines.extend(f"{k}={v}" for k, v in summary_record(stats).items())
        return "\n".join(lines) + "\n"
    if fmt == "json-lines":
        lines = [json.dumps(rec, sort_keys=False) for rec in records]
        lines.append(json.dumps({"summary": summary_record(stats)}))
        return "\n".join(lines) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(records[0]))
        writer.writeheader()
        writer.writerows(records)
        return buf.getvalue()
    raise ValueError(f"unknown format {fmt!r}; choose text, json-lines or csv")
