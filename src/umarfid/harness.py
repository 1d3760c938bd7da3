"""Monte Carlo trial runner and statistics for protocol experiments.

Each experiment, a row of EXPERIMENTS, maps a (config, trial index) pair
to one report; the trial seed is derived from the base seed and the index,
so a config determines every byte of output whatever the worker count.
Trials run in contiguous ranges; a streamed run renders each range's
records where the range ran and writes them in trial order.
"""

from __future__ import annotations

import collections
import csv
import functools
import itertools
import json
import math
import time
import types
from typing import Callable, Iterator, NamedTuple

from . import adversary, attacks
from .adversary import GameOutcome
from .attacks import AttackReport
from .protocol import MSG_C, Bench, Outcome, PairState, compute_a, compute_b, next_pair
from .word import DEFAULT_WORD_LEN, check_count, check_width, derive_seed, rot, stream, to_hex

STRATEGIES = {
    "distinguish": attacks.distinguish_strategy,
    "random-guess": adversary.random_guess_strategy,
}


class _TrialFields(NamedTuple):
    experiment: str
    word_len: int = DEFAULT_WORD_LEN
    trials: int = 100
    seed: int = 0
    followups: int = attacks.FOLLOWUPS  # honest recovery attempts after a desync
    execute_budget: int = 2  # game budgets
    send_budget: int = 1
    strategy: str = "distinguish"


class TrialConfig(_TrialFields):
    """One experiment run: what to execute, how often, and under which seed.

    Every instance is checked, since call, _make, _replace, copy and
    unpickling all build it through __new__.
    """

    __slots__ = ()
    COUNTS = {  # count field -> its lowest value
        "trials": 1, "followups": 0, "execute_budget": 0, "send_budget": 0}

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        check_width(self.word_len)
        check_count("seed", self.seed, -math.inf)  # any int, negative included
        for name, low in cls.COUNTS.items():
            check_count(name, getattr(self, name), low)
        for name, choices in (("experiment", EXPERIMENTS), ("strategy", STRATEGIES)):
            value = getattr(self, name)
            if value not in choices:
                raise ValueError(f"unknown {name} {value!r}; choose from {sorted(choices)}")
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class TrialResult(NamedTuple):
    """Report type for scenario experiments (smoke runs, identity checks)."""

    label: str
    success: bool
    detail: str = ""


# The kind of every record key. A record's keys are its trial, then its report's
# fields (_report_type); an int, bool or str prints as it is, a "word" as to_hex's
# width // 4 digits, "outcomes" joined by ";", and None as null or nothing.
RECORD_KINDS = {
    "trial": int, "label": str, "success": bool, "detail": str,
    "b": int, "d": int, "executes": int, "sends": int,
    "attack": str, "recovered_key": "word", "recovered_nonce": "word", "cloned_idt": "word",
    "cloned_key": "word", "c1_rounds": int, "c2_trials": int, "a_mask": "word",
    "b_mask": "word", "hw_matched": bool, "synchronized": bool, "followups": "outcomes",
}


class SummaryStats(NamedTuple):
    """Aggregate over one experiment's reports. Its fields that are not
    None, in order, are the summary record's keys (summary_record)."""

    experiment: str
    trials: int
    successes: int
    success_rate: float
    wilson95_low: float
    wilson95_high: float
    advantage: float | None = None  # games only
    attempts_mean: float | None = None  # bit-flip interaction counts
    attempts_median: float | None = None
    attempts_max: int | None = None
    duration_s: float = 0.0


def _bench(config: TrialConfig, trial: int) -> Bench:
    return Bench(config.word_len, derive_seed(config.seed, config.experiment, trial))


def _session_trial(config: TrialConfig, trial: int) -> TrialResult:
    """Smoke scenario: honest runs, one blocked C, recovery, resync checks."""
    bench = _bench(config, trial)
    checks = []

    for _ in range(2):
        t = bench.run_honest()
        checks += [t.outcome == Outcome.MUTUAL_SUCCESS, bench.synchronized(),
                   t.transmissions() == 3]

    # Block the closing C: tag moves ahead, reader keeps the stale pair.
    blocked = bench.run_honest({MSG_C: None})
    checks += [blocked.outcome == Outcome.BLOCKED, bench.synchronized()]  # previous pair matches

    # Next honest session must identify via the fallback and resync.
    recovery = bench.run_honest()
    checks += [recovery.outcome == Outcome.MUTUAL_SUCCESS, len(recovery.presented_idts) == 2,
               bench.reader.entries.get(bench.tag.current.idt) is not None]

    final = bench.run_honest()
    checks += [final.outcome == Outcome.MUTUAL_SUCCESS, len(final.presented_idts) == 1]

    bad = [i for i, ok in enumerate(checks) if not ok]
    return TrialResult("session", not bad, f"failed checks {bad}" if bad else "")


def _identities_trial(config: TrialConfig, trial: int) -> TrialResult:
    """Algebra behind the attacks, checked on fresh random key and nonce.

    The three public words of consecutive sessions XOR to the updated
    key, and B xor next pseudonym is a key-only constant.
    """
    width = config.word_len
    rng = stream(config.seed, config.experiment, trial)
    key, nonce = rng.getrandbits(width), rng.getrandbits(width)

    updated = next_pair(PairState(idt=rng.getrandbits(width), key=key), nonce, width)
    a, b = compute_a(key, nonce), compute_b(key, nonce, width)
    key_identity = a ^ b ^ updated.idt == updated.key
    pseudonym_identity = b ^ updated.idt == rot(key, key, width) ^ key
    ok = key_identity and pseudonym_identity
    return TrialResult(
        "identities", ok, "" if ok else f"key={key_identity} pseudonym={pseudonym_identity}")


# csv.writer's writerow returns what its file's write returns: with str
# as write, the formatted row itself.
_csv_row = csv.writer(types.SimpleNamespace(write=str)).writerow


FORMATS = ("text", "json-lines", "csv")


def _check_format(fmt: str) -> None:
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}; choose text, json-lines or csv")


_escape = json.encoder.encode_basestring_ascii  # json.dumps's own string escape
_NULL, _BLANK = {None: "null"}, {None: ""}
_JSON_WORDS = {None: "null", True: "true", False: "false"}

# kind -> its column as the str values a record prints, at the run's width
_AS_STR = {
    "word": lambda column, width: [None if w is None else to_hex(w, width) for w in column],
    "outcomes": lambda column, width: [None if f is None else ";".join(f) for f in column],
}

# value type -> a column of its values (None included) made ready for a
# json-lines template; %s writes an int as int.__repr__ does, like json.dumps
_JSON_COLUMN = {
    int: lambda column: map(_NULL.get, column, column),
    bool: lambda column: map(_JSON_WORDS.__getitem__, column),
    str: lambda column: ["null" if v is None else _escape(v) for v in column],
}


@functools.cache
def _report_type(cls: type) -> tuple:
    """A report class's record keys (the trial, then its fields), per key
    what makes its column str (None: the column stays as it is), and per
    format a line template and a converter per column."""
    keys = ("trial", *cls._fields)
    kinds = [RECORD_KINDS[key] for key in keys]
    json_line = "{" + ", ".join(f"{_escape(key)}: %s" for key in keys) + "}\n"
    text_line = " ".join(f"{key}=%s" for key in keys) + "\n"
    return keys, [_AS_STR.get(kind) for kind in kinds], {
        "json-lines": (json_line, [_JSON_COLUMN[str if kind in _AS_STR else kind]
                                   for kind in kinds]),
        "text": (text_line, [lambda column: map(_BLANK.get, column, column)] * len(keys)),
    }


class Experiment(NamedTuple):
    """A row of the experiment table: all the CLI, trials, summary and records need.
    Its report class sets its record keys, templates and summary extras."""

    words: tuple[str, ...]  # the CLI words that run it
    help: str  # its subcommand's help
    run: Callable  # (config, trial) -> report
    report: type  # its reports' class
    trials: int  # the CLI's default trial count
    reads: tuple[str, ...] = ()  # config fields it reads besides width, trials, seed


_ATTACK_HELP = "run one attack as a Monte Carlo experiment"

# Every experiment, in CLI order. A name but "untraceability" (seeded
# under "game") is also the seed label of its trials (derive_seed), so a
# rename changes every record. A row calls traced functions through
# their module, as attacks.attack_clone.
EXPERIMENTS = {
    "session": Experiment(
        ("session",), "honest-session smoke scenarios", _session_trial, TrialResult, 100),
    "untraceability": Experiment(
        ("game",), "untraceability distinguishing games",
        lambda config, trial: adversary.run_untraceability_game(
            STRATEGIES[config.strategy], config, trial),
        GameOutcome, 1000, ("execute_budget", "send_budget", "strategy")),
    "full-disclosure": Experiment(
        ("attack", "full-disclosure"), _ATTACK_HELP,
        lambda config, trial: attacks.attack_full_disclosure(_bench(config, trial)),
        AttackReport, 200),
    "clone": Experiment(
        ("attack", "clone"), _ATTACK_HELP,
        lambda config, trial: attacks.attack_clone(_bench(config, trial)), AttackReport, 200),
    "desync-mitm": Experiment(
        ("attack", "desync-mitm"), _ATTACK_HELP,
        lambda config, trial: attacks.attack_desync_mitm(_bench(config, trial), config.followups),
        AttackReport, 200, ("followups",)),
    "desync-bitflip": Experiment(
        ("attack", "desync-bitflip"), _ATTACK_HELP,
        lambda config, trial: attacks.attack_desync_bitflip(_bench(config, trial), config.followups),
        AttackReport, 200, ("followups",)),
    "identities": Experiment(
        ("verify-identities",), "check the XOR identities the attacks rely on",
        _identities_trial, TrialResult, 10000),
}


# Ranges hold at most this many reports, so a streamed run's memory does
# not grow with its trial count.
RANGE_CAP = 1000


# Ranges submitted to a pool and not yet written, per worker: enough to
# keep every worker busy, few enough that the futures do not pile up.
IN_FLIGHT = 2


def _range_size(trials: int, workers: int) -> int:
    """Trials per range: about four ranges per worker, or RANGE_CAP for
    one process, which has no load to balance."""
    return RANGE_CAP if workers == 1 else min(RANGE_CAP, -(-trials // (4 * workers)))


def trial_ranges(trials: int, workers: int) -> Iterator[range]:
    """Split trials into contiguous ranges of _range_size, each made only
    when it is taken, so that no list grows with the trial count."""
    size = _range_size(trials, workers)
    return (range(start, min(start + size, trials)) for start in range(0, trials, size))


def _run_range(config: TrialConfig, fmt: str | None, trials: range):
    """Run one range of trials: (its reports, or with fmt their rendered
    records, plus the range's tally for the summary)."""
    experiment = EXPERIMENTS[config.experiment]
    reports = list(map(experiment.run, itertools.repeat(config), trials))
    part = reports if fmt is None else render_records(
        config.experiment, reports, trials.start, config.word_len, fmt)
    return part, _tally(reports)


def run_trials(config: TrialConfig, workers: int = 1, write=None, fmt: str = "text"):
    """Execute every trial of an experiment; returns (reports, summary).

    Per-trial seeds derive from (base seed, trial index): identical
    config gives bit-identical reports for any worker count. With
    ``write``, the process that ran a range renders its records in
    ``fmt``, and ``write`` gets them in trial order; no report is kept
    (the returned list is empty). If a trial raises, the ranges before
    its own stay written.
    """
    started = time.perf_counter()
    _check_format(fmt)
    check_count("workers", workers, 1)
    run_range = functools.partial(_run_range, config, fmt if write else None)
    reports, successes, attempts = [], 0, collections.Counter()
    emit = write or reports.extend
    ranges = trial_ranges(config.trials, workers)
    # a worker per range at most
    workers = min(workers, -(-config.trials // _range_size(config.trials, workers)))
    pool = None
    if workers > 1:  # imported here, so a serial run never loads the pool's modules
        from concurrent.futures import ProcessPoolExecutor
        pool = ProcessPoolExecutor(max_workers=workers)
    try:
        for part, (ok, part_attempts) in (
            _in_order(pool, run_range, ranges, IN_FLIGHT * workers)
            if pool else map(run_range, ranges)
        ):
            emit(part)
            successes += ok
            attempts.update(part_attempts)
    finally:
        if pool:
            pool.shutdown(cancel_futures=True)
    stats = _summary(config.experiment, config.trials, successes, attempts)
    return reports, stats._replace(duration_s=time.perf_counter() - started)


def _in_order(pool, run_range, ranges, window: int):
    """Results of run_range over ranges, in order, with at most window
    ranges submitted and not yet consumed; the next range is submitted
    only after the caller has taken (and written) the oldest one."""
    submit, ranges = functools.partial(pool.submit, run_range), iter(ranges)
    pending = collections.deque(map(submit, itertools.islice(ranges, window)))
    while pending:
        yield pending.popleft().result()
        pending.extend(map(submit, itertools.islice(ranges, 1)))


def _tally(reports) -> tuple[int, collections.Counter]:
    """What a summary needs of some reports: (successes, and how often
    each c2_trials int that they carry occurs)."""
    return sum(1 for r in reports if r.success), collections.Counter(
        c for r in reports if (c := getattr(r, "c2_trials", None)) is not None)


def summarize(experiment: str, reports) -> SummaryStats:
    """Fold reports into counts, a Wilson 95% interval, and extras."""
    if not reports:
        raise ValueError("summarize needs at least one report")
    return _summary(experiment, len(reports), *_tally(reports))


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """Wilson score 95% interval for a binomial proportion."""
    if trials < 1:
        raise ValueError("wilson_interval needs at least one trial")
    z = 1.96  # two-sided 95% standard normal quantile
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials))
    return (max(0.0, center - half), min(1.0, center + half))


def _summary(experiment, trials, successes, attempts) -> SummaryStats:
    """The one summary fold; a game's advantage is |Pr[d = b] - 1/2|."""
    rate = successes / trials
    return SummaryStats(
        experiment, trials, successes, rate, *wilson_interval(successes, trials),
        advantage=abs(rate - 0.5) if EXPERIMENTS[experiment].report is GameOutcome else None,
        attempts_mean=sum(v * n for v, n in attempts.items()) / attempts.total()
        if attempts else None,
        attempts_median=_median(attempts) if attempts else None,
        attempts_max=max(attempts) if attempts else None,
    )


def _median(counts: collections.Counter) -> float:
    """Median of the counted ints: the middle one, or the mean of the two."""
    middle, odd = divmod(counts.total(), 2)
    ordered = itertools.chain.from_iterable(
        itertools.repeat(v, n) for v, n in sorted(counts.items()))
    middles = list(itertools.islice(ordered, middle - (not odd), middle + 1))
    return middles[0] if odd else sum(middles) / 2


def summary_record(stats: SummaryStats) -> dict:
    """The summary's fields that are not None; floats rounded to 6 digits,
    attempts_mean and duration_s to 3."""
    return {k: round(v, 3 if k in ("attempts_mean", "duration_s") else 6) if isinstance(v, float)
            else v for k, v in stats._asdict().items() if v is not None}


def render_records(experiment: str, reports, first_trial: int, width: int, fmt: str) -> str:
    """Records of an experiment's consecutive trials from first_trial; csv
    output gets its header (the record's keys) before trial 0. A line is
    json.dumps, a csv row or the k=v pairs of the record as a dict of its
    keys, byte for byte, built without the dict."""
    _check_format(fmt)
    if not reports:
        return ""
    cls = EXPERIMENTS[experiment].report
    keys, as_str, lines = _report_type(cls)
    if not all(map(isinstance, reports, itertools.repeat(cls))):
        raise TypeError(f"{experiment} records need {cls.__name__} reports")
    columns = [column if convert is None else convert(column, width) for convert, column in
               zip(as_str, [range(first_trial, first_trial + len(reports)), *zip(*reports)])]
    if fmt == "csv":
        header = _csv_row(keys) if first_trial == 0 else ""
        return header + "".join(map(_csv_row, zip(*columns)))
    line, converters = lines[fmt]
    converted = [convert(column) for convert, column in zip(converters, columns)]
    return "".join(map(line.__mod__, zip(*converted)))


def summary_text(stats: SummaryStats, fmt: str) -> str:
    """The summary that ends text and json-lines output; csv has none."""
    record = summary_record(stats)
    if fmt == "text":
        return "# summary\n" + "".join(f"{k}={v}\n" for k, v in record.items())
    if fmt == "json-lines":
        return json.dumps({"summary": record}) + "\n"
    _check_format(fmt)
    return ""


def render(reports, stats: SummaryStats, width: int, fmt: str = "text") -> str:
    """Render reports of a width-bit run plus summary as text, json-lines or csv."""
    return render_records(stats.experiment, reports, 0, width, fmt) + summary_text(stats, fmt)
