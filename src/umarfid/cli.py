"""Command line front-end: every experiment as a reproducible run.

Exit code 0 means every trial-level assertion held, 1 that a trial
failed, 2 an argument or config error, found before any trial runs.
Records are written in trial order while the run goes on, summary last.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys

from .harness import EXPERIMENTS, FORMATS, STRATEGIES, TrialConfig, run_trials, summary_text


def _at_least(low: int):
    """argparse type: an int no smaller than low, else a usage error."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


_DEFAULT = TrialConfig._field_defaults  # the one home of every config default
_LOW = TrialConfig.COUNTS  # and of every count's lowest value


def _add_common(parser: argparse.ArgumentParser, trials: int) -> None:
    # a config flag that is not given is left out of the namespace; TrialConfig fills it
    parser.add_argument("--bits", dest="word_len", type=int, default=argparse.SUPPRESS,
                        metavar="L", help=f"word length in bits (default {_DEFAULT['word_len']})")
    parser.add_argument("--trials", type=_at_least(_LOW["trials"]), default=trials, metavar="N",
                        help=f"number of trials (default {trials})")
    parser.add_argument("--seed", type=int, default=argparse.SUPPRESS, metavar="S", help=(
        f"base seed; every trial derives its own stream (default {_DEFAULT['seed']})"))
    parser.add_argument("--format", choices=FORMATS,
                        default="text", help="record output format")
    parser.add_argument("--out", metavar="PATH",
                        help="write records to PATH instead of stdout")
    parser.add_argument("--workers", type=_at_least(1), default=1, metavar="W",
                        help="parallel worker processes (results identical)")


# config field -> (flag, argparse spec); a subcommand gets those its experiments read
_FLAGS = {
    "execute_budget": ("--executes", dict(
        type=_at_least(_LOW["execute_budget"]), metavar="EXECUTES",
        help=f"eavesdrop query budget per game (default {_DEFAULT['execute_budget']})")),
    "send_budget": ("--sends", dict(
        type=_at_least(_LOW["send_budget"]), metavar="SENDS",
        help=f"block query budget per game (default {_DEFAULT['send_budget']})")),
    "strategy": ("--strategy", dict(choices=sorted(STRATEGIES), help=(
        f"adversary strategy, random-guess the null baseline (default {_DEFAULT['strategy']})"))),
    "followups": ("--followups", dict(type=_at_least(_LOW["followups"]), help=(
        f"honest recovery attempts verified after a desync (default {_DEFAULT['followups']})"))),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process from the experiment table;
    parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="umarfid",
        description=(
            "Simulator and attack harness for the UMA-RFID ultralightweight "
            "mutual-authentication protocol."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}  # first CLI word -> the experiments it runs
    for experiment in EXPERIMENTS.values():
        commands.setdefault(experiment.words[0], []).append(experiment)
    for command, experiments in commands.items():
        p = sub.add_parser(command, help=experiments[0].help)
        if len(experiments[0].words) > 1:
            p.add_argument("name", choices=[e.words[1] for e in experiments])
        _add_common(p, experiments[0].trials)
        reads = {field for e in experiments for field in e.reads}
        for field, (flag, spec) in _FLAGS.items():
            if field in reads:
                p.add_argument(flag, dest=field, default=argparse.SUPPRESS, **spec)
    return parser


def config_from_args(args: argparse.Namespace) -> TrialConfig:
    """The config of the parsed experiment, from the flags given; a flag of
    the subcommand that this experiment does not read is refused."""
    words = (args.command, args.name) if "name" in args else (args.command,)
    name = next(name for name, e in EXPERIMENTS.items() if e.words == words)
    for field, (flag, _) in _FLAGS.items():
        if field in args and field not in EXPERIMENTS[name].reads:
            raise ValueError(f"argument {flag}: not read by {name}")
    return TrialConfig(name, **{field: getattr(args, field)
                                for field in TrialConfig._fields[1:] if field in args})


@contextlib.contextmanager
def _output(fd: int):
    """fd as a text file; as it was opened without truncating, what lies past
    the run's bytes is cut off when the run ends, by success or error."""
    with open(fd, "w") as out:
        try:
            yield out
        finally:
            # a pipe has no position to cut at, and a device such as /dev/null no size
            if out.seekable() and os.fstat(out.fileno()).st_size > out.tell():
                out.truncate()


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args)
        # opened last, so an argument error leaves the file as it was, and not
        # truncated: on ext4 that costs ms when the file was just written (README)
        fd = os.open(args.out, os.O_WRONLY | os.O_CREAT, 0o666) if args.out else None
    except ValueError as err:
        parser.exit(2, f"error: {err}\n")
    except OSError as err:  # a directory, a missing parent directory, no permission
        parser.exit(2, f"error: argument --out: {err}\n")

    with _output(fd) if args.out else contextlib.nullcontext(sys.stdout) as out:
        _, stats = run_trials(config, args.workers, out.write, args.format)
        out.write(summary_text(stats, args.format))
    if args.out:
        print(f"{stats.experiment}: {stats.successes}/{stats.trials} ok, "
              f"records written to {args.out}")
    return 0 if stats.successes == stats.trials else 1


if __name__ == "__main__":
    sys.exit(main())
