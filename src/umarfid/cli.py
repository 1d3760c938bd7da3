"""Command line front-end: every experiment as a reproducible run.

Exit code 0 means every trial-level assertion held, 1 that a trial
failed, 2 an argument or config error, found before any trial runs, 74
(EX_IOERR) that the output could not be written, and 141 (a shell's code
for SIGPIPE) that the reader of the output, stdout or an --out pipe,
closed it. Only a failed stdout is pointed at devnull, so that the exit's
flush is silent.
Records are written in trial order while the run goes on, summary last.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys

from .harness import EXPERIMENTS, FORMATS, STRATEGIES, TrialConfig, run_trials, summary_text
from .word import check_count, check_width


def _checked_int(check):
    """argparse type: an int that check accepts. Its ValueError, less the
    field name that leads the library's message, is the flag's usage error."""

    def parse(text: str) -> int:
        value = int(text)
        try:
            check(value)
        except ValueError as err:
            raise argparse.ArgumentTypeError(str(err).partition(" ")[2]) from None
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _at_least(low: int):
    """argparse type: an int no smaller than low, else a usage error."""
    return _checked_int(functools.partial(check_count, "count", low=low))


_DEFAULT = TrialConfig._field_defaults  # the one home of every config default
_LOW = TrialConfig.COUNTS  # and of every count's lowest value


def _add_common(parser: argparse.ArgumentParser, trials: int) -> None:
    # a config flag that is not given is left out of the namespace; TrialConfig fills it
    parser.add_argument("--bits", dest="word_len", type=_checked_int(check_width),
                        default=argparse.SUPPRESS,
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


class _Unwritable(Exception):
    """An output could not be written, flushed or closed: the file at path,
    or stdout for None. str() says which and why; code is the exit code."""

    def __init__(self, path: str | None, err: OSError):
        super().__init__(f"cannot write {path or 'stdout'}: {err}")
        self.path = path
        # a reader that left early, as `| head` does, is what a shell shows
        # after SIGPIPE; anything else (a full disk, say) is EX_IOERR of sysexits.h
        self.code = 141 if isinstance(err, BrokenPipeError) else 74


@contextlib.contextmanager
def _writing(path: str | None):
    """Raise an OSError of the block as _Unwritable(path)."""
    try:
        yield
    except OSError as err:
        raise _Unwritable(path, err) from None


def _close(out) -> None:
    """Close --out; as it was opened without truncating, what lies past the
    run's bytes is cut off first."""
    try:
        # a pipe has no position to cut at, and a device such as /dev/null no size
        if out.seekable() and os.fstat(out.fileno()).st_size > out.tell():
            out.truncate()
    finally:
        out.close()


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

    out = open(fd, "w") if args.out else sys.stdout
    try:
        try:
            write = _writing(args.out)(out.write)  # each call runs inside a fresh _writing
            _, stats = run_trials(config, args.workers, write, args.format)
            write(summary_text(stats, args.format))
        finally:  # so an aborted run's file holds exactly what it wrote
            if args.out:
                with _writing(args.out):
                    _close(out)
        with _writing(None):
            if args.out:
                print(f"{stats.experiment}: {stats.successes}/{stats.trials} ok, "
                      f"records written to {args.out}")
            sys.stdout.flush()
    except _Unwritable as err:
        if err.path is None:  # what stdout buffers goes to devnull: the exit's flush is silent
            with open(os.devnull, "w") as devnull:
                os.dup2(devnull.fileno(), sys.stdout.fileno())
        if err.code == 74:
            print(f"error: {err}", file=sys.stderr)
        return err.code
    return 0 if stats.successes == stats.trials else 1


if __name__ == "__main__":
    sys.exit(main())
