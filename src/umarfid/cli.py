"""Command line front-end: every experiment as a reproducible run.

Exit code 0 means every trial-level assertion held; 1 means at least
one trial failed; 2 is a usage error. Records are written in trial
order while the run goes on, and the summary last.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import sys

from .adversary import GameError
from .harness import FORMATS, STRATEGIES, TrialConfig, run_trials, summary_text

ATTACK_NAMES = ["full-disclosure", "clone", "desync-mitm", "desync-bitflip"]


def _at_least(low: int):
    """argparse type: an int no smaller than low, else a usage error."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _add_common(parser: argparse.ArgumentParser, trials: int) -> None:
    parser.add_argument("--bits", type=int, default=128, metavar="L",
                        help="word length in bits (default 128)")
    parser.add_argument("--trials", type=_at_least(1), default=trials, metavar="N",
                        help=f"number of trials (default {trials})")
    parser.add_argument("--seed", type=int, default=0, metavar="S",
                        help="base seed; every trial derives its own stream")
    parser.add_argument("--format", choices=FORMATS,
                        default="text", help="record output format")
    parser.add_argument("--out", metavar="PATH",
                        help="write records to PATH instead of stdout")
    parser.add_argument("--workers", type=_at_least(1), default=1, metavar="W",
                        help="parallel worker processes (results identical)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="umarfid",
        description=(
            "Simulator and attack harness for the UMA-RFID ultralightweight "
            "mutual-authentication protocol."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("session", help="honest-session smoke scenarios")
    _add_common(p, trials=100)

    p = sub.add_parser("game", help="untraceability distinguishing games")
    _add_common(p, trials=1000)
    p.add_argument("--executes", type=_at_least(0), default=2,
                   help="eavesdrop query budget per game (default 2)")
    p.add_argument("--sends", type=_at_least(0), default=1,
                   help="block/alter query budget per game (default 1)")
    p.add_argument("--strategy", choices=sorted(STRATEGIES), default="distinguish",
                   help="adversary strategy (random-guess is the null baseline)")

    p = sub.add_parser("attack", help="run one attack as a Monte Carlo experiment")
    p.add_argument("name", choices=ATTACK_NAMES)
    _add_common(p, trials=200)
    p.add_argument("--followups", type=_at_least(0), default=3,
                   help="honest recovery attempts verified after a desync")
    p.add_argument("--c1-cap", type=_at_least(1), default=64, dest="c1_cap",
                   help="bit-flip attack: cap on mask redraw rounds")

    p = sub.add_parser("verify-identities",
                       help="check the XOR identities the attacks rely on")
    _add_common(p, trials=10000)

    return parser


def config_from_args(args: argparse.Namespace) -> TrialConfig:
    common = dict(
        word_len=args.bits,
        trials=args.trials,
        seed=args.seed,
    )
    if args.command == "session":
        return TrialConfig(experiment="session", **common)
    if args.command == "game":
        return TrialConfig(
            experiment="untraceability",
            execute_budget=args.executes,
            send_budget=args.sends,
            strategy=args.strategy,
            **common,
        )
    if args.command == "attack":
        return TrialConfig(
            experiment=args.name,
            followups=args.followups,
            c1_round_cap=args.c1_cap,
            **common,
        )
    if args.command == "verify-identities":
        return TrialConfig(experiment="identities", **common)
    raise ValueError(f"unhandled command {args.command!r}")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args)
    except ValueError as err:
        parser.exit(2, f"error: {err}\n")

    with open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout) as out:
        try:
            _, stats = run_trials(config, args.workers, out.write, args.format)
        except (ValueError, GameError) as err:
            parser.exit(2, f"error: {err}\n")
        out.write(summary_text(stats, args.format))
    if args.out:
        print(
            f"{stats.experiment}: {stats.successes}/{stats.trials} ok, "
            f"records written to {args.out}"
        )
    return 0 if stats.successes == stats.trials else 1


if __name__ == "__main__":
    sys.exit(main())
