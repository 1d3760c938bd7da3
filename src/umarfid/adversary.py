"""Adversarial interface and the untraceability distinguishing game.

The adversary gets three capabilities:

  * execute  - eavesdrop one genuine session and read its transcript,
  * send     - block or replace one named message of a chosen session,
  * test     - the challenge: the environment flips a hidden bit b,
               identifies tag_b against the genuine reader and reveals
               the pseudonym sequence that identification broadcast.

A game runs learning (execute/send within budget), challenge (exactly
one test), then guessing: the strategy returns a bit d. It wins when
d equals b. Advantage over many games is |Pr[win] - 1/2|; a protocol
resists tracing when that advantage stays negligible.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import NamedTuple

from .protocol import (
    Channel,
    ChannelEvent,
    SessionTranscript,
    fresh_system,
    run_honest_session,
)
from .word import WordStream, check_count, check_width, derive_seed

class GameError(RuntimeError):
    """Strategy broke the game procedure (harness bug, not a protocol event)."""


class BudgetError(GameError):
    """Strategy exceeded its execute or send query budget."""


class ValidatedTuple:
    """Config mixin for named tuples with a word_len and a seed: every
    instance is checked by _check, since call, _make, _replace, copy and
    unpickling all build it through __new__."""

    __slots__ = ()
    COUNTS: dict[str, int] = {}  # count field -> its lowest value

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self._check()
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def _check(self):
        check_width(self.word_len)
        check_count("seed", self.seed, -math.inf)  # any int, negative included
        for name, low in self.COUNTS.items():
            check_count(name, getattr(self, name), low)


class _GameFields(NamedTuple):
    word_len: int = 128
    execute_budget: int = 2
    send_budget: int = 1
    seed: int = 0


class GameConfig(ValidatedTuple, _GameFields):
    """Game parameters: word length, query budgets, seed."""

    __slots__ = ()
    COUNTS = {"execute_budget": 0, "send_budget": 0}


class GameOutcome(NamedTuple):
    """Result of one game: hidden bit, guess, and query accounting."""

    hidden_bit: int
    guess: int
    success: bool
    executes_used: int
    sends_used: int


class GameEnvironment:
    """Referee for one game: two fresh tags, a reader, budget accounting.

    The hidden challenge bit is private to the environment; strategies
    see only what test() returns. Strategies may draw randomness from
    adversary_rng, an independent stream.
    """

    def __init__(self, config: GameConfig, game_seed: int):
        self.config = config
        self._game_seed = game_seed
        init = WordStream(config.word_len, derive_seed(game_seed, "init"))
        self.reader, self.tags = fresh_system(init, config.word_len, n_tags=2)
        self._nonce_rng = WordStream(config.word_len, derive_seed(game_seed, "nonce"))
        self._bit_rng = WordStream(config.word_len, derive_seed(game_seed, "bit"))
        self.channel = Channel()
        self.executes_used = 0
        self.sends_used = 0
        self._session = 0
        self._hidden_bit: int | None = None

    @cached_property
    def adversary_rng(self) -> WordStream:
        """The strategy's own stream, seeded on first use."""
        return WordStream(self.config.word_len, derive_seed(self._game_seed, "adv"))

    @property
    def next_session(self) -> int:
        """Index the next execute or test will run under."""
        return self._session

    def execute(self, tag_index: int) -> SessionTranscript:
        """Run one genuine session with the chosen tag; return its transcript."""
        if self.executes_used >= self.config.execute_budget:
            raise BudgetError(
                f"execute budget {self.config.execute_budget} exhausted"
            )
        self.executes_used += 1
        transcript = run_honest_session(
            self.reader,
            self.tags[tag_index],
            self._nonce_rng,
            channel=self.channel,
            session=self._session,
        )
        self._session += 1
        return transcript

    def send(self, session: int, label: str, replace: int | None = None) -> None:
        """Register an interception: block the message, or substitute one.

        A substitute is the one word a strategy injects from outside the
        simulation, so it is checked here: it must lie in [0, 2**L).
        """
        if replace is not None and not 0 <= replace < 1 << self.config.word_len:
            raise ValueError(
                f"replacement {replace:#x} out of range for a "
                f"{self.config.word_len}-bit word"
            )
        if self.sends_used >= self.config.send_budget:
            raise BudgetError(f"send budget {self.config.send_budget} exhausted")
        self.sends_used += 1
        if replace is None:
            self.channel.block(session, label)
        else:
            self.channel.replace(session, label, replace)

    def test(self) -> list[int]:
        """Challenge: identify a secretly chosen tag, reveal its pseudonyms.

        The environment flips a hidden bit, runs the identification
        phase of tag_b against the genuine reader, and returns every
        pseudonym that identification broadcast (one, or two when the
        fallback fired). May be invoked exactly once per game.
        """
        if self._hidden_bit is not None:
            raise GameError("test query may be invoked only once per game")
        bit = self._bit_rng.next_bit()
        self._hidden_bit = bit
        tag = self.tags[bit]
        revealed = [tag.present()]
        if not self.reader.knows(revealed[0]):
            revealed.append(tag.present(use_previous=True))
        self._session += 1
        return revealed

    def reveal_hidden_bit(self) -> int:
        """Ground truth for the game runner. Call only after the game ends."""
        if self._hidden_bit is None:
            raise GameError("game ended without a test query")
        return self._hidden_bit


def run_untraceability_game(strategy, config: GameConfig, trial: int = 0) -> GameOutcome:
    """Play one full game with a fresh environment and score the guess.

    `strategy` is a callable taking the environment and returning the
    guessed bit. Each trial gets its own derived seed, so outcomes are
    reproducible and independent of scheduling.
    """
    env = GameEnvironment(config, derive_seed(config.seed, "game", trial))
    guess = int(strategy(env))
    hidden = env.reveal_hidden_bit()
    return GameOutcome(
        hidden_bit=hidden,
        guess=guess,
        success=guess == hidden,
        executes_used=env.executes_used,
        sends_used=env.sends_used,
    )


def random_guess_strategy(env: GameEnvironment) -> int:
    """Null baseline: ask for the challenge, then guess a coin flip."""
    env.test()
    return env.adversary_rng.next_bit()


def wilson_interval(successes: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion (95% by default)."""
    if trials < 1:
        raise ValueError("wilson_interval needs at least one trial")
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials))
    return (max(0.0, center - half), min(1.0, center + half))


# a GameOutcome's record keys (the trial, then its fields), with kinds
OUTCOME_FIELDS = {"trial": int, "b": int, "d": int, "success": bool, "executes": int, "sends": int}
