"""Adversarial interface and the untraceability distinguishing game.

The adversary gets three capabilities:

  * execute  - eavesdrop one genuine session and read its transcript,
  * send     - block one named message of a chosen session,
  * test     - the challenge: the environment flips a hidden bit b,
               identifies tag_b against the genuine reader and reveals
               the pseudonym sequence that identification broadcast.

A game runs learning (execute/send within budget), challenge (exactly
one test), then guessing: the strategy returns a bit d. It wins when
d equals b. Advantage over many games is |Pr[win] - 1/2|; a protocol
resists tracing when that advantage stays negligible.
"""

from __future__ import annotations

from typing import NamedTuple

from .protocol import Bench, SessionTranscript, check_rule
from .word import check_count, derive_seed, stream

class GameError(RuntimeError):
    """Strategy broke the game procedure (harness bug, not a protocol event)."""


class BudgetError(GameError):
    """Strategy exceeded its execute or send query budget."""


class GameOutcome(NamedTuple):
    """Result of one game: hidden bit, guess, and query accounting."""

    hidden_bit: int
    guess: int
    success: bool
    executes_used: int
    sends_used: int


class GameEnvironment(Bench):
    """Referee for one game: a bench of two tags, the Send rules, budgets.

    config is the game's TrialConfig. The bench's streams are the game's:
    "init" draws both tags, "nonce" the reader's nonces, and strategies
    may draw randomness from adv_rng. The hidden challenge bit, drawn
    from its own "bit" stream, is private to the environment; strategies
    see only what test() returns.
    """

    def __init__(self, config, game_seed: int):
        super().__init__(config.word_len, game_seed, n_tags=2)
        self.config = config
        self._bit_rng = stream(game_seed, "bit")
        self.rules: dict[int, dict[str, None]] = {}  # session -> label -> block
        self.executes_used = 0
        self.sends_used = 0
        self._hidden_bit: int | None = None

    def execute(self, tag_index: int) -> SessionTranscript:
        """Run one genuine session with the chosen tag; return its transcript."""
        if self.executes_used >= self.config.execute_budget:
            raise BudgetError(
                f"execute budget {self.config.execute_budget} exhausted"
            )
        self.executes_used += 1
        return self.run_honest(self.rules.get(self.session), self.tags[tag_index])

    def send(self, session: int, label: str) -> None:
        """Register an interception: block `label` of `session`, the next one or later."""
        check_count("session", session, self.session)
        check_rule(label, None, self.word_len)
        if self.sends_used >= self.config.send_budget:
            raise BudgetError(f"send budget {self.config.send_budget} exhausted")
        self.sends_used += 1
        self.rules.setdefault(session, {})[label] = None

    def test(self) -> list[int]:
        """Challenge: identify a secretly chosen tag, reveal its pseudonyms.

        The environment flips a hidden bit, runs the identification
        phase of tag_b against the genuine reader, and returns every
        pseudonym that identification broadcast (one, or two when the
        fallback fired). May be invoked exactly once per game.
        """
        if self._hidden_bit is not None:
            raise GameError("test query may be invoked only once per game")
        bit = self._bit_rng.getrandbits(1)
        self._hidden_bit = bit
        tag = self.tags[bit]
        revealed = [tag.current.idt]
        if tag.current.idt not in self.reader.entries:
            revealed.append(tag.previous.idt)
        self.session += 1
        return revealed

    def reveal_hidden_bit(self) -> int:
        """Ground truth for the game runner. Call only after the game ends."""
        if self._hidden_bit is None:
            raise GameError("game ended without a test query")
        return self._hidden_bit


def run_untraceability_game(strategy, config, trial: int = 0) -> GameOutcome:
    """Play one full game with a fresh environment and score the guess.

    `strategy` is a callable taking the environment and returning the
    guessed bit; `config` is the game's TrialConfig (its word_len,
    budgets and seed). Each trial gets its own derived seed, so outcomes
    are reproducible and independent of scheduling.
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
    return env.adv_rng.getrandbits(1)
