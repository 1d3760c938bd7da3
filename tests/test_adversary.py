import json

import pytest

from umarfid.adversary import (
    BudgetError,
    GameEnvironment,
    GameError,
    GameOutcome,
    random_guess_strategy,
    run_untraceability_game,
)
from umarfid.attacks import distinguish_strategy
from umarfid.harness import TrialConfig, render_records, run_trials, summarize, wilson_interval
from umarfid.protocol import MSG_C, Outcome, next_pair
from umarfid.word import derive_seed, stream


def make_env(execute_budget=2, send_budget=1, game_seed=0, word_len=128):
    config = TrialConfig("untraceability", word_len=word_len,
                         execute_budget=execute_budget, send_budget=send_budget)
    return GameEnvironment(config, game_seed)


def env_with_hidden_bit(bit, **kwargs):
    """Deterministically search for a game seed whose challenge bit is `bit`."""
    for game_seed in range(64):
        if stream(game_seed, "bit").getrandbits(1) == bit:
            return make_env(game_seed=game_seed, **kwargs)
    raise AssertionError("no matching seed in range")


class TestQueries:
    def test_execute_returns_full_transcript(self):
        env = make_env()
        t = env.execute(0)
        assert t.outcome == Outcome.MUTUAL_SUCCESS
        messages = [line.split()[2] for line in t.lines(env.word_len)[:-1]]
        assert messages == ["message=IDT", "message=A", "message=B", "message=C"]

    def test_consecutive_executes_chain_pseudonyms(self):
        env = make_env()
        tag = env.tags[0]
        pair_before = tag.current
        first = env.execute(0)
        nonce = first.a ^ pair_before.key  # ground truth recomputation
        second = env.execute(0)
        assert second.presented_idts[0] == next_pair(pair_before, nonce).idt

    def test_execute_budget_enforced(self):
        env = make_env(execute_budget=0)
        with pytest.raises(BudgetError):
            env.execute(0)

    def test_send_budget_enforced(self):
        env = make_env(send_budget=1)
        env.send(0, MSG_C)
        with pytest.raises(BudgetError):
            env.send(1, MSG_C)

    def test_send_of_an_unknown_label_is_refused_and_spends_nothing(self):
        env = make_env(send_budget=1)
        with pytest.raises(ValueError, match="^rule 'Z': None at width 128;"):
            env.send(0, "Z")
        assert (env.sends_used, env.rules) == (0, {})
        env.send(0, MSG_C)

    def test_send_of_a_session_that_is_not_an_int_is_refused_and_spends_nothing(self):
        env = make_env(send_budget=1)
        with pytest.raises(ValueError, match="^session must be an int, got '0'$"):
            env.send("0", MSG_C)
        assert (env.sends_used, env.rules) == (0, {})
        env.send(0, MSG_C)

    def test_send_of_a_past_session_is_refused_and_spends_nothing(self):
        env = make_env(send_budget=1)
        env.execute(0)
        with pytest.raises(ValueError, match="^session must be >= 1, got 0$"):
            env.send(env.session - 1, MSG_C)
        assert (env.sends_used, env.rules) == (0, {})
        env.send(env.session, MSG_C)
        assert env.execute(0).outcome == Outcome.BLOCKED

    def test_blocked_c_splits_states(self):
        env = make_env()
        env.send(env.session, MSG_C)
        t = env.execute(0)
        assert t.outcome == Outcome.BLOCKED
        tag = env.tags[0]
        assert tag.current.idt not in env.reader.entries
        assert tag.previous.idt in env.reader.entries

    def test_a_send_acts_only_on_its_own_session(self):
        env = make_env()
        env.send(env.session + 1, MSG_C)
        assert env.execute(0).outcome == Outcome.MUTUAL_SUCCESS
        assert env.execute(0).outcome == Outcome.BLOCKED

    def test_test_reveals_single_pseudonym_when_synchronized(self):
        env = env_with_hidden_bit(0)
        revealed = env.test()
        assert revealed == [env.tags[0].current.idt]

    def test_test_after_desync_reveals_fallback_sequence(self):
        env = env_with_hidden_bit(0)
        env.send(env.session, MSG_C)
        env.execute(0)
        tag = env.tags[0]
        revealed = env.test()
        assert len(revealed) == 2
        assert revealed == [tag.current.idt, tag.previous.idt]

    def test_test_only_once(self):
        env = make_env()
        env.test()
        with pytest.raises(GameError):
            env.test()

    def test_budget_accounting_exact(self):
        env = make_env(execute_budget=5, send_budget=5)
        env.execute(0)
        env.execute(1)
        env.send(9, MSG_C)
        assert env.executes_used == 2
        assert env.sends_used == 1


class TestLazyAdversaryStream:
    def test_distinguish_game_never_builds_it(self):
        env = make_env(game_seed=9)
        distinguish_strategy(env)
        assert "adv_rng" not in vars(env)

    def test_stream_matches_eager_seeding(self):
        env = make_env(game_seed=9, word_len=16)
        eager = stream(9, "adv")
        drawn = [env.adv_rng.getrandbits(16) for _ in range(5)]
        assert drawn == [eager.getrandbits(16) for _ in range(5)]
        assert env.adv_rng.getrandbits(1) == eager.getrandbits(1)


class TestGame:
    def test_game_without_test_is_harness_error(self):
        with pytest.raises(GameError):
            run_untraceability_game(lambda env: 0, TrialConfig("untraceability"))

    def test_distinguish_strategy_always_wins(self):
        config = TrialConfig("untraceability", seed=21)
        outcomes = [
            run_untraceability_game(distinguish_strategy, config, trial)
            for trial in range(100)
        ]
        assert all(o.success for o in outcomes)
        assert all(o.executes_used == 2 and o.sends_used == 1 for o in outcomes)
        assert summarize("untraceability", outcomes).advantage == 0.5

    def test_distinguish_without_send_budget_is_blind(self):
        config = TrialConfig("untraceability", send_budget=0, seed=22)
        outcomes = [
            run_untraceability_game(distinguish_strategy, config, trial)
            for trial in range(300)
        ]
        est = summarize("untraceability", outcomes)
        assert est.advantage < 0.1
        # without the block the fingerprint never matches: constant guess 1
        assert all(o.guess == 1 for o in outcomes)

    @pytest.mark.parametrize("seed, trial", [
        (0, 71), (1, 1902), (2, 201), (3, 757), (4, 397), (5, 1080), (6, 1894), (7, 291)])
    def test_twelve_bit_game_with_a_pseudonym_collision_is_played(self, seed, trial):
        # the first game of each seed at L=12 whose two tags draw one
        # pseudonym, or whose update lands on the other tag's pseudonym
        config = TrialConfig("untraceability", word_len=12, seed=seed)
        outcome = run_untraceability_game(distinguish_strategy, config, trial)
        assert (outcome.executes_used, outcome.sends_used) == (2, 1)

    @pytest.mark.parametrize("width, trials", [(4, 1000), (8, 2000)])
    def test_a_lost_game_has_coincident_pseudonyms(self, width, trials):
        # ROADMAP item 1: once the strategy has run, one of tag 0's two
        # pseudonyms is one of tag 1's in every lost game. Won games collide
        # too, so this is a necessary condition only. A collision through
        # tag 0's previous pseudonym alone follows a first session whose
        # update the reader declined, as it would land on tag 1's pseudonym.
        config = TrialConfig("untraceability", word_len=width, trials=trials)
        reports, _ = run_trials(config)
        collided = set()
        for trial in range(trials):
            env = GameEnvironment(config, derive_seed(config.seed, "game", trial))
            sessions, execute = [], env.execute
            env.execute = lambda tag: sessions.append(execute(tag)) or sessions[-1]
            distinguish_strategy(env)
            tag0, tag1 = env.tags
            theirs = {tag1.current.idt, tag1.previous.idt}
            if tag0.current.idt in theirs:
                collided.add(trial)
            elif tag0.previous.idt in theirs:
                collided.add(trial)
                assert sessions[0].outcome == Outcome.READER_REJECTED_TAG, trial
        lost = {trial for trial, report in enumerate(reports) if not report.success}
        assert lost <= collided, sorted(lost - collided)
        assert collided  # the check can see a collision

    @pytest.mark.parametrize("executes", [0, 1])
    def test_distinguish_with_fewer_than_two_executes_guesses_one(self, executes):
        config = TrialConfig("untraceability", execute_budget=executes, seed=26)
        outcomes = [run_untraceability_game(distinguish_strategy, config, t) for t in range(50)]
        assert all((o.guess, o.executes_used, o.sends_used) == (1, 0, 0) for o in outcomes)

    def test_random_guess_is_a_coin_flip(self):
        config = TrialConfig("untraceability", seed=23)
        outcomes = [
            run_untraceability_game(random_guess_strategy, config, trial)
            for trial in range(400)
        ]
        assert summarize("untraceability", outcomes).advantage < 0.1

    def test_null_strategy_advantage_regression(self):
        # resistance baseline: the null strategy must stay near zero
        # advantage at scale, pinned at 10^4 games below 0.02
        config = TrialConfig("untraceability", seed=0)
        outcomes = [
            run_untraceability_game(random_guess_strategy, config, trial)
            for trial in range(10_000)
        ]
        assert summarize("untraceability", outcomes).advantage < 0.02

    def test_config_word_len_validated(self):
        with pytest.raises(ValueError):
            TrialConfig("untraceability", word_len=10)

    def test_fresh_environment_per_game(self):
        config = TrialConfig("untraceability", seed=24)
        first = GameEnvironment(config, derive_seed(config.seed, "game", 0))
        second = GameEnvironment(config, derive_seed(config.seed, "game", 1))
        assert first.tags[0].current.idt != second.tags[0].current.idt

    def test_games_reproducible(self):
        config = TrialConfig("untraceability", seed=25)
        a = [run_untraceability_game(distinguish_strategy, config, t) for t in range(20)]
        b = [run_untraceability_game(distinguish_strategy, config, t) for t in range(20)]
        assert a == b


class TestAdvantage:
    def outcomes(self, successes, failures):
        good = [GameOutcome(0, 0, True, 2, 1)] * successes
        bad = [GameOutcome(0, 1, False, 2, 1)] * failures
        return good + bad

    def test_all_successes(self):
        assert summarize("untraceability", self.outcomes(100, 0)).advantage == 0.5

    def test_balanced(self):
        assert summarize("untraceability", self.outcomes(50, 50)).advantage == 0.0

    def test_arithmetic(self):
        est = summarize("untraceability", self.outcomes(750, 250))
        assert est.success_rate == 0.75
        assert est.advantage == 0.25
        assert est.wilson95_low < 0.75 < est.wilson95_high

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize("untraceability", [])

    def test_record_field_order(self):
        line = render_records("untraceability", [GameOutcome(1, 0, False, 2, 1)], 7, 128,
                              "json-lines")
        record = json.loads(line)
        assert list(record) == ["trial", "b", "d", "success", "executes", "sends"]
        assert record["trial"] == 7
        assert record["b"] == 1 and record["d"] == 0


def wilson_by_bisection(successes, trials, z=1.96):
    """Independent oracle: solve (p_hat - p)^2 = z^2 p (1 - p) / n by bisection."""
    p_hat = successes / trials

    def f(p):
        return (p_hat - p) ** 2 - z * z * p * (1 - p) / trials

    def bisect(lo, hi):
        for _ in range(200):
            mid = (lo + hi) / 2
            if f(mid) > 0:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2

    def bisect_down(lo, hi):
        for _ in range(200):
            mid = (lo + hi) / 2
            if f(mid) > 0:
                hi = mid
            else:
                lo = mid
        return (lo + hi) / 2

    low = 0.0 if f(0.0) <= 0 else bisect(0.0, p_hat)
    high = 1.0 if f(1.0) <= 0 else bisect_down(p_hat, 1.0)
    return low, high


class TestWilson:
    @pytest.mark.parametrize(
        "successes,trials",
        [(10, 10), (0, 10), (5, 10), (750, 1000), (1, 100), (99, 100)],
    )
    def test_matches_bisection_oracle(self, successes, trials):
        low, high = wilson_interval(successes, trials)
        olow, ohigh = wilson_by_bisection(successes, trials)
        assert low == pytest.approx(olow, abs=1e-9)
        assert high == pytest.approx(ohigh, abs=1e-9)

    def test_perfect_score_reference(self):
        low, high = wilson_interval(10, 10)
        assert 0.69 < low < 0.73
        assert high == 1.0

    def test_contains_point_estimate(self):
        for successes, trials in [(0, 7), (3, 9), (9, 9), (500, 1000)]:
            low, high = wilson_interval(successes, trials)
            assert low <= successes / trials <= high

    def test_needs_trials(self):
        with pytest.raises(ValueError):
            wilson_interval(0, 0)
