import inspect
import itertools
import json
import math
import random
import types
from fractions import Fraction
from statistics import NormalDist

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle_bitflip import (
    bitflip_cost,
    bitflip_round_admits,
    bitflip_weight_cost,
    literal_desync_bitflip,
    required_b_mask,
    weight2_words,
)
from state_words import stored_words
from umarfid import attacks, cli
from umarfid.attacks import (
    AttackReport,
    Bench,
    attack_clone,
    attack_desync_bitflip,
    attack_desync_mitm,
    attack_full_disclosure,
    distinguish_strategy,
    random_weight2,
    recover_key,
    weight2_count,
    weight2_index,
)
from umarfid.harness import TrialConfig, render_records, run_trials
from umarfid.protocol import (
    MSG_C,
    DatabaseEntry,
    Outcome,
    PairState,
    ReaderState,
    TagState,
    compute_a,
    compute_b,
    compute_c,
    run_honest_session,
)
from umarfid.word import derive_seed, rot, stream, to_hex

words16 = st.integers(0, 2**16 - 1)



def attack_record(report, trial, width):
    """An attack report's record as the CLI writes it, parsed from json-lines
    (every attack experiment renders its reports alike)."""
    return json.loads(render_records("clone", [report], trial, width, "json-lines"))

class TestRecoverKey:
    def test_worked_example(self):
        # session words frozen from the per-bit oracle: K=0xc5, N=0x36
        assert recover_key(0xF3, 0x3F, 0xA6) == 0x6A

    def test_all_zero_instance(self):
        assert recover_key(0, 0, 0) == 0

    @given(k=words16, n=words16)
    def test_telescopes_to_updated_key(self, k, n):
        a = compute_a(k, n)
        b = compute_b(k, n, 16)
        idt_next = k ^ rot(n, n, 16)
        assert recover_key(a, b, idt_next) == rot(k, k, 16) ^ n

    def test_exact_over_every_case_at_4_bits(self):
        # every (IDT, K, N1, N2): two honest sessions both succeed, and the
        # three public words give the key the tag holds after the first
        for idt, key, n1, n2 in itertools.product(range(16), repeat=4):
            reader = ReaderState(4)
            reader.register(DatabaseEntry(idt=idt, key=key, id=0))
            tag = TagState.fresh(id=0, pair=PairState(idt=idt, key=key), width=4)
            drawn = iter((n1, n2))  # the reader's nonce stream
            nonces = types.SimpleNamespace(getrandbits=lambda width: next(drawn))
            first = run_honest_session(reader, tag, nonces)
            true_key = tag.current.key
            second = run_honest_session(reader, tag, nonces, session=1)
            assert (first.outcome, second.outcome) == (Outcome.MUTUAL_SUCCESS,) * 2
            assert recover_key(first.a, first.b, second.presented_idts[0]) == true_key

    @pytest.mark.parametrize("word_len", [8, 16, 128])
    def test_exact_on_live_systems(self, word_len):
        for seed in range(40):
            report = attack_full_disclosure(Bench(word_len, seed))
            assert report.success
            assert report.recovered_key is not None


class TestClone:
    def test_clone_authenticates(self):
        for seed in range(60):
            bench = Bench(128, seed)
            report = attack_clone(bench)
            assert report.success
            assert report.cloned_pair is not None

    def test_nonce_recovery_is_exact(self):
        bench = Bench(128, 5)
        bench.run_honest()
        true_key = bench.tag.current.key
        report = attack_clone(Bench(128, 5))
        assert report.recovered_key == true_key

    def test_corrupted_observation_detected(self):
        # tamper with the second session's B: the cross-check must catch it
        bench = Bench(128, 9)
        first = bench.run_honest()
        second = bench.run_honest()
        key = recover_key(first.a, first.b, second.presented_idts[0])
        nonce = key ^ second.a
        assert compute_b(key, nonce, 128) == second.b
        assert compute_b(key, nonce, 128) != second.b ^ 1

    def test_report_record_shape(self):
        report = attack_clone(Bench(128, 3))
        record = attack_record(report, trial=4, width=128)
        assert record["trial"] == 4
        assert record["attack"] == "clone"
        assert record["cloned_idt"] == to_hex(report.cloned_pair.idt, 128)
        assert record["cloned_key"] == to_hex(report.cloned_pair.key, 128)
        assert len(record["cloned_key"]) == 32
        assert record["c1_rounds"] is None


class TestDesyncMitm:
    def test_desync_and_irreversibility(self):
        for seed in range(60):
            report = attack_desync_mitm(Bench(128, seed))
            assert report.success
            assert report.synchronized is False
            assert report.followup_outcomes == ("identification-failed",) * 3

    def test_longer_followup_window(self):
        report = attack_desync_mitm(Bench(128, 77), followups=6)
        assert report.success
        assert len(report.followup_outcomes) == 6

    @pytest.mark.parametrize("attack", [attack_desync_mitm, attack_desync_bitflip])
    def test_followups_default_is_the_trial_config_default(self, attack):
        default = inspect.signature(attack).parameters["followups"].default
        assert default == TrialConfig._field_defaults["followups"]

    def test_both_tag_pairs_differ_from_entry(self):
        bench = Bench(128, 13)
        report = attack_desync_mitm(bench)
        assert report.success
        entries = list(bench.reader.entries.values())
        assert len(entries) == 1
        entry_pair = PairState(entries[0].idt, entries[0].key)
        assert bench.tag.current != entry_pair
        assert bench.tag.previous != entry_pair

    def test_degenerate_equal_nonces_do_not_desync(self):
        # forwarding the genuine challenge unchanged updates both sides alike
        bench = Bench(128, 21)
        first = bench.run_honest()
        idt = bench.tag.current.idt
        key = recover_key(first.a, first.b, idt)
        a, b = bench.reader.begin(idt, bench.nonce_rng)
        nonce = key ^ a
        c = bench.tag.respond(False, a, b)
        assert c == compute_c(key, nonce, 128)
        assert bench.reader.complete(c) is True
        assert bench.synchronized()


class TestAttacksOnADesynchronizedTag:
    """Every attack first eavesdrops an honest session; on a tag the reader
    no longer knows that session fails, and the attack reports it."""

    @pytest.mark.parametrize("attack", [
        attack_full_disclosure, attack_clone, attack_desync_mitm, attack_desync_bitflip])
    def test_observation_failed_is_reported(self, attack):
        bench = Bench(128, 5)
        assert attack_desync_mitm(bench).success
        report = attack(bench)
        assert not report.success
        assert report.detail == "observation failed"
        assert not bench.synchronized()

    def test_a_rejected_sweep_that_changes_the_tag_is_a_bug(self, monkeypatch):
        def sweep_that_moves_the_tag(tag, a, b, index_of):
            tag.current = tag.current._replace(key=tag.current.key ^ 1)

        monkeypatch.setattr(TagState, "respond_sweep", sweep_that_moves_the_tag)
        with pytest.raises(RuntimeError, match="^tag state changed on a rejected probe$"):
            attack_desync_bitflip(Bench(16, 3))


def foreign_key_bench(seed, key, n_tags=1):
    """A 4-bit bench whose first tag keeps its pseudonym under another key
    than the reader's, so eavesdropped sessions succeed only by coincidence."""
    bench = Bench(4, seed, n_tags)
    assert bench.reader.entries[bench.tag.current.idt].key != key
    bench.tag.current = bench.tag.previous = PairState(bench.tag.current.idt, key)
    return bench


def hooked(bench, block_c=None, move_tag_after=None):
    """bench whose run_honest blocks C of session block_c and, once session
    move_tag_after ran, flips a bit of the tag's key; sessions count from 0
    and their outcomes are kept in bench.outcomes."""
    honest, bench.outcomes = bench.run_honest, []

    def run_honest(rules=None, tag=None):
        n = len(bench.outcomes)
        transcript = honest({MSG_C: None} if n == block_c else rules, tag)
        if n == move_tag_after:
            bench.tag.current = bench.tag.current._replace(key=bench.tag.current.key ^ 1)
        bench.outcomes.append(transcript.outcome)
        return transcript

    bench.run_honest = run_honest
    return bench


class TestEveryTermOfTheVerdict:
    """Each term of an attack's success or failure test decides some trial:
    one observed session fails, or one ground truth moves, and the others
    hold."""

    @pytest.mark.parametrize("attack", [attack_full_disclosure, attack_clone])
    @pytest.mark.parametrize("blocked", [0, 1], ids=["first", "second"])
    def test_one_failed_observation_is_a_failed_observation(self, attack, blocked):
        # the tag commits when it sends C, so a key recovered across a blocked
        # C is still its live key; the attack must not claim it
        bench = hooked(Bench(128, 5), block_c=blocked)
        report = attack(bench)
        succeeded = [outcome == Outcome.MUTUAL_SUCCESS for outcome in bench.outcomes]
        assert succeeded == [n != blocked for n in (0, 1)]
        assert (report.success, report.detail) == (False, "observation failed")

    def test_a_clone_whose_pair_differs_from_the_tag_fails(self):
        # the tag moves on after the second session; the clone still
        # authenticates, since the reader holds the pair it cloned
        bench = hooked(Bench(128, 5), move_tag_after=1)
        report = attack_clone(bench)
        assert report.cloned_pair != bench.tag.current
        assert bench.outcomes == [Outcome.MUTUAL_SUCCESS] * 3
        assert (report.success, report.detail) == (False, "")

    def test_a_clone_that_does_not_authenticate_fails(self):
        # the pair matches the tag's, but C of the verification session is blocked
        bench = hooked(Bench(128, 5), block_c=2)
        report = attack_clone(bench)
        assert report.cloned_pair == bench.tag.current
        assert bench.outcomes[:2] == [Outcome.MUTUAL_SUCCESS] * 2
        assert bench.outcomes[2] != Outcome.MUTUAL_SUCCESS
        assert (report.success, report.detail) == (False, "")


class TestForeignKeyReturns:
    """The early returns that honest benches never reach: the seeds were
    found by a search over foreign_key_bench."""

    def test_clone_cross_check(self):
        report = attack_clone(foreign_key_bench(336, 1))
        assert report == AttackReport(
            attack="clone", success=False, recovered_key=5, recovered_nonce=11,
            detail="challenge cross-check failed, observation corrupted")

    def test_mitm_lookup_miss(self):
        report = attack_desync_mitm(foreign_key_bench(0, 0))
        assert report == AttackReport(
            attack="desync-mitm", success=False, detail="reader lookup miss")

    def test_mitm_cross_check(self):
        # with one tag a lookup hit means both sides derived the same
        # pseudonym, and then the recovered key is the reader's; here the
        # lookup lands on the second tag's entry
        report = attack_desync_mitm(foreign_key_bench(16, 1, n_tags=2))
        assert report == AttackReport(
            attack="desync-mitm", success=False, recovered_key=5,
            detail="challenge cross-check failed, observation corrupted")

    def test_mitm_exchange_refused(self):
        # no pair is shared and nothing re-authenticates, but the split
        # session itself was refused, so the desync is not the attack's
        report = attack_desync_mitm(foreign_key_bench(164, 7, n_tags=2))
        assert report == AttackReport(
            attack="desync-mitm", success=False, recovered_key=2, recovered_nonce=0,
            synchronized=False,
            followup_outcomes=("tag-rejected-reader", "tag-rejected-reader",
                               "reader-rejected-tag"))


class TestWeight2Machinery:
    def test_count_formula(self):
        assert weight2_count(16) == 120
        assert weight2_count(128) == 8128

    def test_enumeration_is_complete_and_ordered(self):
        words = list(weight2_words(8))
        assert len(words) == weight2_count(8)
        assert len(set(words)) == len(words)
        assert all(w.bit_count() == 2 for w in words)
        # ordered by (lower set bit, upper set bit)
        assert words[:8] == [3, 5, 9, 17, 33, 65, 129, 6]

    @pytest.mark.parametrize("width", [2, 3, 8, 16, 128])
    def test_index_is_the_enumeration_position(self, width):
        words = list(weight2_words(width))
        assert [weight2_index(w, width) for w in words] == list(range(len(words)))

    @pytest.mark.parametrize("value", [0, 1, 0x80, 0x07, 0xFF])
    def test_index_rejects_other_weights(self, value):
        assert weight2_index(value, 8) is None

    def test_random_weight2(self):
        rng = random.Random(3)
        for _ in range(100):
            assert random_weight2(rng, 16).bit_count() == 2

    @given(n=words16)
    def test_required_mask_is_what_the_tag_accepts(self, n):
        key = 0x9C3A
        c1 = 0b1010
        a = compute_a(key, n)
        b = compute_b(key, n, 16)
        tag = TagState.fresh(id=0, pair=PairState(idt=0, key=key), width=16)
        mask = required_b_mask(n, c1, 16)
        assert tag.respond(False, a ^ c1, b ^ mask) is not None

    @given(n=words16, wrong=st.integers(0, 119))
    def test_only_the_required_mask_is_accepted(self, n, wrong):
        key = 0x5E71
        c1 = 0b0110
        mask = required_b_mask(n, c1, 16)
        candidate = list(weight2_words(16))[wrong]
        if candidate == mask:
            return
        a = compute_a(key, n)
        b = compute_b(key, n, 16)
        tag = TagState.fresh(id=0, pair=PairState(idt=0, key=key), width=16)
        assert tag.respond(False, a ^ c1, b ^ candidate) is None

    def test_admission_iff_weight_preserved_or_collision(self):
        rng = random.Random(8)
        collisions = 0
        for _ in range(3000):
            n = rng.getrandbits(16)
            c1 = random_weight2(rng, 16)
            admits = bitflip_round_admits(n, c1, 16)
            weights_match = (n ^ c1).bit_count() == n.bit_count()
            if weights_match:
                assert admits  # equal weights always admit the rotated mask
            elif admits:
                collisions += 1  # rare: off-weight mask lands on weight 2
        assert collisions < 30

    def test_closed_form_when_weights_match(self):
        rng = random.Random(12)
        checked = 0
        while checked < 500:
            n = rng.getrandbits(16)
            c1 = random_weight2(rng, 16)
            altered = n ^ c1
            if altered.bit_count() != n.bit_count():
                continue
            checked += 1
            # the required mask is c1 rotated by the weight of N xor c1
            assert required_b_mask(n, c1, 16) == rot(c1, altered, 16)


class TestDesyncBitflip:
    def test_succeeds_and_desynchronizes(self):
        for seed in range(25):
            bench = Bench(16, seed)
            report = attack_desync_bitflip(bench)
            assert report.success
            assert report.synchronized is False
            assert report.followup_outcomes == ("identification-failed",) * 3
            assert report.a_mask.bit_count() == 2
            assert report.b_mask.bit_count() == 2

    def test_attempt_accounting(self):
        report = attack_desync_bitflip(Bench(16, 4))
        space = weight2_count(16)
        assert 1 <= report.c2_trials <= report.c1_rounds * space
        assert report.c2_trials > (report.c1_rounds - 1) * space

    def test_accepted_masks_satisfy_rotation_equation(self):
        for seed in range(25):
            bench = Bench(16, seed)
            key_before = bench.tag.current.key
            report = attack_desync_bitflip(bench)
            assert report.success
            # reconstruct the captured session on a twin bench (same seed)
            twin = Bench(16, seed)
            captured = twin.run_honest()
            nonce = captured.a ^ key_before
            if report.hw_matched:
                shifted_by = nonce ^ report.a_mask  # rotate by its weight
                assert report.b_mask == rot(report.a_mask, shifted_by, 16)

    def test_tag_updates_from_previous_pair(self):
        bench = Bench(16, 2)
        report = attack_desync_bitflip(bench, followups=0)
        assert report.success
        # twin bench replays only the captured session: post-capture state
        twin = Bench(16, 2)
        twin.run_honest()
        # the burnt pair stays 'previous'; the reader never saw the attack
        assert bench.tag.previous == twin.tag.previous
        (twin_entry,), (entry,) = twin.reader.entries.values(), bench.reader.entries.values()
        assert PairState(entry.idt, entry.key) == PairState(twin_entry.idt, twin_entry.key)
        # but the tag recomputed 'current' under the masked nonce
        assert bench.tag.current != twin.tag.current

    def test_failed_probes_leave_tag_state_identical(self):
        bench = Bench(16, 6)
        captured = bench.run_honest()
        tag = bench.tag
        # pick a round that admits no valid mask, then probe the whole space
        key_used = tag.previous.key
        nonce = captured.a ^ key_used
        rng = random.Random(100)
        c1 = random_weight2(rng, 16)
        while bitflip_round_admits(nonce, c1, 16):
            c1 = random_weight2(rng, 16)
        snapshot = (tag.current, tag.previous)
        for c2 in weight2_words(16):
            assert tag.respond(True, captured.a ^ c1, captured.b ^ c2) is None
            assert (tag.current, tag.previous) == snapshot

    def test_rejected_sweep_leaves_tag_state_bit_identical(self):
        bench = Bench(16, 6)
        captured = bench.run_honest()
        tag = bench.tag
        nonce = captured.a ^ tag.previous.key
        rng = random.Random(100)
        c1 = random_weight2(rng, 16)
        while bitflip_round_admits(nonce, c1, 16):
            c1 = random_weight2(rng, 16)
        snapshot = stored_words(tag)
        hit = tag.respond_sweep(captured.a ^ c1, captured.b, lambda m: weight2_index(m, 16))
        assert hit is None
        assert stored_words(tag) == snapshot

    def test_sweep_hit_equals_the_literal_probe(self):
        bench = Bench(16, 6)
        captured = bench.run_honest()
        nonce = captured.a ^ bench.tag.previous.key
        rng = random.Random(101)
        c1 = random_weight2(rng, 16)
        while not bitflip_round_admits(nonce, c1, 16):
            c1 = random_weight2(rng, 16)
        twin = Bench(16, 6)
        twin.run_honest()
        index, answered, c = bench.tag.respond_sweep(
            captured.a ^ c1, captured.b, lambda m: weight2_index(m, 16))
        mask = required_b_mask(nonce, c1, 16)
        assert answered == mask
        assert index == weight2_index(mask, 16)
        assert c == twin.tag.respond(True, captured.a ^ c1, captured.b ^ mask)
        assert stored_words(bench.tag) == stored_words(twin.tag)

    def test_round_cap_reports_failure(self, monkeypatch):
        monkeypatch.setattr(attacks, "C1_ROUND_CAP", 0)
        report = attack_desync_bitflip(Bench(16, 7))
        assert not report.success
        assert report.c1_rounds == 0
        assert "no accepting mask" in report.detail

    def test_reproducible_given_seed(self):
        a = attack_desync_bitflip(Bench(16, 11))
        b = attack_desync_bitflip(Bench(16, 11))
        assert attack_record(a, 0, 16) == attack_record(b, 0, 16)


def _after_blocked_c(bench):
    """One honest session whose C is blocked: the tag moves on, the reader
    does not, so the next session authenticates under the previous pseudonym."""
    bench.run_honest({MSG_C: None})
    return bench


class TestBitflipAgainstLiteralOracle:
    """The one-evaluation sweep reproduces the per-mask probe loop."""

    @pytest.mark.parametrize(
        "width, seeds, cap",
        [(16, 500, 64), (128, 50, 64), (8, 500, 64), (16, 200, 1), (16, 20, 0)],
    )
    def test_records_identical(self, monkeypatch, width, seeds, cap):
        monkeypatch.setattr(attacks, "C1_ROUND_CAP", cap)
        for seed in range(seeds):
            sweep = attack_desync_bitflip(Bench(width, seed))
            literal = literal_desync_bitflip(Bench(width, seed), c1_round_cap=cap)
            assert attack_record(sweep, seed, width) == attack_record(literal, seed, width)

    def test_final_state_identical(self):
        for seed in range(50):
            sweep, literal = Bench(16, seed), Bench(16, seed)
            attack_desync_bitflip(sweep, followups=0)
            literal_desync_bitflip(literal, followups=0)
            assert stored_words(sweep.tag) == stored_words(literal.tag)
            assert [stored_words(e) for e in sweep.reader.entries.values()] == [
                stored_words(e) for e in literal.reader.entries.values()
            ]

    @pytest.mark.parametrize("width, seeds", [(16, 40), (128, 3)])
    def test_capture_that_needed_the_fallback(self, width, seeds):
        # the captured session authenticated under the tag's previous
        # pseudonym, the last one it presented, and that pair's key
        for seed in range(seeds):
            bench = _after_blocked_c(Bench(width, seed))
            assert bench.run_honest().presented_idts[1:]  # the fallback is exercised
            sweep = attack_desync_bitflip(_after_blocked_c(Bench(width, seed)))
            literal = literal_desync_bitflip(_after_blocked_c(Bench(width, seed)))
            assert attack_record(sweep, seed, width) == attack_record(literal, seed, width)
            assert sweep.success, sweep.detail
            assert sweep.hw_matched


class TestBitflipExhaustive:
    def test_direct_simulation_exhaustive_over_nonces(self):
        """Every 16-bit nonce, one fixed key and A-mask: the tag accepts the
        predicted B-mask, and the weight-matched closed form holds."""
        width = 16
        key = 0xB4D1
        c1 = (1 << 3) | (1 << 9)
        matched = 0
        for n in range(2**width):
            a = compute_a(key, n)
            b = compute_b(key, n, width)
            mask = required_b_mask(n, c1, width)
            tag = TagState.fresh(id=0, pair=PairState(idt=0, key=key), width=width)
            assert tag.respond(False, a ^ c1, b ^ mask) is not None
            altered = n ^ c1
            if altered.bit_count() == n.bit_count():
                matched += 1
                assert mask == rot(c1, altered, width)
        # two flipped positions, one set and one clear: half of all nonces
        assert matched == pytest.approx(2**width / 2, rel=0.02)

    @pytest.mark.parametrize("width, admitted", [(4, Fraction(11, 12)), (8, Fraction(19, 32))])
    def test_admission_rate_over_every_nonce_and_mask(self, width, admitted):
        """A round admits a B-mask "about half" the time only at large
        widths: at small ones, rotations by two different weights often
        still differ in exactly two bits. Keeping the nonce's weight is
        exactly half of all (N, mask_a) pairs at every width."""
        rounds = [(n, c1) for n in range(2**width) for c1 in weight2_words(width)]
        admits = sum(bitflip_round_admits(n, c1, width) for n, c1 in rounds)
        matched = sum((n ^ c1).bit_count() == n.bit_count() for n, c1 in rounds)
        assert Fraction(admits, len(rounds)) == admitted
        assert Fraction(matched, len(rounds)) == Fraction(1, 2)
        assert bitflip_cost(width).admission == admitted


class TestBitflipCost:
    """The exact cost model of tests/oracle_bitflip.py against seed-0 runs.

    Rounds are not plain geometric: the captured nonce is fixed for the
    whole trial, so E[c1_rounds] is E_N[1/p(N)], not 1/E[p]."""

    @pytest.mark.parametrize("width, c1_mean, c2_mean, cap_chance", [
        (4, Fraction(11, 10), Fraction(41, 10), 1e-17),
        (8, 1.716779, 34.58392, 1e-17),
        # the worst 12-bit nonce admits 7/22 of rounds: (15/22)**64 ~ 2.3e-11
        (12, 1.978418, 98.07981, 3e-11),
    ])
    def test_exact_means(self, width, c1_mean, c2_mean, cap_chance):
        cost = bitflip_cost(width)
        assert cost.c1_mean == pytest.approx(c1_mean, abs=1e-6)
        assert cost.c2_mean == pytest.approx(c2_mean, abs=1e-5)
        # no nonce leaves a round without an answer, and the model ignores
        # the attack's 64-round cap, which a trial reaches this rarely
        assert cost.min_admission > 0
        assert (1 - cost.min_admission) ** 64 < cap_chance

    @pytest.mark.parametrize("width", [8, 12])
    def test_weight_class_model_premise(self, width):
        # over every (N, A-mask) pair: a mask that keeps the nonce's weight w
        # is answered at the mask rotated left by w, and any other mask is
        # answered only for a nonce of the set bitflip_weight_cost ignores
        def rotl(x, k):
            k %= width
            return ((x << k) | (x >> (width - k))) & ((1 << width) - 1)

        ignored = {n for n in range(1 << width) if (n ^ rotl(n, 2)).bit_count() <= 4}
        assert len(ignored) <= 4 * (1 + math.comb(width, 2) + math.comb(width, 4))
        for nonce in range(1 << width):
            w = nonce.bit_count()
            for a_mask in weight2_words(width):
                required = required_b_mask(nonce, a_mask, width)
                if (nonce ^ a_mask).bit_count() == w:
                    assert required == rotl(a_mask, w)
                elif required.bit_count() == 2:
                    assert nonce in ignored

    def test_weight_class_means_at_128(self):
        cost, ignored = bitflip_weight_cost(128)
        assert cost.admission == Fraction(1, 2)
        assert cost.c1_mean == pytest.approx(2.000254, abs=1e-6)
        assert cost.c2_mean == pytest.approx(12194.57, abs=1e-2)
        # what the model leaves out moves neither mean by 1e-12
        assert ignored * 64 * weight2_count(128) < 1e-12

    @pytest.mark.parametrize("width, trials", [(4, 1000), (8, 3000), (12, 3000), (128, 2000)])
    def test_run_lies_in_the_exact_interval(self, width, trials):
        cost = bitflip_cost(width) if width <= 12 else bitflip_weight_cost(width)[0]
        reports, stats = run_trials(
            TrialConfig("desync-bitflip", word_len=width, trials=trials, seed=0))
        z = NormalDist().inv_cdf(0.9995)  # two-sided 99.9%
        c1_mean = sum(r.c1_rounds for r in reports) / trials
        assert abs(c1_mean - cost.c1_mean) <= z * math.sqrt(cost.c1_var / trials)
        assert all(r.c2_trials is not None for r in reports)
        assert abs(stats.attempts_mean - cost.c2_mean) <= z * math.sqrt(cost.c2_var / trials)


class TestDesyncSuccessPredicate:
    """A desync succeeds when no pair is shared and nothing re-authenticates,
    whichever way the follow-up sessions fail."""

    @pytest.mark.parametrize(
        "attack, experiment, trial",
        [
            (attack_desync_mitm, "desync-mitm", 188),
            (attack_desync_bitflip, "desync-bitflip", 270),
        ],
    )
    def test_small_width_desync_with_rejected_followups(self, attack, experiment, trial):
        # seed-0 trials at L=8 whose follow-ups present a pseudonym the
        # reader knows under a different key, so the tag rejects the challenge
        report = attack(Bench(8, derive_seed(0, experiment, trial)))
        assert report.synchronized is False
        assert "tag-rejected-reader" in report.followup_outcomes
        assert "mutual-success" not in report.followup_outcomes
        assert report.success

    @pytest.mark.parametrize(
        "experiment, still_synchronized, resynced",
        [("desync-mitm", 29, 11), ("desync-bitflip", 2, 12)],
    )
    def test_every_record_follows_the_rule(self, capsys, experiment, still_synchronized, resynced):
        # seed-0 runs at L=4 hold failures of both kinds; each record's
        # success is the rule applied to its own fields
        code = cli.main(["attack", experiment, "--bits", "4", "--trials", "1000",
                         "--format", "json-lines"])
        records = [json.loads(line) for line in capsys.readouterr().out.splitlines()][:-1]
        assert code == 1
        assert len(records) == 1000
        for record in records:
            followups = (record["followups"] or "").split(";")
            rule = record["synchronized"] is False and "mutual-success" not in followups
            assert record["success"] == rule, record
        failed = [r for r in records if not r["success"]]
        assert sum(r["synchronized"] is True for r in failed) == still_synchronized
        assert sum(r["synchronized"] is False for r in failed) == resynced


class TestTraceabilityAttack:
    def test_strategy_wins_every_game(self):
        from umarfid.adversary import run_untraceability_game
        from umarfid.harness import TrialConfig

        config = TrialConfig("untraceability", seed=31)
        outcomes = [run_untraceability_game(distinguish_strategy, config, t) for t in range(50)]
        assert all(o.success for o in outcomes)


class TestReportSerialization:
    def test_none_fields_serialize_empty(self):
        report = AttackReport(attack="x", success=False, detail="boom")
        record = attack_record(report, trial=0, width=128)
        assert record["recovered_key"] is None
        assert record["followups"] is None
        assert record["detail"] == "boom"

    def test_followups_joined(self):
        report = AttackReport(
            attack="x", success=True, followup_outcomes=("a", "b")
        )
        assert attack_record(report, 0, 128)["followups"] == "a;b"


class TestLazyAdversaryStream:
    """Bench.adv_rng is seeded on first use; attacks that never draw from
    it never derive its seed."""

    @pytest.mark.parametrize("attack", [attack_clone, attack_full_disclosure])
    def test_unused_stream_never_built(self, attack):
        bench = Bench(128, 42)
        assert attack(bench).success
        assert "adv_rng" not in vars(bench)

    @pytest.mark.parametrize("width", [8, 128])
    def test_stream_matches_eager_seeding(self, width):
        bench = Bench(width, 42)
        eager = stream(42, "adv")
        assert [bench.adv_rng.getrandbits(width) for _ in range(5)] == [
            eager.getrandbits(width) for _ in range(5)
        ]
        assert "adv_rng" in vars(bench)  # later accesses reuse the stream
        assert bench.adv_rng.getrandbits(width) == eager.getrandbits(width)
