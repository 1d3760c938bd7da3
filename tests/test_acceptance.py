"""Acceptance suite: every headline claim at its stated tolerance.

One test per criterion; each prints a single PASS/FAIL line (visible
with pytest -s) and asserts. Counts and tolerances are pinned here and
must not be loosened:

  1. full disclosure exact: 1000/1000 at 128 bits, exhaustive at 8 bits
  2. traceability advantage 0.5 over 1000 games, send-less ablation < 0.05
  3. cloning 1000/1000 with the challenge cross-check passing
  4. MITM desync 1000/1000, irreversible across 3 follow-up sessions
  5. bit-flip desync: admission rate 0.50 +/- 0.02 over 10^4 rounds
     (exactly 11/12 at 4 bits, 19/32 at 8, 525/1024 at 12), search space
     C(L,2), 200/200 at 16 bits and 200/200 at 128 bits
     with the rotation closed form, rejected probes side-effect free
  6. XOR identities: 10^5 random words at 128 bits, exhaustive at 8
     bits, word ops equal the naive per-bit oracle exhaustively at 8
  7. protocol soundness: 10^4 honest sessions stay synchronized, a
     blocked C always recovers next session, 10^4/10^4 single-bit
     corruptions rejected
"""

import random
from fractions import Fraction

import pytest

import oracle_bits as oracle
from oracle_bitflip import bitflip_cost, bitflip_round_admits, weight2_words
from umarfid.adversary import run_untraceability_game
from umarfid.attacks import (
    Bench,
    attack_clone,
    attack_desync_bitflip,
    attack_desync_mitm,
    attack_full_disclosure,
    distinguish_strategy,
    random_weight2,
    recover_key,
    weight2_count,
)
from umarfid.harness import TrialConfig, run_trials, summarize
from umarfid.protocol import (
    MSG_A,
    MSG_B,
    MSG_C,
    Channel,
    Outcome,
    PairState,
    TagState,
    compute_a,
    compute_b,
    next_pair,
    run_honest_session,
    synchronized,
)
from umarfid.word import derive_seed, rot


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"{criterion}: {detail}"


def test_criterion_1_full_disclosure():
    # 1000 random instances, full simulator at 128 bits, zero tolerance
    reports, stats = run_trials(
        TrialConfig(experiment="full-disclosure", trials=1000, word_len=128, seed=0)
    )
    random_ok = stats.successes == 1000

    # exhaustive 8-bit sweep: every (key, nonce); truth from the per-bit oracle
    width = 8
    oracle_self_rot = [oracle.rot_bits(v, v, width) for v in range(256)]
    failures = 0
    for key in range(256):
        for nonce in range(256):
            a = compute_a(key, nonce)
            b = compute_b(key, nonce, width)
            idt_next = key ^ rot(nonce, nonce, width)
            recovered = recover_key(a, b, idt_next)
            truth = oracle.xor_bits(oracle_self_rot[key], nonce, width)
            if recovered != truth:
                failures += 1
    exhaustive_ok = failures == 0

    report(
        "criterion-1 full-disclosure",
        random_ok and exhaustive_ok,
        f"{stats.successes}/1000 random at L=128, "
        f"{65536 - failures}/65536 exhaustive at L=8",
    )


def test_criterion_2_traceability():
    config = TrialConfig("untraceability", word_len=128, execute_budget=2, send_budget=1, seed=0)
    outcomes = [
        run_untraceability_game(distinguish_strategy, config, trial)
        for trial in range(1000)
    ]
    est = summarize("untraceability", outcomes)
    full_ok = est.success_rate == 1.0 and est.advantage == 0.5

    ablation_config = TrialConfig(
        "untraceability", word_len=128, execute_budget=2, send_budget=0, seed=0)
    ablation = [
        run_untraceability_game(distinguish_strategy, ablation_config, trial)
        for trial in range(1000)
    ]
    ablation_adv = summarize("untraceability", ablation).advantage
    ablation_ok = ablation_adv < 0.05

    report(
        "criterion-2 traceability",
        full_ok and ablation_ok,
        f"Pr[d=b]={est.success_rate} advantage={est.advantage}, "
        f"ablation advantage={ablation_adv:.4f}",
    )


def test_criterion_3_cloning():
    reports, stats = run_trials(
        TrialConfig(experiment="clone", trials=1000, word_len=128, seed=0)
    )
    cross_check_clean = all(r.detail == "" for r in reports)
    report(
        "criterion-3 cloning",
        stats.successes == 1000 and cross_check_clean,
        f"{stats.successes}/1000 clones authenticated, "
        f"challenge cross-check clean={cross_check_clean}",
    )


def test_criterion_4_desync_mitm():
    reports, stats = run_trials(
        TrialConfig(experiment="desync-mitm", trials=1000, word_len=128, seed=0, followups=3)
    )
    irreversible = all(
        r.synchronized is False
        and r.followup_outcomes == ("identification-failed",) * 3
        for r in reports
    )
    report(
        "criterion-4 desync-mitm",
        stats.successes == 1000 and irreversible,
        f"{stats.successes}/1000 desynchronized, 3/3 follow-ups failed in every trial",
    )


def test_criterion_5_desync_bitflip():
    # (a) fraction of mask rounds admitting a valid second mask: 0.50 +/- 0.02
    rng = random.Random(505)
    rounds = 10_000
    admitted = sum(
        1
        for _ in range(rounds)
        if bitflip_round_admits(rng.getrandbits(128), random_weight2(rng, 128), 128)
    )
    fraction = admitted / rounds
    part_a = abs(fraction - 0.5) <= 0.02

    # (a) at small widths rotations coincide often: the exact rate over
    # every (nonce, mask) pair is well above one half
    small = {width: bitflip_cost(width).admission for width in (4, 8, 12)}
    part_a = part_a and small == {
        4: Fraction(11, 12), 8: Fraction(19, 32), 12: Fraction(525, 1024)}

    # (a) cross-check at 16 bits: the algebraic predicate agrees with a
    # full enumeration against a live tag
    probe_rng = random.Random(506)
    agree = True
    for _ in range(300):
        key, nonce = probe_rng.getrandbits(16), probe_rng.getrandbits(16)
        c1 = random_weight2(probe_rng, 16)
        a, b = compute_a(key, nonce), compute_b(key, nonce, 16)
        enumerated = False
        for c2 in weight2_words(16):
            tag = TagState.fresh(id=0, pair=PairState(idt=0, key=key), width=16)
            if tag.respond(False, a ^ c1, b ^ c2) is not None:
                enumerated = True
                break
        if enumerated != bitflip_round_admits(nonce, c1, 16):
            agree = False
            break
    part_a = part_a and agree

    # (b) per-round search space is exactly C(L, 2)
    part_b = (
        weight2_count(128) == 8128
        and weight2_count(16) == 120
        and len(list(weight2_words(16))) == 120
    )

    # (c) 200/200 attacks at 16 bits under the shipped default config;
    #     every accepted pair obeys
    #     b_mask = rotate(a_mask, weight(nonce xor a_mask)).
    #     Off-weight chance collisions are possible at small widths and
    #     are counted separately; this pinned run has none.
    def closed_form_holds(config, result, trial) -> bool:
        # twin bench rebuilt from the same derived seed replays the
        # captured session, exposing the ground-truth nonce
        twin = Bench(config.word_len, derive_seed(config.seed, config.experiment, trial))
        key_before = twin.tag.current.key
        nonce = twin.run_honest().a ^ key_before
        # rotation by the weight of nonce xor a_mask
        return result.b_mask == rot(result.a_mask, nonce ^ result.a_mask, config.word_len)

    config = TrialConfig(experiment="desync-bitflip", trials=200, word_len=16, seed=0)
    attack_reports, attack_stats = run_trials(config)
    collisions = sum(1 for r in attack_reports if r.success and not r.hw_matched)
    closed_form = all(
        closed_form_holds(config, result, trial)
        for trial, result in enumerate(attack_reports)
        if result.success
    )
    part_c = attack_stats.successes == 200 and closed_form and collisions == 0

    # (c) the same attack in full at 128 bits, 200/200; the closed form
    #     holds on every trial whose accepted round kept the nonce weight
    wide = TrialConfig(experiment="desync-bitflip", trials=200, word_len=128, seed=0)
    wide_reports, wide_stats = run_trials(wide)
    wide_matched = [
        (trial, result)
        for trial, result in enumerate(wide_reports)
        if result.hw_matched
    ]
    wide_closed_form = all(
        closed_form_holds(wide, result, trial) for trial, result in wide_matched
    )
    part_c = (
        part_c
        and wide_stats.successes == 200
        and wide_closed_form
        and len(wide_matched) > 0
    )

    # (d) rejected probes leave the tag bit-identical: sweep the entire
    #     mask space on a round that admits nothing
    bench = Bench(16, 42)
    captured = bench.run_honest()
    nonce = captured.a ^ bench.tag.previous.key
    pick = random.Random(43)
    c1 = random_weight2(pick, 16)
    while bitflip_round_admits(nonce, c1, 16):
        c1 = random_weight2(pick, 16)
    snapshot = (bench.tag.current, bench.tag.previous)
    untouched = True
    for c2 in weight2_words(16):
        bench.tag.present()
        bench.tag.present(use_previous=True)
        if bench.tag.respond(True, captured.a ^ c1, captured.b ^ c2) is not None:
            untouched = False
        if (bench.tag.current, bench.tag.previous) != snapshot:
            untouched = False
    part_d = untouched

    report(
        "criterion-5 desync-bitflip",
        part_a and part_b and part_c and part_d,
        f"admission={fraction:.4f} (target 0.50+/-0.02; exactly {small[4]} at L=4, "
        f"{small[8]} at L=8, {small[12]} at L=12), spaces 8128/120, "
        f"{attack_stats.successes}/200 attacks at L=16 closed_form={closed_form} "
        f"off-weight collisions={collisions}, "
        f"{wide_stats.successes}/200 attacks at L=128 closed_form={wide_closed_form} "
        f"on {len(wide_matched)} weight-matched trials, "
        f"rejected probes side-effect free={part_d}",
    )


def test_criterion_6_identities():
    # 10^5 random instances at 128 bits
    rng = random.Random(606)
    random_failures = 0
    for _ in range(100_000):
        key, nonce = rng.getrandbits(128), rng.getrandbits(128)
        updated = next_pair(PairState(idt=key, key=key), nonce, 128)
        a, b = compute_a(key, nonce), compute_b(key, nonce, 128)
        if a ^ b ^ updated.idt != updated.key:
            random_failures += 1
        if b ^ updated.idt != rot(key, key, 128) ^ key:
            random_failures += 1
    random_ok = random_failures == 0

    # exhaustive at 8 bits
    width = 8
    self_rot = [rot(v, v, width) for v in range(256)]
    exhaustive_failures = 0
    for key in range(256):
        key_const = self_rot[key] ^ key
        for nonce in range(256):
            a = key ^ nonce
            b = self_rot[key] ^ self_rot[nonce]
            idt_next = key ^ self_rot[nonce]
            key_next = self_rot[key] ^ nonce
            if a ^ b ^ idt_next != key_next:
                exhaustive_failures += 1
            if b ^ idt_next != key_const:
                exhaustive_failures += 1
    exhaustive_ok = exhaustive_failures == 0

    # word ops equal the naive per-bit oracle, exhaustive at 8 bits
    oracle_ok = True
    for v in range(256):
        if v.bit_count() != oracle.weight_bits(v, width):
            oracle_ok = False
        for n in range(width + 1):
            # rotation by n positions: rot by a word of weight n
            if rot(v, (1 << n) - 1, width) != oracle.rotl_bits(v, n, width):
                oracle_ok = False
    for a_val in range(256):
        for b_val in range(256):
            if rot(a_val, b_val, width) != oracle.rot_bits(a_val, b_val, width):
                oracle_ok = False
                break
        if not oracle_ok:
            break

    report(
        "criterion-6 identities",
        random_ok and exhaustive_ok and oracle_ok,
        f"10^5 random at L=128 failures={random_failures}, "
        f"exhaustive L=8 failures={exhaustive_failures}, "
        f"oracle equivalence={oracle_ok}",
    )


def test_criterion_7_protocol_soundness():
    # 10^4 honest sessions keep tag and database in lockstep
    bench = Bench(128, 707)
    sync_failures = 0
    for _ in range(10_000):
        t = bench.run_honest()
        if t.outcome != Outcome.MUTUAL_SUCCESS or not bench.synchronized():
            sync_failures += 1
    honest_ok = sync_failures == 0

    # a single blocked C is always recovered by the next honest session
    bench = Bench(128, 708)
    recovery_failures = 0
    for _ in range(2000):
        channel = Channel()
        channel.block(bench.session, MSG_C)
        blocked = bench.run_honest(channel)
        recovery = bench.run_honest()
        if not (
            blocked.outcome == Outcome.BLOCKED
            and recovery.outcome == Outcome.MUTUAL_SUCCESS
            and len(recovery.presented_idts) == 2
            and bench.synchronized()
        ):
            recovery_failures += 1
    recovery_ok = recovery_failures == 0

    # single-bit corruption of A, B or C is rejected every time
    bench = Bench(128, 709)
    position = random.Random(710)
    rejected = 0
    trials = 10_000
    expected = {
        MSG_A: Outcome.TAG_REJECTED_READER,
        MSG_B: Outcome.TAG_REJECTED_READER,
        MSG_C: Outcome.READER_REJECTED_TAG,
    }
    labels = [MSG_A, MSG_B, MSG_C]
    for i in range(trials):
        label = labels[i % 3]
        channel = Channel()
        channel.flip(bench.session, label, 1 << position.randrange(128))
        t = bench.run_honest(channel)
        if t.outcome == expected[label] and bench.synchronized():
            rejected += 1
    corruption_ok = rejected == trials

    report(
        "criterion-7 protocol-soundness",
        honest_ok and recovery_ok and corruption_ok,
        f"10^4 honest sessions synchronized (failures={sync_failures}), "
        f"2000/2000 blocked-C recoveries, {rejected}/{trials} corruptions rejected",
    )
