"""Literal per-mask bit-flip attack, kept as an oracle for the batch sweep.

One TagState.respond call per weight-2 B-mask, in the fixed (lo, hi)
order, exactly as a rogue reader would send them over the air. Slow on
purpose: about 8128 probes per mask round at L=128. It uses only the
single-probe tag interface, never TagState.respond_sweep or the closed
form mask index, so it checks the sweep rather than sharing its code.
"""

from umarfid.attacks import AttackReport, random_weight2, weight2_words
from umarfid.protocol import Outcome


def literal_desync_bitflip(bench, c1_round_cap=64, followups=3) -> AttackReport:
    key_before = bench.tag.current.key  # ground truth snapshot
    captured = bench.run_honest()
    if captured.outcome is not Outcome.MUTUAL_SUCCESS:
        return AttackReport(attack="desync-bitflip", success=False, detail="observation failed")
    nonce_truth = captured.a ^ key_before

    width = bench.word_len
    tag = bench.tag
    c1_rounds = 0
    c2_trials = 0
    accepted = None

    while accepted is None and c1_rounds < c1_round_cap:
        c1_rounds += 1
        a_mask = random_weight2(bench.adv_rng, width)
        forged_a = captured.a ^ a_mask
        for b_mask in weight2_words(width):
            c2_trials += 1
            tag.present()
            replayed = tag.present(use_previous=True)
            if replayed != captured.presented_idts[0]:
                return AttackReport(
                    attack="desync-bitflip",
                    success=False,
                    c1_rounds=c1_rounds,
                    c2_trials=c2_trials,
                    detail="tag no longer holds the captured pair",
                )
            state_before = (tag.current, tag.previous)
            c = tag.respond(True, forged_a, captured.b ^ b_mask)
            if c is None:
                if (tag.current, tag.previous) != state_before:
                    raise RuntimeError("tag state changed on a rejected probe")
                continue
            accepted = (a_mask, b_mask)
            break

    if accepted is None:
        return AttackReport(
            attack="desync-bitflip",
            success=False,
            c1_rounds=c1_rounds,
            c2_trials=c2_trials,
            detail=f"no accepting mask within {c1_round_cap} rounds",
        )

    a_mask, b_mask = accepted
    hw_matched = (nonce_truth ^ a_mask).bit_count() == nonce_truth.bit_count()
    still_synchronized = bench.synchronized()
    outcomes = bench.followup_outcomes(followups)
    return AttackReport(
        attack="desync-bitflip",
        success=not still_synchronized and str(Outcome.MUTUAL_SUCCESS) not in outcomes,
        c1_rounds=c1_rounds,
        c2_trials=c2_trials,
        a_mask=a_mask,
        b_mask=b_mask,
        hw_matched=hw_matched,
        synchronized=still_synchronized,
        followup_outcomes=outcomes,
    )
