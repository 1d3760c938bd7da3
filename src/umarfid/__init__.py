"""Simulator and attack suite for the UMA-RFID mutual-authentication protocol."""

from .adversary import (
    GameEnvironment,
    GameOutcome,
    random_guess_strategy,
    run_untraceability_game,
)
from .attacks import (
    AttackReport,
    attack_clone,
    attack_desync_bitflip,
    attack_desync_mitm,
    attack_full_disclosure,
    distinguish_strategy,
    recover_key,
)
from .harness import SummaryStats, TrialConfig, run_trials, summarize
from .protocol import (
    Bench,
    Channel,
    DatabaseEntry,
    Outcome,
    PairState,
    ReaderState,
    SessionTranscript,
    TagState,
    compute_a,
    compute_b,
    compute_c,
    fresh_system,
    next_pair,
    run_honest_session,
    synchronized,
)
from .word import DEFAULT_WORD_LEN, check_width, derive_seed, rot, stream, to_hex

__version__ = "0.1.0"
