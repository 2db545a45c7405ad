"""End-to-end protocol runs, information-rate accounting, spin extension.

The protocol sends one particle of the fixed start state after a local
encoding; the receiver's Bell-state measurement recovers one of 4N^2
messages, i.e. 2*log2(2N) bits per sent particle; `round_trip` is that round
trip for `run` and `sweep` alike.  Rates divide those bits by the decoding
gate time under a common-time model and are compared against two
multi-qubit reference schemes.  The spin extension multiplies the channel by
an independent (2S+1)-level factor; its round trip is the plain one times
exact overlaps of the d^2 Weyl-encoded spin pair states, all signed
permutations.  Only the extended state's own checks stay dense.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bell import BellLabel, bell_state, message_to_label
from .decoder import (
    Decoder,
    build_decode_table,
    certify_grand,
    grand_messages,
    make_decoder,
)
from .errors import ArgOutOfRange, MessageOutOfRange, NonDeterministicOutcome
from .encoder import encode_direct
from .hadamard import HadamardMatrix
from .hilbert import (
    SignedPermutationOp,
    StateVector,
    TOL_CHAINED,
    apply,
    compose_perms,
    phi_plus_overlap,
)

__all__ = [
    "TimingModel",
    "capacity_bits",
    "start_state",
    "send",
    "check_message",
    "round_trip",
    "round_trip_message",
    "run_protocol",
    "round_trip_sweep",
    "rate_spatial",
    "rate_spatial_asymptotic",
    "rate_pairwise",
    "rate_maximal",
    "advantage",
    "spin_dim",
    "spin_capacity",
    "spin_base_state",
    "spin_extended_state",
    "spin_state_report",
    "run_protocol_spin",
    "spin_message_count",
]


@dataclass(frozen=True)
class TimingModel:
    """Gate operation times: two-qubit, Hadamard, controlled swap, mixer."""

    t_c: float
    t_h: float
    t_p: float
    t_u: float

    @classmethod
    def equal_time(cls, N: int, t: float = 1.0) -> "TimingModel":
        """Common-unit model: t_c = t_h = t_p/4 = t_u/N = t."""
        return cls(t_c=t, t_h=t, t_p=4.0 * t, t_u=N * t)


def capacity_bits(N: int) -> float:
    """Bits per sent particle: log2 of the 4N^2 distinguishable messages."""
    return 2.0 * math.log2(2 * N)


# The shared resource state's label: family (1, -1), member 1.
START = BellLabel(1, -1, 1)


def start_state(N: int, H: HadamardMatrix) -> StateVector:
    """The shared resource state: family (1, -1), member 1."""
    return bell_state(N, START, H)


def send(N: int, H: HadamardMatrix, start: StateVector, message: int) -> StateVector:
    """The start state after the sender encodes `message` on their particle."""
    check_message(N, message)
    return apply(encode_direct(N, H, message_to_label(message, N)), 0, start)


def check_message(N: int, message: int) -> None:
    """Refuse a message id outside 0..4N^2-1 (MessageOutOfRange)."""
    if not 0 <= message < 4 * N * N:
        raise MessageOutOfRange(f"message {message} outside 0..{4 * N * N - 1}")


def round_trip(N: int, H: HadamardMatrix, decoder: Decoder, messages) -> tuple[np.ndarray, ...]:
    """Outcome (first·2N + second), top probability and decoded message id of
    each message's sent state; a spread state (top probability below
    1 - TOL_CHAINED) decodes to -1.

    On the grand route every sent state is certified by one operator row and
    mapped to a message id in one pass; only a state that fails, or maps to
    another message, is decoded on the amplitude route, as is every pipeline
    state.  Their outcomes map through the decode table, which the grand
    route builds only for such a state that is not spread.
    """
    messages = np.asarray(messages, dtype=np.intp)
    if decoder.path == "grand":
        outcomes, probs = certify_grand(decoder, H, messages, encode_direct(N, H, START))
        got, table = grand_messages(decoder, outcomes), None
        redo = np.flatnonzero((probs < 1.0 - TOL_CHAINED) | (got != messages))
    else:  # every state is decoded, so the table, which may refuse the route, comes first
        table, redo = build_decode_table(N, H, decoder), np.arange(len(messages))
        outcomes, probs, got = np.empty_like(messages), np.empty(len(messages)), np.empty_like(messages)
    if redo.size:
        start = start_state(N, H)
        for i in redo.tolist():
            top, _ = decoder.decode(send(N, H, start, int(messages[i])))
            outcomes[i], probs[i] = top.first * 2 * N + top.second, top.probability
    spread = probs < 1.0 - TOL_CHAINED
    redo = redo[~spread[redo]]
    if redo.size:
        table = build_decode_table(N, H, decoder) if table is None else table
        got[redo] = table[outcomes[redo]]
    got[spread] = -1
    return outcomes, probs, got


def round_trip_message(
    N: int, H: HadamardMatrix, message: int, path: str = "grand", HN: HadamardMatrix | None = None
) -> tuple[int, float, int]:
    """`round_trip` of one message on a fresh route: (outcome, probability,
    decoded id).  The message is range-checked before anything is built, and
    a spread state raises NonDeterministicOutcome."""
    check_message(N, message)
    (outcome,), (probability,), (decoded,) = round_trip(N, H, make_decoder(N, H, path, HN), [message])
    if decoded < 0:
        raise NonDeterministicOutcome(
            f"{path} decoder spread the sent state over multiple outcomes "
            f"(top probability {probability:.6f})"
        )
    return int(outcome), float(probability), int(decoded)


def run_protocol(
    N: int, H: HadamardMatrix, message: int, path: str = "grand", HN: HadamardMatrix | None = None
) -> int:
    """Encode a message on the start state, decode it, return what came out."""
    return round_trip_message(N, H, message, path, HN)[2]


def round_trip_sweep(
    N: int, H: HadamardMatrix, path: str = "grand", HN: HadamardMatrix | None = None
) -> dict:
    """`round_trip` of every one of the 4N^2 messages.  A spread state
    decodes to no message (`"decoded": null`), as `run` refuses it."""
    messages = np.arange(4 * N * N)
    got = round_trip(N, H, make_decoder(N, H, path, HN), messages)[2]
    failed = np.flatnonzero(got != messages)  # only the failures become Python ints
    failures = [
        {"sent": m, "decoded": None if d < 0 else d}
        for m, d in zip(failed.tolist(), got[failed].tolist())
    ]
    return {
        "n": N,
        "path": path,
        "messages_total": 4 * N * N,
        "checked": len(messages),
        "round_trip_ok": len(messages) - len(failures),
        "failures": failures,
    }


def rate_spatial(N: int, tm: TimingModel) -> float:
    """Bits per unit time per sent particle: 2*log2(2N) / (t_p + t_h + t_u)."""
    return capacity_bits(N) / (tm.t_p + tm.t_h + tm.t_u)


def rate_spatial_asymptotic(N: int, t: float = 1.0) -> float:
    """Large-N simplification 2*log2(2N) / (N t); reported alongside, never
    silently substituted for the exact form."""
    return capacity_bits(N) / (N * t)


def rate_pairwise(NN: int, tm: TimingModel) -> float:
    """Reference scheme with NN pairwise entangled qubits: 2NN / (NN^2 (t_c + t_h))."""
    if NN < 1:
        raise ArgOutOfRange(f"need at least one qubit pair, got {NN}")
    return 2.0 * NN / (NN * NN * (tm.t_c + tm.t_h))


def rate_maximal(NN: int, tm: TimingModel) -> float:
    """Reference scheme with NN maximally entangled qubits:
    NN / ((NN - 1) * ((NN - 1) t_c + t_h)).  Undefined below NN = 2."""
    if NN < 2:
        raise ArgOutOfRange(f"maximally entangled rate needs NN >= 2, got {NN}")
    return NN / ((NN - 1) * ((NN - 1) * tm.t_c + tm.t_h))


def advantage(N: int, t: float = 1.0) -> float:
    """Spatial-versus-pairwise rate ratio at equal Hilbert space dimensions.

    Under the common-time model this reduces to 2 N log2(2N) / (N + 5), which
    grows logarithmically beyond the reference schemes.
    """
    tm = TimingModel.equal_time(N, t)
    return rate_spatial(N, tm) / rate_pairwise(N, tm)


# ---------------------------------------------------------------------------
# spin extension


# The most entries a spin route may allocate in its largest array (64 MiB of
# complex128); a larger spin is refused before anything is allocated.
MAX_SPIN_ENTRIES = 1 << 22


def spin_dim(S: float) -> int:
    """Levels d = 2S + 1 of spin S, refusing an S that is not a half-integer >= 0."""
    d2 = 2 * S
    if not math.isfinite(d2) or d2 < 0 or abs(d2 - round(d2)) > 1e-9:
        raise ArgOutOfRange(f"spin must be a nonnegative half-integer, got {S}")
    return int(round(d2)) + 1


def _check_spin_size(S: float, entries: int, array: str) -> None:
    if entries > MAX_SPIN_ENTRIES:
        raise ArgOutOfRange(
            f"spin {S} is too large: {array} would hold {entries} entries "
            f"(at most {MAX_SPIN_ENTRIES})"
        )


def spin_capacity(N: int, S: float) -> float:
    """Bits per particle with the spin factor included: 2*log2(2N(2S+1))."""
    return 2.0 * math.log2(2 * N * spin_dim(S))


def spin_message_count(N: int, S: float) -> int:
    d = spin_dim(S)
    return 4 * N * N * d * d


def _spin_pair(d: int, sign: int) -> SignedPermutationOp:
    """V of the spin pair state (V x I)|Phi+>: |i> -> sign^(d-1-i) |d-1-i>."""
    flipped = d - 1 - np.arange(d)
    return SignedPermutationOp._trusted(d, flipped, float(sign) ** flipped)


def _weyl_table(d: int) -> SignedPermutationOp:
    """The d^2 Weyl operators shift^a clock^b as one stack, at row a*d + b:
    |i> -> exp(2 pi i b i / d) |i + a mod d>."""
    i = np.arange(d)
    target = np.repeat((i[:, None] + i) % d, d, axis=0)  # row a*d + b holds row a
    phase = np.tile(np.exp(2j * np.pi * np.outer(i, i) / d), (d, 1))  # and row b
    return SignedPermutationOp._trusted(d, target, phase)


def spin_base_state(S: float, sign: int = +1) -> StateVector:
    """Zero-total-spin pair state: sum_s sign^s |S-s, -(S-s)> / sqrt(2S+1).

    Spin values are indexed in descending order (+S first), so opposite
    values pair across the anti-diagonal.  Both sign variants are normalized
    and maximally entangled; the choice does not affect capacity.
    """
    if sign not in (+1, -1):
        raise ArgOutOfRange(f"sign must be +1 or -1, got {sign}")
    d = spin_dim(S)
    _check_spin_size(S, d * d, "the pair state")
    return StateVector((d, d), np.asarray(_spin_pair(d, sign)).reshape(-1) / np.sqrt(d))


def spin_extended_state(
    N: int, S: float, H: HadamardMatrix, sign: int = +1
) -> StateVector:
    """Product of the position start state and the spin pair state, reordered
    to one (position x spin) factor per particle."""
    d = spin_dim(S)
    _check_spin_size(S, (2 * N * d) ** 2, "the extended state")
    pos = start_state(N, H).grid()
    spin = spin_base_state(S, sign).grid()
    combined = np.einsum("ab,cd->acbd", pos, spin)
    dim = 2 * N * d
    return StateVector((dim, dim), combined.reshape(dim * dim))


def spin_state_report(N: int, S: float, H: HadamardMatrix, sign: int = +1) -> dict:
    """Construction checks for the spin-extended state at desk scale.

    Verifies normalization, exact position (x) spin factorization (rank of
    the pair-pair rearrangement), maximal entanglement of the reduced state,
    and the Schmidt rank across the two-party cut.
    """
    state = spin_extended_state(N, S, H, sign)
    d = spin_dim(S)
    dim = 2 * N * d

    grid = state.grid()
    rho = grid @ grid.conj().T
    reduced_dev = float(np.max(np.abs(rho - np.eye(dim) / dim)))
    schmidt = int(np.linalg.matrix_rank(grid, tol=1e-9))

    # rank of amplitudes rearranged as (position pair) x (spin pair)
    rearranged = (
        state.amp.reshape(2 * N, d, 2 * N, d)
        .transpose(0, 2, 1, 3)
        .reshape(4 * N * N, d * d)
    )
    factor_rank = int(np.linalg.matrix_rank(rearranged, tol=1e-9))

    return {
        "n": N,
        "spin": S,
        "spin_dim": d,
        "sign_variant": sign,
        "capacity_bits": spin_capacity(N, S),
        "norm_deviation": abs(state.norm() - 1.0),
        "product_rank": factor_rank,
        "factorizes": factor_rank == 1,
        "reduced_density_deviation": reduced_dev,
        "schmidt_rank": schmidt,
        "schmidt_rank_expected": dim,
    }


def run_protocol_spin(
    N: int,
    S: float,
    message: int,
    H: HadamardMatrix,
    sign: int = +1,
) -> int:
    """Round trip in the combined position (x) spin channel.

    The message splits into a position part and a spin part (shift a, clock
    b).  The pair state is (position pair) x (spin pair) and the measurement
    is a product basis, so the two outcomes are independent: the position
    part is `run_protocol`'s round trip, which refuses a spread state, and
    the spin part is read by exact overlaps of the sent state with the d^2
    spin Bell states (shift^a clock^b V x I)|Phi+>, all signed permutations.
    A spin whose top probability is below 1 - TOL_CHAINED raises
    NonDeterministicOutcome.  Only the grand position path is used.
    """
    d = spin_dim(S)
    total = spin_message_count(N, S)
    if not 0 <= message < total:
        raise MessageOutOfRange(f"message {message} outside 0..{total - 1}")
    _check_spin_size(S, d**3, "the Weyl table")
    m_pos, m_spin = divmod(message, d * d)
    basis = compose_perms(_weyl_table(d), _spin_pair(d, sign))
    probs = np.abs(phi_plus_overlap(basis, basis[m_spin])) ** 2
    spin = int(np.argmax(probs))
    if probs[spin] < 1.0 - TOL_CHAINED:
        raise NonDeterministicOutcome(
            f"spin measurement spread the sent state over multiple outcomes "
            f"(top probability {probs[spin]:.6f})"
        )
    return run_protocol(N, H, m_pos) * d * d + spin
