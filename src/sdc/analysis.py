"""End-to-end protocol runs, information-rate accounting, spin extension.

The protocol sends one particle of the fixed start state after a local
encoding; the receiver's Bell-state measurement recovers one of 4N^2
messages, i.e. 2*log2(2N) bits per sent particle.  Rates divide those bits by
the decoding gate time under a common-time model and are compared against two
multi-qubit reference schemes.  The spin extension multiplies the channel by
an independent (2S+1)-level factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bell import BellLabel, bell_state, encoder_table, message_to_label
from .decoder import (
    Decoder,
    MeasurementOutcome,
    build_decode_table,
    certify_grand,
    flip_start,
    grand_messages,
    make_decoder,
)
from .errors import ArgOutOfRange, MessageOutOfRange, NonDeterministicOutcome
from .encoder import encode_direct
from .hadamard import HadamardMatrix
from .hilbert import StateVector, TOL_CHAINED, apply

__all__ = [
    "TimingModel",
    "capacity_bits",
    "start_state",
    "send",
    "run_protocol",
    "decode_message",
    "round_trip_sweep",
    "rate_spatial",
    "rate_spatial_asymptotic",
    "rate_pairwise",
    "rate_maximal",
    "advantage",
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
    if not 0 <= message < 4 * N * N:
        raise MessageOutOfRange(f"message {message} outside 0..{4 * N * N - 1}")
    return apply(encode_direct(N, H, message_to_label(message, N)), 0, start)


def run_protocol(
    N: int,
    H: HadamardMatrix,
    message: int,
    path: str = "grand",
    HN: HadamardMatrix | None = None,
) -> int:
    """Encode a message on the start state, decode it, return what came out."""
    sent = send(N, H, start_state(N, H), message)
    return decode_message(N, H, make_decoder(N, H, path, HN), sent)[1]


def decode_message(
    N: int, H: HadamardMatrix, decoder: Decoder, sent: StateVector
) -> tuple[MeasurementOutcome, int]:
    """Measure a sent state: (top outcome, message id it decodes to).

    The grand route maps its outcome through the held rows (`grand_messages`)
    and checks only this state's own top probability, raising
    NonDeterministicOutcome below 1 - TOL_CHAINED; the other labels are not
    tabulated.  The pipeline route looks the outcome up in its decode table.
    """
    top, _ = decoder.decode(sent)
    if decoder.path != "grand":
        return top, int(build_decode_table(N, H, decoder)[top.first * 2 * N + top.second])
    if top.probability < 1.0 - TOL_CHAINED:
        raise NonDeterministicOutcome(
            f"grand decoder spread the sent state over multiple outcomes "
            f"(top probability {top.probability:.6f})"
        )
    return top, int(grand_messages(decoder, top.first * 2 * N + top.second))


def _certify_sent(N: int, H: HadamardMatrix, decoder, messages) -> tuple[np.ndarray, np.ndarray]:
    """`certify_grand` of each message's sent state: its outcome and probability.

    Message (k, r, j) is sent as encode_direct(k, r, j) composed on the start
    encoder, which is the standard Bell state (k, -r, j).
    """
    start = encode_direct(N, H, START)

    def sent(chunk):
        targets, phases = encoder_table(N, H, chunk)
        bell = flip_start(chunk, 2 * N)
        return targets[:, start.target], start.phase * phases[:, start.target], bell

    return certify_grand(decoder, np.asarray(messages, dtype=np.intp), sent)


def round_trip_sweep(
    N: int,
    H: HadamardMatrix,
    path: str = "grand",
    HN: HadamardMatrix | None = None,
) -> dict:
    """Round-trip every one of the 4N^2 messages.

    On the grand route every sent state is certified by one operator row
    and its outcome mapped to a message id in one pass; only a state that
    fails, or maps to another message, is decoded on the amplitude route,
    which also decodes every state of the pipeline; their outcomes map
    through the decode table, built only when such a state exists.
    """
    decoder = make_decoder(N, H, path, HN)
    messages = np.arange(4 * N * N)
    got = np.empty_like(messages)
    redo = np.ones(len(messages), dtype=bool)
    if path == "grand":
        flat, probs = _certify_sent(N, H, decoder, messages)
        got = grand_messages(decoder, flat)
        redo = (probs < 1.0 - TOL_CHAINED) | (got != messages)
    if redo.any():
        table, start = build_decode_table(N, H, decoder), start_state(N, H)
        for m in np.flatnonzero(redo).tolist():
            top, _ = decoder.decode(send(N, H, start, m))
            got[m] = table[top.first * 2 * N + top.second]
    failures = [{"sent": m, "decoded": d} for m, d in enumerate(got.tolist()) if d != m]
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


def _spin_dim(S: float) -> int:
    d2 = 2 * S
    if not math.isfinite(d2) or d2 < 0 or abs(d2 - round(d2)) > 1e-9:
        raise ArgOutOfRange(f"spin must be a nonnegative half-integer, got {S}")
    return int(round(d2)) + 1


def spin_capacity(N: int, S: float) -> float:
    """Bits per particle with the spin factor included: 2*log2(2N(2S+1))."""
    return 2.0 * math.log2(2 * N * _spin_dim(S))


def spin_message_count(N: int, S: float) -> int:
    d = _spin_dim(S)
    return 4 * N * N * d * d


def spin_base_state(S: float, sign: int = +1) -> StateVector:
    """Zero-total-spin pair state: sum_s sign^s |S-s, -(S-s)> / sqrt(2S+1).

    Spin values are indexed in descending order (+S first), so opposite
    values pair across the anti-diagonal.  Both sign variants are normalized
    and maximally entangled; the choice does not affect capacity.
    """
    if sign not in (+1, -1):
        raise ArgOutOfRange(f"sign must be +1 or -1, got {sign}")
    d = _spin_dim(S)
    grid = np.zeros((d, d), dtype=np.complex128)
    for s in range(d):
        grid[s, d - 1 - s] = float(sign) ** s
    return StateVector((d, d), grid.reshape(-1) / np.sqrt(d))


def spin_extended_state(
    N: int, S: float, H: HadamardMatrix, sign: int = +1
) -> StateVector:
    """Product of the position start state and the spin pair state, reordered
    to one (position x spin) factor per particle."""
    pos = start_state(N, H).grid()
    spin = spin_base_state(S, sign).grid()
    d = spin.shape[0]
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
    d = _spin_dim(S)
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


def _weyl_shift(d: int) -> np.ndarray:
    m = np.zeros((d, d), dtype=np.complex128)
    for i in range(d):
        m[(i + 1) % d, i] = 1.0
    return m


def _weyl_clock(d: int) -> np.ndarray:
    omega = np.exp(2j * np.pi / d)
    return np.diag(omega ** np.arange(d))


def _spin_bell_matrix(S: float, sign: int) -> np.ndarray:
    """Rows: the d^2 spin Bell states (shift^a clock^b x I) applied to the base
    pair state, in (a, b) order."""
    d = _spin_dim(S)
    base = spin_base_state(S, sign)
    shift, clock = _weyl_shift(d), _weyl_clock(d)
    rows = []
    for a in range(d):
        for b in range(d):
            op = np.linalg.matrix_power(shift, a) @ np.linalg.matrix_power(clock, b)
            rows.append(apply(op, 0, base).amp)
    return np.array(rows)


def run_protocol_spin(
    N: int,
    S: float,
    message: int,
    H: HadamardMatrix,
    sign: int = +1,
) -> int:
    """Round trip in the combined position (x) spin channel.

    The message splits into a position part and a spin part.  The position
    part is encoded and measured exactly as in the plain protocol; the spin
    part rides an independent qudit dense-coding channel using shift/clock
    encodings of the spin pair state.  Only the grand position path is used.
    """
    d = _spin_dim(S)
    total = spin_message_count(N, S)
    if not 0 <= message < total:
        raise MessageOutOfRange(f"message {message} outside 0..{total - 1}")
    if d == 1:
        return run_protocol(N, H, message)

    m_pos, m_spin = divmod(message, d * d)
    a, b = divmod(m_spin, d)

    pos_label = message_to_label(m_pos, N)
    pos_op = np.asarray(encode_direct(N, H, pos_label))
    shift, clock = _weyl_shift(d), _weyl_clock(d)
    spin_op = np.linalg.matrix_power(shift, a) @ np.linalg.matrix_power(clock, b)

    state = spin_extended_state(N, S, H, sign)
    encoded = apply(np.kron(pos_op, spin_op), 0, state)

    # factor the pair state into (position pair) x (spin pair) axes; each
    # spin-pair column is a position state that the grand route rotates
    pos_vecs = encoded.amp.reshape(2 * N, d, 2 * N, d).transpose(0, 2, 1, 3)
    pos_vecs = pos_vecs.reshape(4 * N * N, d * d)
    decoder = make_decoder(N, H)
    pos_dims = (2 * N, 2 * N)
    rotated = np.column_stack(
        [decoder.rotate(StateVector(pos_dims, col)).amp for col in pos_vecs.T]
    )

    # spin side: project onto the spin Bell basis
    spin_basis = _spin_bell_matrix(S, sign)
    joint = rotated @ spin_basis.conj().T  # (position outcome, spin label)

    probs = (np.abs(joint) ** 2).reshape(-1)
    flat = int(np.argmax(probs))
    pos_flat, spin_label = divmod(flat, d * d)

    return int(grand_messages(decoder, pos_flat)) * d * d + spin_label
