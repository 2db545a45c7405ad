"""Receiver-side measurement: grand operator, gate pipeline, outcome tables.

The grand operator rotates the compact Bell basis onto distinct two-particle
product kets, so a plain position readout finishes the Bell-state
measurement.  It is the authoritative decoder: one normalized Hadamard
block on each compact family's support, held by `grand_blocks` as that
block and the index blocks of the compact pairing
(`bell.compact_partner_table`), and read back by `certify_grand`.  The gate
pipeline (controlled swap, per-channel Hadamards, nonlocal mixer) is the
proposed realization; its determinism and its agreement with the grand
route are measured and reported, never assumed.

`make_decoder` is the one place a route is chosen: it builds that route's
operators once and returns a `Decoder` that applies them in order.  Tables,
reports, protocol runs and the command line all take or build one `Decoder`.
`bell_outcomes` is a route's one Bell-state measurement.  On the grand route
it checks stacked signed-permutation states against one operator row each
(`certify_grand`), bit-identical to the amplitude route (`Decoder.decode`),
which stays the oracle and decodes arbitrary states and the pipeline's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bell import (
    all_labels,
    bell_state,
    compact_partner_table,
    encoder_table,
    first_particle_interleave,
)
from .errors import (
    CollisionDetected,
    ConfigError,
    DimensionMismatch,
    NonDeterministicOutcome,
    NonInvolutory,
    OrderMismatch,
)
from .gates import hadamard_layer, nonlocal_mixer, position_controlled_swap
from .hadamard import HadamardMatrix
from .hilbert import TOL_CHAINED, TOL_EXACT, PermutedBlockOp, StateVector, apply, apply_full

__all__ = [
    "MeasurementOutcome",
    "Decoder",
    "grand_blocks",
    "make_decoder",
    "outcome_distribution",
    "certify_grand",
    "bell_outcomes",
    "flip_start",
    "grand_messages",
    "build_decode_table",
    "pipeline_report",
]

# States certified per vectorized pass: bounds the (chunk x 2N) index arrays.
CERTIFY_CHUNK = 256


@dataclass(frozen=True)
class MeasurementOutcome:
    """Single position readout: basis indices of both particles and its weight."""

    first: int
    second: int
    probability: float


def grand_blocks(N: int, H: HadamardMatrix) -> PermutedBlockOp:
    """Unitary involution mapping each compact basis state to a product ket.

    The compact state (k, r, j) has amplitudes h[j, m] / sqrt(2N) at
    |m, partner(m)> and goes to the output ket |j, partner(j)>, so family f's
    support rows[f, m] = m·2N + partner[f, m] (0-based) is rotated onto itself
    by the one block H / sqrt(2N).  Distinct families' partners disagree at
    every point, so the rows partition the product basis (checked here) and
    the operator is unitary; it is self-inverse because H is symmetric and
    squares to 2N·I in integers (`HadamardMatrix` checks both).
    """
    if H.order != 2 * N:
        raise OrderMismatch(f"need order {2 * N}, got {H.order}")
    dim = 2 * N
    partner = compact_partner_table(N)
    # every column of the table must list each partner once
    clash = np.flatnonzero((np.sort(partner, axis=0) != np.arange(dim)[:, None]).any(axis=0))
    if clash.size:
        raise NonInvolutory(f"partner maps collide at first label {clash[0] + 1}")
    return PermutedBlockOp(np.arange(dim) * dim + partner, H.normalized)


def _moduli(s: StateVector) -> np.ndarray:
    """|amplitude| of each basis state, refusing any above 1 (a normalized state
    has none) before a square or a sum of them could overflow."""
    mags = np.abs(s.amp)
    if not mags.max() <= 1.0 + 1e-9:  # also rejects NaN
        raise DimensionMismatch(
            f"input state is not normalized (an amplitude has modulus {mags.max():.3e})"
        )
    return mags


def outcome_distribution(s: StateVector) -> list[MeasurementOutcome]:
    """Position readout distribution of a two-particle state, indices ascending.

    Zero-probability outcomes are dropped; the kept probabilities are checked
    to sum to 1 (measurement completeness).
    """
    if len(s.dims) != 2:
        raise DimensionMismatch(f"need a two-particle state, got dims {s.dims}")
    d0, d1 = s.dims
    probs = _moduli(s) ** 2
    total = float(probs.sum())
    if not abs(total - 1.0) <= 1e-9:
        raise DimensionMismatch(f"input state is not normalized (sum p = {total})")
    return [
        MeasurementOutcome(*divmod(int(flat), d1), float(probs[flat]))
        for flat in np.flatnonzero(probs > TOL_EXACT)
    ]


@dataclass(frozen=True)
class Decoder:
    """One measurement route, built once: its operators in the order applied.

    Each stage is (operator, subsystem); subsystem None means the operator
    acts on the whole two-particle space.
    """

    path: str
    stages: tuple[tuple[object, int | None], ...]

    def rotate(self, s: StateVector) -> StateVector:
        """The state just before the position readout."""
        for op, subsystem in self.stages:
            s = apply_full(op, s) if subsystem is None else apply(op, subsystem, s)
        return s

    def decode(self, s: StateVector) -> tuple[MeasurementOutcome, list[MeasurementOutcome]]:
        """Measure `s` on this route; returns (top outcome, full distribution)."""
        _moduli(s)  # before the rotation, whose sums an oversized amplitude could overflow
        dist = outcome_distribution(self.rotate(s))
        # the first most likely outcome in index order
        return max(dist, key=lambda o: o.probability), dist


def make_decoder(
    N: int, H: HadamardMatrix, path: str = "grand", HN: HadamardMatrix | None = None
) -> Decoder:
    """Build the operators of one measurement route.

    grand: carry the state into the compact basis by the verified local
    relabeling (interleave the first particle's half-axes, identity on the
    second), then rotate by the grand operator.  pipeline: controlled swap on
    the pair, the full Hadamard layer on the first particle, then the
    nonlocal mixer on both; `HN` is the order-N matrix the mixer draws its
    rows from.
    """
    if path == "grand":
        return Decoder(path, ((first_particle_interleave(N), 0), (grand_blocks(N, H), None)))
    if path == "pipeline":
        if HN is None:
            raise ConfigError("the pipeline route needs the order-N matrix HN for its mixer")
        return Decoder(
            path,
            (
                (position_controlled_swap(N), None),
                (hadamard_layer(N), 0),
                (nonlocal_mixer(N, HN), None),
            ),
        )
    raise ConfigError(f"path must be grand or pipeline, got {path}")


def certify_grand(decoder: Decoder, messages: np.ndarray, stack) -> tuple[np.ndarray, np.ndarray]:
    """Outcome and probability of stacked signed-permutation states on the grand route.

    `stack(chunk)` returns (targets, phases, bell) for a slice of `messages`,
    at most CERTIFY_CHUNK long: state s is sum_i phases[s, i] |targets[s, i], i>
    over sqrt(2N), claimed to be the standard Bell state with message id
    bell[s].  Each state is carried through the decoder's interleave by index
    arithmetic.  Bell state (k, r, j) lands on output row rows[(k, r), j-1],
    and that one row of the held operator, read at the state's 2N nonzeros,
    gives its amplitude there.  Returns the predicted outcomes (flat index
    first·2N + second) and their probabilities.  The state is normalized and
    the operator unitary, so a probability of at least 1 - TOL_CHAINED
    certifies a point mass.  The terms are added left to right as they come:
    a certified state's 2N terms are equal, so every order rounds alike, and
    for every certified state the probability is `Decoder.decode`'s, bit for bit.

    Entries are read through the inverse of the held rows: a term in column
    c counts only if c lies in the state's own family block, with weight
    block[j-1, position of c].  A term elsewhere reads as 0, so a corrupted
    permutation or block fails certification rather than passing it.
    """
    (interleave, _), (gop, _) = decoder.stages
    dim = interleave.dim
    # inverting the rows names each column's family block and position in it
    col_family, col_pos = np.divmod(np.argsort(gop.rows, axis=None), dim)
    outcomes = np.empty(len(messages), dtype=np.intp)
    probs = np.empty(len(messages))
    for lo in range(0, len(messages), CERTIFY_CHUNK):
        chunk = slice(lo, lo + CERTIFY_CHUNK)
        targets, phases, bell = stack(messages[chunk])
        cols = interleave.target[targets] * dim + np.arange(dim)  # after the interleave
        amps = phases * interleave.phase[targets] / np.sqrt(dim)
        family, member = np.divmod(bell, dim)
        hit = col_family[cols] == family[:, None]
        weights = np.where(hit, gop.block[member[:, None], col_pos[cols]], 0)
        outcomes[chunk] = gop.rows[family, member]
        probs[chunk] = np.abs(np.cumsum(weights * amps, axis=1)[:, -1]) ** 2
    return outcomes, probs


def bell_outcomes(N: int, H: HadamardMatrix, decoder: Decoder) -> tuple[np.ndarray, np.ndarray]:
    """Flat outcome (first·2N + second) and top probability of every standard
    Bell state on the decoder's route, in message order.

    The grand route certifies each state by one operator row
    (`certify_grand`); the pipeline is not monomial, so each of its states is
    decoded in full.
    """
    if decoder.path == "grand":
        return certify_grand(
            decoder, np.arange(4 * N * N), lambda chunk: (*encoder_table(N, H, chunk), chunk)
        )
    tops = [decoder.decode(bell_state(N, lab, H))[0] for lab in all_labels(N)]
    outcomes = np.array([top.first * 2 * N + top.second for top in tops], dtype=np.intp)
    return outcomes, np.array([top.probability for top in tops])


def flip_start(ids: np.ndarray, dim: int) -> np.ndarray:
    """Message ids with r flipped, (k, r, j) -> (k, -r, j): encoding (k, r, j)
    on the start family (1, -1) lands on the Bell state (k, -r, j), so the flip
    maps a sent message to its Bell state and a measured Bell state back."""
    family, member = np.divmod(ids, dim)
    return (family ^ 1) * dim + member


def grand_messages(decoder: Decoder, outcomes: np.ndarray) -> np.ndarray:
    """Message ids of flat grand-route outcomes, in one pass: the inverse of
    the held rows names the measured Bell state, and `flip_start` undoes the
    start family's sign flip."""
    gop = decoder.stages[-1][0]
    return flip_start(np.argsort(gop.rows, axis=None)[outcomes], len(gop.block))


def build_decode_table(N: int, H: HadamardMatrix, decoder: Decoder) -> np.ndarray:
    """The decoder route's outcome -> message array: table[first·2N + second]
    is the message id that outcome decodes to, assuming the protocol's fixed
    start state.

    Raises NonDeterministicOutcome if a Bell state fails to produce a point
    mass, and CollisionDetected if two share an outcome; either would break
    unique decodability for that path.  The pipeline reports the first label,
    in message order, that does either.  The grand route's outcomes are read
    from its held rows, so a collision there is reported before any
    probability.
    """
    outcomes, probs = bell_outcomes(N, H, decoder)
    labels = all_labels(N)
    _, first, inverse = np.unique(outcomes, return_index=True, return_inverse=True)
    earlier = first[inverse]  # the first label to reach each label's outcome
    repeat = earlier != np.arange(len(labels))
    spread = probs < 1.0 - TOL_CHAINED
    if decoder.path == "grand":  # a collision in the held rows comes first
        spread &= not repeat.any()
    bad = np.flatnonzero(spread | repeat)
    if bad.size:
        i = bad[0]
        if spread[i]:
            raise NonDeterministicOutcome(
                f"{decoder.path} decoder spread label {labels[i]} over multiple outcomes "
                f"(top probability {probs[i]:.6f})"
            )
        key = divmod(int(outcomes[i]), 2 * N)
        raise CollisionDetected(f"outcome {key} hit by both {labels[earlier[i]]} and {labels[i]}")
    # the outcomes are distinct, so their inverse names each outcome's Bell state
    return flip_start(np.argsort(outcomes), 2 * N)


def pipeline_report(N: int, H: HadamardMatrix, HN: HadamardMatrix, mixer_reading: str) -> dict:
    """Measured comparison of the pipeline against the grand decoder.

    Records per-sweep determinism (worst top-outcome probability), how many
    distinct outcomes the pipeline reaches, and whether the two decoders
    partition the message set identically (same groups of indistinguishable
    messages, outcome names aside).  Discrepancies are findings, not errors.
    The grand route's partition is all singletons (its held rows partition
    the product basis, and verify certifies each label), so only the
    pipeline is decoded.  `mixer_reading` is the caller's resolved mixer
    normalization.
    """
    outcomes, probs = bell_outcomes(N, H, make_decoder(N, H, "pipeline", HN))
    min_top = min(1.0, float(probs.min()))
    distinct = np.unique(outcomes).size
    return {
        "n": N,
        "messages": len(outcomes),
        "deterministic": bool(min_top >= 1.0 - TOL_CHAINED),
        "min_top_probability": min_top,
        "distinct_outcomes": distinct,
        "partitions_equivalent": distinct == len(outcomes),
        "mixer_reading": mixer_reading,
    }
