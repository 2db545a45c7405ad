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
On the grand route, `certify_grand` checks stacked signed-permutation states
against one operator row each; it is that route's one decoder of Bell states
(tables, sweeps, verify), bit-identical to the amplitude
route (`Decoder.decode`), which stays the oracle and decodes arbitrary states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bell import (
    BellLabel,
    all_labels,
    bell_state,
    compact_partner_table,
    encoder_table,
    first_particle_interleave,
    label_to_message,
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
    "DecodeTable",
    "Decoder",
    "grand_blocks",
    "make_decoder",
    "outcome_distribution",
    "certify_grand",
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


@dataclass(frozen=True)
class DecodeTable:
    """Injective map from readout pairs to the Bell label that produces them."""

    N: int
    path: str
    entries: dict[tuple[int, int], BellLabel]

    def label_for(self, outcome: MeasurementOutcome) -> BellLabel:
        return self.entries[(outcome.first, outcome.second)]

    def message_for(self, outcome: MeasurementOutcome) -> int:
        """Message id assuming the fixed start state of the protocol.

        Encoding (k, r, j) on the start family (1, -1) lands on the Bell
        state (k, -r, j), so undoing the sign flip recovers the sent label.
        """
        measured = self.label_for(outcome)
        return label_to_message(
            BellLabel(measured.k, -measured.r, measured.j), self.N
        )


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


def outcome_distribution(s: StateVector) -> list[MeasurementOutcome]:
    """Position readout distribution of a two-particle state, indices ascending.

    Zero-probability outcomes are dropped; the kept probabilities are checked
    to sum to 1 (measurement completeness).
    """
    if len(s.dims) != 2:
        raise DimensionMismatch(f"need a two-particle state, got dims {s.dims}")
    d0, d1 = s.dims
    mags = np.abs(s.amp)
    # no amplitude of a normalized state exceeds 1; rejecting larger ones
    # first keeps their squares from overflowing
    if not mags.max() <= 1.0 + 1e-9:  # also rejects NaN
        raise DimensionMismatch(
            f"input state is not normalized (an amplitude has modulus {mags.max():.3e})"
        )
    probs = mags**2
    total = float(probs.sum())
    if not abs(total - 1.0) <= 1e-9:
        raise DimensionMismatch(f"input state is not normalized (sum p = {total})")
    out = []
    for flat in np.nonzero(probs > TOL_EXACT)[0]:
        out.append(MeasurementOutcome(int(flat) // d1, int(flat) % d1, float(probs[flat])))
    return out


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
    certifies a point mass.  The terms are summed in the amplitude route's
    order, so each probability is `Decoder.decode`'s top probability, bit for bit.

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
        slot = interleave.target[targets]  # first-particle slot of each term
        cols = slot * dim + np.arange(dim)
        amps = phases * interleave.phase[targets] / np.sqrt(dim)
        family, member = np.divmod(bell, dim)
        hit = col_family[cols] == family[:, None]
        weights = np.where(hit, gop.block[member[:, None], col_pos[cols]], 0)
        # add the terms left to right by ascending column, as the amplitude
        # route of `Decoder.decode` does, so both routes round to the same bits
        ordered = np.zeros_like(amps)
        np.put_along_axis(ordered, slot, weights * amps, axis=1)
        outcomes[chunk] = gop.rows[family, member]
        probs[chunk] = np.abs(np.cumsum(ordered, axis=1)[:, -1]) ** 2
    return outcomes, probs


def grand_messages(decoder: Decoder, outcomes: np.ndarray) -> np.ndarray:
    """`DecodeTable.message_for` of flat grand-route outcomes, in one pass: the
    inverse of the held rows names the measured Bell state (family, member),
    and family ^ 1 undoes the start family's sign flip."""
    gop = decoder.stages[-1][0]
    where = np.argsort(gop.rows, axis=None)  # the inverse of the rows
    family, member = np.divmod(where[outcomes], len(gop.block))
    return (family ^ 1) * len(gop.block) + member


def build_decode_table(N: int, H: HadamardMatrix, decoder: Decoder) -> DecodeTable:
    """Tabulate the outcome of every Bell state on the decoder's route.

    Raises NonDeterministicOutcome if any input fails to produce a point
    mass, and CollisionDetected if two labels share an outcome; either would
    break unique decodability for that path.  The grand route certifies
    each state by one operator row (`certify_grand`); its outcomes, read
    from the held rows, are checked for collisions before any amplitude is
    read.  The pipeline is not monomial, so each of its states is decoded
    in full.
    """
    entries: dict[tuple[int, int], BellLabel] = {}
    if decoder.path != "grand":
        for lab in all_labels(N):
            top, _ = decoder.decode(bell_state(N, lab, H))
            if top.probability < 1.0 - TOL_CHAINED:
                raise NonDeterministicOutcome(
                    f"{decoder.path} decoder spread label {lab} over multiple outcomes "
                    f"(top probability {top.probability:.6f})"
                )
            key = (top.first, top.second)
            if key in entries:
                raise CollisionDetected(f"outcome {key} hit by both {entries[key]} and {lab}")
            entries[key] = lab
        return DecodeTable(N=N, path=decoder.path, entries=entries)

    labels = all_labels(N)
    outcomes, probs = certify_grand(
        decoder, np.arange(len(labels)), lambda chunk: (*encoder_table(N, H, chunk), chunk)
    )
    for lab, out in zip(labels, outcomes.tolist()):
        key = divmod(out, 2 * N)
        if key in entries:
            raise CollisionDetected(f"outcome {key} hit by both {entries[key]} and {lab}")
        entries[key] = lab
    short = np.flatnonzero(probs < 1.0 - TOL_CHAINED)
    if short.size:
        lab, out = labels[short[0]], divmod(int(outcomes[short[0]]), 2 * N)
        raise NonDeterministicOutcome(
            f"grand decoder spread label {lab} over multiple outcomes "
            f"(probability {probs[short[0]]:.6f} at its predicted outcome {out})"
        )
    return DecodeTable(N=N, path=decoder.path, entries=entries)


def pipeline_report(N: int, H: HadamardMatrix, HN: HadamardMatrix, mixer_reading: str) -> dict:
    """Measured comparison of the pipeline against the grand decoder.

    Records per-sweep determinism (worst top-outcome probability), how many
    distinct outcomes the pipeline reaches, and whether the two decoders
    partition the message set identically (same groups of indistinguishable
    messages, outcome names aside).  Discrepancies are findings, not errors.
    The grand route sends the 4N^2 labels to 4N^2 distinct outcomes (its
    held rows partition the product basis, and verify certifies each label),
    so its partition is all singletons; only the pipeline decodes each Bell
    state in full.  `mixer_reading` is the caller's resolved mixer
    normalization.
    """
    pipeline = make_decoder(N, H, "pipeline", HN)
    labels = all_labels(N)
    outcomes: set[tuple[int, int]] = set()
    min_top = 1.0
    for lab in labels:
        top, _ = pipeline.decode(bell_state(N, lab, H))
        min_top = min(min_top, top.probability)
        outcomes.add((top.first, top.second))
    return {
        "n": N,
        "messages": len(labels),
        "deterministic": bool(min_top >= 1.0 - TOL_CHAINED),
        "min_top_probability": float(min_top),
        "distinct_outcomes": len(outcomes),
        "partitions_equivalent": len(outcomes) == len(labels),
        "mixer_reading": mixer_reading,
    }
