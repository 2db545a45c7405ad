"""Receiver-side measurement: grand operator, gate pipeline, outcome tables.

The grand operator rotates the compact Bell basis onto distinct two-particle
product kets, so a plain position readout finishes the Bell-state
measurement.  It is the authoritative decoder, and it has one csc layout,
fixed by the compact pairing (`bell.compact_partner_table`):
`grand_operator` builds its arrays in that layout and `certify_grand` reads
entries back from it, both by index arithmetic.  The gate pipeline
(controlled swap, per-channel Hadamards, nonlocal mixer) is the proposed
realization; its determinism and its agreement with the grand route are
measured and reported, never assumed.

`make_decoder` is the one place a route is chosen: it builds that route's
operators once and returns a `Decoder` that applies them in order.  Tables,
reports, protocol runs and the command line all take or build one `Decoder`.
On the grand route, `certify_grand` checks stacked signed-permutation states
against one operator row each; it is that route's one decoder of Bell states
(tables, sweeps, verify, `pipeline_report`), bit-identical to the amplitude
route (`Decoder.decode`), which stays the oracle and decodes arbitrary states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

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
from .gates import (
    hadamard_layer,
    nonlocal_mixer,
    position_controlled_swap,
    resolve_mixer_normalization,
)
from .hadamard import HadamardMatrix
from .hilbert import (
    StateVector,
    TOL_CHAINED,
    TOL_EXACT,
    apply,
    apply_full,
)

__all__ = [
    "MeasurementOutcome",
    "DecodeTable",
    "Decoder",
    "grand_operator",
    "make_decoder",
    "outcome_distribution",
    "certify_grand",
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


def grand_operator(N: int, H: HadamardMatrix) -> sp.csc_matrix:
    """Unitary involution mapping each compact basis state to a product ket.

    The compact state with label (k, r, j) contributes its conjugated (real)
    amplitudes, h[j, m] / sqrt(2N) at |m, partner(m)>, to the output ket
    |j, partner(j)>.  The partner functions of distinct families disagree at
    every point, which makes the outcome kets exhaust the product basis and
    the operator unitary; the self-inverse property additionally needs the
    Hadamard matrix symmetric.  Both prerequisites are checked here and a
    numeric spot check backs them up, so a convention regression fails
    construction loudly.

    The csc layout follows from that structure, and `certify_grand` reads
    it back: column (t, i) = t·2N + i meets only the family f that pairs
    first label t with partner i (all indices 0-based), so it holds exactly
    2N entries, one per member slot j in ascending rows, entry j in row
    j·2N + partner[f, j] with weight h[j, t] / sqrt(2N).
    """
    if H.order != 2 * N:
        raise OrderMismatch(f"need order {2 * N}, got {H.order}")
    dim = 2 * N
    partner = compact_partner_table(N)
    # every column of the table must list each partner once, which also
    # makes argsort below invert it
    clash = np.flatnonzero((np.sort(partner, axis=0) != np.arange(dim)[:, None]).any(axis=0))
    if clash.size:
        raise NonInvolutory(f"partner maps collide at first label {clash[0] + 1}")

    family = np.argsort(partner, axis=0).T  # [t, i]: the family pairing t with i
    rows = np.arange(dim) * dim + partner[family]  # [t, i, j]
    weights = H.ints.T.astype(np.complex128) / np.sqrt(dim)  # [t, j]
    data = np.broadcast_to(weights[:, None, :], rows.shape).ravel()
    # column-sliced format: decoding feeds in 2N-sparse vectors, so matvec by
    # column gather beats a full row scan by a factor of dim/2
    shape = (dim * dim, dim * dim)
    op = sp.csc_matrix((data, rows.ravel(), np.arange(0, dim**3 + 1, dim)), shape=shape)

    if dim <= 32:
        eye = sp.identity(dim * dim, dtype=np.complex128, format="csc")
        dev = abs(op @ op - eye)
        residual = float(dev.max()) if dev.nnz else 0.0
    else:
        rng = np.random.default_rng(20240514)
        v = rng.standard_normal(dim * dim) + 1j * rng.standard_normal(dim * dim)
        v /= np.linalg.norm(v)
        residual = float(np.max(np.abs(op @ (op @ v) - v)))
    if residual > TOL_CHAINED:
        raise NonInvolutory(f"grand operator self-inverse residual {residual:.3e}")
    return op


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
        return Decoder(path, ((first_particle_interleave(N), 0), (grand_operator(N, H), None)))
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
    arithmetic.  Bell state (k, r, j) lands on output row
    (j-1)·2N + partner[(k, r), j-1], and that one row of the built grand
    operator, read at the state's 2N nonzeros, gives its amplitude there.
    Returns the predicted outcomes (flat index first·2N + second) and their
    probabilities.  The state is normalized and the operator unitary, so a
    probability of at least 1 - TOL_CHAINED certifies a point mass.  The
    terms are summed in the amplitude route's order, so each probability
    equals `Decoder.decode`'s top probability bit for bit.

    Entries are read by the csc layout `grand_operator` builds: row `out`
    of column c sits at slot out // 2N of that column.  An entry found
    elsewhere, or a slot holding another row, reads as 0, so an operator
    built with any other layout fails certification rather than passing it.
    """
    (interleave, _), (gop, _) = decoder.stages
    dim = interleave.dim
    partner = compact_partner_table(dim // 2)
    outcomes = np.empty(len(messages), dtype=np.intp)
    probs = np.empty(len(messages))
    for lo in range(0, len(messages), CERTIFY_CHUNK):
        chunk = slice(lo, lo + CERTIFY_CHUNK)
        targets, phases, bell = stack(messages[chunk])
        slot = interleave.target[targets]  # first-particle slot of each term
        cols = slot * dim + np.arange(dim)
        amps = phases * interleave.phase[targets] / np.sqrt(dim)
        family, member = np.divmod(bell, dim)
        out = member * dim + partner[family, member]
        # the layout keeps member j's row of every column at the column's slot j
        at = gop.indptr[cols] + member[:, None]
        inside = at < gop.indptr[cols + 1]
        at = np.where(inside, at, 0)
        hit = inside & (gop.indices[at] == out[:, None])
        weights = np.where(hit, gop.data[at], 0)
        # add the terms left to right by ascending column, as the csc matvec
        # of `Decoder.decode` does, so both routes round to the same bits
        ordered = np.zeros_like(amps)
        np.put_along_axis(ordered, slot, weights * amps, axis=1)
        outcomes[chunk] = out
        probs[chunk] = np.abs(np.cumsum(ordered, axis=1)[:, -1]) ** 2
    return outcomes, probs


def build_decode_table(N: int, H: HadamardMatrix, decoder: Decoder) -> DecodeTable:
    """Tabulate the outcome of every Bell state on the decoder's route.

    Raises NonDeterministicOutcome if any input fails to produce a point
    mass, and CollisionDetected if two labels share an outcome; either would
    break unique decodability for that path.  The grand route certifies
    each state by one operator row (`certify_grand`); its closed-form
    outcomes are checked for collisions before any amplitude is read.  The
    pipeline is not monomial, so each of its states is decoded in full.
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


def pipeline_report(N: int, H: HadamardMatrix, HN: HadamardMatrix) -> dict:
    """Measured comparison of the pipeline against the grand decoder.

    Records per-sweep determinism (worst top-outcome probability), how many
    distinct outcomes the pipeline reaches, and whether the two decoders
    partition the message set identically (same groups of indistinguishable
    messages, outcome names aside).  Discrepancies are findings, not errors.
    The grand side is its certified decode table, injective or raising, so
    all singletons; only the pipeline decodes each Bell state in full.
    """
    grand = build_decode_table(N, H, make_decoder(N, H))
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
        "partitions_equivalent": len(outcomes) == len(grand.entries),
        "mixer_reading": resolve_mixer_normalization(N, HN)["reading"],
    }
