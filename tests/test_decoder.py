"""Measurement side: grand operator, pipeline, tables, equivalence."""

from functools import lru_cache

import numpy as np
import pytest
from dense_oracle import (
    certify_per_state,
    compact_bell_state,
    compact_partner,
    decode_message,
    decode_table_loop,
    grand_operator_loop,
    sign_matrix,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from sdc import hadamard
from sdc.analysis import (
    START,
    round_trip_message,
    round_trip_sweep,
    run_protocol,
    send,
    start_state,
)
from sdc.bell import (
    BellLabel,
    all_labels,
    bell_state,
    encode_direct,
    encoder_table,
    first_particle_interleave,
    label_to_message,
    message_to_label,
)
from sdc.cli import main
from sdc.decoder import (
    Decoder,
    bell_outcomes,
    build_decode_table,
    certify_grand,
    flip_start,
    grand_blocks,
    grand_messages,
    make_decoder,
    outcome_distribution,
    pipeline_report,
)
from sdc.errors import (
    CollisionDetected,
    ConfigError,
    DimensionMismatch,
    MessageOutOfRange,
    NonDeterministicOutcome,
    OrderMismatch,
    SdcError,
)
from sdc.gates import (
    hadamard_layer,
    nonlocal_mixer,
    position_controlled_swap,
)
from sdc.hilbert import PermutedBlockOp, StateVector, apply, compose_perms

# both routes name a collision by the first two labels, in message order, to reach the outcome
COLLISION_TEXT = "outcome (0, 0) hit by both BellLabel(k=1, r=1, j=1) and BellLabel(k=1, r=1, j=2)"


def grand_oracle(N, H):
    """Independent grand route: sum of |product ket><compact state| outer products."""
    dim = 2 * N
    oracle = np.zeros((dim * dim, dim * dim), dtype=complex)
    for lab in all_labels(N):
        out = np.zeros(dim * dim, dtype=complex)
        out[(lab.j - 1) * dim + (compact_partner(N, lab.k, lab.r, lab.j) - 1)] = 1.0
        oracle += np.outer(out, compact_bell_state(N, lab, H).amp.conj())
    return oracle


class TestGrandOperator:
    def test_maps_compact_states_to_product_kets(self):
        N, H = 1, hadamard.build(2)
        op = grand_blocks(N, H)
        for lab in all_labels(N):
            out = apply(op, None, compact_bell_state(N, lab, H)).amp
            expected = np.zeros(4, dtype=complex)
            expected[(lab.j - 1) * 2 + (compact_partner(N, lab.k, lab.r, lab.j) - 1)] = 1.0
            assert np.max(np.abs(out - expected)) < 1e-12

    @pytest.mark.parametrize("N", [1, 2, 4])
    def test_unitary_involution(self, N):
        m = np.asarray(grand_blocks(N, hadamard.build(2 * N)))
        eye = np.eye(4 * N * N)
        assert np.max(np.abs(m.conj().T @ m - eye)) < 1e-10
        assert np.max(np.abs(m @ m - eye)) < 1e-10

    @pytest.mark.parametrize("N", [1, 2, 4])
    def test_matches_outer_product_oracle(self, N):
        H = hadamard.build(2 * N)
        assert np.max(np.abs(np.asarray(grand_blocks(N, H)) - grand_oracle(N, H))) < 1e-14

    def test_order_mismatch(self):
        with pytest.raises(OrderMismatch):
            grand_blocks(2, hadamard.build(2))

    @pytest.mark.parametrize("N", [1, 2, 4, 8, 16])
    def test_dense_form_equals_the_label_by_label_build(self, N):
        H = hadamard.build(2 * N)
        dense = np.asarray(grand_blocks(N, H))
        assert np.array_equal(dense, grand_operator_loop(N, H).toarray())

    @pytest.mark.parametrize("N", [1, 2, 4, 8, 16, 32])
    def test_block_matvec_rounds_like_the_csc_matvec(self, N):
        # gather, left-to-right accumulate and scatter give the sparse
        # product's bits, on dense and on mostly-zero states
        H = hadamard.build(2 * N)
        op = grand_blocks(N, H)
        csc = grand_operator_loop(N, H)
        rng = np.random.default_rng(N)
        for trial in range(20):
            amp = rng.standard_normal(4 * N * N) + 1j * rng.standard_normal(4 * N * N)
            if trial % 2:
                keep = rng.random(amp.size) >= 0.7
                keep[rng.integers(amp.size)] = True
                amp *= keep
            s = StateVector((2 * N, 2 * N), amp / np.linalg.norm(amp))
            nz = np.flatnonzero(s.amp)
            assert apply(op, None, s).amp.tobytes() == (csc[:, nz] @ s.amp[nz]).tobytes()

    def test_decoder_holds_quadratic_memory(self):
        # the grand route holds the interleave (2N targets and phases), the
        # rows (4N^2 indices) and one 2N x 2N float block: 64 N^2 + 48 N
        # bytes, where the stored 8N^3-entry operator took about 20 B each
        N = 64
        held = sum(
            value.nbytes
            for op, _ in make_decoder(N, hadamard.build(2 * N)).stages
            for value in vars(op).values()
            if isinstance(value, np.ndarray)
        )
        assert held <= 64 * N * N + 48 * N


class TestGrandDecoding:
    def test_base_state_outcome(self):
        N, H = 1, hadamard.build(2)
        grand = make_decoder(N, H)
        top, dist = grand.decode(bell_state(N, BellLabel(1, -1, 1), H))
        assert top.probability > 1 - 1e-10
        assert len(dist) == 1
        # flipped back, the decoded message names the measured Bell state
        message = build_decode_table(N, H, grand)[top.first * 2 * N + top.second]
        assert flip_start(message, 2 * N) == label_to_message(BellLabel(1, -1, 1), N)

    def test_superposition_splits_evenly(self):
        N, H = 1, hadamard.build(2)
        a = bell_state(N, BellLabel(1, -1, 1), H)
        b = bell_state(N, BellLabel(1, +1, 1), H)
        s = StateVector(a.dims, (a.amp + b.amp) / np.sqrt(2))
        _, dist = make_decoder(N, H).decode(s)
        assert len(dist) == 2
        assert all(abs(o.probability - 0.5) < 1e-12 for o in dist)

    @pytest.mark.parametrize("N", [1, 2, 4])
    def test_all_inputs_deterministic_and_distinct(self, N):
        H = hadamard.build(2 * N)
        grand = make_decoder(N, H)
        seen = set()
        for lab in all_labels(N):
            top, dist = grand.decode(bell_state(N, lab, H))
            assert top.probability > 1 - 1e-10
            assert abs(sum(o.probability for o in dist) - 1.0) < 1e-12
            seen.add((top.first, top.second))
        assert len(seen) == 4 * N * N


class TestDecodeTable:
    @pytest.mark.parametrize("N,expected", [(1, 4), (2, 16), (8, 256)])
    def test_injective_tables(self, N, expected):
        H = hadamard.build(2 * N)
        table = build_decode_table(N, H, make_decoder(N, H))
        assert sorted(table.tolist()) == list(range(expected))

    def test_round_trip_through_the_table(self):
        from sdc.analysis import send, start_state

        N, H = 2, hadamard.build(4)
        grand = make_decoder(N, H)
        table = build_decode_table(N, H, grand)
        for m in range(16):
            top, _ = grand.decode(send(N, H, start_state(N, H), m))
            assert table[top.first * 2 * N + top.second] == m

    def test_checks_injectivity_in_one_sort(self):
        # a valid table is checked by one sort of its outcomes against
        # arange(4N^2); at N = 128 a repeated build peaks at about 3.6 MiB
        # traced, where naming every outcome's first message took 5.1 MiB
        import tracemalloc

        N, H = 128, hadamard.build(256)
        grand = make_decoder(N, H)
        first = build_decode_table(N, H, grand)  # first use of each numpy routine is not traced
        tracemalloc.start()
        try:
            again = build_decode_table(N, H, grand)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(again, first)
        assert peak < 4.5 * 2**20


@lru_cache(maxsize=None)
def grand_route(N):
    H = hadamard.build(2 * N)
    return H, make_decoder(N, H)


def certify_sent(N, H, grand, messages):
    """`certify_grand` of each message's sent state, as `round_trip` calls it."""
    return certify_grand(grand, H, messages, encode_direct(N, H, START))


class TestCertification:
    """The grand route's one-row certification against the amplitude route."""

    @pytest.mark.parametrize("N", [1, 2, 4, 8, 16])
    def test_certified_table_equals_the_amplitude_route(self, N):
        H, grand = grand_route(N)
        amplitude = decode_table_loop(N, H, grand)
        # the amplitude route's table as an array; a collision leaves a -1
        want = np.full(4 * N * N, -1)
        for (first, second), (lab, _) in amplitude.items():
            want[first * 2 * N + second] = flip_start(label_to_message(lab, N), 2 * N)
        assert build_decode_table(N, H, grand).tolist() == want.tolist()
        assert min(p for _, p in amplitude.values()) >= 1 - 1e-10
        # each standard Bell state's certified outcome and probability are its
        # dense top, bit for bit
        outcomes, probs = bell_outcomes(N, H, grand)
        assert [divmod(out, 2 * N) for out in outcomes.tolist()] == list(amplitude)
        assert probs.tolist() == [p for _, p in amplitude.values()]

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_certified_sweep_outcome_is_the_decoded_top(self, data):
        N = data.draw(st.sampled_from([1, 2, 4, 8, 16]), label="N")
        m = data.draw(st.integers(0, 4 * N * N - 1), label="message")
        H, grand = grand_route(N)
        (out,), (prob,) = certify_sent(N, H, grand, [m])
        top, _ = grand.decode(send(N, H, start_state(N, H), m))
        assert divmod(int(out), 2 * N) == (top.first, top.second)
        assert prob == top.probability

    @pytest.mark.parametrize("N", [1, 2, 4, 8, 16])
    def test_certified_messages_equal_the_table_lookup(self, N):
        H, grand = grand_route(N)
        table = build_decode_table(N, H, grand)
        assert table.tolist() == grand_messages(grand, np.arange(4 * N * N)).tolist()
        flat, _ = certify_sent(N, H, grand, np.arange(4 * N * N))
        want = table[flat].tolist()
        assert grand_messages(grand, flat).tolist() == want == list(range(4 * N * N))

    @pytest.mark.parametrize(
        "name, N, path",
        [
            ("sylvester", 4, "grand"),
            ("sylvester", 1, "pipeline"),
            ("sylvester", 2, "pipeline"),
            ("alt4", 2, "grand"),
            ("alt4", 2, "pipeline"),
            ("minus", 1, "grand"),
            ("minus", 1, "pipeline"),
            ("flipped", 2, "grand"),
            ("flipped", 2, "pipeline"),
            ("flipped", 4, "grand"),
            ("flipped", 4, "pipeline"),
            ("paley", 6, "grand"),
        ],
    )
    def test_run_equals_the_dense_oracle(self, name, N, path):
        # each message's outcome, probability and decoded id are those of its
        # sent state decoded in full, bit for bit, or both refuse the message
        # with the same typed error and text
        H = sign_matrix(name, N)
        HN = hadamard.build(N) if path == "pipeline" else None
        dense, start = make_decoder(N, H, path, HN), start_state(N, H)

        def certified_run(m):
            return round_trip_message(N, H, m, path, HN)

        def dense_run(m):
            top, decoded = decode_message(N, H, dense, send(N, H, start, m))
            return top.first * 2 * N + top.second, top.probability, decoded

        def measured(run, m):
            try:
                return run(m)
            except SdcError as exc:
                return type(exc), str(exc)

        for m in range(4 * N * N):
            assert measured(certified_run, m) == measured(dense_run, m)

    @pytest.mark.parametrize(
        "name, N",
        [("sylvester", N) for N in (1, 2, 4, 8, 16)] + [("alt4", 2), ("paley", 6)],
    )
    def test_chunking_changes_no_output_bit(self, name, N):
        # the messages certified one per call, one family per call and all in
        # one call give the same outcomes and probabilities, bit for bit, and
        # every certified probability is the full decode's (a pairwise sum of
        # the terms differs from it at N = 4 and 16)
        H = sign_matrix(name, N)
        grand, dim = make_decoder(N, H), 2 * N
        start, start_encoder = start_state(N, H), encode_direct(N, H, START)
        groupings = (
            [[m] for m in range(dim * dim)],
            [range(f * dim, (f + 1) * dim) for f in range(dim)],
            [range(dim * dim)],
        )
        for encoder, state in ((None, lambda m: bell_state(N, message_to_label(m, N), H)),
                               (start_encoder, lambda m: send(N, H, start, m))):
            runs = []
            for groups in groupings:
                certified = [certify_grand(grand, H, np.array(g), encoder) for g in groups]
                runs.append([np.concatenate(parts).tolist() for parts in zip(*certified)])
            assert all(run == runs[0] for run in runs[1:])
            outcomes, probs = runs[0]
            for m in np.flatnonzero(np.array(probs) >= 1 - 1e-10).tolist():
                top, _ = grand.decode(state(m))
                assert (top.first * dim + top.second, top.probability) == (outcomes[m], probs[m])

    @pytest.mark.parametrize("corruption", ["none", "block sign", "rows swapped", "rows collide"])
    @pytest.mark.parametrize(
        "name, N", [("sylvester", 1), ("sylvester", 4), ("sylvester", 8), ("alt4", 2), ("paley", 6)]
    )
    def test_certification_equals_the_per_state_oracle(self, name, N, corruption):
        # on a held operator that is right or broken, the family pass gives the
        # per-state route's outcomes and probabilities, bit for bit
        H = sign_matrix(name, N)
        interleave, (gop, _) = make_decoder(N, H).stages
        rows, block = gop.rows.copy(), gop.block.copy()
        if corruption == "block sign":
            block[0, 0] = -block[0, 0]
        elif corruption == "rows swapped":
            rows[[0, 1], 0] = rows[[1, 0], 0]
        elif corruption == "rows collide":
            rows[:] = 0
        grand = Decoder("grand", (interleave, (PermutedBlockOp(rows, block), None)))
        messages = np.arange(4 * N * N)
        start = encode_direct(N, H, START)
        table = encoder_table(N, H, messages)
        for encoder, states, bell in ((None, table, messages),
                                      (start, compose_perms(table, start), flip_start(messages, 2 * N))):
            got = certify_grand(grand, H, messages, encoder)
            want = certify_per_state(grand, states, bell)
            assert [a.tolist() for a in got] == [a.tolist() for a in want]

    @pytest.mark.parametrize("messages", [[3, 16], [-1]])
    def test_out_of_range_message_is_refused(self, messages):
        H, grand = grand_route(2)
        with pytest.raises(MessageOutOfRange, match=r"^message ids must lie in 0\.\.15$"):
            certify_grand(grand, H, messages)

    def test_sweep_decodes_misread_messages_on_the_amplitude_route(self, monkeypatch):
        import sdc.analysis as analysis_mod

        N, H = 2, hadamard.build(4)
        # certification passes, but every message id is read as its neighbour
        read = analysis_mod.grand_messages
        monkeypatch.setattr(analysis_mod, "grand_messages", lambda d, o: (read(d, o) + 1) % 16)
        decoded = []
        decode = Decoder.decode
        monkeypatch.setattr(Decoder, "decode", lambda self, s: decoded.append(1) or decode(self, s))
        result = round_trip_sweep(N, H)
        assert result["round_trip_ok"] == 16 and result["failures"] == []
        assert len(decoded) == 16

    def test_grand_table_and_sweep_decode_no_dense_state(self, monkeypatch):
        decode = Decoder.decode

        def pipeline_decode(self, s):
            if self.path == "grand":
                raise AssertionError("dense decode on the grand route")
            return decode(self, s)

        monkeypatch.setattr(Decoder, "decode", pipeline_decode)
        N, H = 4, hadamard.build(8)
        assert sorted(build_decode_table(N, H, make_decoder(N, H)).tolist()) == list(range(64))
        result = round_trip_sweep(N, H)
        assert result["round_trip_ok"] == 64 and result["failures"] == []
        assert [main(["run", "--n", "4", "--message", str(m)]) for m in range(64)] == [0] * 64
        assert main(["verify", "--n", "4"]) == 0
        assert main(["verify", "--n", "2", "--path", "pipeline"]) == 0


class TestPipeline:
    def test_single_pair_reduces_to_standard_dense_coding(self):
        # controlled swap + one channel Hadamard (the mixer is trivial)
        N, H, HN = 1, hadamard.build(2), hadamard.build(1)
        outcomes = set()
        pipeline = make_decoder(N, H, "pipeline", HN)
        for lab in all_labels(N):
            top, _ = pipeline.decode(bell_state(N, lab, H))
            assert top.probability > 1 - 1e-10
            outcomes.add((top.first, top.second))
        assert len(outcomes) == 4

    def test_two_pair_sweep_is_deterministic(self):
        N, H, HN = 2, hadamard.build(4), hadamard.build(2)
        report = pipeline_report(N, H, HN)
        assert report["deterministic"] is True
        assert report["distinct_outcomes"] == 16
        assert report["partitions_equivalent"] is True

    @pytest.mark.parametrize("N", [1, 2])
    def test_partition_equivalence_with_grand(self, N):
        report = pipeline_report(N, hadamard.build(2 * N), hadamard.build(N))
        assert report["partitions_equivalent"] is True
        assert report["mixer_reading"] == "pm1-entries-over-sqrt-dim"

    def test_four_pair_sweep_remains_deterministic(self):
        # measured fact, stronger than anything required of the pipeline
        report = pipeline_report(4, hadamard.build(8), hadamard.build(4))
        assert report["deterministic"] is True
        assert report["partitions_equivalent"] is True

    def test_eight_pair_sweep_loses_determinism(self):
        # measured fact: beyond four channel pairs the pipeline spreads some
        # inputs over several outcomes, so no decode table exists for it
        report = pipeline_report(8, hadamard.build(16), hadamard.build(8))
        assert report["deterministic"] is False
        H = hadamard.build(16)
        with pytest.raises(NonDeterministicOutcome) as exc:
            build_decode_table(8, H, make_decoder(8, H, "pipeline", hadamard.build(8)))
        assert str(exc.value) == (
            "pipeline decoder spread label BellLabel(k=2, r=1, j=9) over multiple outcomes "
            "(top probability 0.250000)"
        )

    def test_sweep_refuses_the_route_before_decoding_a_sent_state(self, monkeypatch):
        # the decode table decodes the 256 Bell states and refuses the route,
        # so none of the 256 sent states is decoded
        N, H, HN = 8, hadamard.build(16), hadamard.build(8)
        calls = []
        decode = Decoder.decode
        monkeypatch.setattr(Decoder, "decode", lambda self, s: calls.append(1) or decode(self, s))
        with pytest.raises(NonDeterministicOutcome):
            round_trip_sweep(N, H, path="pipeline", HN=HN)
        assert len(calls) == 4 * N * N


def test_outcome_distribution_completeness():
    N, H = 2, hadamard.build(4)
    s = bell_state(N, BellLabel(2, -1, 3), H)
    dist = outcome_distribution(s)
    assert abs(sum(o.probability for o in dist) - 1.0) < 1e-12


def test_unknown_route_is_a_config_error():
    with pytest.raises(ConfigError):
        make_decoder(1, hadamard.build(2), "teleport")


def test_pipeline_route_without_its_mixer_matrix_is_a_config_error():
    H = hadamard.build(4)
    with pytest.raises(ConfigError):
        make_decoder(2, H, "pipeline")
    with pytest.raises(ConfigError):
        round_trip_sweep(2, H, path="pipeline")
    with pytest.raises(ConfigError):
        run_protocol(2, H, 5, path="pipeline")


def test_outcome_distribution_rejects_nan():
    with pytest.raises(DimensionMismatch):
        outcome_distribution(StateVector((2, 2), [np.nan, 0, 0, 0]))


def route_matrix(N, path):
    """Dense matrix of one decode route, built from the gates independently."""
    H = hadamard.build(2 * N)
    eye = np.eye(2 * N)
    if path == "grand":
        return grand_oracle(N, H) @ np.kron(np.asarray(first_particle_interleave(N)), eye)
    mixer = np.asarray(nonlocal_mixer(N, hadamard.build(N)))
    return mixer @ np.kron(np.asarray(hadamard_layer(N)), eye) @ np.asarray(position_controlled_swap(N))


@pytest.mark.parametrize("path", ["grand", "pipeline"])
@pytest.mark.parametrize("N", [1, 2, 4])
def test_decoder_matches_dense_route_on_random_states(N, path):
    rng = np.random.default_rng(1000 * N + len(path))
    amp = rng.standard_normal(4 * N * N) + 1j * rng.standard_normal(4 * N * N)
    s = StateVector((2 * N, 2 * N), amp / np.linalg.norm(amp))
    HN = hadamard.build(N) if path == "pipeline" else None
    top, dist = make_decoder(N, hadamard.build(2 * N), path, HN).decode(s)

    expected = np.abs(route_matrix(N, path) @ s.amp) ** 2
    got = np.zeros(4 * N * N)
    for o in dist:
        got[o.first * 2 * N + o.second] = o.probability
    assert np.max(np.abs(got - expected)) < 1e-12
    assert top.first * 2 * N + top.second == int(np.argmax(expected))


class TestGuards:
    """The convention checks must fail loudly if an internal map regresses."""

    def test_partner_collision_halts_construction(self, monkeypatch):
        import sdc.decoder as dec
        from sdc.errors import NonInvolutory

        # every family pairs first label m with the same partner
        monkeypatch.setattr(
            dec, "compact_partner_table", lambda N: np.tile(np.arange(2 * N), (2 * N, 1))
        )
        with pytest.raises(NonInvolutory, match="collide at first label 1"):
            dec.grand_blocks(1, hadamard.build(2))

    def test_colliding_decoder_is_reported(self, monkeypatch):
        # the pipeline route tabulates full decodes; land every one on one outcome
        import sdc.decoder as dec
        from sdc.decoder import MeasurementOutcome

        monkeypatch.setattr(
            dec.Decoder,
            "decode",
            lambda self, s: (MeasurementOutcome(0, 0, 1.0), []),
        )
        H, HN = hadamard.build(2), hadamard.build(1)
        with pytest.raises(CollisionDetected) as exc:
            dec.build_decode_table(1, H, dec.make_decoder(1, H, "pipeline", HN))
        assert str(exc.value) == COLLISION_TEXT

    def test_corrupted_grand_operator_is_nondeterministic(self):
        N, H = 2, hadamard.build(4)
        interleave, (gop, _) = make_decoder(N, H).stages
        block = gop.block.copy()
        block[0, 0] = -block[0, 0]  # one sign, read by member 1 of every family
        bad = PermutedBlockOp(gop.rows, block)
        with pytest.raises(NonDeterministicOutcome) as exc:
            build_decode_table(N, H, Decoder("grand", (interleave, (bad, None))))
        assert str(exc.value) == (
            "grand decoder spread label BellLabel(k=1, r=1, j=1) over multiple outcomes "
            "(top probability 0.250000)"
        )

    def test_rows_swapped_across_families_are_nondeterministic(self):
        # certification counts a term only inside its own family's block; the
        # swapped column keeps its position, so without that check its weight
        # would still read right
        N, H = 2, hadamard.build(4)
        interleave, (gop, _) = make_decoder(N, H).stages
        rows = gop.rows.copy()
        rows[[0, 1], 1] = rows[[1, 0], 1]
        bad = PermutedBlockOp(rows, gop.block)
        with pytest.raises(NonDeterministicOutcome) as exc:
            build_decode_table(N, H, Decoder("grand", (interleave, (bad, None))))
        assert str(exc.value) == (
            "grand decoder spread label BellLabel(k=1, r=1, j=1) over multiple outcomes "
            "(top probability 0.562500)"
        )

    def test_colliding_partner_table_is_reported(self):
        N, H = 2, hadamard.build(4)
        interleave, (gop, _) = make_decoder(N, H).stages
        # every family's rows now predict outcome (0, 0) for every member
        bad = PermutedBlockOp(np.zeros_like(gop.rows), gop.block)
        with pytest.raises(CollisionDetected) as exc:
            build_decode_table(N, H, Decoder("grand", (interleave, (bad, None))))
        assert str(exc.value) == COLLISION_TEXT

    def test_unrelatable_compact_family_is_reported(self):
        import sdc.bell as bell_mod

        H = hadamard.build(2)
        standard, compact = bell_mod.family_factors(1, H), bell_mod.family_factors(1, H, compact=True)
        twisted = bell_mod.FamilyFactors(compact.psi * np.exp(0.1j), compact.target)
        assert bell_mod.compact_relabel_holds(standard, compact)
        assert not bell_mod.compact_relabel_holds(standard, twisted)
