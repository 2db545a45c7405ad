"""Protocol round trips, rate accounting, and the spin extension."""

import json
import math

import numpy as np
import pytest

import sdc.analysis as analysis_mod
import sdc.bell as bell_mod
from sdc import hadamard
from sdc.analysis import (
    TimingModel,
    advantage,
    capacity_bits,
    rate_maximal,
    rate_pairwise,
    rate_spatial,
    rate_spatial_asymptotic,
    round_trip_sweep,
    run_protocol,
    run_protocol_spin,
    send,
    spin_base_state,
    spin_capacity,
    spin_extended_state,
    spin_message_count,
    spin_state_report,
    start_state,
)
from sdc.cli import main
from sdc.decoder import build_decode_table, make_decoder
from sdc.errors import ArgOutOfRange, MessageOutOfRange
from sdc.hilbert import partial_trace


class TestRoundTrips:
    def test_identity_message(self):
        assert run_protocol(1, hadamard.build(2), 0) == 0

    @pytest.mark.parametrize("N", [1, 2, 4])
    def test_every_message(self, N):
        result = round_trip_sweep(N, hadamard.build(2 * N))
        assert result["round_trip_ok"] == 4 * N * N
        assert result["failures"] == []

    def test_pipeline_path_at_small_sizes(self):
        result = round_trip_sweep(2, hadamard.build(4), path="pipeline", HN=hadamard.build(2))
        assert result["round_trip_ok"] == 16

    def test_message_bound(self):
        with pytest.raises(MessageOutOfRange):
            run_protocol(1, hadamard.build(2), 4)

    def test_grand_run_maps_its_outcome_without_a_decode_table(self, monkeypatch):
        monkeypatch.setattr(
            analysis_mod, "build_decode_table", lambda *a: pytest.fail("decode table built")
        )
        H = hadamard.build(8)
        assert [run_protocol(4, H, m) for m in range(64)] == list(range(64))


class TestCertifiedSweep:
    """A sent state that fails certification is decoded on the amplitude route."""

    @staticmethod
    def corrupt(monkeypatch, sent, instead):
        """Make the encoder send message `instead`'s state whenever `sent` is encoded."""
        table = bell_mod.encoder_table

        def corrupted(N, H, messages):
            messages = np.asarray(messages)
            return table(N, H, np.where(messages == sent, instead, messages))

        # every route that encodes reads one of these two bindings
        for mod in (bell_mod, analysis_mod):
            monkeypatch.setattr(mod, "encoder_table", corrupted)

    def test_failure_carries_the_amplitude_route_decoding(self, monkeypatch):
        N, H = 2, hadamard.build(4)
        self.corrupt(monkeypatch, 5, 9)
        grand = make_decoder(N, H)
        top, _ = grand.decode(send(N, H, start_state(N, H), 5))
        decoded = build_decode_table(N, H, grand)[top.first * 2 * N + top.second]
        assert decoded == 9
        result = round_trip_sweep(N, H)
        assert result["failures"] == [{"sent": 5, "decoded": decoded}]
        assert result["round_trip_ok"] == 15 and result["checked"] == 16

    def test_cli_sweep_exits_1_on_a_failure(self, monkeypatch, capsys):
        self.corrupt(monkeypatch, 5, 9)
        assert main(["sweep", "--n", "2"]) == 1
        assert json.loads(capsys.readouterr().out)["failures"] == [{"decoded": 9, "sent": 5}]

    @pytest.mark.parametrize("messages", [[0, 16, 3], [-1]])
    def test_out_of_range_message_is_refused(self, messages):
        # the range check every sent message passes, now inside `send`
        N, H = 2, hadamard.build(4)
        bad = next(m for m in messages if not 0 <= m < 16)
        with pytest.raises(MessageOutOfRange, match=f"message {bad} outside 0..15"):
            for m in messages:
                send(N, H, start_state(N, H), m)


class TestRates:
    def test_timing_model_substitution(self):
        tm = TimingModel.equal_time(8, t=2.0)
        assert (tm.t_c, tm.t_h, tm.t_p, tm.t_u) == (2.0, 2.0, 8.0, 16.0)

    def test_capacity(self):
        assert capacity_bits(1) == 2.0
        assert capacity_bits(2) == 4.0
        assert capacity_bits(8) == 8.0

    def test_spatial_rate_exact_value(self):
        # 2*log2(2)/(4 + 1 + 1) with every gate time at the common unit
        assert rate_spatial(1, TimingModel.equal_time(1)) == pytest.approx(1 / 3, abs=1e-15)

    def test_spatial_asymptotic_form(self):
        assert rate_spatial_asymptotic(4) == pytest.approx(6 / 4, abs=1e-15)

    def test_pairwise_values(self):
        tm = TimingModel.equal_time(1)
        assert rate_pairwise(1, tm) == pytest.approx(1.0, abs=1e-15)
        assert rate_pairwise(4, TimingModel.equal_time(4)) == pytest.approx(0.25, abs=1e-15)

    def test_maximal_value(self):
        assert rate_maximal(2, TimingModel(t_c=1, t_h=1, t_p=4, t_u=2)) == pytest.approx(1.0)

    def test_maximal_needs_two_qubits(self):
        with pytest.raises(ArgOutOfRange):
            rate_maximal(1, TimingModel.equal_time(1))

    def test_equal_time_closed_forms(self):
        # the pairwise rate simplifies to 1/(NN t); the maximal rate to
        # 1/((NN-1) t) -- they approach each other only asymptotically
        for NN in range(2, 65):
            tm = TimingModel.equal_time(NN, t=1.0)
            assert rate_pairwise(NN, tm) == pytest.approx(1 / NN, rel=1e-14)
            assert rate_maximal(NN, tm) == pytest.approx(1 / (NN - 1), rel=1e-14)

    def test_advantage_exact_form(self):
        for N in (1, 2, 4, 64):
            expected = 2 * N * math.log2(2 * N) / (N + 5)
            assert advantage(N) == pytest.approx(expected, rel=1e-14)
        assert advantage(64) == pytest.approx(896 / 69, rel=1e-12)

    def test_advantage_monotone(self):
        values = [advantage(N) for N in range(1, 65)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_asymptotic_ratio_converges(self):
        ratios = [
            rate_spatial(N, TimingModel.equal_time(N)) * N / capacity_bits(N)
            for N in (2, 4, 8, 16, 32, 64)
        ]
        assert all(b > a for a, b in zip(ratios, ratios[1:]))
        assert abs(1.0 - ratios[-1]) < 0.10


class TestSpinExtension:
    def test_capacity_reduces_without_spin(self):
        for N in (1, 2, 4):
            assert spin_capacity(N, 0) == capacity_bits(N)

    def test_four_bits_at_spin_half(self):
        assert spin_capacity(1, 0.5) == 4.0

    def test_base_pair_state(self):
        s = spin_base_state(0.5)
        expected = np.zeros(4, dtype=complex)
        expected[1] = expected[2] = 1 / np.sqrt(2)  # opposite spin values pair up
        assert np.max(np.abs(s.amp - expected)) < 1e-15

    def test_sign_variant_also_entangled(self):
        s = spin_base_state(0.5, sign=-1)
        assert abs(s.norm() - 1.0) < 1e-12
        assert np.max(np.abs(partial_trace(s, 0) - np.eye(2) / 2)) < 1e-12

    def test_extended_state_report(self):
        report = spin_state_report(1, 0.5, hadamard.build(2))
        assert report["norm_deviation"] < 1e-12
        assert report["factorizes"] is True
        assert report["reduced_density_deviation"] < 1e-12
        assert report["schmidt_rank"] == 4
        assert report["capacity_bits"] == 4.0

    def test_extended_state_reduced_density(self):
        s = spin_extended_state(1, 0.5, hadamard.build(2))
        for keep in (0, 1):
            assert np.max(np.abs(partial_trace(s, keep) - np.eye(4) / 4)) < 1e-12

    def test_spin_one_report(self):
        report = spin_state_report(1, 1.0, hadamard.build(2), sign=-1)
        assert report["factorizes"] is True
        assert report["schmidt_rank"] == 6

    def test_half_integer_validation(self):
        with pytest.raises(ArgOutOfRange):
            spin_capacity(1, 0.3)
        with pytest.raises(ArgOutOfRange):
            spin_capacity(1, -0.5)

    def test_combined_round_trip(self):
        N, S = 1, 0.5
        H = hadamard.build(2)
        total = spin_message_count(N, S)
        assert total == 16
        for m in range(total):
            assert run_protocol_spin(N, S, m, H) == m

    def test_combined_round_trip_spin_one(self):
        N, S = 1, 1.0
        H = hadamard.build(2)
        for m in (0, 5, 17, 35):
            assert run_protocol_spin(N, S, m, H) == m

    def test_combined_message_bound(self):
        with pytest.raises(MessageOutOfRange):
            run_protocol_spin(1, 0.5, 16, hadamard.build(2))


def test_start_state_is_the_symmetric_base_pair():
    s = start_state(1, hadamard.build(2))
    expected = np.zeros(4, dtype=complex)
    expected[1] = expected[2] = 1 / np.sqrt(2)
    assert np.max(np.abs(s.amp - expected)) < 1e-15
