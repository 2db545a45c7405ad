"""Command-line interface: subcommands, exit codes, report determinism."""

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import sdc
from sdc import errors
from sdc.cli import CONFIG_KEYS, main

# a symmetric sign matrix of order 4 whose rows do not close under products
ALT4 = "1 1 1 -1\n1 1 -1 1\n1 -1 1 1\n-1 1 1 1\n"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def typed_error(err):
    """The SdcError subclass a failing command names on stderr, or None."""
    cls = getattr(errors, err.removeprefix("error: ").partition(":")[0], None)
    return cls if isinstance(cls, type) and issubclass(cls, errors.SdcError) else None


def use_config(tmp_path, monkeypatch, text):
    conf = tmp_path / "conf"
    conf.write_text(text, encoding="utf-8")
    monkeypatch.setenv("SDC_CONFIG", str(conf))


class TestVerify:
    def test_single_pair_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--n", "1")
        assert code == 0
        report = json.loads(out)
        assert report["pass"] is True
        assert all(c["residual"] <= c["tolerance"] for c in report["checks"])

    def test_unsupported_size_is_a_config_error(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--n", "3")
        assert code == 2
        assert "UnsupportedOrder" in err

    def test_pipeline_report_included(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--n", "2", "--path", "pipeline")
        assert code == 0
        report = json.loads(out)
        assert report["pipeline"]["deterministic"] is True
        assert report["pipeline"]["partitions_equivalent"] is True

    def test_gates_only_output(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--n", "1", "--gates")
        assert code == 0
        report = json.loads(out)
        assert set(report) == {"n", "gates"}
        assert all("unitarity" in v for v in report["gates"].values())

    def test_byte_identical_reports(self, capsys):
        _, first, _ = run_cli(capsys, "verify", "--n", "2")
        _, second, _ = run_cli(capsys, "verify", "--n", "2")
        assert first == second

    def test_eight_pairs_pass(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--n", "8")
        assert code == 0
        assert json.loads(out)["pass"] is True

    @pytest.mark.parametrize(
        "argv,digest",
        [
            (["--n", "2"], "9d80310626b934645cb272068ba591f1c2a2096c5f356d8e6adfe9a5ba95ff19"),
            (["--n", "8"], "ee903b964c45d349e52231304485080df5aac31870a9b13960490b0ab7269923"),
            (
                ["--n", "2", "--path", "pipeline"],
                "78fd2475c9327f6a962c4cce5cdb51d0ed9e8f28941a80c189ab50adc189b751",
            ),
            (
                ["--n", "8", "--path", "pipeline"],
                "7dc272ff34a9574c3032afa74f301025f90b2fcb0e127c436d35408c11e53e6d",
            ),
            (
                ["--n", "4", "--gates"],
                "641321d3072ed177f02fa96e5896675f82ecd9f9b4a03c155ec0738fdac23e08",
            ),
            (["--n", "4"], "942eafa8ae6ddb68c0fea5eb2ca1e37374d92d759134d35a29c534b6790220ad"),
            (["--n", "1"], "a0786e8283edb66229cd0e029151db3ef7d2eaee285b47d9ee432fd21a2c49d6"),
            (["--n", "16"], "e5b104d60b0fe09d105619e39a633b52880dac181239f5349d1731186e8848a5"),
        ],
        ids=["n2", "n8", "n2-pipeline", "n8-pipeline", "n4-gates", "n4", "n1", "n16"],
    )
    def test_report_matches_recorded_digest(self, capsys, argv, digest):
        # residuals of one or two ulps (4.4e-16 at --n 1, 2.2e-16 at --n 4 and
        # --n 16) are in these bytes, so they also pin each check's rounding
        code, out, _ = run_cli(capsys, "verify", *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_makes_no_dense_decode(self, capsys, monkeypatch):
        import sdc.decoder as dec

        calls = []
        decode = dec.Decoder.decode
        monkeypatch.setattr(
            dec.Decoder, "decode", lambda self, s: calls.append(self.path) or decode(self, s)
        )
        code, _, _ = run_cli(capsys, "verify", "--n", "2")
        assert code == 0
        assert calls == []

    def test_pipeline_verify_builds_the_grand_route_and_resolves_the_mixer_once(
        self, capsys, monkeypatch
    ):
        import sdc.decoder as dec
        import sdc.gates as gates_mod

        builds, resolutions = [], []
        build = dec.grand_blocks
        monkeypatch.setattr(dec, "grand_blocks", lambda N, H: builds.append(N) or build(N, H))
        resolve = gates_mod.resolve_mixer_normalization
        monkeypatch.setattr(
            gates_mod,
            "resolve_mixer_normalization",
            lambda N, HN: resolutions.append(N) or resolve(N, HN),
        )
        code, out, _ = run_cli(capsys, "verify", "--n", "4", "--path", "pipeline")
        assert code == 0
        assert json.loads(out)["pipeline"]["mixer_reading"] == "pm1-entries-over-sqrt-dim"
        assert builds == [4] and resolutions == [4]

    def test_pipeline_verify_certifies_the_bell_states_once(self, capsys, monkeypatch):
        import sdc.decoder as dec

        calls = []
        certify = dec.certify_grand
        monkeypatch.setattr(dec, "certify_grand", lambda *a: calls.append(1) or certify(*a))
        code, _, _ = run_cli(capsys, "verify", "--n", "4", "--path", "pipeline")
        assert code == 0
        assert len(calls) == 1

    def test_cold_verify_builds_one_member_mixer_per_label(self, capsys, monkeypatch):
        # the benchmark's traced verify counts these builds in a fresh process
        # and fails on any other count
        import sdc.encoder as enc

        calls, shifts = [], []
        mixer, shift = enc.member_mixer, enc.family_shift
        monkeypatch.setattr(enc, "member_mixer", lambda *a: calls.append(a) or mixer(*a))
        monkeypatch.setattr(enc, "family_shift", lambda *a: shifts.append(a) or shift(*a))
        code, _, _ = run_cli(capsys, "verify", "--n", "2")
        assert code == 0
        assert len(calls) == 16
        # one shift per family, shared by the family's 2N labels
        assert shifts == [(2, k, r) for k in (1, 2) for r in (1, -1)]

    def test_cold_verify_resolves_the_member_mixer_reading_once(self, capsys, monkeypatch):
        import sdc.encoder as enc

        calls = []
        resolve = enc.resolve_member_mixer_reading
        monkeypatch.setattr(
            enc, "resolve_member_mixer_reading", lambda *a: calls.append(a) or resolve(*a)
        )
        code, _, _ = run_cli(capsys, "verify", "--n", "2")
        assert code == 0
        assert len(calls) == 1

    def test_wrong_family_shift_fails_the_composed_action(self, capsys, monkeypatch):
        import sdc.encoder as enc

        shift = enc.family_shift
        # family (2, -1) gets the shift of family (2, +1): no order reproduces it
        monkeypatch.setattr(enc, "family_shift", lambda N, k, r: shift(N, k, 1 if k == 2 else r))
        code, out, err = run_cli(capsys, "verify", "--n", "2")
        assert code == 2 and out == ""
        assert "PropertyViolated" in err and "neither composition order" in err


class TestRun:
    def test_identity_message(self, capsys):
        code, out, _ = run_cli(capsys, "run", "--n", "1", "--message", "0")
        assert code == 0
        assert json.loads(out)["decoded"] == 0

    def test_two_pair_message(self, capsys):
        code, out, _ = run_cli(capsys, "run", "--n", "2", "--message", "7")
        payload = json.loads(out)
        assert code == 0 and payload["decoded"] == 7 and payload["ok"] is True

    def test_message_bound(self, capsys):
        code, _, err = run_cli(capsys, "run", "--n", "1", "--message", "4")
        assert code == 2
        assert "MessageOutOfRange" in err

    def test_spin_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, "run", "--n", "1", "--message", "11", "--s", "0.5")
        payload = json.loads(out)
        assert code == 0 and payload["decoded"] == 11

    @pytest.mark.parametrize("spin", ["-1", "nan", "inf"])
    def test_invalid_spin_is_rejected(self, capsys, spin):
        code, out, err = run_cli(capsys, "run", "--n", "1", "--message", "0", "--s", spin)
        assert code == 2 and out == ""
        assert "ArgOutOfRange" in err

    def test_spin_with_the_pipeline_route_is_refused(self, capsys):
        # the spin extension decodes on the grand route only
        argv = ["run", "--n", "2", "--message", "7", "--s", "0.5", "--path", "pipeline"]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert "ConfigError" in err and "--s" in err and "--path pipeline" in err

    def test_builds_the_grand_operator_once(self, capsys, monkeypatch):
        import sdc.decoder as dec

        calls = []
        build = dec.grand_blocks
        monkeypatch.setattr(dec, "grand_blocks", lambda N, H: calls.append(N) or build(N, H))
        code, _, _ = run_cli(capsys, "run", "--n", "2", "--message", "5")
        assert code == 0
        assert calls == [2]


    def test_maps_its_outcome_without_a_decode_table(self, capsys, monkeypatch):
        import sdc.decoder as dec

        calls = []
        certify = dec.certify_grand
        monkeypatch.setattr(dec, "certify_grand", lambda *a: calls.append(1) or certify(*a))
        code, out, _ = run_cli(capsys, "run", "--n", "4", "--message", "37")
        assert code == 0 and json.loads(out)["decoded"] == 37
        assert calls == []

    def test_spread_outcome_exits_2(self, capsys, monkeypatch):
        # swapping one column between families 0 and 1 keeps the operator
        # unitary but spreads their states; message 4 is sent as a family-0
        # state, and the run's own probability check catches it
        import sdc.decoder as dec

        build = dec.grand_blocks

        def swapped(N, H):
            op = build(N, H)
            rows = op.rows.copy()
            rows[[0, 1], 1] = rows[[1, 0], 1]
            return dec.PermutedBlockOp(rows, op.block)

        monkeypatch.setattr(dec, "grand_blocks", swapped)
        code, out, err = run_cli(capsys, "run", "--n", "2", "--message", "4")
        assert code == 2 and out == ""
        assert "NonDeterministicOutcome" in err and "0.562500" in err


def test_commands_import_no_scipy():
    # scipy is a test-only oracle; importing it would cost most of a small
    # run's start-up
    script = (
        "import json, sys, contextlib, io\n"
        "import sdc.cli\n"
        "loaded = {}\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        sdc.cli.main(argv)\n"
        "    loaded[' '.join(argv)] = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "print(json.dumps(loaded))\n"
    )
    argvs = [
        ["run", "--n", "4", "--message", "5"],
        ["sweep", "--n", "4"],
        ["verify", "--n", "2"],
        ["verify", "--n", "2", "--path", "pipeline"],
        ["table", "--n", "2"],
        ["bases", "--n", "2"],
    ]
    env = {**os.environ, "PYTHONPATH": str(Path(sdc.__file__).parents[1])}
    env.pop("SDC_CONFIG", None)
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(argvs)],
        capture_output=True, text=True, env=env, check=True,
    )
    loaded = json.loads(proc.stdout)
    assert loaded == {" ".join(argv): [] for argv in argvs}


class TestEncodeDecode:
    def test_encode_dump_matches_operator(self, capsys):
        from sdc import hadamard
        from sdc.bell import message_to_label
        from sdc.encoder import encode_direct

        code, out, _ = run_cli(capsys, "encode", "--n", "2", "--message", "5", "--dump-op")
        assert code == 0
        payload = json.loads(out)
        op = encode_direct(2, hadamard.build(4), message_to_label(5, 2))
        for entry in payload["op"]["entries"]:
            assert op.target[entry["col"]] == entry["row"]
            assert op.phase[entry["col"]].real == entry["sign"]

    @pytest.mark.parametrize(
        "argvs,digest",
        [
            (
                [["encode", "--n", "2", "--message", str(m), "--dump-op"] for m in range(16)],
                "a97c20536e206594776ee949d117cc22eab442d071b90bdc66f482ef6cb37840",
            ),
            (
                [["encode", "--n", "4", "--message", str(m), "--dump-op"] for m in range(64)],
                "cec41d1126d40dca96550eb0d75da459701a46f556625fd7b775832f76ce74d8",
            ),
            (
                [["table", "--n", "4"]],
                "629c2a1a2ae935cc4286f4b6e10788e9428345ff782d9ac5eb045e8f09299bd8",
            ),
            (
                [["table", "--n", "8"]],
                "3e08e640f4291c246a4e0de0301bf307e4cbf0b63174f4e9bd0b18b3baf54da7",
            ),
            (
                [["sweep", "--n", "16"]],
                "553c7b93edff0b1c75e78f11dba82304707448842508ec5894b27e408637d8bc",
            ),
            (
                # 16,384 messages: the largest sweep that was never sampled
                [["sweep", "--n", "64"]],
                "7df5b649e04686e8cb5fa96d7c862b54323b07aec6998ded6c26f3ecec4224de",
            ),
        ],
        ids=["encode-n2", "encode-n4", "table-n4", "table-n8", "sweep-n16", "sweep-n64"],
    )
    def test_integer_output_matches_recorded_digest(self, capsys, argvs, digest):
        # sha256 of the concatenated stdout of each command, in order; the
        # output holds only integers, so it is fixed bit for bit
        h = hashlib.sha256()
        for argv in argvs:
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0
            h.update(out.encode())
        assert h.hexdigest() == digest

    def test_dump_state_then_decode(self, capsys, tmp_path):
        state_file = tmp_path / "state.json"
        code, out, _ = run_cli(
            capsys, "run", "--n", "2", "--message", "9", "--dump-state", str(state_file)
        )
        assert code == 0
        expected = json.loads(out)["outcome"]
        code, out, _ = run_cli(capsys, "decode", "--n", "2", "--state", str(state_file))
        assert code == 0
        top = json.loads(out)["top"]
        assert (top["first"], top["second"]) == (expected["first"], expected["second"])


    def test_dump_and_decode_match_recorded_digests(self, capsys, tmp_path):
        # run's report, its dumped state and the decode of that dump, at N = 16
        dump = tmp_path / "state.json"
        code, run_out, _ = run_cli(
            capsys, "run", "--n", "16", "--message", "77", "--dump-state", str(dump)
        )
        assert code == 0
        code, decode_out, _ = run_cli(capsys, "decode", "--n", "16", "--state", str(dump))
        assert code == 0
        digests = [
            hashlib.sha256(data).hexdigest()
            for data in (run_out.encode(), dump.read_bytes(), decode_out.encode())
        ]
        assert digests == [
            "5b91668212fbf239eefaf25ebee682f7b2349432c1c7cafa46a14c195668b434",
            "a2298f2333fa41699464afcddc31cdb98a746078aea52fe2da4a9f3e0f8fad58",
            "2155ccf00ffb9fad6be05968e783ae42bb90ea6728cd70219af86596f887a8e9",
        ]


def write_dump(tmp_path, text):
    path = tmp_path / "state.json"
    path.write_text(text)
    return str(path)


class TestStateDumpBoundary:
    """Malformed dumps exit 2 with a typed error, never a traceback or NaN."""

    @pytest.mark.parametrize(
        "text",
        [
            "[]",
            '{"amplitudes": [[1, 0], [0, 0], [0, 0], [0, 0]]}',
            '{"dims": [2, 2]}',
            '{"dims": [2, 2], "amplitudes": [["1", 0], [0, 0], [0, 0], [0, 0]]}',
            '{"dims": [2, 2], "amplitudes": [[1, 0, 0], [0, 0], [0, 0], [0, 0]]}',
            '{"dims": [2, 2], "amplitudes": [[NaN, 0], [0, 0], [0, 0], [0, 0]]}',
            '{"dims": [2, 2], "amplitudes": [[Infinity, 0], [0, 0], [0, 0], [0, 0]]}',
        ],
        ids=["array", "no-dims", "no-amplitudes", "string", "triple", "nan", "infinity"],
    )
    def test_malformed_dump_is_a_config_error(self, capsys, tmp_path, text):
        code, out, err = run_cli(capsys, "decode", "--n", "1", "--state", write_dump(tmp_path, text))
        assert code == 2 and out == ""
        assert "ConfigError" in err

    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        value=st.one_of(
            st.recursive(
                st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
                lambda inner: st.lists(inner, max_size=5)
                | st.dictionaries(st.sampled_from(["dims", "amplitudes", "x"]), inner),
                max_leaves=12,
            ),
            st.fixed_dictionaries(
                {
                    "dims": st.just([2, 2]),
                    "amplitudes": st.lists(
                        st.lists(st.floats() | st.integers(), min_size=2, max_size=2),
                        min_size=4,
                        max_size=4,
                    ),
                }
            ),
        )
    )
    def test_any_json_dump_exits_cleanly(self, capsys, tmp_path, value):
        path = write_dump(tmp_path, json.dumps(value))
        code, out, err = run_cli(capsys, "decode", "--n", "1", "--state", path)
        assert code == 0 or (code == 2 and typed_error(err))
        assert "NaN" not in out and "Infinity" not in out

    @pytest.mark.parametrize("path", ["grand", "pipeline"])
    def test_dims_past_int64_are_a_dimension_mismatch(self, capsys, tmp_path, path):
        # 2^32 * 2^32 wraps to 0 as an int64 product, which would match no amplitudes
        dump = write_dump(tmp_path, '{"dims": [4294967296, 4294967296], "amplitudes": []}')
        code, out, err = run_cli(capsys, "decode", "--n", "1", "--path", path, "--state", dump)
        assert code == 2 and out == ""
        assert typed_error(err) is errors.DimensionMismatch

    @pytest.mark.parametrize("path", ["grand", "pipeline"])
    def test_overflowing_dump_is_rejected_without_warnings(self, tmp_path, path):
        # a fresh interpreter, so stderr is exactly what a user sees
        src = str(Path(sdc.__file__).resolve().parents[1])
        for amplitudes in (
            "[[1e200, 0], [0, 0], [0, 0], [0, 0]]",
            # each modulus is finite, but the rotation's sums would overflow
            "[[1.5e308, 0], [0, 0], [0, 0], [1.5e308, 0]]",
        ):
            dump = write_dump(tmp_path, f'{{"dims": [2, 2], "amplitudes": {amplitudes}}}')
            proc = subprocess.run(
                [sys.executable, "-m", "sdc.cli", "decode", "--n", "1", "--path", path]
                + ["--state", dump],
                capture_output=True,
                text=True,
                env={**os.environ, "PYTHONPATH": src},
            )
            assert proc.returncode == 2 and proc.stdout == ""
            assert proc.stderr.startswith(
                "error: DimensionMismatch: input state is not normalized"
            )
            assert proc.stderr.count("\n") == 1 and "Warning" not in proc.stderr


class TestTableAndSweep:
    def test_table_lists_every_message(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--n", "1")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["message", "first", "second"]
        assert sorted(int(r[0]) for r in rows[1:]) == [0, 1, 2, 3]
        # outcome pairs are distinct
        assert len({(r[1], r[2]) for r in rows[1:]}) == 4

    def test_sweep_certifies_the_bell_states_once(self, capsys, monkeypatch):
        # the decode table is built only for states the certified pass misreads
        import sdc.analysis as analysis_mod
        import sdc.decoder as dec

        calls = []
        certify = dec.certify_grand

        def counted(*a):
            calls.append(1)
            return certify(*a)

        for mod in (dec, analysis_mod):
            monkeypatch.setattr(mod, "certify_grand", counted)
        code, out, _ = run_cli(capsys, "sweep", "--n", "4")
        assert code == 0 and json.loads(out)["round_trip_ok"] == 64
        assert len(calls) == 1

    def test_sweep_full_success(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--n", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["round_trip_ok"] == 16
        assert payload["sampled"] is False

    def test_seed_flag_is_refused(self, capsys):
        # every sweep checks all messages, so there is no sample to seed
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--n", "2", "--seed", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err

    def test_sweep_pipeline_path(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--n", "1", "--path", "pipeline")
        assert code == 0
        assert json.loads(out)["round_trip_ok"] == 4

    @pytest.mark.parametrize(
        "argvs,digest",
        [
            (
                [["table", "--path", "pipeline", "--n", "1"]],
                "44b0ee822643b206beb251e53f62452b336720c9032870d5c0751a7d449a5570",
            ),
            (
                [["table", "--path", "pipeline", "--n", "2"]],
                "b3fea7620304a1212a7d48323b0ef0ea060c8c6734f3b06a8f79958f16abbebe",
            ),
            (
                [["table", "--path", "pipeline", "--n", "4"]],
                "9b9551dded0d310f7cc27cfecb85fa6f3ca219b55350a65c08f90ea48c691f5a",
            ),
            (
                [["sweep", "--path", "pipeline", "--n", "1"]],
                "f8fc4e9da2ec5b4a3a7c47d41d728370662f2d8a1669d7a2107f8be152a4af56",
            ),
            (
                [["sweep", "--path", "pipeline", "--n", "2"]],
                "f55e1ed6a95bfa4dec6a624ebecc6bb8ab425440af258a0b0468ea86c1ee2ab8",
            ),
            (
                [["sweep", "--path", "pipeline", "--n", "4"]],
                "77fd39d5c153d328586bfbf97c0e7b68e8c96e7452b07ef41997106a8ffc9c17",
            ),
            (
                [["run", "--path", "pipeline", "--n", "4", "--message", str(m)] for m in range(64)],
                "91c1cb65fbf88f2075c7831da537b445c2b9a02c254e9ab13d551f08b1b4231b",
            ),
        ],
        ids=["table-n1", "table-n2", "table-n4", "sweep-n1", "sweep-n2", "sweep-n4", "run-n4"],
    )
    def test_pipeline_output_matches_recorded_digest(self, capsys, argvs, digest):
        # sha256 of the concatenated stdout of each command, in order; the
        # runs' top probabilities pin the pipeline's rounding too
        h = hashlib.sha256()
        for argv in argvs:
            code, out, err = run_cli(capsys, *argv)
            assert code == 0 and err == ""
            h.update(out.encode())
        assert h.hexdigest() == digest

    @pytest.mark.parametrize(
        "argv", [["table"], ["run", "--message", "3"]], ids=["table", "run"]
    )
    def test_pipeline_at_eight_pairs_names_its_first_spread_label(self, capsys, argv):
        # label 40 spreads before label 42 repeats an earlier outcome; the
        # pipeline reports whichever comes first in message order
        code, out, err = run_cli(capsys, argv[0], "--path", "pipeline", "--n", "8", *argv[1:])
        assert (code, out) == (2, "")
        assert err == (
            "error: NonDeterministicOutcome: pipeline decoder spread label "
            "BellLabel(k=2, r=1, j=9) over multiple outcomes (top probability 0.250000)\n"
        )


class TestRates:
    def test_csv_values(self, capsys):
        code, out, _ = run_cli(capsys, "rates", "--n-list", "1,2,4", "--t", "1.0")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == [
            "N", "capacity_bits", "R_x_exact", "R_x_asymptotic", "R_p", "R_m", "advantage",
        ]
        first = rows[1]
        assert first[0] == "1"
        assert float(first[1]) == 2.0
        assert float(first[2]) == pytest.approx(1 / 3)
        assert first[5] == ""  # no maximal-case rate below two qubits
        assert float(rows[2][5]) == pytest.approx(1.0)

    def test_lf_line_endings(self, capsys):
        _, out, _ = run_cli(capsys, "rates", "--n-list", "1,2")
        assert "\r" not in out

    def test_entry_below_one_is_a_config_error(self, capsys):
        code, out, err = run_cli(capsys, "rates", "--n-list", "0")
        assert code == 2 and out == ""
        assert "ConfigError" in err and "entry 0" in err

    @pytest.mark.parametrize(
        "n_list,entry", [("1,x", "'x'"), ("", "''"), ("1,,2", "''")], ids=["word", "empty", "gap"]
    )
    def test_malformed_entry_is_a_config_error(self, capsys, n_list, entry):
        code, out, err = run_cli(capsys, "rates", "--n-list", n_list)
        assert code == 2 and out == ""
        assert "ConfigError" in err and f"entry {entry}" in err

    @pytest.mark.parametrize("t", ["0", "-1", "nan", "inf"])
    def test_time_must_be_finite_and_positive(self, capsys, t):
        code, out, err = run_cli(capsys, "rates", "--t", t)
        assert code == 2 and out == ""
        assert "ArgOutOfRange" in err


class TestSpin:
    def test_report(self, capsys):
        code, out, _ = run_cli(capsys, "spin", "--n", "1", "--s", "0.5")
        assert code == 0
        payload = json.loads(out)
        assert payload["capacity_bits"] == 4.0
        assert payload["factorizes"] is True
        assert payload["schmidt_rank"] == 4

    def test_minus_sign_variant(self, capsys):
        code, out, _ = run_cli(capsys, "spin", "--n", "1", "--s", "1", "--sign", "-1")
        assert code == 0
        assert json.loads(out)["schmidt_rank"] == 6


class TestBases:
    def test_states_and_gram(self, capsys):
        code, out, _ = run_cli(capsys, "bases", "--n", "1")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["states"]) == 4
        assert payload["gram_max_deviation"] < 1e-12
        amps = payload["states"][0]["amplitudes"]
        norm = sum(re * re + im * im for re, im in amps)
        assert norm == pytest.approx(1.0, abs=1e-12)

    def test_builds_each_state_once(self, capsys, monkeypatch):
        import sdc.bell as bell_mod

        calls = []
        build = bell_mod.bell_state
        monkeypatch.setattr(
            bell_mod, "bell_state", lambda N, lab, H: calls.append(lab) or build(N, lab, H)
        )
        code, out, _ = run_cli(capsys, "bases", "--n", "2")
        assert code == 0
        assert len(calls) == 16 and len(set(calls)) == 16
        # the JSON is unchanged by building each state once
        digest = "38212783fa9af094055ae8a29503a0f25d1cd628d56cf17669f5d5cfc1f0da20"
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_four_pair_report_matches_recorded_digest(self, capsys):
        # the Gram deviation is exact, so no rounding residual is left to vary
        code, out, _ = run_cli(capsys, "bases", "--n", "4")
        assert code == 0
        assert json.loads(out)["gram_max_deviation"] == 0.0
        digest = "b35d639873573ce86ee09e988f3a84de474add19d37238c610d19214f9bed24c"
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestConfigFile:
    def test_custom_matrix_registry(self, capsys, tmp_path, monkeypatch):
        mats = tmp_path / "mats.txt"
        mats.write_text("1 1 1 -1\n1 1 -1 1\n1 -1 1 1\n-1 1 1 1\n")
        conf = tmp_path / "conf"
        conf.write_text(f"hadamard.custom_matrices={mats}\n")
        monkeypatch.setenv("SDC_CONFIG", str(conf))
        # the registered order-4 matrix now backs the two-pair basis
        code, out, _ = run_cli(capsys, "bases", "--n", "2")
        assert code == 0
        assert json.loads(out)["gram_max_deviation"] < 1e-12

    def test_bad_config_line(self, capsys, tmp_path, monkeypatch):
        conf = tmp_path / "conf"
        conf.write_text("tolerance\n")
        monkeypatch.setenv("SDC_CONFIG", str(conf))
        code, _, err = run_cli(capsys, "verify", "--n", "1")
        assert code == 2
        assert "ConfigError" in err

    def test_verify_escalates_on_lawless_custom_matrix(self, capsys, tmp_path, monkeypatch):
        # the alternative matrix breaks the member-mixer law, which must be
        # escalated (neither reading fits), not silently worked around
        mats = tmp_path / "mats.txt"
        mats.write_text("1 1 1 -1\n1 1 -1 1\n1 -1 1 1\n-1 1 1 1\n")
        conf = tmp_path / "conf"
        conf.write_text(f"hadamard.custom_matrices={mats}\n")
        monkeypatch.setenv("SDC_CONFIG", str(conf))
        code, _, err = run_cli(capsys, "verify", "--n", "2")
        assert code == 2
        assert "PropertyViolated" in err

    def test_lawless_matrix_names_the_missing_row_product(self, capsys, tmp_path):
        mats = tmp_path / "mats.txt"
        mats.write_text(ALT4)
        code, _, err = run_cli(capsys, "verify", "--n", "2", "--custom-matrices", str(mats))
        assert code == 2
        assert "PropertyViolated" in err and "row 1 * row 1 is not a row of H" in err

    @pytest.mark.parametrize(
        "line,command",
        [
            ("tolerance.exact=nan", "verify"),
            ("tolerance.exact=nan", "spin"),
            ("tolerance.exact=-1", "verify"),
            ("seed=abc", "verify"),
            ("seed=-1", "sweep"),
            ("tolerence.exact=1", "verify"),
        ],
        ids=[
            "nan-verify",
            "nan-spin",
            "negative-tolerance",
            "non-integer-seed",
            "negative-seed",
            "misspelt-key",
        ],
    )
    def test_bad_config_entry_is_a_config_error(
        self, capsys, tmp_path, monkeypatch, line, command
    ):
        use_config(tmp_path, monkeypatch, line + "\n")
        code, out, err = run_cli(capsys, command, "--n", "1")
        assert code == 2 and out == ""
        assert "ConfigError" in err and line.split("=")[0] in err

    @pytest.mark.parametrize(
        "text,where",
        [("1 1\n1 x\n", "line 2"), ("# order 2\n1 1\n1\n", "line 2")],
        ids=["non-integer-entry", "ragged-block"],
    )
    def test_bad_registry_is_a_config_error(self, capsys, tmp_path, text, where):
        mats = tmp_path / "mats.txt"
        mats.write_text(text)
        code, out, err = run_cli(capsys, "bases", "--n", "1", "--custom-matrices", str(mats))
        assert code == 2 and out == ""
        assert "ConfigError" in err and where in err

    @pytest.mark.parametrize("role", ["registry", "config", "state"])
    def test_non_utf8_file_is_a_config_error(self, capsys, tmp_path, monkeypatch, role):
        path = tmp_path / role
        path.write_bytes(b"\xff1 1\n1 -1\n")
        argv = ["bases", "--n", "1"]
        if role == "registry":
            argv += ["--custom-matrices", str(path)]
        elif role == "config":
            monkeypatch.setenv("SDC_CONFIG", str(path))
        else:
            argv = ["decode", "--n", "1", "--state", str(path)]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert "ConfigError" in err and str(path) in err and "UTF-8" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["bases", "--custom-matrices", "{tmp}/missing"],
            ["bases", "--custom-matrices", "{tmp}"],
            ["decode", "--state", "{tmp}/missing.json"],
            ["decode", "--state", "{tmp}/open.json"],
            ["run", "--message", "0", "--dump-state", "{tmp}/missing/state.json"],
        ],
        ids=["registry-missing", "registry-directory", "state-missing", "state-not-json",
             "dump-directory-missing"],
    )
    def test_unusable_file_is_a_config_error(self, capsys, tmp_path, argv):
        (tmp_path / "open.json").write_text("{")
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        code, out, err = run_cli(capsys, argv[0], "--n", "1", *argv[1:])
        assert code == 2 and out == ""
        # the file is named, as the config file's read error names it
        assert typed_error(err) is errors.ConfigError and argv[-1] in err

    @settings(
        max_examples=80,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        role=st.sampled_from(["config", "registry"]),
        text=st.text(max_size=40)
        | st.lists(
            st.sampled_from([*CONFIG_KEYS, "x", "=", "1", "-1", "+1", "0", "nan", "inf",
                             "1.5", "9" * 20, " ", "\n", "#"]),
            max_size=24,
        ).map("".join),
    )
    def test_any_config_or_registry_text_exits_cleanly(
        self, capsys, tmp_path, monkeypatch, role, text
    ):
        target = tmp_path / role
        target.write_text(text, encoding="utf-8")
        if role == "config":
            monkeypatch.setenv("SDC_CONFIG", str(target))
        else:
            use_config(tmp_path, monkeypatch, f"hadamard.custom_matrices={target}\n")
        code, out, _ = run_cli(capsys, "bases", "--n", "1")
        assert code in (0, 2)
        assert "NaN" not in out and "Infinity" not in out
