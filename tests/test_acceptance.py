"""Acceptance suite: one test per exit criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criterion 9's middle clause (the two reference rates coinciding
exactly at every size) contradicts the pinned closed forms, which give
1/(NN t) and 1/((NN-1) t); it is asserted as stated and marked as an expected
failure rather than weakened.  Details in the README's findings section.
"""

import json
import math
import time

import numpy as np
import pytest
from dense_oracle import bell_basis_matrix, compact_partner

from sdc import hadamard
from sdc.analysis import (
    TimingModel,
    capacity_bits,
    rate_maximal,
    rate_pairwise,
    rate_spatial,
    round_trip_sweep,
    spin_capacity,
    spin_state_report,
)
from sdc.bell import BellLabel, all_labels, bell_state, compact_bell_state, compose_family
from sdc.cli import main
from sdc.decoder import grand_blocks, make_decoder, pipeline_report
from sdc.encoder import (
    encode_composed,
    encode_direct,
    resolve_composition_order,
    resolve_member_mixer_reading,
)
from sdc.gates import (
    channel_hadamard_gate,
    channel_sign_gate,
    channel_swap_gate,
    ladder_shift_gate,
    nonlocal_mixer,
    position_controlled_swap,
    resolve_mixer_normalization,
)
from sdc.hilbert import apply, apply_full, partial_trace


def verdict(criterion: str, ok: bool, detail: str):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_c01_bell_basis_orthonormality():
    start = time.perf_counter()
    worst = 0.0
    for N in (1, 2, 4, 8):
        basis = bell_basis_matrix(N, hadamard.build(2 * N))
        gram = basis.conj() @ basis.T
        worst = max(worst, float(np.max(np.abs(gram - np.eye(4 * N * N)))))
    elapsed = time.perf_counter() - start
    verdict(
        "1 (orthonormality)",
        worst < 1e-12 and elapsed < 10.0,
        f"max Gram deviation {worst:.2e} over N in {{1,2,4,8}}, {elapsed:.2f}s",
    )


def test_c02_maximal_entanglement():
    worst = 0.0
    for N in (1, 2, 4):
        H = hadamard.build(2 * N)
        target = np.eye(2 * N) / (2 * N)
        for lab in all_labels(N):
            s = bell_state(N, lab, H)
            for keep in (0, 1):
                worst = max(worst, float(np.max(np.abs(partial_trace(s, keep) - target))))
    verdict(
        "2 (maximal entanglement)",
        worst < 1e-12,
        f"max reduced-density deviation {worst:.2e} over N in {{1,2,4}}, both sides",
    )


def test_c03_encoding_law():
    worst = 1.0
    labels_ok = True
    for N in (1, 2, 4):
        H = hadamard.build(2 * N)
        basis = bell_basis_matrix(N, H)
        index = {(lab.k, lab.r, lab.j): i for i, lab in enumerate(all_labels(N))}
        starts = {
            (kp, rp): bell_state(N, BellLabel(kp, rp, 1), H)
            for kp in range(1, N + 1)
            for rp in (+1, -1)
        }
        for lab in all_labels(N):
            op = encode_direct(N, H, lab)
            for (kp, rp), start in starts.items():
                moved = apply(op, 0, start)
                kpp, rpp = compose_family(lab.k, lab.r, kp, rp, N)
                overlap = np.vdot(basis[index[(kpp, rpp, lab.j)]], moved.amp)
                worst = min(worst, abs(overlap))
                if abs(overlap) < 1 - 1e-10:
                    labels_ok = False
    verdict(
        "3 (encoding law)",
        labels_ok,
        f"worst |overlap| with the predicted label {worst:.12f} over every op x start family",
    )


def test_c04_gate_decomposition_equivalence():
    worst = 1.0
    for N in (1, 2, 4):
        H = hadamard.build(2 * N)
        for lab in all_labels(N):
            direct = encode_direct(N, H, lab)
            composed = encode_composed(N, H, lab)
            for kp in range(1, N + 1):
                for rp in (+1, -1):
                    start = bell_state(N, BellLabel(kp, rp, 1), H)
                    overlap = np.vdot(apply(direct, 0, start).amp, apply(composed, 0, start).amp)
                    worst = min(worst, abs(overlap))
    reading = resolve_member_mixer_reading(4, hadamard.build(8))["reading"]
    order = resolve_composition_order(4, hadamard.build(8), reading)["order"]
    verdict(
        "4 (decomposition equivalence)",
        worst > 1 - 1e-10,
        f"worst |overlap| {worst:.12f}; exponent reading '{reading}', order '{order}'",
    )


def test_c05_grand_operator():
    worst_residual = 0.0
    mapping_ok = True
    for N in (1, 2, 4):
        H = hadamard.build(2 * N)
        op = grand_blocks(N, H)
        dense = np.asarray(op)
        eye = np.eye(4 * N * N)
        worst_residual = max(
            worst_residual,
            float(np.max(np.abs(dense.conj().T @ dense - eye))),
            float(np.max(np.abs(dense @ dense - eye))),
        )
        for lab in all_labels(N):
            out = apply_full(op, compact_bell_state(N, lab, H)).amp
            flat = (lab.j - 1) * 2 * N + (compact_partner(N, lab.k, lab.r, lab.j) - 1)
            if abs(abs(out[flat]) - 1.0) > 1e-10:
                mapping_ok = False
    verdict(
        "5 (grand operator)",
        worst_residual < 1e-10 and mapping_ok,
        f"unitarity/self-inverse residual {worst_residual:.2e}; deterministic product-ket mapping",
    )


def test_c06_gate_involutions_and_unitarity():
    worst = 0.0
    for N in (1, 2, 4):
        mats = [
            np.asarray(channel_sign_gate(N, 1)),
            np.asarray(channel_swap_gate(N, 1)),
            np.asarray(channel_hadamard_gate(N, 1)),
            np.asarray(position_controlled_swap(N)),
            np.asarray(nonlocal_mixer(N, hadamard.build(N))),
        ]
        for m in mats:
            eye = np.eye(m.shape[0])
            worst = max(
                worst,
                float(np.max(np.abs(m.conj().T @ m - eye))),
                float(np.max(np.abs(m @ m - eye))),
            )
        ladder = np.asarray(ladder_shift_gate(N, 1))
        eye = np.eye(2 * N)
        worst = max(
            worst,
            float(np.max(np.abs(ladder.conj().T @ ladder - eye))),
            float(np.max(np.abs(np.linalg.matrix_power(ladder, N) - eye))),
        )
    verdict(
        "6 (gate involutions)",
        worst < 1e-10,
        f"worst unitarity/involution/cycle residual {worst:.2e} across all basic gates and the mixer",
    )


def test_c07_channel_capacity():
    start = time.perf_counter()
    counts = {}
    for N in (1, 2, 4, 8):
        result = round_trip_sweep(N, hadamard.build(2 * N))
        counts[N] = result["round_trip_ok"]
    elapsed = time.perf_counter() - start
    ok = counts == {1: 4, 2: 16, 4: 64, 8: 256} and elapsed < 60.0
    bits = {N: capacity_bits(N) for N in counts}
    verdict(
        "7 (channel capacity)",
        ok,
        f"round trips {counts} establishing {bits} bits/particle, {elapsed:.2f}s",
    )


def test_c08_single_pair_reduction():
    N, H, HN = 1, hadamard.build(2), hadamard.build(1)
    outcomes = set()
    deterministic = True
    pipeline = make_decoder(N, H, "pipeline", HN)
    for lab in all_labels(N):
        top, _ = pipeline.decode(bell_state(N, lab, H))
        deterministic &= top.probability > 1 - 1e-10
        outcomes.add((top.first, top.second))
    sweep = round_trip_sweep(N, H)
    verdict(
        "8 (two-qubit reduction)",
        deterministic and len(outcomes) == 4 and sweep["round_trip_ok"] == 4,
        f"pipeline gives {len(outcomes)} deterministic outcomes; 4 messages = {capacity_bits(1):.0f} bits",
    )


def test_c09a_rate_closed_forms():
    tm = TimingModel(t_c=0.3, t_h=0.7, t_p=2.0, t_u=5.0)
    checks = [
        rate_spatial(4, tm) == pytest.approx(2 * math.log2(8) / (2.0 + 0.7 + 5.0), rel=1e-14),
        rate_pairwise(3, tm) == pytest.approx(2 * 3 / (9 * (0.3 + 0.7)), rel=1e-14),
        rate_maximal(3, tm) == pytest.approx(3 / (2 * (2 * 0.3 + 0.7)), rel=1e-14),
    ]
    verdict("9a (closed forms)", all(checks), "rate formulas reproduce the stated denominators")


@pytest.mark.xfail(
    strict=True,
    reason=(
        "stated as: R_p = R_m = 1/(NN t) exactly for NN in 2..64; the pinned "
        "closed forms give R_p = 1/(NN t) but R_m = 1/((NN-1) t), so the chain "
        "equality only holds asymptotically (see README findings)"
    ),
)
def test_c09b_equal_time_identity_as_stated():
    failures = []
    for NN in range(2, 65):
        tm = TimingModel.equal_time(NN, t=1.0)
        rp, rm = rate_pairwise(NN, tm), rate_maximal(NN, tm)
        if not (rp == pytest.approx(1 / NN, rel=1e-12) and rm == pytest.approx(1 / NN, rel=1e-12)):
            failures.append((NN, rp, rm))
    verdict(
        "9b (equal-time identity, as stated)",
        not failures,
        f"first mismatch {failures[0] if failures else None}: R_m = 1/((NN-1)t), not 1/(NN t)",
    )


def test_c09c_asymptotic_claims():
    # the two reference rates converge to each other, and the spatial rate
    # approaches its large-N form within 10% by N = 64
    tm64 = TimingModel.equal_time(64)
    rm_over_rp = rate_maximal(64, tm64) / rate_pairwise(64, tm64)
    ratio = rate_spatial(64, tm64) * 64 / capacity_bits(64)
    verdict(
        "9c (asymptotics)",
        abs(rm_over_rp - 1.0) < 0.02 and abs(ratio - 1.0) < 0.10,
        f"R_m/R_p at 64 = {rm_over_rp:.4f}; R_x N t / capacity = {ratio:.4f}",
    )


def test_c10_spin_extension():
    report = spin_state_report(1, 0.5, hadamard.build(2))
    ok = (
        report["norm_deviation"] < 1e-12
        and report["factorizes"]
        and report["reduced_density_deviation"] < 1e-12
        and spin_capacity(1, 0.5) == 4.0
    )
    verdict(
        "10 (spin extension)",
        ok,
        f"normalized, position x spin product, reduced density within "
        f"{report['reduced_density_deviation']:.2e} of I/4, capacity 4.0 bits",
    )


def test_c11_pipeline_reports():
    reports = {}
    for N in (1, 2):
        H, HN = hadamard.build(2 * N), hadamard.build(N)
        reading = resolve_mixer_normalization(N, HN)["reading"]
        reports[N] = pipeline_report(N, H, HN, reading)
    for N, rep in reports.items():
        print(
            f"  pipeline N={N}: deterministic={rep['deterministic']} "
            f"min_top={rep['min_top_probability']:.6f} "
            f"distinct={rep['distinct_outcomes']}/{rep['messages']} "
            f"partition_equivalent={rep['partitions_equivalent']}"
        )
    verdict(
        "11 (pipeline report)",
        reports[1]["deterministic"],
        f"N=1 deterministic (required); N=2 measured: deterministic={reports[2]['deterministic']}, "
        f"partitions_equivalent={reports[2]['partitions_equivalent']}",
    )


def test_c12_report_determinism(capsys):
    code_a = main(["verify", "--n", "4"])
    out_a = capsys.readouterr().out
    code_b = main(["verify", "--n", "4"])
    out_b = capsys.readouterr().out
    with capsys.disabled():
        verdict(
            "12 (determinism)",
            code_a == 0 and code_b == 0 and out_a == out_b,
            f"two verify runs at N=4: byte-identical={out_a == out_b}, {len(out_a)} bytes each",
        )
    assert json.loads(out_a)["pass"] is True
