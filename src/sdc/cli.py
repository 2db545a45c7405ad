"""Command-line front end: verification suites, protocol runs, reports.

Subcommands: bases, verify, encode, decode, table, run, sweep, rates, spin.
Reports are emitted as sorted-key JSON or LF-terminated CSV and contain no
timestamps or unordered collections, so identical configurations produce
byte-identical output.  Exit codes: 0 success, 1 verification/round-trip
failure, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__, analysis, bell, decoder, encoder, gates, hadamard, hilbert
from .errors import ArgOutOfRange, ConfigError, MessageOutOfRange, SdcError

CONFIG_ENV = "SDC_CONFIG"
# config file key -> RunConfig field; any other key is an error
CONFIG_KEYS = {
    "hadamard.custom_matrices": "custom_matrices",
    "tolerance.exact": "tol_exact",
    "tolerance.chained": "tol_chained",
}


@dataclass
class RunConfig:
    """Resolved options for one invocation (config file merged with flags)."""

    n: int = 1
    s: float = 0.0
    path: str = "grand"
    tol_exact: float = hilbert.TOL_EXACT
    tol_chained: float = hilbert.TOL_CHAINED
    custom_matrices: str | None = None
    registry: dict = field(default_factory=dict)

    def hadamard_pair(self):
        """(order-2N matrix, order-N matrix or None when the pipeline is off)."""
        H = hadamard.build(2 * self.n, custom=self.registry or None)
        HN = None
        if self.path == "pipeline":
            HN = hadamard.build(self.n, custom=self.registry or None)
        return H, HN


def _config_value(key: str, text: str):
    """Parse one config value; a malformed one raises ConfigError naming the key."""
    if key == "hadamard.custom_matrices":
        return text
    try:
        val = float(text)
    except ValueError:
        raise ConfigError(f"{key} must be a number, got {text!r}") from None
    if not (val >= 0 and np.isfinite(val)):
        raise ConfigError(f"{key} must be a finite number >= 0, got {text!r}")
    return val


def _load_config_file() -> dict:
    """RunConfig field values from the SDC_CONFIG file, parsed and checked."""
    path = os.environ.get(CONFIG_ENV)
    if not path:
        return {}
    values = {}
    try:
        for line in Path(path).read_text(encoding="utf-8").splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"bad config line (expected key=value): {line!r}")
            key, val = (part.strip() for part in line.split("=", 1))
            if key not in CONFIG_KEYS:
                raise ConfigError(f"unknown config key {key!r} (known: {', '.join(CONFIG_KEYS)})")
            values[CONFIG_KEYS[key]] = _config_value(key, val)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8 text ({exc.reason})") from None
    return values


def make_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(**_load_config_file())

    for name in ("n", "s", "path"):
        val = getattr(args, name, None)
        if val is not None:
            setattr(cfg, name, val)
    if getattr(args, "custom_matrices", None):
        cfg.custom_matrices = args.custom_matrices

    if cfg.n < 1:
        raise ConfigError(f"n must be positive, got {cfg.n}")
    if cfg.path not in ("grand", "pipeline"):
        raise ConfigError(f"path must be grand or pipeline, got {cfg.path}")
    if cfg.custom_matrices:
        cfg.registry = hadamard.load_custom_matrices(cfg.custom_matrices)
    return cfg


def _emit_json(payload) -> None:
    sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")


def _emit_csv(header: list[str], rows: list[list]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    sys.stdout.write(buf.getvalue())


def _static_conventions(H) -> dict:
    """Self-describing header: the fixed conventions every report relies on."""
    return {
        "hadamard_construction": H.construction,
        "index_map": "plus-n to n-1, minus-n to N+n-1",
        "modular_reduction": "zero-free into 1..N",
        "compact_relabel": "first-particle interleave, identity on second",
    }


def table_residuals(targets: np.ndarray, phases: np.ndarray) -> dict:
    """Worst Bell-basis residuals of a `bell.bell_table`, exact for +-1 phases.

    gram: max|<a|b> - delta_ab|.  States a and b overlap where their targets
    agree, so <a|b> = sum_i [t_a[i] == t_b[i]] p_a[i] conj(p_b[i]) / 2N.
    Rows with one target row (a family) form a group whose Gram block is
    P P^H / 2N; two groups overlap only on the columns where their targets
    agree, which are found from the (target, column) slots held by more than
    one group.  partial_trace: max|rho - I/2N|, where both reduced states
    are diag(|phase|^2) / 2N.  amplitude: max||amp| - 1/sqrt(2N)| over the
    amplitudes phase / sqrt(2N).
    """
    dim = phases.shape[1]
    uniq, group, sizes = np.unique(targets, axis=0, return_inverse=True, return_counts=True)
    members = np.split(np.argsort(group.reshape(-1), kind="stable"), np.cumsum(sizes)[:-1])
    worst = 0.0
    for rows in members:
        p = phases[rows]
        worst = max(worst, np.max(np.abs(p @ p.conj().T - dim * np.eye(len(rows)))))
    _, slot, held = np.unique(uniq * dim + np.arange(dim), return_inverse=True, return_counts=True)
    sharing = np.flatnonzero((held[slot.reshape(uniq.shape)] > 1).any(axis=1))
    for i, g in enumerate(sharing):
        for h in sharing[i + 1:]:
            cols = np.flatnonzero(uniq[g] == uniq[h])
            if cols.size:
                cross = phases[members[g]][:, cols] @ phases[members[h]][:, cols].conj().T
                worst = max(worst, np.max(np.abs(cross)))
    mags = np.abs(phases)
    return {
        "gram": float(worst) / dim,
        "partial_trace": float(np.max(np.abs(mags**2 - 1.0))) / dim,
        "amplitude": float(np.max(np.abs(mags - 1.0)) / np.sqrt(dim)),
    }


# ---------------------------------------------------------------------------
# subcommands


def cmd_bases(cfg: RunConfig) -> int:
    H, _ = cfg.hadamard_pair()
    gram_dev = table_residuals(*bell.bell_table(cfg.n, H))["gram"]
    states = []
    for lab in bell.all_labels(cfg.n):
        entry = {"label": {"k": lab.k, "r": lab.r, "j": lab.j}}
        entry.update(hilbert.state_to_dict(bell.bell_state(cfg.n, lab, H)))
        states.append(entry)
    _emit_json(
        {
            "n": cfg.n,
            "conventions": _static_conventions(H),
            "gram_max_deviation": gram_dev,
            "states": states,
        }
    )
    return 0


def _check(name: str, residual: float, tolerance: float) -> dict:
    return {
        "name": name,
        "residual": float(residual),
        "tolerance": tolerance,
        "pass": bool(residual <= tolerance),
    }


def build_verify_report(cfg: RunConfig) -> dict:
    """Full invariant suite for one N; every check carries its residual."""
    N = cfg.n
    H, HN = cfg.hadamard_pair()
    dim = 2 * N
    checks: list[dict] = []

    # Hadamard backbone
    norm = H.normalized
    checks.append(_check("hadamard-symmetry", np.max(np.abs(norm - norm.T)), 0.0))
    checks.append(
        _check("hadamard-involution", np.max(np.abs(norm @ norm - np.eye(dim))), cfg.tol_exact)
    )
    checks.append(
        _check(
            "hadamard-entry-magnitude",
            np.max(np.abs(np.abs(norm) - 1.0 / np.sqrt(dim))),
            cfg.tol_exact,
        )
    )

    # Bell bases, each held as its table of signed permutations
    standard = table_residuals(*bell.bell_table(N, H))
    compact = table_residuals(*bell.bell_table(N, H, compact=True))
    checks.append(_check("bell-gram", standard["gram"], cfg.tol_exact))
    checks.append(_check("bell-compact-gram", compact["gram"], cfg.tol_exact))
    checks.append(_check("bell-partial-trace", standard["partial_trace"], cfg.tol_exact))
    checks.append(_check("bell-amplitude-structure", standard["amplitude"], cfg.tol_exact))

    try:
        relabel_method = bell.derive_compact_relabel(N, H).method
        relabel_missing = 0.0
    except SdcError:
        relabel_method = "none"
        relabel_missing = 1.0
    checks.append(_check("bell-compact-relabel-found", relabel_missing, 0.0))

    # basic gates
    gate_report = {}
    def op_residuals(name, mat):
        d = mat.shape[0]
        unit = float(np.max(np.abs(mat.conj().T @ mat - np.eye(d))))
        invol = float(np.max(np.abs(mat @ mat - np.eye(d))))
        gate_report[name] = {"unitarity": unit, "involution": invol}
        checks.append(_check(f"gate-{name}-unitarity", unit, cfg.tol_chained))
        return invol

    for n in range(1, N + 1):
        for name, op in (
            (f"channel-sign-{n}", gates.channel_sign_gate(N, n)),
            (f"channel-swap-{n}", gates.channel_swap_gate(N, n)),
            (f"channel-hadamard-{n}", gates.channel_hadamard_gate(N, n)),
        ):
            invol = op_residuals(name, np.asarray(op))
            checks.append(_check(f"gate-{name}-involution", invol, cfg.tol_chained))

    ladder = gates.ladder_shift_gate(N, 1)
    cycle = hilbert.identity_perm(dim)
    for _ in range(N):
        cycle = hilbert.compose_perms(ladder, cycle)
    checks.append(
        _check(
            "gate-ladder-cycle",
            np.max(np.abs(np.asarray(cycle) - np.eye(dim))),
            cfg.tol_exact,
        )
    )

    # signed permutation P: P^H P = diag(|phase|^2); P^2 - I is 0 where P^2
    # sends an index home with phase 1, and has a unit entry elsewhere
    pcs = gates.position_controlled_swap(N)
    square = hilbert.compose_perms(pcs, pcs)
    unit = float(np.max(np.abs(np.abs(pcs.phase) ** 2 - 1.0)))
    home = square.target == np.arange(pcs.dim)
    invol = float(np.max(np.where(home, np.abs(square.phase - 1.0), 1.0)))
    gate_report["controlled-swap"] = {"unitarity": unit, "involution": invol}
    checks.append(_check("gate-controlled-swap-unitarity", unit, cfg.tol_chained))
    checks.append(_check("gate-controlled-swap-involution", invol, cfg.tol_chained))
    if N >= 2:
        h1 = gates.channel_hadamard_gate(N, 1)
        h2 = gates.channel_hadamard_gate(N, 2)
        checks.append(
            _check("gate-disjoint-commutation", np.max(np.abs(h1 @ h2 - h2 @ h1)), cfg.tol_exact)
        )

    mixer_info = None
    if HN is not None:
        mixer_info = gates.resolve_mixer_normalization(N, HN)
        checks.append(
            _check("gate-mixer-unitarity", mixer_info["unitarity_residual"], cfg.tol_chained)
        )
        checks.append(
            _check("gate-mixer-involution", mixer_info["involution_residual"], cfg.tol_chained)
        )

    # encoder laws
    laws = encoder.encode_law_residuals(N, H)
    checks.append(_check("encode-signed-permutation-structure", laws["structure"], cfg.tol_exact))
    checks.append(_check("encode-family-rule", laws["family_rule"], cfg.tol_chained))
    checks.append(_check("encode-no-signaling", laws["no_signaling"], cfg.tol_exact))

    reading = encoder.resolve_member_mixer_reading(N, H)
    order = encoder.resolve_composition_order(N, H, reading["reading"])
    checks.append(
        _check("encode-composed-action", order["max_overlap_deviation"], cfg.tol_chained)
    )

    # decoder: P (I x B / sqrt(2N)) P^T is unitary (an involution) exactly when
    # P is a bijection and the +-1 block B has B^T B = 2N I (B B = 2N I)
    grand = decoder.make_decoder(N, H)
    gop = grand.stages[-1][0]
    signs = np.sign(gop.block).astype(np.int64)
    exact = np.array_equal(np.sort(gop.rows, axis=None), np.arange(dim * dim))
    exact = exact and np.array_equal(gop.block, signs / np.sqrt(dim))
    for name, square in (("grand-unitarity", signs.T @ signs), ("grand-involution", signs @ signs)):
        ok = exact and np.array_equal(square, dim * np.eye(dim, dtype=np.int64))
        checks.append(_check(name, 0.0 if ok else 1.0, cfg.tol_chained))

    # each Bell state certified by its one operator row: a certified point
    # mass is the whole distribution; injective by build_decode_table's rule
    outcomes, probs = decoder.bell_outcomes(N, H, grand)
    min_top = float(probs.min())
    injective = min_top >= 1.0 - hilbert.TOL_CHAINED and np.unique(outcomes).size == 4 * N * N
    checks.append(_check("decode-determinism", 1.0 - min_top, cfg.tol_chained))
    checks.append(_check("decode-injectivity", 0.0 if injective else 1.0, 0.0))
    checks.append(_check("measurement-completeness", np.max(np.abs(probs - 1.0)), cfg.tol_exact))

    conventions = {
        **_static_conventions(H),
        "member_mixer_reading": reading["reading"],
        "composition_order": order["order"],
    }
    if mixer_info is not None:
        conventions["mixer_normalization"] = mixer_info["reading"]
    report = {
        "version": __version__,
        "n": N,
        "path": cfg.path,
        "conventions": conventions,
        "resolutions": {
            "member_mixer": reading,
            "composition": order,
            "mixer_normalization": mixer_info,
            "compact_relabel_method": relabel_method,
        },
        "gates": gate_report,
        "checks": checks,
        "pass": all(c["pass"] for c in checks),
    }
    if cfg.path == "pipeline":
        report["pipeline"] = decoder.pipeline_report(N, H, HN, mixer_info["reading"])
        if N == 1 and not report["pipeline"]["deterministic"]:
            report["pass"] = False
    return report


def cmd_verify(cfg: RunConfig, gates_only: bool = False) -> int:
    report = build_verify_report(cfg)
    if gates_only:
        _emit_json({"n": report["n"], "gates": report["gates"]})
    else:
        _emit_json(report)
    return 0 if report["pass"] else 1


def cmd_encode(cfg: RunConfig, message: int, dump_op: bool) -> int:
    H, _ = cfg.hadamard_pair()
    if not 0 <= message < 4 * cfg.n * cfg.n:
        raise MessageOutOfRange(
            f"message {message} outside 0..{4 * cfg.n * cfg.n - 1}"
        )
    lab = bell.message_to_label(message, cfg.n)
    payload = {
        "n": cfg.n,
        "conventions": _static_conventions(H),
        "message": message,
        "label": {"k": lab.k, "r": lab.r, "j": lab.j},
    }
    if dump_op:
        op = encoder.encode_direct(cfg.n, H, lab)
        payload["op"] = {
            "dim": op.dim,
            "entries": [
                {"col": int(c), "row": int(op.target[c]), "sign": int(op.phase[c].real)}
                for c in range(op.dim)
            ],
        }
    _emit_json(payload)
    return 0


def cmd_decode(cfg: RunConfig, state_path: str) -> int:
    H, HN = cfg.hadamard_pair()
    try:
        dump = json.loads(Path(state_path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read state file {state_path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"state file {state_path} is not UTF-8 text ({exc.reason})") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"state file {state_path} is not JSON ({exc})") from None
    state = hilbert.state_from_dict(dump)
    top, dist = decoder.make_decoder(cfg.n, H, cfg.path, HN).decode(state)
    _emit_json(
        {
            "n": cfg.n,
            "path": cfg.path,
            "conventions": _static_conventions(H),
            "top": {"first": top.first, "second": top.second, "probability": top.probability},
            "outcomes": [
                {"first": o.first, "second": o.second, "probability": o.probability}
                for o in dist
            ],
        }
    )
    return 0


def cmd_table(cfg: RunConfig) -> int:
    H, HN = cfg.hadamard_pair()
    table = decoder.build_decode_table(cfg.n, H, decoder.make_decoder(cfg.n, H, cfg.path, HN))
    # the table is a permutation; its inverse lists each message's outcome
    rows = [[m, *divmod(out, 2 * cfg.n)] for m, out in enumerate(np.argsort(table).tolist())]
    _emit_csv(["message", "first", "second"], rows)
    return 0


def cmd_run(cfg: RunConfig, message: int, dump_state: str | None, sign: int = 1) -> int:
    if cfg.s != 0 and cfg.path == "pipeline":
        raise ConfigError("--s decodes on the grand route only; drop --path pipeline")
    H, HN = cfg.hadamard_pair()
    if cfg.s != 0:
        decoded = analysis.run_protocol_spin(cfg.n, cfg.s, message, H, sign=sign)
        d = int(round(2 * cfg.s)) + 1
        m_pos, m_spin = divmod(message, d * d)
        lab = bell.message_to_label(m_pos, cfg.n)
        payload = {
            "n": cfg.n,
            "s": cfg.s,
            "sign_variant": sign,
            "conventions": _static_conventions(H),
            "message": message,
            "label": {
                "position": {"k": lab.k, "r": lab.r, "j": lab.j},
                "spin": {"shift": m_spin // d, "clock": m_spin % d},
            },
            "decoded": decoded,
        }
        _emit_json({**payload, "ok": decoded == message})
        return 0 if decoded == message else 1

    sent = analysis.send(cfg.n, H, analysis.start_state(cfg.n, H), message)
    if dump_state:
        try:
            Path(dump_state).write_text(json.dumps(hilbert.state_to_dict(sent), sort_keys=True))
        except OSError as exc:
            raise ConfigError(f"cannot write state file {dump_state}: {exc}") from exc
    dec = decoder.make_decoder(cfg.n, H, cfg.path, HN)
    top, decoded = analysis.decode_message(cfg.n, H, dec, sent)
    lab = bell.message_to_label(message, cfg.n)
    _emit_json(
        {
            "n": cfg.n,
            "path": cfg.path,
            "conventions": _static_conventions(H),
            "message": message,
            "label": {"k": lab.k, "r": lab.r, "j": lab.j},
            "outcome": {
                "first": top.first,
                "second": top.second,
                "probability": top.probability,
            },
            "decoded": decoded,
            "ok": decoded == message,
        }
    )
    return 0 if decoded == message else 1


def cmd_sweep(cfg: RunConfig) -> int:
    H, HN = cfg.hadamard_pair()
    result = analysis.round_trip_sweep(cfg.n, H, path=cfg.path, HN=HN)
    result["conventions"] = _static_conventions(H)
    # every message is checked; the field keeps the report's bytes unchanged
    result["sampled"] = False
    _emit_json(result)
    return 0 if result["round_trip_ok"] == result["checked"] else 1


def cmd_rates(cfg: RunConfig, n_list: str, t: float) -> int:
    if not (t > 0 and np.isfinite(t)):
        raise ArgOutOfRange(f"--t must be a finite time > 0, got {t}")
    rows = []
    for entry in n_list.split(","):
        try:
            n = int(entry)
        except ValueError:
            raise ConfigError(f"--n-list entry {entry!r} is not an integer") from None
        if n < 1:
            raise ConfigError(f"--n-list entry {n} is below 1")
        tm = analysis.TimingModel.equal_time(n, t)
        r_m = "" if n < 2 else repr(analysis.rate_maximal(n, tm))
        rows.append(
            [
                n,
                repr(analysis.capacity_bits(n)),
                repr(analysis.rate_spatial(n, tm)),
                repr(analysis.rate_spatial_asymptotic(n, t)),
                repr(analysis.rate_pairwise(n, tm)),
                r_m,
                repr(analysis.advantage(n, t)),
            ]
        )
    _emit_csv(
        ["N", "capacity_bits", "R_x_exact", "R_x_asymptotic", "R_p", "R_m", "advantage"],
        rows,
    )
    return 0


def cmd_spin(cfg: RunConfig, sign: int) -> int:
    H, _ = cfg.hadamard_pair()
    report = analysis.spin_state_report(cfg.n, cfg.s, H, sign=sign)
    report["conventions"] = _static_conventions(H)
    _emit_json(report)
    ok = (
        report["factorizes"]
        and report["norm_deviation"] <= cfg.tol_exact
        and report["reduced_density_deviation"] <= cfg.tol_exact
        and report["schmidt_rank"] == report["schmidt_rank_expected"]
    )
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sdc",
        description="Simulate and verify dense coding over entangled spatial channels.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_path=True):
        p.add_argument("--n", type=int, default=None, help="number of channel pairs per side")
        p.add_argument("--custom-matrices", type=str, default=None,
                       help="registry file of extra sign matrices")
        if with_path:
            p.add_argument("--path", choices=["grand", "pipeline"], default=None)

    p = sub.add_parser("bases", help="emit all basis states and the Gram deviation")
    common(p, with_path=False)

    p = sub.add_parser("verify", help="run the invariant suite")
    common(p)
    p.add_argument("--gates", action="store_true", help="emit only the per-gate residuals")

    p = sub.add_parser("encode", help="show the encoding operator for a message")
    common(p, with_path=False)
    p.add_argument("--message", type=int, required=True)
    p.add_argument("--dump-op", action="store_true")

    p = sub.add_parser("decode", help="decode a dumped state file")
    common(p)
    p.add_argument("--state", type=str, required=True)

    p = sub.add_parser("table", help="emit the outcome-to-message table as CSV")
    common(p)

    p = sub.add_parser("run", help="round-trip one message")
    common(p)
    p.add_argument("--message", type=int, required=True)
    p.add_argument("--s", type=float, default=None, help="spin of each particle")
    p.add_argument("--sign", type=int, choices=[1, -1], default=1,
                   help="sign variant of the spin pair state")
    p.add_argument("--dump-state", type=str, default=None)

    p = sub.add_parser("sweep", help="round-trip every message")
    common(p)

    p = sub.add_parser("rates", help="emit the rate comparison as CSV")
    p.add_argument("--n-list", type=str, default="1,2,4,8,16,32,64")
    p.add_argument("--t", type=float, default=1.0)

    p = sub.add_parser("spin", help="verify the spin-extended resource state")
    common(p, with_path=False)
    p.add_argument("--s", type=float, default=0.5)
    p.add_argument("--sign", type=int, choices=[1, -1], default=1)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "rates":
            cfg = RunConfig()
            return cmd_rates(cfg, args.n_list, args.t)
        cfg = make_config(args)
        if args.command == "bases":
            return cmd_bases(cfg)
        if args.command == "verify":
            return cmd_verify(cfg, gates_only=args.gates)
        if args.command == "encode":
            return cmd_encode(cfg, args.message, args.dump_op)
        if args.command == "decode":
            return cmd_decode(cfg, args.state)
        if args.command == "table":
            return cmd_table(cfg)
        if args.command == "run":
            return cmd_run(cfg, args.message, args.dump_state, sign=args.sign)
        if args.command == "sweep":
            return cmd_sweep(cfg)
        if args.command == "spin":
            return cmd_spin(cfg, args.sign)
        parser.error(f"unknown command {args.command}")
    except (SdcError, OSError, ValueError) as exc:  # OSError and ValueError: a safety net
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
