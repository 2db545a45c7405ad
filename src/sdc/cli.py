"""Command-line front end: verification suites, protocol runs, reports.

Subcommands: bases, verify, encode, decode, table, run, sweep, rates, spin.
Reports are emitted as sorted-key JSON or LF-terminated CSV and contain no
timestamps or unordered collections, so identical configurations produce
byte-identical output.  Exit codes: 0 success, 1 verification/round-trip
failure, 2 usage or configuration error, or an N too large to allocate.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__, analysis, bell, decoder, encoder, gates, hadamard, hilbert
from .errors import ArgOutOfRange, ConfigError, SdcError

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


def _emit_csv(header: list[str], rows) -> None:
    """Write the header and each row of the iterable `rows` straight to stdout."""
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def _static_conventions(H) -> dict:
    """Self-describing header: the fixed conventions every report relies on."""
    return {
        "hadamard_construction": H.construction,
        "index_map": "plus-n to n-1, minus-n to N+n-1",
        "modular_reduction": "zero-free into 1..N",
        "compact_relabel": "first-particle interleave, identity on second",
    }


def _off_identity(op: hilbert.SignedPermutationOp) -> float:
    """max|P - I| of a signed permutation P with unit phases: |phase - 1| where
    P sends an index home, and 1 (a unit entry off the diagonal) elsewhere."""
    home = op.target == np.arange(op.dim)
    return float(np.max(np.where(home, np.abs(op.phase - 1.0), 1.0)))


# ---------------------------------------------------------------------------
# subcommands


def cmd_bases(cfg: RunConfig) -> int:
    H, _ = cfg.hadamard_pair()
    gram_dev = bell.table_residuals(bell.family_factors(cfg.n, H))["gram"]
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


def build_verify_report(cfg: RunConfig) -> dict:
    """Full invariant suite for one N; every check carries its residual."""
    N = cfg.n
    H, HN = cfg.hadamard_pair()
    dim = 2 * N
    checks: list[dict] = []

    def check(name: str, residual: float, tolerance: float) -> None:
        entry = {"name": name, "residual": float(residual), "tolerance": tolerance}
        checks.append({**entry, "pass": bool(residual <= tolerance)})

    # Hadamard backbone
    norm = H.normalized
    check("hadamard-symmetry", np.max(np.abs(norm - norm.T)), 0.0)
    check("hadamard-involution", np.max(np.abs(norm @ norm - np.eye(dim))), cfg.tol_exact)
    magnitude = np.max(np.abs(np.abs(norm) - 1.0 / np.sqrt(dim)))
    check("hadamard-entry-magnitude", magnitude, cfg.tol_exact)

    # Bell bases read off their factors, which the encoder laws reuse
    standard_factors, compact_factors = bell.family_factors(N, H), bell.family_factors(N, H, compact=True)
    standard = bell.table_residuals(standard_factors)
    compact = bell.table_residuals(compact_factors)
    relabel_holds = bell.compact_relabel_holds(standard_factors, compact_factors)
    laws = encoder.encode_law_residuals(standard_factors)
    del standard_factors, compact_factors  # not held through the order check, which sets the peak
    check("bell-gram", standard["gram"], cfg.tol_exact)
    check("bell-compact-gram", compact["gram"], cfg.tol_exact)
    check("bell-partial-trace", standard["partial_trace"], cfg.tol_exact)
    check("bell-amplitude-structure", standard["amplitude"], cfg.tol_exact)
    check("bell-compact-relabel-found", 0.0 if relabel_holds else 1.0, 0.0)

    gate_report, mixer_info = verify_gates(cfg, HN, check)

    # encoder laws
    check("encode-signed-permutation-structure", laws["structure"], cfg.tol_exact)
    check("encode-family-rule", laws["family_rule"], cfg.tol_chained)
    check("encode-no-signaling", laws["no_signaling"], cfg.tol_exact)

    reading = encoder.resolve_member_mixer_reading(N, H)
    order = encoder.resolve_composition_order(N, H, reading["reading"])
    check("encode-composed-action", order["max_overlap_deviation"], cfg.tol_chained)

    # decoder: P (I x B / sqrt(2N)) P^T is unitary (an involution) exactly when
    # P is a bijection and the +-1 block B has B^T B = 2N I (B B = 2N I); the
    # squares are exact in float64, every sum being an integer of at most 2N
    grand = decoder.make_decoder(N, H)
    gop = grand.stages[-1][0]
    signs = np.sign(gop.block)
    exact = np.array_equal(np.sort(gop.rows, axis=None), np.arange(dim * dim))
    exact = exact and np.array_equal(gop.block, signs / np.sqrt(dim))
    for name, square in (("grand-unitarity", signs.T @ signs), ("grand-involution", signs @ signs)):
        ok = exact and np.array_equal(square, dim * np.eye(dim))
        check(name, 0.0 if ok else 1.0, cfg.tol_chained)

    # each Bell state certified by its one operator row: a certified point
    # mass is the whole distribution; injective by build_decode_table's rule
    outcomes, probs = decoder.bell_outcomes(N, H, grand)
    min_top = float(probs.min())
    # outcomes lie in 0..4N^2-1, so they are distinct exactly when they sort to that range
    distinct = np.array_equal(np.sort(outcomes), np.arange(4 * N * N))
    injective = min_top >= 1.0 - hilbert.TOL_CHAINED and distinct
    check("decode-determinism", 1.0 - min_top, cfg.tol_chained)
    check("decode-injectivity", 0.0 if injective else 1.0, 0.0)
    check("measurement-completeness", np.max(np.abs(probs - 1.0)), cfg.tol_exact)

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
            "compact_relabel_method": "constructive" if relabel_holds else "none",
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


def verify_gates(cfg: RunConfig, HN, check) -> tuple[dict, dict | None]:
    """verify's gate section: calls check(name, residual, tolerance) per gate check and returns
    the per-gate residuals and, given the pipeline's order-N HN (else None), the mixer's resolution."""
    N, dim, gate_report = cfg.n, 2 * cfg.n, {}

    # basic gates: a signed permutation P has P^H P = diag(|phase|^2) and P^2 - I
    # read off P o P; a block B on distinct rows of 0..2N-1 has B^H B - I and B B - I
    def op_residuals(name, op):
        if isinstance(op, hilbert.SignedPermutationOp):
            unit = float(np.max(np.abs(np.abs(op.phase) ** 2 - 1.0)))
            invol = _off_identity(hilbert.compose_perms(op, op))
        else:
            B, eye, placed = op.block, np.eye(len(op.block)), op.dim == dim and op.placed
            squares = (B.conj().T @ B, B @ B)
            unit, invol = (float(np.max(np.abs(m - eye))) for m in squares) if placed else (1.0, 1.0)
        gate_report[name] = {"unitarity": unit, "involution": invol}
        check(f"gate-{name}-unitarity", unit, cfg.tol_chained)
        check(f"gate-{name}-involution", invol, cfg.tol_chained)

    for n in range(1, N + 1):
        op_residuals(f"channel-sign-{n}", gates.channel_sign_gate(N, n))
        op_residuals(f"channel-swap-{n}", gates.channel_swap_gate(N, n))
        op_residuals(f"channel-hadamard-{n}", gates.channel_hadamard_gate(N, n))

    ladder = gates.ladder_shift_gate(N, 1)
    cycle = hilbert.identity_perm(dim)
    for _ in range(N):
        cycle = hilbert.compose_perms(ladder, cycle)
    check("gate-ladder-cycle", _off_identity(cycle), cfg.tol_exact)
    op_residuals("controlled-swap", gates.position_controlled_swap(N))
    if N >= 2:
        h1, h2 = (gates.channel_hadamard_gate(N, n) for n in (1, 2))
        commutator = 1.0  # a misplaced gate has no dense matrix to multiply
        if all(h.dim == dim and h.placed for h in (h1, h2)):
            h1, h2 = np.asarray(h1), np.asarray(h2)
            commutator = np.max(np.abs(h1 @ h2 - h2 @ h1))
        check("gate-disjoint-commutation", commutator, cfg.tol_exact)

    mixer_info = None
    if HN is not None:
        mixer_info = gates.resolve_mixer_normalization(N, HN)
        check("gate-mixer-unitarity", mixer_info["unitarity_residual"], cfg.tol_chained)
        check("gate-mixer-involution", mixer_info["involution_residual"], cfg.tol_chained)
    return gate_report, mixer_info


def cmd_verify(cfg: RunConfig, gates_only: bool = False) -> int:
    if gates_only:  # the gate section alone, passing when its own checks do
        _, HN = cfg.hadamard_pair()  # refuses an N without a matrix, as the whole suite does
        verdicts = []
        gate_report, _ = verify_gates(cfg, HN, lambda _, residual, tol: verdicts.append(residual <= tol))
        _emit_json({"n": cfg.n, "gates": gate_report})
        return 0 if all(verdicts) else 1
    report = build_verify_report(cfg)
    _emit_json(report)
    return 0 if report["pass"] else 1


def cmd_encode(cfg: RunConfig, message: int, dump_op: bool) -> int:
    H, _ = cfg.hadamard_pair()
    analysis.check_message(cfg.n, message)
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
    # the table is a permutation; its inverse lists each message's outcome, row by row
    first, second = np.divmod(np.argsort(table), 2 * cfg.n)
    _emit_csv(["message", "first", "second"], zip(range(len(table)), first, second))
    return 0


def cmd_run(cfg: RunConfig, message: int, dump_state: str | None, sign: int = 1) -> int:
    if cfg.s != 0 and cfg.path == "pipeline":
        raise ConfigError("--s decodes on the grand route only; drop --path pipeline")
    if cfg.s != 0 and dump_state:
        raise ConfigError("--dump-state writes a position state only; drop --s")
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

    if dump_state:
        sent = analysis.send(cfg.n, H, analysis.start_state(cfg.n, H), message)
        try:
            Path(dump_state).write_text(json.dumps(hilbert.state_to_dict(sent), sort_keys=True))
        except OSError as exc:
            raise ConfigError(f"cannot write state file {dump_state}: {exc}") from exc
    outcome, probability, decoded = analysis.round_trip_message(cfg.n, H, message, cfg.path, HN)
    first, second = divmod(outcome, 2 * cfg.n)
    lab = bell.message_to_label(message, cfg.n)
    _emit_json(
        {
            "n": cfg.n,
            "path": cfg.path,
            "conventions": _static_conventions(H),
            "message": message,
            "label": {"k": lab.k, "r": lab.r, "j": lab.j},
            "outcome": {"first": first, "second": second, "probability": probability},
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


def cmd_rates(n_list: str, t: float) -> int:
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
        try:
            tm = analysis.TimingModel.equal_time(n, t)
            rates = [
                analysis.capacity_bits(n),
                analysis.rate_spatial(n, tm),
                analysis.rate_spatial_asymptotic(n, t),
                analysis.rate_pairwise(n, tm),
                analysis.rate_maximal(n, tm) if n >= 2 else None,
                analysis.advantage(n, t),
            ]
        except (ZeroDivisionError, OverflowError):  # N past a float, or a division by a 0 rate
            rates = [np.nan]
        if not all(r is None or 0 < r < np.inf for r in rates):
            raise ArgOutOfRange(f"--n-list entry {n} at --t {t}: the rates are not finite and > 0")
        rows.append([n, *("" if r is None else repr(r) for r in rates)])
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
            return cmd_rates(args.n_list, args.t)
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
    except (SdcError, OSError, ValueError, MemoryError) as exc:  # all but SdcError: a safety net
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
