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
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__, analysis, bell, decoder, encoder, gates, hadamard, hilbert
from .errors import ArgOutOfRange, ConfigError, DimensionMismatch, SdcError

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
    if getattr(args, "custom_matrices", None) is not None:
        cfg.custom_matrices = args.custom_matrices

    if cfg.n < 1:
        raise ConfigError(f"n must be positive, got {cfg.n}")
    if cfg.path not in ("grand", "pipeline"):
        raise ConfigError(f"path must be grand or pipeline, got {cfg.path}")
    if cfg.custom_matrices == "":
        raise ConfigError("the registry path (--custom-matrices or hadamard.custom_matrices) is empty")
    if cfg.custom_matrices is not None:
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


def _report(cfg: RunConfig, H, **fields) -> dict:
    """A report headed by its N and the fixed conventions."""
    return {"n": cfg.n, "conventions": _static_conventions(H), **fields}


def _check(name: str, residual: float, tolerance: float) -> dict:
    """One verify check row; it passes when the residual is at most the tolerance."""
    passed = bool(residual <= tolerance)
    return {"name": name, "residual": float(residual), "tolerance": tolerance, "pass": passed}


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
    states = [
        {"label": asdict(lab), **hilbert.state_to_dict(bell.bell_state(cfg.n, lab, H))}
        for lab in bell.all_labels(cfg.n)
    ]
    _emit_json(_report(cfg, H, gram_max_deviation=gram_dev, states=states))
    return 0


def build_verify_report(cfg: RunConfig) -> dict:
    """Full invariant suite for one N; every check carries its residual."""
    N = cfg.n
    H, HN = cfg.hadamard_pair()
    dim = 2 * N

    # Hadamard backbone
    norm = H.normalized
    checks = [
        _check("hadamard-symmetry", np.max(np.abs(norm - norm.T)), 0.0),
        _check("hadamard-involution", np.max(np.abs(norm @ norm - np.eye(dim))), cfg.tol_exact),
        _check("hadamard-entry-magnitude", np.max(np.abs(np.abs(norm) - 1.0 / np.sqrt(dim))), cfg.tol_exact),
    ]

    # Bell bases read off their factors, which the encoder laws reuse
    standard_factors, compact_factors = bell.family_factors(N, H), bell.family_factors(N, H, compact=True)
    standard = bell.table_residuals(standard_factors)
    compact = bell.table_residuals(compact_factors)
    relabel_holds = bell.compact_relabel_holds(standard_factors, compact_factors)
    laws = encoder.encode_law_residuals(standard_factors)
    del standard_factors, compact_factors  # not held through the order check, which sets the peak
    gate_checks, gate_report = verify_gates(cfg)
    reading = encoder.resolve_member_mixer_reading(N, H)
    order = encoder.resolve_composition_order(N, H)
    checks += [
        _check("bell-gram", standard["gram"], cfg.tol_exact),
        _check("bell-compact-gram", compact["gram"], cfg.tol_exact),
        _check("bell-partial-trace", standard["partial_trace"], cfg.tol_exact),
        _check("bell-amplitude-structure", standard["amplitude"], cfg.tol_exact),
        _check("bell-compact-relabel-found", 0.0 if relabel_holds else 1.0, 0.0),
        *gate_checks,
        # encoder laws
        _check("encode-signed-permutation-structure", laws["structure"], cfg.tol_exact),
        _check("encode-family-rule", laws["family_rule"], cfg.tol_chained),
        _check("encode-no-signaling", laws["no_signaling"], cfg.tol_exact),
        _check("encode-composed-action", order["max_overlap_deviation"], cfg.tol_chained),
    ]

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
        checks.append(_check(name, 0.0 if ok else 1.0, cfg.tol_chained))

    # each Bell state certified by its one operator row: a certified point
    # mass is the whole distribution; injective by build_decode_table's rule
    outcomes, probs = decoder.bell_outcomes(N, H, grand)
    min_top = float(probs.min())
    # outcomes lie in 0..4N^2-1, so they are distinct exactly when they sort to that range
    distinct = np.array_equal(np.sort(outcomes), np.arange(4 * N * N))
    injective = min_top >= 1.0 - hilbert.TOL_CHAINED and distinct
    checks += [
        _check("decode-determinism", 1.0 - min_top, cfg.tol_chained),
        _check("decode-injectivity", 0.0 if injective else 1.0, 0.0),
        _check("measurement-completeness", np.max(np.abs(probs - 1.0)), cfg.tol_exact),
    ]

    conventions = {
        **_static_conventions(H),
        "member_mixer_reading": reading["reading"],
        "composition_order": order["order"],
    }
    mixer_info = None
    if cfg.path == "pipeline":  # the mixer's scale is fixed by HN·HN = N·I
        conventions["mixer_normalization"] = gates.MIXER_NORMALIZATION
        mixer_info = dict(reading=gates.MIXER_NORMALIZATION, unitarity_residual=0.0, involution_residual=0.0)
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
        report["pipeline"] = decoder.pipeline_report(N, H, HN)
        if N == 1 and not report["pipeline"]["deterministic"]:
            report["pass"] = False
    return report


def verify_gates(cfg: RunConfig) -> tuple[list[dict], dict]:
    """verify's gate section: its check rows and the per-gate residuals."""
    N, dim, checks, gate_report = cfg.n, 2 * cfg.n, [], {}

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
        checks.append(_check(f"gate-{name}-unitarity", unit, cfg.tol_chained))
        checks.append(_check(f"gate-{name}-involution", invol, cfg.tol_chained))

    for n in range(1, N + 1):
        op_residuals(f"channel-sign-{n}", gates.channel_sign_gate(N, n))
        op_residuals(f"channel-swap-{n}", gates.channel_swap_gate(N, n))
        op_residuals(f"channel-hadamard-{n}", gates.channel_hadamard_gate(N, n))

    ladder = gates.ladder_shift_gate(N, 1)
    cycle = hilbert.identity_perm(dim)
    for _ in range(N):
        cycle = hilbert.compose_perms(ladder, cycle)
    checks.append(_check("gate-ladder-cycle", _off_identity(cycle), cfg.tol_exact))
    op_residuals("controlled-swap", gates.position_controlled_swap(N))
    if N >= 2:
        h1, h2 = (gates.channel_hadamard_gate(N, n) for n in (1, 2))
        commutator = 1.0  # a misplaced gate has no dense matrix to multiply
        if all(h.dim == dim and h.placed for h in (h1, h2)):
            h1, h2 = np.asarray(h1), np.asarray(h2)
            commutator = np.max(np.abs(h1 @ h2 - h2 @ h1))
        checks.append(_check("gate-disjoint-commutation", commutator, cfg.tol_exact))

    if cfg.path == "pipeline":  # HN/sqrt(N) is a unitary involution as HN·HN = N·I
        checks.append(_check("gate-mixer-unitarity", 0.0, cfg.tol_chained))
        checks.append(_check("gate-mixer-involution", 0.0, cfg.tol_chained))
    return checks, gate_report


def cmd_verify(cfg: RunConfig, gates_only: bool = False) -> int:
    if gates_only:  # the gate section alone, passing when its own checks do
        cfg.hadamard_pair()  # refuses an N without a matrix, as the whole suite does
        checks, gate_report = verify_gates(cfg)
        _emit_json({"n": cfg.n, "gates": gate_report})
        return 0 if all(c["pass"] for c in checks) else 1
    report = build_verify_report(cfg)
    _emit_json(report)
    return 0 if report["pass"] else 1


def cmd_encode(cfg: RunConfig, message: int, dump_op: bool) -> int:
    H, _ = cfg.hadamard_pair()
    analysis.check_message(cfg.n, message)
    lab = bell.message_to_label(message, cfg.n)
    payload = _report(cfg, H, message=message, label=asdict(lab))
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
    dim = 2 * cfg.n
    if state.dims != (dim, dim):
        raise DimensionMismatch(
            f"state has dims {list(state.dims)}, but N = {cfg.n} decodes dims [{dim}, {dim}]"
        )
    top, dist = decoder.make_decoder(cfg.n, H, cfg.path, HN).decode(state)
    _emit_json(_report(cfg, H, path=cfg.path, top=asdict(top), outcomes=[asdict(o) for o in dist]))
    return 0


def cmd_table(cfg: RunConfig) -> int:
    H, HN = cfg.hadamard_pair()
    table = decoder.build_decode_table(cfg.n, H, decoder.make_decoder(cfg.n, H, cfg.path, HN))
    # the table is a permutation; its inverse lists each message's outcome, row by row
    first, second = np.divmod(np.argsort(table), 2 * cfg.n)
    _emit_csv(["message", "first", "second"], zip(range(len(table)), first, second))
    return 0


def cmd_run(cfg: RunConfig, message: int, dump_state: str | None, sign: int | None = None) -> int:
    if cfg.s != 0 and cfg.path == "pipeline":
        raise ConfigError("--s decodes on the grand route only; drop --path pipeline")
    if cfg.s != 0 and dump_state:
        raise ConfigError("--dump-state writes a position state only; drop --s")
    if cfg.s == 0 and sign is not None:
        raise ConfigError("--sign picks the spin pair's variant; it needs --s")
    H, HN = cfg.hadamard_pair()
    if cfg.s != 0:
        sign = 1 if sign is None else sign
        decoded = analysis.run_protocol_spin(cfg.n, cfg.s, message, H, sign=sign)
        d = analysis.spin_dim(cfg.s)
        m_pos, m_spin = divmod(message, d * d)
        lab = bell.message_to_label(m_pos, cfg.n)
        label = {"position": asdict(lab), "spin": {"shift": m_spin // d, "clock": m_spin % d}}
        _emit_json(
            _report(cfg, H, s=cfg.s, sign_variant=sign, message=message, label=label,
                    decoded=decoded, ok=decoded == message)
        )
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
        _report(cfg, H, path=cfg.path, message=message, label=asdict(lab),
                outcome={"first": first, "second": second, "probability": probability},
                decoded=decoded, ok=decoded == message)
    )
    return 0 if decoded == message else 1


def cmd_sweep(cfg: RunConfig) -> int:
    H, HN = cfg.hadamard_pair()
    result = analysis.round_trip_sweep(cfg.n, H, path=cfg.path, HN=HN)
    # every message is checked; the "sampled" field keeps the report's bytes unchanged
    _emit_json(_report(cfg, H, **result, sampled=False))
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
    _emit_json(_report(cfg, H, **report))
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
    """The parser; each subcommand's `handler` default runs it on the parsed arguments."""
    parser = argparse.ArgumentParser(
        prog="sdc",
        description="Simulate and verify dense coding over entangled spatial channels.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, summary, handler, with_path=True):
        """A subcommand whose handler(cfg, args) runs on the RunConfig make_config resolves."""
        p = sub.add_parser(name, help=summary)
        p.add_argument("--n", type=int, default=None, help="number of channel pairs per side")
        p.add_argument("--custom-matrices", type=str, default=None,
                       help="registry file of extra sign matrices")
        if with_path:
            p.add_argument("--path", choices=["grand", "pipeline"], default=None)
        p.set_defaults(handler=lambda args: handler(make_config(args), args))
        return p

    command("bases", "emit all basis states and the Gram deviation",
            lambda cfg, a: cmd_bases(cfg), with_path=False)

    p = command("verify", "run the invariant suite", lambda cfg, a: cmd_verify(cfg, gates_only=a.gates))
    p.add_argument("--gates", action="store_true", help="emit only the per-gate residuals")

    p = command("encode", "show the encoding operator for a message",
                lambda cfg, a: cmd_encode(cfg, a.message, a.dump_op), with_path=False)
    p.add_argument("--message", type=int, required=True)
    p.add_argument("--dump-op", action="store_true")

    p = command("decode", "decode a dumped state file", lambda cfg, a: cmd_decode(cfg, a.state))
    p.add_argument("--state", type=str, required=True)

    command("table", "emit the outcome-to-message table as CSV", lambda cfg, a: cmd_table(cfg))

    p = command("run", "round-trip one message",
                lambda cfg, a: cmd_run(cfg, a.message, a.dump_state, sign=a.sign))
    p.add_argument("--message", type=int, required=True)
    p.add_argument("--s", type=float, default=None, help="spin of each particle")
    p.add_argument("--sign", type=int, choices=[1, -1], default=None,
                   help="sign variant of the spin pair state (with --s; default 1)")
    p.add_argument("--dump-state", type=str, default=None)

    command("sweep", "round-trip every message", lambda cfg, a: cmd_sweep(cfg))

    # rates reads no RunConfig, so a malformed SDC_CONFIG cannot break it
    p = sub.add_parser("rates", help="emit the rate comparison as CSV")
    p.add_argument("--n-list", type=str, default="1,2,4,8,16,32,64")
    p.add_argument("--t", type=float, default=1.0)
    p.set_defaults(handler=lambda a: cmd_rates(a.n_list, a.t))

    p = command("spin", "verify the spin-extended resource state",
                lambda cfg, a: cmd_spin(cfg, a.sign), with_path=False)
    p.add_argument("--s", type=float, default=0.5)
    p.add_argument("--sign", type=int, choices=[1, -1], default=1)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (SdcError, OSError, ValueError, MemoryError) as exc:  # all but SdcError: a safety net
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
