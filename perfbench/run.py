"""Benchmark of the sdc CLI: workloads timed end to end, plus a traced per-layer run.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere; the checkout is the parent of this directory and the
program is imported from its `src/`. With no arguments every workload runs
untraced. Each workload prints a summary line naming every metric with its
unit; the last line of stdout is one JSON object
`{"correct", "attempted", "failed", "metrics"}`. A result file with the raw
samples, the seed and the machine's environment is written to
`perfbench/results/` for every workload run.

--trace 0 (end to end, tracing off). A closed loop with one client: each
invocation is a fresh `python -m sdc.cli ...` process, started after the
previous one exits, with nothing else running. That is what a user pays, and
it keeps the module-level memos (`encoder._reading_memo`, `_order_memo`) from
making repeats unrealistically cheap. The loop runs at least MIN_SAMPLES
invocations and then starts another only while it is expected to finish
within --seconds. Metrics:
  wall_s_p50   median wall time per invocation, spawn to exit. The sample
               count is printed beside it. At a few samples per run no
               percentile above the median has ten samples beyond it, so the
               median is the only timing metric.
  peak_rss_mb  largest peak resident set over the invocations, from each
               child's own rusage (os.wait4).
  setup_s      median wall time of fresh interpreters that only import
               sdc.cli and exit: one before each invocation, at least
               SETUP_SAMPLES. Every invocation pays it first, so work moved
               to import time shows here.
The output of every invocation is checked (Workload.check); failures are
reported as `failed` of `attempted` and printed as fail_frac. fail_frac is
not one of the JSON metrics: it is 0 on a correct program, and a metric whose
median is 0 has no relative bound.

--trace 1 (per layer). One fresh interpreter runs `sdc.cli.main(argv)`
in-process untraced, a second one runs it traced (tracer.py); the
difference of the two in-process wall times is trace.overhead_s. Metrics are
`<layer>.<function>.calls` and `.self_s` for the functions in
tracer.LAYERS, a `<layer>.self_s` rollup per layer, the computed sizes
(decoder.grand_operator.nnz and .bytes, bell.bell_state.bytes_per_nonzero)
and trace.overhead_s. Counts repeat exactly between runs.

Workloads, and why each was chosen:
  sweep-n32   `sdc sweep --n 32` round-trips all 4096 messages (4096 is
              below SWEEP_CAP, so nothing is sampled): the paper's core claim
              as bulk work. Per-message decoding dominates (decode_grand:
              8192 calls). The grand operator (262,144 nnz, 5.3 MB) is larger
              than a 4 MiB L2. The encoder resolutions and gates never run.
  verify-n16  `sdc verify --n 16`, the invariant suite. Dominated by the
              encoder resolutions, ~100k hilbert.apply calls, gate
              construction and the dense Gram and partial-trace work in
              cli.build_verify_report; the decoder is a minor share. It is
              the memory-heavy workload (~176 MB peak against ~85 MB).
  run-n16     repeated `sdc run --n 16 --message m`, m drawn from --seed.
              Decoding one message pays the whole decode table (1024
              decodes) and two grand-operator builds, so it uses the decoder
              the other way from the sweep: moving work into the table speeds
              up sweep-n32 and slows this one. Import is ~45% of its wall
              time, so set-up regressions show here first. The N=16 grand
              operator (0.66 MB) fits in L2.
N=64 and N=128 are left out: one invocation takes 45-400 s at the seed, too
long to repeat. The gate-pipeline path is deterministic only up to N=4.

Which end-to-end metric each layer metric should move (seed figures, 2 cores):
  decoder.decode_grand.self_s/.calls (8192 = 2 per message)
      -> wall_s_p50 on sweep-n32, run-n16; not on verify-n16.
  decoder.build_decode_table (whole table, ~0.58 of ~0.66 s in-process)
      -> wall_s_p50 on run-n16 most, sweep-n32; not on verify-n16.
  decoder.grand_operator.calls (2 on run, 1 on sweep) / .self_s / .bytes
      -> wall_s_p50 and peak_rss_mb on run-n16, sweep-n32; not verify-n16.
  bell.bell_state, encoder.encode_direct, hilbert.apply
      (8192 / 4096 / 12288 calls on the sweep)
      -> wall_s_p50 on sweep-n32; not on run-n16 (one encode).
  encoder.resolve_composition_order, member_mixer, family_shift,
      hilbert.compose_perms (42,528 calls), gates.* (~41k constructions)
      -> wall_s_p50 on verify-n16; not on sweep-n32, run-n16 (0 calls).
  hilbert.apply (103,457 calls), hilbert.partial_trace (34,816),
      cli.build_verify_report.self_s
      -> wall_s_p50 on verify-n16; not on sweep-n32.
  bell.bell_basis_matrix, cli.build_verify_report.self_s (dense 1024x1024
      Gram and eye)
      -> peak_rss_mb on verify-n16; not on sweep-n32, run-n16.
  import of sdc.* (no span; setup_s itself)
      -> setup_s everywhere, wall_s_p50 on run-n16 most.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

from tracer import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
NPROC = len(os.sched_getaffinity(0))

SETUP_SAMPLES = 7
MIN_SAMPLES = 3
IMPORT_ONLY = ["-c", "import sdc.cli"]


class BenchError(Exception):
    """The benchmark cannot produce a result (as opposed to a failed check)."""


@dataclass(frozen=True)
class Workload:
    command: str  # sdc subcommand: sweep, verify or run
    n: int

    @property
    def name(self) -> str:
        return f"{self.command}-n{self.n}"

    @property
    def messages(self) -> int:
        return 4 * self.n * self.n

    def invocations(self, seed: int):
        """Endless (sdc argv, message sent or None). Only `run` draws from the seed."""
        rng = random.Random(seed)
        base = [self.command, "--n", str(self.n)]
        while True:
            if self.command == "run":
                m = rng.randrange(self.messages)
                yield base + ["--message", str(m)], m
            else:
                yield base, None

    def check(self, sent: int | None, code: int, stdout: str) -> str | None:
        """Why this invocation's output is wrong, or None when it is right."""
        if code != 0:
            return f"exit code {code}"
        try:
            out = json.loads(stdout)
        except ValueError:
            return "stdout is not JSON"
        if not isinstance(out, dict):
            return "stdout is not a JSON object"
        if self.command == "sweep":
            if not out.get("checked") == out.get("round_trip_ok") == self.messages:
                return f"checked={out.get('checked')} round_trip_ok={out.get('round_trip_ok')}"
            if out.get("sampled") is not False:
                return "sweep was sampled"
            if out.get("failures") != []:
                return "sweep listed failures"
        elif self.command == "verify":
            checks = out.get("checks") or []
            failing = [c.get("name") for c in checks if c.get("pass") is not True]
            if out.get("pass") is not True or not checks or failing:
                return f"verify failed: pass={out.get('pass')} failing={failing}"
        elif self.command == "run":
            if out.get("ok") is not True or out.get("decoded") != sent:
                return f"sent {sent}, decoded {out.get('decoded')}"
        return None


WORKLOADS = {w.name: w for w in (Workload("sweep", 32), Workload("verify", 16), Workload("run", 16))}

END_TO_END = {"wall_s_p50": "s", "peak_rss_mb": "MiB", "setup_s": "s"}
PER_LAYER = {
    **{f"{layer}.{fn}.{kind}": unit
       for layer, fns in LAYERS.items() for fn in fns
       for kind, unit in (("calls", "count"), ("self_s", "s"))},
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "decoder.grand_operator.nnz": "count",
    "decoder.grand_operator.bytes": "B",
    "bell.bell_state.bytes_per_nonzero": "B",
    "trace.overhead_s": "s",
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["OPENBLAS_NUM_THREADS"] = str(NPROC)
    env.pop("SDC_CONFIG", None)  # a user's config file would change the work done
    return env


def spawn(args: list[str], env: dict) -> tuple[float, float, int, str]:
    """Run `python <args>` to exit: (wall s, peak RSS MiB, exit code, stdout)."""
    with open(RESULTS / "child.stdout", "w+") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=env, stdout=out)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        return wall, usage.ru_maxrss / 1024, proc.returncode, out.read()


def measure(
    workload: Workload,
    invocations,
    seconds: float,
    min_samples: int = MIN_SAMPLES,
    setup_samples: int = SETUP_SAMPLES,
) -> dict:
    """End-to-end run: the closed loop of invocations, with set-up samples between them."""
    env = child_env()

    def import_only() -> float:
        wall, _, code, _ = spawn(IMPORT_ONLY, env)
        if code != 0:
            raise BenchError("`import sdc.cli` failed")
        return wall

    import_only()  # untimed: byte-compiles a fresh checkout, as a user's first run would
    # One set-up sample precedes each invocation, so set-up and wall time are
    # taken over the same stretch of the run and see the same machine load.
    # A round (set-up sample plus invocation) starts only while it is expected
    # to end within `seconds`, so run length does not depend on how late the
    # last round happened to start.
    setup, samples, rounds = [], [], []
    t0 = time.perf_counter()
    while len(samples) < min_samples or (
        time.perf_counter() - t0 + statistics.median(rounds) <= seconds
    ):
        r0 = time.perf_counter()
        setup.append(import_only())
        argv, sent = next(invocations)
        wall, rss, code, stdout = spawn(["-m", "sdc.cli", *argv], env)
        samples.append(
            {"argv": argv, "wall_s": wall, "peak_rss_mb": rss, "exit": code,
             "failure": workload.check(sent, code, stdout)}
        )
        rounds.append(time.perf_counter() - r0)
    while len(setup) < setup_samples:
        setup.append(import_only())
    failed = sum(s["failure"] is not None for s in samples)
    return {
        "attempted": len(samples),
        "failed": failed,
        "fail_frac": failed / len(samples),
        "setup_samples_s": setup,
        "samples": samples,
        "metrics": {
            "wall_s_p50": statistics.median(s["wall_s"] for s in samples),
            "peak_rss_mb": max(s["peak_rss_mb"] for s in samples),
            "setup_s": statistics.median(setup),
        },
    }


def run_tracer(mode: str, argv: list[str], spans: Path | None = None) -> dict:
    args = [sys.executable, str(HERE / "tracer.py"), "--mode", mode]
    if spans is not None:
        args += ["--spans", str(spans)]
    proc = subprocess.run(
        [*args, "--", *argv], cwd=ROOT, env=child_env(), capture_output=True, text=True
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"tracer ({mode}) exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def trace(workload: Workload, argv: list[str], sent: int | None, spans: Path | None) -> dict:
    """Per-layer run: one untraced and one traced in-process invocation."""
    plain = run_tracer("plain", argv)
    traced = run_tracer("traced", argv, spans)
    failures = [workload.check(sent, r["exit"], r["stdout"]) for r in (plain, traced)]
    # Isolation: a fresh interpreter resolves the composition order in full,
    # calling member_mixer once per label. Fewer calls means a warm memo.
    if workload.command == "verify" and failures[1] is None:
        got = traced["spans"].get("encoder.member_mixer", {}).get("calls", 0)
        if got != workload.messages:
            failures[1] = f"encoder.member_mixer.calls={got}, want {workload.messages}"

    values = {}
    for layer, fns in LAYERS.items():
        for fn in fns:
            row = traced["spans"].get(f"{layer}.{fn}", {"calls": 0, "self_s": 0.0})
            values[f"{layer}.{fn}.calls"] = row["calls"]
            values[f"{layer}.{fn}.self_s"] = row["self_s"]
        values[f"{layer}.self_s"] = sum(
            (row["self_s"] for name, row in traced["spans"].items() if name.startswith(layer + ".")),
            0.0,
        )
    values.update(traced["sizes"])
    values["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    failed = sum(f is not None for f in failures)
    return {
        "attempted": 2,
        "failed": failed,
        "fail_frac": failed / 2,
        "failures": failures,
        "plain_wall_s": plain["wall_s"],
        "traced_wall_s": traced["wall_s"],
        "span_count": traced["span_count"],
        "unwrapped": traced["unwrapped"],
        "metrics": {name: values.get(name, 0) for name in PER_LAYER},
    }


def environment() -> dict:
    """Facts needed to tell whether two result files come from the same machine and code."""
    try:
        lscpu = subprocess.run(["lscpu"], capture_output=True, text=True).stdout
    except OSError:
        lscpu = ""
    caches = {}
    for line in lscpu.splitlines():
        key, _, val = line.partition(":")
        if key.strip() in ("L2 cache", "L3 cache"):
            caches[key.strip().replace(" ", "_").lower()] = val.strip()
    commit = None
    if (ROOT / ".git").exists():
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        ).stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": NPROC,
        "OPENBLAS_NUM_THREADS": str(NPROC),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "l2_cache": caches.get("l2_cache"),
        "l3_cache": caches.get("l3_cache"),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def summary_line(name: str, seed: int, result: dict, traced: bool) -> str:
    m = result["metrics"]
    if traced:
        shown = [f"{layer}.self_s {m[layer + '.self_s']:.4g} s" for layer in LAYERS]
        shown.append(f"trace.overhead_s {m['trace.overhead_s']:.4g} s")
    else:
        shown = [
            f"wall_s_p50 {m['wall_s_p50']:.4f} s (n={result['attempted']})",
            f"peak_rss_mb {m['peak_rss_mb']:.1f} MiB",
            f"setup_s {m['setup_s']:.4f} s (n={len(result['setup_samples_s'])})",
        ]
    shown.append(f"fail_frac {result['fail_frac']:.4g} ratio ({result['failed']} of {result['attempted']})")
    return f"{name} seed={seed}: " + ", ".join(shown)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "sdc" / "cli.py").is_file():
        sys.stderr.write(f"error: no sdc sources under {ROOT / 'src'}; run from a full checkout\n")
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    units = PER_LAYER if args.trace else END_TO_END
    RESULTS.mkdir(exist_ok=True)
    env = environment()
    total = {"attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in names:
            workload = WORKLOADS[name]
            invocations = workload.invocations(args.seed)
            if args.trace:
                sdc_argv, sent = next(invocations)
                spans = RESULTS / f"{name}-seed{args.seed}.spans.json.gz"
                result = trace(workload, sdc_argv, sent, spans)
            else:
                result = measure(workload, invocations, args.seconds)
            record = {"workload": name, "seed": args.seed, "seconds": args.seconds,
                      "trace": args.trace, "environment": env, **result}
            path = RESULTS / f"{name}-seed{args.seed}-trace{args.trace}.json"
            path.write_text(json.dumps(record, indent=1) + "\n")
            print(summary_line(name, args.seed, result, bool(args.trace)), flush=True)
            total["attempted"] += result["attempted"]
            total["failed"] += result["failed"]
            prefix = "" if len(names) == 1 else f"{name}."
            for metric, unit in units.items():
                total["metrics"][prefix + metric] = {"value": result["metrics"][metric], "unit": unit}
    except BenchError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    print(json.dumps({"correct": total["failed"] == 0, **total}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
