"""Run one sdc CLI invocation in-process, plain or with per-layer spans.

    python3 perfbench/tracer.py --mode plain|traced [--spans FILE.json.gz] -- <sdc argv>

The sdc package must be importable (run.py puts the checkout's `src` on
PYTHONPATH). The program calls `sdc.cli.main(argv)` once, with stdout
captured, and prints one JSON object on its own stdout: the exit code, the
captured CLI output, the in-process wall time of `main`, and, when traced,
the calls and self time of every wrapped function.

Spans are recorded by wrappers this file installs from outside the program;
nothing under `src/` knows about them. Each span is kept in memory as
(name, start, end, parent) and written out at the end. A span's self time is
its duration minus the durations of its direct children; spans nest
properly because the CLI is single-threaded.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gzip
import io
import json
import sys
import time

# The layers are the modules of src/sdc. Each list holds the boundary
# functions wrapped in that layer. Micro-helpers such as
# hilbert.label_to_index (millions of calls per sweep) are left out on
# purpose: wrapper cost would swamp what they measure. cli.main is the root
# span; whatever it spends outside child spans is cli's own time.
LAYERS = {
    "hadamard": ["build"],
    "hilbert": ["apply", "partial_trace", "compose_perms"],
    "bell": [
        "bell_state",
        "compact_bell_state",
        "bell_basis_matrix",
        "derive_compact_relabel",
        "first_particle_interleave",
    ],
    "gates": [
        "channel_sign_gate",
        "channel_swap_gate",
        "ladder_shift_gate",
        "position_controlled_swap",
    ],
    "encoder": [
        "encode_direct",
        "member_mixer",
        "family_shift",
        "resolve_member_mixer_reading",
        "resolve_composition_order",
    ],
    "decoder": ["grand_operator", "build_decode_table", "decode_grand", "outcome_distribution"],
    "analysis": ["round_trip_sweep", "run_protocol", "start_state"],
    "cli": ["build_verify_report"],
}


def _grand_sizes(op) -> dict:
    return {
        "decoder.grand_operator.nnz": int(op.nnz),
        "decoder.grand_operator.bytes": int(
            op.data.nbytes + op.indices.nbytes + op.indptr.nbytes
        ),
    }


def _bell_state_sizes(state) -> dict:
    nonzero = int((state.amp != 0).sum())
    return {"bell.bell_state.bytes_per_nonzero": state.amp.nbytes / nonzero}


# Sizes are computed from the first object each function returns; they are
# fixed by N, so one sample is exact.
SIZES = {"decoder.grand_operator": _grand_sizes, "bell.bell_state": _bell_state_sizes}


class Tracer:
    """Span recorder; `install` rebinds every wrapped name in every sdc module."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.sizes: dict = {}
        self.unwrapped: list[str] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        size_of = SIZES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if size_of is not None and name not in self.sizes:
                self.sizes[name] = size_of(result)
            return result

        return wrapper

    def install(self) -> None:
        import sdc.cli  # noqa: F401  (imports every layer)

        modules = [m for k, m in sys.modules.items() if k == "sdc" or k.startswith("sdc.")]
        targets = [(layer, fn) for layer, fns in LAYERS.items() for fn in fns]
        targets.append(("cli", "main"))
        for layer, fn in targets:
            # A function moved or renamed by a later change is reported with
            # 0 calls and listed in `unwrapped`, instead of failing the run.
            orig = getattr(sys.modules.get(f"sdc.{layer}"), fn, None)
            if orig is None:
                self.unwrapped.append(f"{layer}.{fn}")
                continue
            wrapped = self.wrap(f"{layer}.{fn}", orig)
            # `from .decoder import grand_operator` copies the binding into the
            # importer, so every module holding the original is rebound.
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapped)

    def summary(self) -> dict:
        """Calls and self time per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict] = {}
        for (name, start, end, _), covered in zip(self.spans, child):
            row = out.setdefault(name, {"calls": 0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += (end - start) - covered
        return out

    def write(self, path: str, argv: list[str]) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with gzip.open(path, "wt") as fh:
            json.dump(
                {
                    "argv": argv,
                    "fields": ["name", "start", "end", "parent"],
                    "names": names,
                    "spans": [[index[n], a, b, p] for n, a, b, p in self.spans],
                },
                fh,
            )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=["plain", "traced"], required=True)
    parser.add_argument("--spans", default=None, help="gzip JSON file for the raw spans")
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    import sdc.cli

    tracer = None
    if args.mode == "traced":
        tracer = Tracer()
        tracer.install()
    captured = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(captured):
        try:
            code = sdc.cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code if isinstance(exc.code, int) else 2
    wall = time.perf_counter() - t0

    result = {"exit": code, "wall_s": wall, "stdout": captured.getvalue()}
    if tracer is not None:
        result["spans"] = tracer.summary()
        result["sizes"] = {k: v for sizes in tracer.sizes.values() for k, v in sizes.items()}
        result["unwrapped"] = tracer.unwrapped
        result["span_count"] = len(tracer.spans)
        if args.spans:
            tracer.write(args.spans, argv)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
