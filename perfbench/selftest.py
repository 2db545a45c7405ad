"""Self-test of the benchmark at tiny N; finishes in seconds.

    python3 perfbench/selftest.py

Checks that:
  - each workload's code path (sweep, verify, run) runs and passes its
    output check, end to end and traced;
  - injected bad outputs (a wrong expected message, a non-zero exit) are
    counted in fail_frac;
  - traced counts match their closed forms: decode_grand is called 2*4N^2
    times on a sweep, grand_operator twice on a run, and member_mixer 4N^2
    times on verify in a fresh interpreter;
  - the run workload's message ids depend on the seed alone;
  - BENCHMARK.json lists exactly the metrics run.py reports.
Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import sys
from itertools import islice

import run
from run import Workload

N = 2


def main() -> int:
    problems: list[str] = []

    def expect(ok: bool, what: str) -> None:
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            problems.append(what)

    run.RESULTS.mkdir(exist_ok=True)
    for command in ("sweep", "verify", "run"):
        w = Workload(command, N)
        res = run.measure(w, w.invocations(0), seconds=0, min_samples=1, setup_samples=1)
        expect(res["failed"] == 0, f"{w.name} end to end passes its output check")
        res = run.trace(w, *next(w.invocations(0)), spans=None)
        expect(res["failed"] == 0, f"{w.name} traced and untraced pass their output check")
        counts = res["metrics"]
        if command == "sweep":
            got = counts["decoder.decode_grand.calls"]
            expect(got == 2 * w.messages, f"sweep decode_grand.calls {got} == 2*4N^2")
        elif command == "run":
            got = counts["decoder.grand_operator.calls"]
            expect(got == 2, f"run grand_operator.calls {got} == 2")
        else:
            got = counts["encoder.member_mixer.calls"]
            expect(got == w.messages, f"verify member_mixer.calls {got} == 4N^2")

    w = Workload("run", N)

    def injected():
        good = w.invocations(0)
        yield next(good)
        argv, sent = next(good)
        yield argv, (sent + 1) % w.messages  # output disagrees with what was "sent"
        yield ["run", "--n", str(N), "--message", str(w.messages)], w.messages  # exits 2

    res = run.measure(w, injected(), seconds=0, min_samples=3, setup_samples=1)
    expect(
        (res["failed"], res["attempted"]) == (2, 3) and res["fail_frac"] == 2 / 3,
        f"injected bad outputs counted: fail_frac {res['fail_frac']:.3f} == 2/3",
    )

    w = Workload("run", 16)
    first = [sent for _, sent in islice(w.invocations(7), 50)]
    again = [sent for _, sent in islice(w.invocations(7), 50)]
    other = [sent for _, sent in islice(w.invocations(8), 50)]
    expect(first == again and first != other, "run messages are a function of the seed")

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect(
        {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
        and {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
        and {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS),
        "BENCHMARK.json matches the workloads and metrics run.py reports",
    )

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
