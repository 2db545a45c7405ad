"""Regenerate `tests/golden.json`, the corpus of byte-pinned `sdc` commands.

Each entry holds a command's argv, its exit code and the sha256 of its
stdout, of its stderr and of any state file it dumps, all from one
in-process run of `sdc.cli.main`.  An argv item starting with "@" stands
for a file in a temporary directory, which no output may name:

- "@dump": the state file the command writes;
- "@sent-M": the state file `sdc run --n N --message M --dump-state` writes;
- "@state-NAME": the hand-written state `STATES[NAME]`;
- "@NAME": a registry file holding `dense_oracle.sign_matrix(NAME, N)`;
- "@hn-NAME": a registry file holding `dense_oracle.sign_matrix(NAME, N // 2)`,
  the order-N matrix the pipeline's mixer draws its rows from;

N being the command's --n.  `tests/test_golden.py` runs every entry and
compares.

Run from the repository root:

    PYTHONPATH=src:tests python tests/make_golden.py

It prints every command added, dropped, or whose exit code or digests moved
against the manifest it replaces.  A regenerated manifest is an intended
output change, so that list belongs in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import math
import tempfile
from pathlib import Path

from dense_oracle import sign_matrix

from sdc.cli import main

MANIFEST = Path(__file__).with_name("golden.json")


def _state(dims, amplitudes):
    """A state dump with the given {flat index: [re, im]} amplitudes, zero elsewhere."""
    return {"dims": dims, "amplitudes": [amplitudes.get(i, [0.0, 0.0]) for i in range(math.prod(dims))]}


# hand-written decode inputs at N = 2, where a two-particle state has dims [4, 4]
STATES = {
    "spread": _state([4, 4], {1: [0.6, 0.0], 11: [0.0, 0.8]}),  # 0.6|0,1> + 0.8i|2,3>
    "unnormalized": _state([4, 4], {1: [1.5, 0.0]}),
    "one-factor": _state([16], {0: [1.0, 0.0]}),
}


def commands():
    """Every argv the manifest pins, in its order."""
    for path in ([], ["--path", "pipeline"]):
        for gates in ([], ["--gates"]):
            for n in range(1, 17):
                yield ["verify", "--n", str(n), *path, *gates]
    registries = [("alt4", 2), ("paley", 6), ("minus", 1), *(("flipped", n) for n in (2, 4, 8, 16))]
    for name, n in registries:
        yield ["verify", "--n", str(n), "--custom-matrices", f"@{name}"]
    # ALT4 as HN alone: the mixer built from a non-Sylvester matrix
    for command in (["verify"], ["verify", "--gates"], ["table"], ["sweep"], ["run", "--message", "5"]):
        yield [*command, "--n", "4", "--path", "pipeline", "--custom-matrices", "@hn-alt4"]
    for path in ([], ["--path", "pipeline"]):  # the pipeline refuses from N = 8
        for n in range(1, 9):
            yield ["sweep", "--n", str(n), *path]
            yield ["table", "--n", str(n), *path]
            for message in (0, 4 * n * n - 1):
                yield ["run", "--n", str(n), "--message", str(message), *path]
    yield ["run", "--n", "2", "--message", "16"]  # one past the last message
    for n in range(1, 5):
        yield ["bases", "--n", str(n)]
        for message in range(4 * n * n if n != 3 else 1):  # N = 3 has no order-6 matrix
            yield ["encode", "--n", str(n), "--message", str(message), "--dump-op"]
    yield ["encode", "--n", "2", "--message", "16", "--dump-op"]
    for n in (1, 2, 4):
        for message in (0, 4 * n * n - 1):
            yield ["run", "--n", str(n), "--message", str(message), "--dump-state", "@dump"]
            for path in ([], ["--path", "pipeline"]):
                yield ["decode", "--n", str(n), "--state", f"@sent-{message}", *path]
    for name in STATES:
        for path in ([], ["--path", "pipeline"]):
            yield ["decode", "--n", "2", "--state", f"@state-{name}", *path]
    yield ["rates"]
    for n in (1, 2):
        for s, d in (("0.5", 2), ("1", 3)):  # d = 2S + 1 spin levels
            yield ["spin", "--n", str(n), "--s", s]
            for message in (0, 4 * n * n * d * d - 1):
                yield ["run", "--n", str(n), "--s", s, "--message", str(message)]
    yield ["run", "--n", "2", "--message", "3", "--sign", "-1"]  # a spin variant with no spin


def _placeholder_file(arg: str, n: int, tmp: Path) -> Path:
    """The file an "@" argv item stands for, written out unless the command writes it."""
    name = arg[1:]
    path = tmp / f"{name}-{n}.txt"
    if name.startswith("sent-"):
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["run", "--n", str(n), "--message", name[5:], "--dump-state", str(path)])
        if code != 0:
            raise AssertionError(f"{arg}: `run --n {n} --dump-state` exited {code}")
    elif name.startswith("state-"):
        path.write_text(json.dumps(STATES[name[6:]]))
    elif name == "dump":
        path.unlink(missing_ok=True)  # a command that refuses leaves no file
    else:
        rows = sign_matrix(name[3:], n // 2).ints if name.startswith("hn-") else sign_matrix(name, n).ints
        path.write_text("".join(" ".join(map(str, row)) + "\n" for row in rows))
    return path


def run(argv, tmp: Path) -> dict:
    """Exit code and output digests of one command, its "@" items written out."""
    n = int(argv[argv.index("--n") + 1]) if "--n" in argv else None
    files = {arg: _placeholder_file(arg, n, tmp) for arg in argv if arg.startswith("@")}
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(files.get(arg, arg)) for arg in argv])
    stdout, stderr = out.getvalue(), err.getvalue()
    if str(tmp) in stdout + stderr:
        raise AssertionError(f"{argv}: the output names a temporary file")
    got = {
        "exit": code,
        "stdout_sha256": hashlib.sha256(stdout.encode()).hexdigest(),
        "stderr_sha256": hashlib.sha256(stderr.encode()).hexdigest(),
        "stderr": stderr if code == 2 else "",
    }
    if "@dump" in files:
        dumped = files["@dump"]
        got["dump_sha256"] = hashlib.sha256(dumped.read_bytes()).hexdigest() if dumped.exists() else None
    return got


def load() -> list[dict]:
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


def moved(old: list[dict], new: list[dict]) -> list[str]:
    """One line per command added, dropped, or whose exit code or digests differ."""
    before, after = ({" ".join(e["argv"]): e for e in entries} for entries in (old, new))
    keys = ("exit", "stdout_sha256", "stderr_sha256", "dump_sha256")
    lines = [f"added   {argv}" for argv in after if argv not in before]
    lines += [f"dropped {argv}" for argv in before if argv not in after]
    return lines + [
        f"moved   {argv}" for argv, e in after.items()
        if argv in before and any(e.get(k) != before[argv].get(k) for k in keys)
    ]


if __name__ == "__main__":
    committed = load() if MANIFEST.exists() else []
    with tempfile.TemporaryDirectory() as tmp:
        entries = [{"argv": argv, **run(argv, Path(tmp))} for argv in commands()]
    MANIFEST.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")
    print(f"{len(entries)} commands written to {MANIFEST.name}")
    print("\n".join(moved(committed, entries)) or "no command moved")
