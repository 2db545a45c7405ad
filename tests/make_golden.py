"""Regenerate `tests/golden.json`, the corpus of byte-pinned `sdc` commands.

Each entry holds a command's argv, its exit code and the sha256 of its
stdout and of its stderr, all from one in-process run of `sdc.cli.main`.
An argv item "@NAME" stands for a registry file holding
`dense_oracle.sign_matrix(NAME, N)` for the command's --n; it is written to
a temporary directory when the command runs, and no output may name it.
`tests/test_golden.py` runs every entry and compares.

Run from the repository root:

    PYTHONPATH=src:tests python tests/make_golden.py

A regenerated manifest is an intended output change, so the commands whose
digests moved belong in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

from dense_oracle import sign_matrix

from sdc.cli import main

MANIFEST = Path(__file__).with_name("golden.json")


def commands():
    """Every argv the manifest pins, in its order."""
    for path in ([], ["--path", "pipeline"]):
        for gates in ([], ["--gates"]):
            for n in range(1, 17):
                yield ["verify", "--n", str(n), *path, *gates]
    registries = [("alt4", 2), ("paley", 6), ("minus", 1), *(("flipped", n) for n in (2, 4, 8, 16))]
    for name, n in registries:
        yield ["verify", "--n", str(n), "--custom-matrices", f"@{name}"]
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
    yield ["rates"]
    for n in (1, 2):
        for s, d in (("0.5", 2), ("1", 3)):  # d = 2S + 1 spin levels
            yield ["spin", "--n", str(n), "--s", s]
            for message in (0, 4 * n * n * d * d - 1):
                yield ["run", "--n", str(n), "--s", s, "--message", str(message)]


def run(argv, tmp: Path) -> dict:
    """Exit code and output digests of one command, its "@NAME" items written out."""
    paths = []
    for arg in argv:
        if arg.startswith("@"):
            n = int(argv[argv.index("--n") + 1])
            path = tmp / f"{arg[1:]}-{n}.txt"
            rows = sign_matrix(arg[1:], n).ints
            path.write_text("".join(" ".join(map(str, row)) + "\n" for row in rows))
            paths.append(str(path))
    resolved = [paths.pop(0) if arg.startswith("@") else arg for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(resolved)
    stdout, stderr = out.getvalue(), err.getvalue()
    if str(tmp) in stdout + stderr:
        raise AssertionError(f"{argv}: the output names the temporary registry file")
    return {
        "exit": code,
        "stdout_sha256": hashlib.sha256(stdout.encode()).hexdigest(),
        "stderr_sha256": hashlib.sha256(stderr.encode()).hexdigest(),
        "stderr": stderr if code == 2 else "",
    }


def load() -> list[dict]:
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        entries = [{"argv": argv, **run(argv, Path(tmp))} for argv in commands()]
    MANIFEST.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")
    print(f"{len(entries)} commands written to {MANIFEST.name}")
