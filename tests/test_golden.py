"""Every command in `tests/golden.json` prints the bytes and exits with the code recorded there."""

import pytest
from make_golden import load, run

from sdc import errors

ENTRIES = load()


@pytest.mark.parametrize("entry", ENTRIES, ids=[" ".join(e["argv"]) for e in ENTRIES])
def test_command_matches_the_golden_manifest(entry, tmp_path):
    got = run(entry["argv"], tmp_path)
    assert got == {key: entry[key] for key in got}
    if got["exit"] == 2:  # a refusal names its typed error on one line
        name = got["stderr"].removeprefix("error: ").partition(":")[0]
        assert issubclass(getattr(errors, name), errors.SdcError)
        assert got["stderr"].count("\n") == 1


def test_manifest_covers_the_refusals():
    refused = {" ".join(e["argv"]): e["exit"] for e in ENTRIES if e["exit"] == 2}
    assert {"verify --n 3", "verify --n 5", "verify --n 6", "verify --n 6 --custom-matrices @paley"} <= set(refused)
