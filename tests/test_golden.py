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


def test_manifest_covers_every_subcommand_but_decode():
    assert {e["argv"][0] for e in ENTRIES} == {"verify", "sweep", "table", "run", "bases", "encode", "rates", "spin"}
    refused = {" ".join(e["argv"]) for e in ENTRIES if e["exit"] == 2}
    # the pipeline spreads a Bell state from N = 8, and a message past 4N^2 - 1 is refused
    assert {"sweep --n 8 --path pipeline", "table --n 8 --path pipeline", "run --n 2 --message 16"} <= refused
