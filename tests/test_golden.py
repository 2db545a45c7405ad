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


def test_manifest_covers_every_subcommand():
    commands = {"verify", "sweep", "table", "run", "bases", "encode", "decode", "rates", "spin"}
    assert {e["argv"][0] for e in ENTRIES} == commands
    refused = {" ".join(e["argv"]) for e in ENTRIES if e["exit"] == 2}
    # the pipeline spreads a Bell state from N = 8, a message past 4N^2 - 1 is refused,
    # and decode takes only a normalized two-particle state
    assert {"sweep --n 8 --path pipeline", "table --n 8 --path pipeline", "run --n 2 --message 16"} <= refused
    assert {"decode --n 2 --state @state-unnormalized", "decode --n 2 --state @state-one-factor"} <= refused


def test_manifest_pins_each_dumped_state():
    dumps = [e for e in ENTRIES if "@dump" in e["argv"]]
    assert {e["argv"][2] for e in dumps} == {"1", "2", "4"}
    assert all(e["exit"] == 0 and e["dump_sha256"] for e in dumps)


def test_manifest_builds_the_mixer_from_a_registry():
    # ALT4 as the order-4 HN: verify reports the spread, the pipeline's users refuse it
    mixer = [e for e in ENTRIES if "@hn-alt4" in e["argv"]]
    assert len(mixer) == 5
    assert {e["argv"][0]: e["exit"] for e in mixer} == {"verify": 0, "table": 2, "sweep": 2, "run": 2}


def test_regeneration_names_each_moved_command():
    from make_golden import moved

    old = [{"argv": ["rates"], "exit": 0, "stdout_sha256": "a"}, {"argv": ["bases"], "exit": 0}]
    new = [{"argv": ["rates"], "exit": 0, "stdout_sha256": "b"}, {"argv": ["spin"], "exit": 2}]
    assert moved(old, new) == ["added   spin", "dropped bases", "moved   rates"]
    assert moved(new, [dict(e, stderr="ignored") for e in new]) == []
