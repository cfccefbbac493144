"""Golden verify outputs: planner and fusion refactors must leave them
byte-identical.

Each diagram of the d1-main corpus at seeds 7 (the benchmark corpus) and 3 is
checked through ``wplzx.cli.main verify``, once against its normalization and
once against the replay of its ``normalize`` trace.  The exit code and the
sha256 of stdout must match for both.
"""

from __future__ import annotations

import contextlib
import hashlib
import io

import pytest

from wplzx.cli import main

COUNT = 20

# (exit code, sha256 of stdout) of verify's four outputs on this corpus:
# verdict SOUND, method normalization or trace replay, zero_map true or false.
NORMALIZE_ZERO = (0, "046d7e8a978da50d6fb40f921da1038388f07989bb76cc6baa74268a6cbb6af2")
REPLAY_ZERO = (0, "d3bbef4055223d7065b981bd2c28fedc3443b875fd02d26b6cd5f40421db803b")
NORMALIZE_NONZERO = (0, "d02ce6ae88556deafef0200ad98fdc8791387359d499faf96cdbd9f685cbebf3")
REPLAY_NONZERO = (0, "6cd7b78acffcc01085a7ed1e118bc204f95e746e66b0d1412655d83c6139b115")

# seed -> instance -> (verify, verify --trace)
EXPECTED = {
    3: {
        "000": (NORMALIZE_ZERO, REPLAY_ZERO),
        "001": (NORMALIZE_ZERO, REPLAY_ZERO),
        "002": (NORMALIZE_ZERO, REPLAY_ZERO),
        "003": (NORMALIZE_NONZERO, REPLAY_NONZERO),
        "004": (NORMALIZE_ZERO, REPLAY_ZERO),
        "005": (NORMALIZE_ZERO, REPLAY_ZERO),
        "006": (NORMALIZE_NONZERO, REPLAY_NONZERO),
        "007": (NORMALIZE_ZERO, REPLAY_ZERO),
        "008": (NORMALIZE_ZERO, REPLAY_ZERO),
        "009": (NORMALIZE_ZERO, REPLAY_ZERO),
        "010": (NORMALIZE_ZERO, REPLAY_ZERO),
        "011": (NORMALIZE_ZERO, REPLAY_ZERO),
        "012": (NORMALIZE_ZERO, REPLAY_ZERO),
        "013": (NORMALIZE_ZERO, REPLAY_ZERO),
        "014": (NORMALIZE_ZERO, REPLAY_ZERO),
        "015": (NORMALIZE_ZERO, REPLAY_ZERO),
        "016": (NORMALIZE_ZERO, REPLAY_ZERO),
        "017": (NORMALIZE_ZERO, REPLAY_ZERO),
        "018": (NORMALIZE_NONZERO, REPLAY_NONZERO),
        "019": (NORMALIZE_ZERO, REPLAY_ZERO),
    },
    7: {
        "000": (NORMALIZE_ZERO, REPLAY_ZERO),
        "001": (NORMALIZE_ZERO, REPLAY_ZERO),
        "002": (NORMALIZE_NONZERO, REPLAY_NONZERO),
        "003": (NORMALIZE_ZERO, REPLAY_ZERO),
        "004": (NORMALIZE_ZERO, REPLAY_ZERO),
        "005": (NORMALIZE_ZERO, REPLAY_ZERO),
        "006": (NORMALIZE_ZERO, REPLAY_ZERO),
        "007": (NORMALIZE_ZERO, REPLAY_ZERO),
        "008": (NORMALIZE_ZERO, REPLAY_ZERO),
        "009": (NORMALIZE_ZERO, REPLAY_ZERO),
        "010": (NORMALIZE_NONZERO, REPLAY_NONZERO),
        "011": (NORMALIZE_ZERO, REPLAY_ZERO),
        "012": (NORMALIZE_NONZERO, REPLAY_NONZERO),
        "013": (NORMALIZE_ZERO, REPLAY_ZERO),
        "014": (NORMALIZE_ZERO, REPLAY_ZERO),
        "015": (NORMALIZE_ZERO, REPLAY_ZERO),
        "016": (NORMALIZE_ZERO, REPLAY_ZERO),
        "017": (NORMALIZE_ZERO, REPLAY_ZERO),
        "018": (NORMALIZE_ZERO, REPLAY_ZERO),
        "019": (NORMALIZE_ZERO, REPLAY_ZERO),
    },
}


def _run(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


@pytest.mark.parametrize("seed", sorted(EXPECTED))
def test_verify_outputs_match_golden_digests(tmp_path, seed):
    corpus = tmp_path / "corpus"
    assert _run(["gen", "--preset", "d1-main", "--seed", str(seed),
                 "--count", str(COUNT), "--out", str(corpus)])[0] == 0
    got = {}
    for src in sorted(corpus.glob("*.diagram.json")):
        out = tmp_path / "out" / src.name
        assert _run(["normalize", "--input", str(src), "--out", str(out)])[0] == 0
        instance = src.name.split("-")[-1].split(".")[0]
        got[instance] = (
            _run(["verify", "--input", str(src)]),
            _run(["verify", "--input", str(src), "--trace", str(out / "trace.jsonl")]),
        )
    assert got == EXPECTED[seed]
