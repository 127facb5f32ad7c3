"""Golden outputs: the sha256 of every file `uswsim run` writes for a few
fixed configurations.

A change that must keep outputs byte-identical keeps these pins.  A change
that alters outputs on purpose updates the pin it changes and says why.
"""

import hashlib

import pytest

from uswsim.cli import main

GOLDEN_ARGS = ["--n-max", "60", "--h-max", "120", "--seed", "17", "--edge-list"]

PINNED = {
    # Full runs to quiescence, one per policy, with one snapshot mid-run.
    ("least", "--snapshots", "300"): {
        "run_least_n60_seed17.csv":
            "3ecb2afca2bc2776eacda2d9cf7924375835d9be06f4b322f60ee32e50070f0c",
        "run_least_n60_seed17.edges":
            "870d686a5e93287f58f6f61cd7255ce50e8eec2377213ac27a879d99c8cbc628",
        "run_least_n60_seed17.json":
            "2e89f1644fb708643ed203293257f23819dab6fe105d233577404f86250be840",
        "run_least_n60_seed17_t300.svg":
            "b46909554d2581f551b76029882ba8a539b7e5ae4e3ef58352107538a54f0212",
    },
    ("moderate", "--snapshots", "300"): {
        "run_moderate_n60_seed17.csv":
            "5e069b72d09f21e31da1fdafa72f0b3181dbc88383b343d21a96bf6396de395e",
        "run_moderate_n60_seed17.edges":
            "2485b4a0bada17139538afc6778907cd2adb8dd13be6ffadc43179c002b0408b",
        "run_moderate_n60_seed17.json":
            "cd62d04d2dadf25a25994c6f009bfbe11f493d142a4438e7c42663b8ef0230f8",
        "run_moderate_n60_seed17_t300.svg":
            "52dcb8782631473096580009992cc68511937c2c0dc2531553af3a5c5789bc88",
    },
    ("most", "--snapshots", "300"): {
        "run_most_n60_seed17.csv":
            "8f6319ff35cd36be801435026cb7e303885e525bb280c933823e1a48c4e29f02",
        "run_most_n60_seed17.edges":
            "23f72f5dee3b1908aacebec226fdb9343a42949d6a41eeb564d4fbf69e225810",
        "run_most_n60_seed17.json":
            "835b5daf551f42b09a9a032541518a780a4865b49b486cbe432b9d94dd665725",
        "run_most_n60_seed17_t300.svg":
            "74b8d9e443501925b58963d80b6e45a75de8aefc56c862deb21f80752f75db1d",
    },
    # Cut at max_events while DOs are still joining: growth only.
    ("least", "--snapshots", "100", "--max-events", "200"): {
        "run_least_n60_seed17.csv":
            "82e8b0a7d9b88bb1829fce6fb7b3955127f1bb8d9b9a5492f8b43cae97401bbe",
        "run_least_n60_seed17.edges":
            "1ad3f8ca0613ce6e0fc6f2e074bffd8d733bf033889f6e593eab7b35903322a8",
        "run_least_n60_seed17.json":
            "50db457cb27ad7755df45cb119047a157e26def10212bdc5d572bef17604c227",
        "run_least_n60_seed17_t100.svg":
            "628d1047b5c06298d5ca1bb403c9f38f86df24d367685c160fcb264d3751a74e",
    },
}


def written_digests(out_dir) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.iterdir())}


@pytest.mark.parametrize("extra", list(PINNED), ids=lambda extra: "-".join(extra))
def test_run_outputs_match_pins(tmp_path, extra):
    policy, *rest = extra
    assert main(["run", "--policy", policy, *GOLDEN_ARGS, *rest,
                 "--out-dir", str(tmp_path)]) == 0
    assert written_digests(tmp_path) == PINNED[extra]
