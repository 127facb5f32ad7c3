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
    # Two slots per host: hosts fill, so placement ranks hosts the family
    # has heard about, and sacrifices (37 and 44) and denials (377 and 335)
    # both happen.
    ("most", "--snapshots", "300", "--capacity", "2"): {
        "run_most_n60_seed17.csv":
            "a030943c4a847a0b2c27421b3c3b7141f111a030d7c2564bd9eca5ed8affb69c",
        "run_most_n60_seed17.edges":
            "fc8bb6aa2206ab15dbd40fed31b52777fce8114bc3f4cce7cb9a3cd27617dce5",
        "run_most_n60_seed17.json":
            "eab9e15be8c17db2c6ef84113d5b9a355dd2f8ad7bc2ad6ee7ecb9900a3c1408",
        "run_most_n60_seed17_t300.svg":
            "3d1a9b598cc475636f51b50951a45b5f277a43c59dbbe6950abf04908980d00f",
    },
    ("moderate", "--snapshots", "300", "--capacity", "2"): {
        "run_moderate_n60_seed17.csv":
            "6cb75789ae0a596b9a43809abcfd8b98fb36a244062cabf24ed465bad3ee21d5",
        "run_moderate_n60_seed17.edges":
            "ff52deb516d06c5928bc5c7908c22307b0ff88aa8c5e4581ae556888999eee57",
        "run_moderate_n60_seed17.json":
            "26ebb1a1e13db4b00e1b6c86c99c12065d3b336fb90b076a799c35d3535e2c62",
        "run_moderate_n60_seed17_t300.svg":
            "47d72b7dc993d29554ec3e89be56a1924bd755aa96a34286edb2f55f490f377c",
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

# The benchmark's own scale: the default 500 DOs / 1000 hosts with the
# snapshots and edge list of the `reference` workload, so the full 32x32
# host grid, a 500-DO tree ring and a 4070-edge list are byte-checked.  The
# run places 3101 copies, sacrifices 1331 and is denied 3503 times.
REFERENCE_ARGS = ("most", "--seed", "1", "--snapshots", "1500,3500", "--edge-list")
REFERENCE_PINNED = {
    "run_most_n500_seed1.csv":
        "624e8ab20c3c750a5906986e2841089cc997a5ae6fce13fb2b9d2030198f17ab",
    "run_most_n500_seed1.edges":
        "3527d7ab1b09c6737abb07f55b0ca576934dfbd07a952360c5f374305b351cd9",
    "run_most_n500_seed1.json":
        "3293e4861999a889fd7e9cb29648886ed5cf26c8ffee973ad2db51989bd688cc",
    "run_most_n500_seed1_t1500.svg":
        "cadf1fcda47d3b3ce04711959f0fb82eba242931e33cc0833e14419df3584ab2",
    "run_most_n500_seed1_t3500.svg":
        "60f6a4b4625fb9faadb1fd2375252c159b0d29eeea78e3d5af6fcf8c3e65ef08",
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


def test_reference_scale_outputs_match_pins(tmp_path):
    policy, *rest = REFERENCE_ARGS
    assert main(["run", "--policy", policy, *rest, "--out-dir", str(tmp_path)]) == 0
    assert written_digests(tmp_path) == REFERENCE_PINNED
