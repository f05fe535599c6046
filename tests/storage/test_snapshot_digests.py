"""Written snapshot bytes are pinned.

The writer derives its payloads from the CSR adjacency (dense row
blocks rebuilt from the column ids, gap runs encoded straight from the
ranges).  The format did not change with that move, so every layout
must keep producing these exact bytes: SHA-256 over the manifest and
then each shard file in order, for the movie graph and LUBM(2), with
every label forced into one encoding.
"""

import hashlib

import pytest

from repro.graph import example_movie_database
from repro.storage import write_snapshot
from repro.storage.format import shard_path
from repro.workloads import generate_lubm

#: Shards per version: v1 and v2 are single-file, v3 is sharded.
SHARDS = {1: 0, 2: 0, 3: 4}

#: Cold threshold forcing every label into one encoding.
THRESHOLDS = {"dense": 0.0, "gap": 1e9}

DIGESTS = {
    ("movie", 1, "dense"): (
        "9d21ce92f0892e873eeb67fd01f9833f"
        "fa7597d3644c1b72db2408b42eed7a27"
    ),
    ("movie", 1, "gap"): (
        "cb82584efcacedcbc42942a8ae6d643e"
        "01f0a0a3deed5e06a42995292c95246e"
    ),
    ("movie", 2, "dense"): (
        "521e06de23fbc3bd83dce8a62a9ec41a"
        "7d95782ed97de172120c397942be7699"
    ),
    ("movie", 2, "gap"): (
        "aa2d76e682f0220cc53f5614d6ff2b28"
        "18e7d77c768e4b276850dffb869ddf57"
    ),
    ("movie", 3, "dense"): (
        "3357b040bc41f3d0953c7d8a5fb4a2c7"
        "578a06a00c88db02f0caea521e4afa59"
    ),
    ("movie", 3, "gap"): (
        "5c39b8f1a0d39a9fe064750fbc8dc516"
        "dd6288ce190429e974ab1f0d9faaac97"
    ),
    ("lubm2", 1, "dense"): (
        "2970fc4252e2897572740ea27b399643"
        "cca11de2ca7ed667196b5f8d8ed18ef6"
    ),
    ("lubm2", 1, "gap"): (
        "c41a40d95ec12df73069d2f69066774c"
        "81014a881cbf89768197dab1b889bb68"
    ),
    ("lubm2", 2, "dense"): (
        "46a8a8301c0c74407e67235e4e87f776"
        "0e8acdfa4795a541e9b653fcdef3a05e"
    ),
    ("lubm2", 2, "gap"): (
        "7b90439a8619b104a245c88f1514ad47"
        "6147a890ee062426fdebd33cfa9b9ceb"
    ),
    ("lubm2", 3, "dense"): (
        "f5e01c1696e0214a79618d367bd20548"
        "76e2f6572c26e25c66192d22d4d0c6d5"
    ),
    ("lubm2", 3, "gap"): (
        "aa998967adab559accfd66f3e5f76433"
        "6036e5e462e78788ba4d6ed49b01dd1b"
    ),
}


@pytest.fixture(scope="module")
def graphs():
    return {
        "movie": example_movie_database(),
        "lubm2": generate_lubm(n_universities=2, seed=7, spiral_length=8),
    }


@pytest.mark.parametrize("graph,version,encoding", sorted(DIGESTS))
def test_snapshot_bytes_unchanged(graphs, tmp_path, graph, version, encoding):
    path = tmp_path / "pinned.snap"
    write_snapshot(
        graphs[graph], path, cold_threshold=THRESHOLDS[encoding],
        version=version, shards=SHARDS[version],
    )
    digest = hashlib.sha256(path.read_bytes())
    for index in range(SHARDS[version]):
        digest.update(shard_path(path, index).read_bytes())
    assert digest.hexdigest() == DIGESTS[(graph, version, encoding)]
