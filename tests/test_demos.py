"""The demos print the same bytes as when their digests were recorded.

Each demo runs in a fresh interpreter that imports the ``bananagv`` under
test; its standard output is compared by sha256 and length.  A change that
alters a demo's output on purpose records the new digest here.
"""
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bananagv

DEMOS = Path(__file__).resolve().parents[1] / "demos"

# sha256 and byte length of each demo's standard output
DIGESTS = {
    "elliptic_genus.py": (
        "dbe1c1b8164a4ac91ae321280a267c142bb90b606e6d32c635f760911ac112ca", 2042
    ),
    "identity_suite.py": (
        "46297a13d0d70778ec351e9714f9ef5403985c8fbef684ce4c568812a5575f4a", 298
    ),
    "invariant_tables.py": (
        "4a323cb5ff6cedd90b37d9c62e1e92fa1158634f57328bc991cc5a812dec3d84", 1175
    ),
    "two_routes.py": ("9a4a3fccaf4316f85b73252f45443073c1dbdc161b598659cb358872d56e42ba", 759),
}


def test_every_demo_has_a_digest():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(DIGESTS)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_demo_output_matches_its_digest(name):
    src = str(Path(bananagv.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    out = subprocess.run(
        [sys.executable, str(DEMOS / name)], env=env, capture_output=True, check=True
    ).stdout
    assert (hashlib.sha256(out).hexdigest(), len(out)) == DIGESTS[name]
