"""Golden render and attractor bytes: the exact images the command line writes.

``tests/data/ppm_golden.json`` holds, for each case below, the sha256 of the
PPM that ``ifslab.cli.main`` writes and, for ``render``, the sha256 of the
report payload without its ``output`` path (the one field that names where
the run wrote).  The cases are the README window (200x101, depth 40), the
acceptance window (128x128, depth 25) and the near-real window (48x16,
depth 40) on M and M0, the rectangle attractor at lambda = i/sqrt(2),
landmark 5 with its level-6 instar and its chain overlays, and two
attractors shaped like the benchmark's: a ternary one at depth 12 in its
default window, every block of nodes inside the image, and a binary zoom at
depth 20 whose 128 blocks lie 7 wholly inside the window, 111 wholly outside
and 10 across its edge.  The README, acceptance, rectangle and landmark
cases were generated at commit 57315f1, before condition (iii) became a
pruned walk; the two benchmark-shaped attractors at commit 9e77426, before
the attractor raster painted whole blocks without a mask; and the two
near-real renders, whose surviving pixels are mostly found after the
membership search's first descent has died, at commit 3c68759, before that
search gained its steered second descent.  The file is written with

    PYTHONPATH=src python tests/test_ppm_golden.py

which rewrites it from the code in the tree.  The attractor cases are
checked once more with the compiled point walk unavailable, on the numpy
path it replaces.  A change that moves a pixel or a report field of these
cases fails here, so refactors of the membership search, the node
enumeration or the raster need no hand-made comparison against their
parent.
"""

import hashlib
import json
import tempfile
from pathlib import Path

from ifslab.cli import main

GOLDEN = Path(__file__).parent / "data" / "ppm_golden.json"

_LANDMARK5 = ["--seed=-0.366,0.520", "--series", "1;1,1,-1", "--set", "m",
              "--depth", "10", "--px", "300,300"]

CASES = {
    "render/readme/m": ["render", "--window=0.40,-0.05,0.60,0.05", "--px", "200,101",
                        "--depth", "40", "--set", "m"],
    "render/readme/m0": ["render", "--window=0.40,-0.05,0.60,0.05", "--px", "200,101",
                         "--depth", "40", "--set", "m0"],
    "render/accept/m": ["render", "--window=0.0,0.0,0.708,0.708", "--px", "128,128",
                        "--depth", "25", "--set", "m"],
    "render/accept/m0": ["render", "--window=0.0,0.0,0.708,0.708", "--px", "128,128",
                         "--depth", "25", "--set", "m0"],
    "render/near-real/m": ["render", "--window=0.55,0,0.72,0.06", "--px", "48,16",
                           "--depth", "40", "--set", "m"],
    "render/near-real/m0": ["render", "--window=0.55,0,0.72,0.06", "--px", "48,16",
                            "--depth", "40", "--set", "m0"],
    "attractor/rectangle": ["attractor", "--seed", "0.0,0.7071067811865475", "--set", "m0",
                            "--depth", "16", "--px", "400,300",
                            "--window=-2.2,-1.6,2.2,1.6"],
    "attractor/landmark5/instar": ["attractor", *_LANDMARK5, "--overlay", "instar",
                                   "--level", "6"],
    "attractor/landmark5/chain": ["attractor", *_LANDMARK5, "--overlay", "chain"],
    "attractor/ternary12": ["attractor", "--seed=0.3,0.6", "--set", "m", "--depth", "12",
                            "--px", "400,400"],
    "attractor/binary-zoom": ["attractor", "--seed=0.55,0.41", "--set", "m0",
                              "--depth", "20", "--px", "300,300",
                              "--window=1.0,0.5,2.0,1.5"],
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def golden_digests(names=CASES) -> dict:
    """The digests of the named cases, from one run of the command line."""
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        out, report = Path(tmp, "out.ppm"), Path(tmp, "report.json")
        for name in names:
            argv = CASES[name]
            extra = ["--out", str(out)]
            if argv[0] == "render":
                extra += ["--report", str(report)]
            assert main(argv + extra) == 0, name
            digests[name] = {"ppm": _sha256(out.read_bytes())}
            if argv[0] == "render":
                payload = json.loads(report.read_text())["payload"]
                del payload["output"]
                digests[name]["report"] = _sha256(json.dumps(payload).encode())
    return digests


def test_images_match_the_golden_file():
    assert golden_digests() == json.loads(GOLDEN.read_text())


def test_attractors_match_the_golden_file_on_the_numpy_path(numpy_points):
    # the attractor's points and circles are marked by the compiled library
    # when it can be built, and by numpy otherwise: both give the golden bytes
    golden = json.loads(GOLDEN.read_text())
    names = [name for name in CASES if name.startswith("attractor/")]
    assert golden_digests(names) == {name: golden[name] for name in names}


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(golden_digests(), indent=1) + "\n")
