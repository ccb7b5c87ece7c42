"""Golden landmark payload: the exact JSON that ``landmarks --out`` writes.

``tests/data/landmarks_golden.json`` holds the ``payload`` of the report of
``ifslab landmarks --out`` over all six landmarks: per landmark its root and
residual, the sector margins, the overlap count, the verdict, the smallest
condition margin, both parameter probes, the expectation flag and the notes.
The file was generated at commit dd1d691, before the landmark ids and the
verdict name got one owner each, with

    PYTHONPATH=src python tests/test_landmarks_golden.py

which rewrites it from the code in the tree.  JSON round-trips every float,
so equal text means equal bits.
"""

import json
import tempfile
from pathlib import Path

from ifslab.cli import main

GOLDEN = Path(__file__).parent / "data" / "landmarks_golden.json"


def golden_payload() -> dict:
    """The payload of one ``landmarks --out`` run of the command line."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp, "landmarks.json")
        assert main(["landmarks", "--out", str(out)]) == 0
        return json.loads(out.read_text())["payload"]


def test_landmark_payload_matches_the_golden_file():
    assert json.dumps(golden_payload()) == json.dumps(json.loads(GOLDEN.read_text()))


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(golden_payload(), indent=1) + "\n")
