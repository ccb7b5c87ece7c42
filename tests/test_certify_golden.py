"""Golden certificate payloads: the exact JSON the certificate writes.

``tests/data/certify_golden.json`` holds ``report_to_dict(certify(...))``
for landmarks 1-6 with targets M and M0 and for two seeded series of
periods 5 and 7, whose deeper (iii) walks the landmarks do not reach, and
the full-cycle ``weakened_conditions`` records at landmark 5.  The file was
generated at commit 00e97d9, before the certificate read all its conditions
off one Taylor table, with

    PYTHONPATH=src python tests/test_certify_golden.py

which rewrites it from the code in the tree.  JSON round-trips every float,
so equal text means equal bits.
"""

import json
import warnings
from pathlib import Path

from ifslab import RationalTypeSeries, certify, landmark, landmark_root, weakened_conditions
from ifslab.certificate import condition_to_dict, report_to_dict

GOLDEN = Path(__file__).parent / "data" / "certify_golden.json"

#: Series drawn by ``conftest.random_rooted_series`` (rng seed 5) with
#: non-real roots inside |lambda| < 2**-0.5, hard-coded so that the inputs
#: do not depend on numpy's generator or root finder.
SEEDED = {
    "p5": ("1;-1,1,1,1,-1", complex(0.3613671503600674, 0.5500030407885605)),
    "p7": ("1,0;1,-1,-1,1,1,-1,1", complex(-0.12962712747496102, -0.6593631926948398)),
}


def _cases():
    for i in range(1, 7):
        yield f"landmark{i}", landmark(i).series, landmark_root(i)
    for name, (text, lam) in SEEDED.items():
        yield name, RationalTypeSeries.parse(text), lam


def golden_payload() -> dict:
    payload = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for name, f, lam in _cases():
            for target in ("M", "M0"):
                payload[f"{name}/{target}"] = report_to_dict(certify(f, lam, target))
        f = landmark(5).series
        records = weakened_conditions(f, landmark_root(5), range(f.period))
        payload["landmark5/weakened"] = [condition_to_dict(r) for r in records]
    return payload


def test_certificate_payloads_match_the_golden_file():
    want = json.loads(GOLDEN.read_text())
    got = golden_payload()
    assert list(got) == list(want)
    for key, value in got.items():
        assert json.dumps(value) == json.dumps(want[key]), key


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(golden_payload(), indent=1) + "\n")
