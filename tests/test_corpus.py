"""The differential corpus (tests/corpus.py) reproduces its digests.

Each digest is the first 16 hex digits of the sha256 of one chunk of
corpus.CHUNK transcript lines.  A mismatch names the family and the lines of
the first chunk that differs; `PYTHONPATH=src python tests/corpus.py --dump
FAMILY` prints the transcript to diff against a checkout of the parent.  A
change that alters an output on purpose lists every changed call in
CHANGES.md before it writes new digests here.
"""

from math import gcd

import pytest

import corpus
from diatomic import derivative

DIGESTS = {
    "rational": [
        "03add6efe153438a", "e0deddbeb773738e",
    ],
    "enclosure": [
        "789b639a2ae1c398", "76e9e6ba36bef7d1", "d4534f08c65398e3", "9efd67f1507732a4",
        "5511f0c8443d2691", "7cc73eb421d60999", "46d92faa9dc77309", "84fd783c145364b3",
        "179d48a5877050ec", "73b0b11846735f68", "b6b4aa9c7cf0773c", "8dcc52260059d531",
        "c191faa03a39081a", "cc22a513f951a32d", "461cc910d7d36d7b", "8a9e49b5acf1f384",
        "c4eda2a587aeec16", "3bcc0403a84c41e1", "8383370df8a1bc11", "0518ac805e4ff2ac",
        "cc69feb4c4d02901", "d952604e8db00e94", "6f2a7f036f53de5d", "744dc87024878c0f",
        "02e731d6e66d9cdc",
    ],
    "action": [
        "325923103c778749", "8e5f6ea631200b61", "2017f4402cef036b", "50e0806f6c3d50cd",
        "2d29f16357e5937a", "bc10786c34ceb772", "294f8b1d1d65e3f3", "e079ec2deaeb2beb",
        "0c32bd8f4be53923", "2daae126571a0cb1", "05adbf7f3e2878e7", "885dbd4a35ae13bd",
        "f53ecd7bd842553d", "f0cda1fead38fa45", "bdb5d3f30224b4c3", "27154426fdd67167",
        "0067e7fc959f3d89", "bbd81f6642ed6cbf", "945c938c713132ae", "3e178cb97f0c712b",
        "5227edd7735dc282", "3b2df779d962618d", "4910b39123fb9ff7", "bcf9fc353e9921d5",
        "58c16c393e0b3399", "ae9939e399d160ad", "1a437796ee0f60f5",
    ],
    "kinds": [
        "ca8f9e97fc4de9c8",
    ],
    "scan": [
        "4fc5b3117ff71169", "1d415cfd6c55b2a0", "8277cbc94ceccd40",
    ],
}


@pytest.mark.parametrize("family", corpus.FAMILIES)
def test_corpus_outcomes_are_unchanged(family):
    got, want = corpus.digests(family), DIGESTS[family]
    for i, (g, w) in enumerate(zip(got, want)):
        first = i * corpus.CHUNK + 1
        assert g == w, f"{family}: lines {first}-{first + corpus.CHUNK - 1} changed"
    assert len(got) == len(want), f"{family}: {len(got)} chunks, expected {len(want)}"


def test_scan_family_meets_common_factors_of_a2_and_n2(monkeypatch):
    # a sample's gap shares h^2 with 2 a2 n2, h = gcd(a2, n2); the family
    # must reach h = 1, an even h and an odd h > 1
    seen, moved_gap = set(), derivative._moved_gap

    def sample(frame, a, b, c, e, k):
        a2, b1, c0 = frame[:3]
        h = gcd(a2, (a2 * e + b1 * c) * e - c0 * c * c)
        seen.add(min(h, 2 + h % 2))  # 1, 2 for an even h, 3 for an odd h > 1
        return moved_gap(frame, a, b, c, e, k)

    monkeypatch.setattr(derivative, "_moved_gap", sample)
    for _ in corpus.scan():
        pass
    assert seen == {1, 2, 3}
