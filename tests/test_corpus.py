"""The differential corpus (tests/corpus.py) reproduces its digests.

Each digest is the first 16 hex digits of the sha256 of one chunk of
corpus.CHUNK transcript lines.  A mismatch names the family and the lines of
the first chunk that differs; `PYTHONPATH=src python tests/corpus.py --dump
FAMILY` prints the transcript, and `--diff FAMILY OLD_SRC` prints only the
lines that differ under another source tree, such as a checkout of the
parent.  A change that alters an output on purpose lists every changed call
in CHANGES.md before it writes new digests here.
"""

import os
from math import gcd

import pytest

import corpus
import diatomic
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
        "035de9fb6a1957db", "8e5f6ea631200b61", "2017f4402cef036b", "50e0806f6c3d50cd",
        "2d29f16357e5937a", "bc10786c34ceb772", "294f8b1d1d65e3f3", "e079ec2deaeb2beb",
        "0c32bd8f4be53923", "2daae126571a0cb1", "05adbf7f3e2878e7", "885dbd4a35ae13bd",
        "f53ecd7bd842553d", "f0cda1fead38fa45", "bdb5d3f30224b4c3", "27154426fdd67167",
        "0067e7fc959f3d89", "bbd81f6642ed6cbf", "945c938c713132ae", "3e178cb97f0c712b",
        "5227edd7735dc282", "3b2df779d962618d", "4910b39123fb9ff7", "bcf9fc353e9921d5",
        "58c16c393e0b3399", "ae9939e399d160ad", "1a437796ee0f60f5",
    ],
    "kinds": [
        "675e948d42c8fdcd",
    ],
    "scan": [
        "4fc5b3117ff71169", "1d415cfd6c55b2a0", "8277cbc94ceccd40",
    ],
    "values": [
        "32ab5598bd209a69", "902615e991d555b3", "c680af8f9a489c1a", "c5237e6f8d0e2340",
        "e2816074d3ff5bbc", "feb0464c6a7148ec", "47728fe8dddda727", "865aa3b63247714e",
        "b6cc0244aad9d059", "167a665cc11b68a5", "d0761ec57d9f8591", "40e9b665295008ad",
        "b08e9b8b0444cf46", "0a4de4a9eea320a4", "2c90d17de41ebf30", "fc126a4a4c91c761",
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


def test_diff_lists_only_the_lines_that_differ(tmp_path):
    # against the library it runs on, nothing differs; against a copy whose
    # reflection is broken, exactly the reflection lines do
    src = os.path.dirname(os.path.dirname(diatomic.__file__))
    assert corpus.diff("kinds", src) == []
    (tmp_path / "sitecustomize.py").write_text(
        "import diatomic\ndiatomic.reflection = lambda t: 'mirror'\n")
    changed = corpus.diff("kinds", os.pathsep.join([str(tmp_path), src]))
    assert changed[:2] == [f"--- {tmp_path}{os.pathsep}{src}", "+++ new"]
    body = [line for line in changed[2:] if not line.startswith("@@")]
    assert body and all(line[1:].startswith("reflection(") for line in body)
    assert len(body) == 2 * len([line for line in corpus.kinds() if line.startswith("reflection(")])
