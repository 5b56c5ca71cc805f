"""The random sample's analyze documents, pinned by one digest.

The sample is 300 morphisms from ``perfbench/mix.generate_one`` with
``random.Random(12345)``, each parsed and run through ``report.analyze`` at
``AnalysisConfig(max_len=32, prefix_letters=4**7)``.  Their JSON documents,
in order, feed one sha256.  A change that keeps every answer keeps it.
"""

import hashlib
import importlib
import random
from pathlib import Path

from iteralg import report, words
from iteralg.config import AnalysisConfig

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SAMPLE_SEED = 12345
SAMPLE_SIZE = 300
SAMPLE_DIGEST = "d19e2877de4b9366d51a5908a4d9a1dfe6f93fbc1c3f9e0d83e28de32365260e"


def test_random_sample_documents_keep_their_digest(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    mix = importlib.import_module("mix")
    rng = random.Random(SAMPLE_SEED)
    cfg = AnalysisConfig(max_len=32, prefix_letters=4**7)
    digest = hashlib.sha256()
    for i in range(SAMPLE_SIZE):
        m = words.parse_morphism(mix.generate_one(rng).text)
        doc, _ = report.analyze(m, cfg, f"s{i}")
        digest.update(report.to_json(doc).encode())
    assert digest.hexdigest() == SAMPLE_DIGEST, (
        "the random sample's analyze documents changed. A change that is meant "
        "to change answers updates SAMPLE_DIGEST and lists the differing JSON "
        "paths of each changed document with scripts/golden_diff.py OLD NEW."
    )
