"""End-to-end test of the text forge on a generated corpus and a fake backend."""

import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from gulfclimate.pipelines import forge_text  # noqa: E402
from perfbench import gen  # noqa: E402
from perfbench.fakes import PromptKeyedBackend  # noqa: E402

# SHA-256 of the dataset and keyword index of every job of the golden run
# below, keyed by path relative to the output directory.
GOLDEN = json.loads((ROOT / "tests" / "data" / "forge_text_golden.json")
                    .read_text(encoding="utf-8"))
OUTPUTS = ("qa_text.jsonl", "keyword_index.jsonl")


def _forge(corpus: Path, out: Path) -> dict[str, str]:
    """Run every generated job once; return the digests of its outputs."""
    jobs = json.loads((corpus / "jobs.json").read_text(encoding="utf-8"))
    backend = PromptKeyedBackend.from_file(corpus / "backend.json")
    digests = {}
    for k, job in enumerate(jobs):
        job_dir = out / f"job{k:02d}"
        result = forge_text(seeds=job["seeds"], constraints=[tuple(job["constraint"])],
                            backend=backend, fixture_root=corpus / "fixtures",
                            out_dir=job_dir, formats=gen.QA_FORMATS)
        assert result["keywords_skipped"] == job["keywords_no_results"]
        assert result["documents"] == job["documents"]
        assert result["items_written"] == job["items"]
        for name in OUTPUTS:
            digests[f"{job_dir.name}/{name}"] = hashlib.sha256(
                (job_dir / name).read_bytes()).hexdigest()
    return digests


def test_golden_outputs_are_byte_identical_twice_in_a_row(tmp_path):
    corpus = tmp_path / "corpus"
    gen.make_corpus(corpus, seed=3, jobs=2, no_result_keywords=1)
    assert _forge(corpus, tmp_path / "first") == GOLDEN
    assert _forge(corpus, tmp_path / "second") == GOLDEN
