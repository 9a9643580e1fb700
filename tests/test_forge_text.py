"""End-to-end test of the text forge on a generated corpus and a fake backend."""

import hashlib
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from gulfclimate.errors import ConfigError  # noqa: E402
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


# -- fault isolation: one bad input drops only its own part of the job ----------

def _one_job(tmp_path: Path) -> tuple[Path, dict, dict]:
    """A one-job corpus, its job and its recorded search document."""
    corpus = tmp_path / "corpus"
    gen.make_corpus(corpus, seed=5, jobs=1, no_result_keywords=0)
    (job,) = json.loads((corpus / "jobs.json").read_text(encoding="utf-8"))
    search = json.loads((corpus / "fixtures" / "online_search.json").read_text(encoding="utf-8"))
    return corpus, job, search


def _run(corpus: Path, job: dict, search: dict, out: Path, backend=None) -> dict:
    (corpus / "fixtures" / "online_search.json").write_text(json.dumps(search), encoding="utf-8")
    return forge_text(seeds=job["seeds"], constraints=[tuple(job["constraint"])],
                      backend=backend or PromptKeyedBackend.from_file(corpus / "backend.json"),
                      fixture_root=corpus / "fixtures", out_dir=out, formats=gen.QA_FORMATS)


@pytest.mark.parametrize("missing", ["query", "page"])
def test_a_keyword_without_a_recording_is_dropped(tmp_path, missing):
    corpus, job, search = _one_job(tmp_path)
    # The pages of the second keyword: the first one needs a refined query.
    url = job["urls"][gen.PAGES_PER_KEYWORD]
    if missing == "page":
        del search["pages"][url]
    else:
        (key,) = [k for k, q in search["queries"].items()
                  if url in {r["url"] for r in q["results"]}]
        del search["queries"][key]
    result = _run(corpus, job, search, tmp_path / "out")
    assert result["dropped"]["keywords_provider_failure"] == 1
    assert result["keywords_skipped"] == 0
    assert result["documents"] == job["documents"] - gen.PAGES_PER_KEYWORD
    assert result["items_written"] == job["items"] - gen.PAGES_PER_KEYWORD * gen.QA_ITEMS_PER_DOC


def test_a_page_with_no_content_after_cleaning_is_dropped(tmp_path):
    corpus, job, search = _one_job(tmp_path)
    search["pages"][job["urls"][0]]["text"] = (
        '<html><body><nav><a href="/">Home</a></nav><footer>2024</footer></body></html>')
    result = _run(corpus, job, search, tmp_path / "out")
    assert result["dropped"]["documents_empty_after_cleaning"] == 1
    assert result["documents"] == job["documents"]
    assert result["items_written"] == job["items"] - gen.QA_ITEMS_PER_DOC


class _MalformedFirstMcq:
    """The fake backend, except that the first mcq QA emission is not JSON."""

    def __init__(self, inner):
        self.inner = inner
        self.spoiled = False

    def complete(self, messages) -> str:
        if not self.spoiled and messages[-1]["content"].startswith("Write mcq items"):
            self.spoiled = True
            return "not json"
        return self.inner.complete(messages)


def test_a_malformed_qa_emission_drops_only_its_document_and_format(tmp_path):
    corpus, job, search = _one_job(tmp_path)
    backend = _MalformedFirstMcq(PromptKeyedBackend.from_file(corpus / "backend.json"))
    result = _run(corpus, job, search, tmp_path / "out", backend=backend)
    assert backend.spoiled
    assert result["dropped"]["mcq_documents_dropped"] == 1
    # The fake's mcq emission holds three valid items and one with duplicate options.
    assert result["dropped"]["dropped_duplicate_options"] == job["documents"] - 1
    assert result["items_written"] == job["items"] - 3


def test_jobs_on_one_fixture_root_share_one_parsed_store(tmp_path):
    corpus, job, search = _one_job(tmp_path)
    first = _run(corpus, job, search, tmp_path / "first")
    (corpus / "fixtures" / "online_search.json").unlink()
    second = forge_text(seeds=job["seeds"], constraints=[tuple(job["constraint"])],
                        backend=PromptKeyedBackend.from_file(corpus / "backend.json"),
                        fixture_root=corpus / "fixtures", out_dir=tmp_path / "second",
                        formats=gen.QA_FORMATS)
    assert {k: v for k, v in second.items() if k not in ("dataset", "keyword_index")} == \
        {k: v for k, v in first.items() if k not in ("dataset", "keyword_index")}


def test_an_unknown_format_is_rejected_before_any_backend_call(tmp_path):
    corpus, job, search = _one_job(tmp_path)

    class NoCalls:
        def complete(self, messages):
            raise AssertionError("the backend was called")

    with pytest.raises(ConfigError, match="essay"):
        forge_text(seeds=job["seeds"], constraints=[tuple(job["constraint"])],
                   backend=NoCalls(), fixture_root=corpus / "fixtures",
                   out_dir=tmp_path / "out", formats=("mcq", "essay"))
