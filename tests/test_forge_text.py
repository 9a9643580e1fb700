"""End-to-end test of the text forge on a generated corpus and a fake backend."""

import hashlib
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from gulfclimate.agent.backend import ScriptedBackend  # noqa: E402
from gulfclimate.errors import ConfigError  # noqa: E402
from gulfclimate.pipelines import forge_text  # noqa: E402
from gulfclimate.tools.web import query_key  # noqa: E402
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


# Each spoils the recorded query, or one page, of a keyword.
RECORDING_FAULTS = {
    "query": lambda search, key, url: search["queries"].pop(key),
    "page": lambda search, key, url: search["pages"].pop(url),
    "query_not_an_object": lambda search, key, url: search["queries"].update({key: 5}),
    "results_not_an_array": lambda search, key, url: search["queries"][key].update(results=5),
    "result_without_url": lambda search, key, url: search["queries"][key]["results"][0].pop("url"),
    "retrieved_at_not_a_string": lambda search, key, url: search["queries"][key].update(
        retrieved_at=5),
    "page_not_an_object": lambda search, key, url: search["pages"].update({url: "<p>x</p>"}),
    "text_not_a_string": lambda search, key, url: search["pages"][url].update(text=None),
}


@pytest.mark.parametrize("fault", RECORDING_FAULTS)
def test_a_keyword_without_a_recording_is_dropped(tmp_path, fault):
    corpus, job, search = _one_job(tmp_path)
    # The pages of the second keyword: the first one needs a refined query.
    url = job["urls"][gen.PAGES_PER_KEYWORD]
    (key,) = [k for k, q in search["queries"].items()
              if url in {r["url"] for r in q["results"]}]
    RECORDING_FAULTS[fault](search, key, url)
    result = _run(corpus, job, search, tmp_path / "out")
    assert result["dropped"]["keywords_provider_failure"] == 1
    assert result["keywords_skipped"] == 0
    assert result["documents"] == job["documents"] - gen.PAGES_PER_KEYWORD
    assert result["items_written"] == job["items"] - gen.PAGES_PER_KEYWORD * gen.QA_ITEMS_PER_DOC


def test_a_search_recording_that_is_not_an_object_drops_every_keyword(tmp_path):
    corpus, job, _search = _one_job(tmp_path)
    result = _run(corpus, job, [], tmp_path / "out")
    assert result["dropped"] == {"keywords_provider_failure": result["keywords_kept"]}
    assert result["keywords_kept"] > 0
    assert (result["documents"], result["items_written"]) == (0, 0)


def test_a_page_with_no_content_after_cleaning_is_dropped(tmp_path):
    corpus, job, search = _one_job(tmp_path)
    search["pages"][job["urls"][0]]["text"] = (
        '<html><body><nav><a href="/">Home</a></nav><footer>2024</footer></body></html>')
    result = _run(corpus, job, search, tmp_path / "out")
    assert result["dropped"]["documents_empty_after_cleaning"] == 1
    assert result["documents"] == job["documents"]
    assert result["items_written"] == job["items"] - gen.QA_ITEMS_PER_DOC


_QUERY, _URL = "heatwave plan Doha", "https://example.org/plan"
_FACT = "Doha adopted a national heatwave plan."
_TF_ENTRY = {"entailed": "Doha adopted a heatwave plan.",
             "contradicted": "Doha rejected a heatwave plan."}


def _forge_one_page(tmp_path: Path, emissions: list[str],
                    page: str = "<p>Doha adopted a heatwave plan.</p>",
                    title: str = "Heatwave plan for Doha") -> dict:
    """``forge_text`` of tf items over a fixture with one query and one page,
    the backend replaying ``emissions``, which it must use up."""
    search = {
        "queries": {query_key(_QUERY): {
            "query": _QUERY, "retrieved_at": "2024-06-01T00:00:00Z",
            "results": [{"title": title, "url": _URL, "snippet": ""}]}},
        "pages": {_URL: {"content_type": "html", "text": page}},
    }
    fixtures = tmp_path / "fixtures"
    fixtures.mkdir()
    (fixtures / "online_search.json").write_text(json.dumps(search), encoding="utf-8")
    backend = ScriptedBackend(emissions)
    result = forge_text(seeds=["heat"], constraints=[("Qatar", "Doha")], backend=backend,
                        fixture_root=fixtures, out_dir=tmp_path / "out", formats=("tf",))
    assert backend.remaining == 0
    return result


def test_a_page_holding_a_lone_surrogate_is_parsed(tmp_path):
    # JSON may escape a lone surrogate; the page reaches the parser as the
    # str the fixture holds, never encoded on the way.
    result = _forge_one_page(tmp_path, [_QUERY, _FACT, json.dumps([_TF_ENTRY])],
                             page="<h1>Plan \ud83d</h1><p>Doha adopted a heatwave plan.</p>")
    assert (result["documents"], result["chunks"], result["facts"]) == (1, 1, 1)
    assert result["items_written"] == 2
    assert result["dropped"] == {}


def test_a_search_title_holding_a_lone_surrogate_is_written_escaped(tmp_path):
    title = "Heatwave plan for Doha \ud83d"
    result = _forge_one_page(tmp_path, [_QUERY, _FACT, json.dumps([_TF_ENTRY])], title=title)
    assert result["items_written"] == 2
    dataset = (tmp_path / "out" / "qa_text.jsonl").read_text(encoding="utf-8")
    assert dataset.count('"title": "Heatwave plan for Doha \\ud83d"') == 2
    assert {ev["provenance"]["title"] for line in dataset.splitlines()
            for ev in json.loads(line)["evidence"]} == {title}


# A backend emission may hold a lone surrogate too. The keyword, statement or
# item that holds it is dropped, and the rest of the job goes on.

def test_a_keyword_holding_a_lone_surrogate_is_not_kept(tmp_path):
    result = _forge_one_page(tmp_path, [f"{_QUERY}\nheat \ud83d plan", _FACT,
                                        json.dumps([_TF_ENTRY])])
    assert result["keywords_kept"] == 1
    assert (result["documents"], result["facts"], result["items_written"]) == (1, 1, 2)
    assert json.loads((tmp_path / "out" / "keyword_index.jsonl").read_text(
        encoding="utf-8").splitlines()[1])["text"] == _QUERY


def test_a_fact_statement_holding_a_lone_surrogate_fails_the_structural_checks(tmp_path):
    result = _forge_one_page(tmp_path, [_QUERY, f"Doha \ud83d built a cooling plan.\n{_FACT}",
                                        json.dumps([_TF_ENTRY])])
    assert (result["facts"], result["items_written"]) == (1, 2)
    dataset = (tmp_path / "out" / "qa_text.jsonl").read_text(encoding="utf-8")
    assert {ev["statement"] for line in dataset.splitlines()
            for ev in json.loads(line)["evidence"]} == {_FACT}


def test_a_refined_query_holding_a_lone_surrogate_ends_its_keyword(tmp_path):
    result = _forge_one_page(tmp_path, [_QUERY, "heat \ud83d plan"], title="Football scores")
    assert (result["keywords_kept"], result["keywords_skipped"]) == (1, 1)
    assert (result["documents"], result["items_written"], result["dropped"]) == (0, 0, {})


def test_a_tf_entry_holding_a_lone_surrogate_drops_only_its_item(tmp_path):
    entry = {**_TF_ENTRY, "contradicted": "Doha rejected a \ud83d heatwave plan."}
    result = _forge_one_page(tmp_path, [_QUERY, _FACT, json.dumps([entry])])
    assert result["items_written"] == 1
    assert result["dropped"] == {"dropped_unencodable_text": 1}
    (line,) = (tmp_path / "out" / "qa_text.jsonl").read_text(encoding="utf-8").splitlines()
    assert (json.loads(line)["question"], json.loads(line)["answer"]) == (
        _TF_ENTRY["entailed"], "true")


class _MalformedFirstMcq:
    """The fake backend, except that the first mcq QA emission is ``emission``."""

    def __init__(self, inner, emission="not json"):
        self.inner = inner
        self.emission = emission
        self.spoiled = False

    def complete(self, messages) -> str:
        if not self.spoiled and messages[-1]["content"].startswith("Write mcq items"):
            self.spoiled = True
            return self.emission
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


def test_mcq_options_that_are_not_an_array_drop_only_their_items(tmp_path):
    corpus, job, search = _one_job(tmp_path)
    emission = json.dumps([{"question": "q", "answer": "a", "options": 5},
                           {"question": "q", "answer": "a", "options": "abc"}])
    backend = _MalformedFirstMcq(PromptKeyedBackend.from_file(corpus / "backend.json"),
                                 emission)
    result = _run(corpus, job, search, tmp_path / "out", backend=backend)
    assert backend.spoiled
    assert result["dropped"]["dropped_too_few_options"] == 2
    assert "mcq_documents_dropped" not in result["dropped"]
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


@pytest.mark.parametrize("formats, match", [
    (("mcq", "essay"), "essay"),
    (("tf", "tf"), "repeated QA formats"),
], ids=["unknown", "repeated"])
def test_an_unknown_format_is_rejected_before_any_backend_call(tmp_path, formats, match):
    corpus, job, search = _one_job(tmp_path)

    class NoCalls:
        def complete(self, messages):
            raise AssertionError("the backend was called")

    with pytest.raises(ConfigError, match=match):
        forge_text(seeds=job["seeds"], constraints=[tuple(job["constraint"])],
                   backend=NoCalls(), fixture_root=corpus / "fixtures",
                   out_dir=tmp_path / "out", formats=formats)
