"""Golden bytes: pinned SHA-256 digests of CLI output on a seeded corpus.

The benchmark checks the CLI against an in-process pipeline that calls the
same cost kernel and solver, so a change that silently alters the cost
matrix or greedy's order would pass there. The greedy and heuristic digests
were recorded from the Fraction reference implementation (the per-cell
``matching_cost`` that now lives in ``tests/helpers.py``, and a Fraction sort
key in greedy); any change to the output bytes fails here.
"""

import hashlib
import json
from random import Random

import pytest

from spanproject import (
    AlignmentSet,
    CorpusDocument,
    LabeledSentence,
    ProjectionConfig,
    Sentence,
    parse_conll,
    parse_pharaoh,
    serialize_conll,
    serialize_pharaoh,
    solve_exact,
    solve_greedy,
)
from spanproject.cli import main
from spanproject.projection import matching_problem
from helpers import (
    random_alignment,
    random_nonoverlapping_spans,
    random_one_to_one_alignment,
    words,
    write_round_trip_corpus,
)

N_SENTENCES = 150


def write_corpus(root) -> None:
    """150 sentence pairs of 15-35 words: a partial one-to-one alignment plus noise pairs."""
    rng = Random(5)
    labeled, target, align_lines = [], [], []
    for i in range(N_SENTENCES):
        n_src, n_tgt = rng.randint(15, 35), rng.randint(15, 35)
        entities = random_nonoverlapping_spans(rng, n_src, rng.randint(0, 6))
        labeled.append(LabeledSentence(Sentence(words(n_src), id=i), entities))
        target.append(LabeledSentence(Sentence(words(n_tgt), id=i)))
        pairs = random_one_to_one_alignment(rng, n_src, n_tgt).pairs
        noise = random_alignment(rng, n_src, n_tgt, density=0.03).pairs
        align_lines.append(serialize_pharaoh(AlignmentSet(pairs | noise)) + "\n")
    (root / "src.conll").write_text(serialize_conll(CorpusDocument(tuple(labeled))))
    (root / "tgt.conll").write_text(serialize_conll(CorpusDocument(tuple(target))))
    (root / "align.txt").write_text("".join(align_lines))


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    write_corpus(root)
    return root


def inputs(root) -> list[str]:
    return [
        "--labeled", str(root / "src.conll"),
        "--target", str(root / "tgt.conll"),
        "--align", str(root / "align.txt"),
    ]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize(
    "extra, digest",
    [
        (
            ["--method", "matching", "--candidates", "ngram", "--solver", "greedy"],
            "37d8f3d1b4017ec33ec706f4c20dc2c2d36a9ba2346df3b15a9c1a2778e2c12e",
        ),
        (
            ["--method", "heuristic"],
            "c12b0d1b7fe0eb48b83863d336b6526d37cbe09a175c2e43cad0ff37566ccbd4",
        ),
        (
            ["--method", "matching", "--candidates", "ngram", "--solver", "exact"],
            "ac58b3707fece172b949f6597ec4b95152afcfe15c024a08adc403e0ed1b3517",
        ),
    ],
    ids=["matching-ngram-greedy", "heuristic", "matching-ngram-exact"],
)
def test_project_output_bytes_are_pinned(corpus, tmp_path, capsys, extra, digest):
    out = tmp_path / "pred.conll"
    code = main(["project", *inputs(corpus), "--out", str(out), *extra])
    assert (code, capsys.readouterr().err) == (0, "")
    assert sha256(out.read_bytes()) == digest


@pytest.mark.parametrize(
    "k, digest",
    [
        (3, "408686e07e18bdcd722d2b0fc12b2b6a8629d9c32fbfde7199ecf88069994680"),
        (84, "f91204f3a5fe25fd9ead5b267bcb3fd2be9823cb3eb5889020b6c3e3c1c017e2"),
        (121, "6006b86bd5217da22901610a456d7608413d9b0ed765d44fb2d02243690b0588"),
    ],
)
def test_solve_stdout_is_pinned(corpus, capsys, k, digest):
    code = main(["solve", *inputs(corpus), "--sentence", str(k)])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert sha256(captured.out.encode()) == digest


def test_exact_never_trails_greedy_and_beats_it_on_nine_sentences(corpus):
    # objectives are exact rationals, so the count of strict gaps is deterministic
    labeled = parse_conll((corpus / "src.conll").read_text(encoding="utf-8"))
    targets = parse_conll((corpus / "tgt.conll").read_text(encoding="utf-8"))
    align_lines = (corpus / "align.txt").read_text(encoding="utf-8").splitlines()
    cfg = ProjectionConfig()
    gaps = 0
    for source, target, line in zip(labeled, targets, align_lines, strict=True):
        problem = matching_problem(source, target.sentence, parse_pharaoh(line), cfg)
        greedy, exact = solve_greedy(problem), solve_exact(problem)
        assert exact.objective >= greedy.objective
        gaps += exact.objective > greedy.objective
    assert gaps == 9


@pytest.fixture(scope="module")
def round_trip(tmp_path_factory):
    return write_round_trip_corpus(tmp_path_factory.mktemp("round_trip"), seed=11, n_sentences=120)


def round_trip_project(paths, spans, *extra: str) -> int:
    """main() on a tgt2tgt run with NER candidates and the assignment solver."""
    files = ("marked", "translations", "target", "align")
    return main([
        "project", "--direction", "tgt2tgt", "--candidates", "ner", "--solver", "assignment",
        *(f"--{role}={paths[role]}" for role in files), f"--spans={spans}", *extra,
    ])


def test_round_trip_output_bytes_are_pinned(round_trip, tmp_path, capsys):
    out = tmp_path / "pred.conll"
    code = round_trip_project(round_trip, round_trip["spans"], "--out", str(out))
    assert (code, capsys.readouterr().err) == (0, "")
    assert sha256(out.read_bytes()) == (
        "fcf6a74fdb85a1eb808acfa74908ccf85f6fb50b0abf823f87ca6e5a33bff087"
    )


def test_round_trip_overlapping_span_record_is_skipped_with_its_sentence(
    round_trip, tmp_path, capsys
):
    spans = tmp_path / "spans.jsonl"
    overlapping = {"sentence_id": 7, "spans": [{"start": 0, "end": 2}, {"start": 1, "end": 3}]}
    spans.write_text(
        round_trip["spans"].read_text(encoding="utf-8") + json.dumps(overlapping) + "\n",
        encoding="utf-8",
    )
    out = tmp_path / "pred.conll"
    code = round_trip_project(round_trip, spans, "--out", str(out), "--skip-bad-sentences")
    assert (code, capsys.readouterr().err) == (
        0,
        "warning: sentence 7 skipped: external candidates for sentence 7 overlap; "
        "NER-predicted spans are expected to be disjoint\n",
    )
