"""Golden bytes: pinned SHA-256 digests of CLI output on a seeded corpus.

The benchmark checks the CLI against an in-process pipeline that calls the
same cost kernel and solver, so a change that silently alters the cost
matrix or greedy's order would pass there. These digests were recorded from
the Fraction reference implementation (``matching_cost`` per cell, a
Fraction sort key in greedy); any change to the output bytes fails here.
"""

import hashlib
from random import Random

import pytest

from spanproject import (
    AlignmentSet,
    CorpusDocument,
    LabeledSentence,
    Sentence,
    serialize_conll,
    serialize_pharaoh,
)
from spanproject.cli import main
from helpers import (
    random_alignment,
    random_nonoverlapping_spans,
    random_one_to_one_alignment,
    words,
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
    ],
    ids=["matching-ngram-greedy", "heuristic"],
)
def test_project_output_bytes_are_pinned(corpus, tmp_path, capsys, extra, digest):
    out = tmp_path / "pred.conll"
    code = main(["project", *inputs(corpus), "--out", str(out), *extra])
    assert (code, capsys.readouterr().err) == (0, "")
    assert sha256(out.read_bytes()) == digest


@pytest.mark.parametrize(
    "k, digest",
    [
        (3, "5bc0f460336aa1cd517d9dd5986e1c4f9ca49e5b0d0aff1e9bb70d28866307b1"),
        (84, "5956222e3b98010853b3e15acc9b916df5e2958f2631169f4b399c7b8a6abc93"),
        (121, "924e5f77d97409df865914bbe88cccdded42f8d25d5acb35c47f64996ef37650"),
    ],
)
def test_solve_stdout_is_pinned(corpus, capsys, k, digest):
    code = main(["solve", *inputs(corpus), "--sentence", str(k)])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert sha256(captured.out.encode()) == digest
