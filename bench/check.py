"""Output checks for one `spanproject project` invocation.

The expected output is the in-process pipeline's output for the same
inputs; it must parse back with `parse_conll` with tokens equal to the
target corpus sentence by sentence. An invocation passes when the program
exited 0 and wrote exactly those bytes. Quality is scored against the
planted gold.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from spanproject import CorpusDocument, DataError, FormatError, evaluate, parse_conll

from pipeline import CheckFailed

_SKIP_WARNING = re.compile(r"^warning: sentence (\d+) skipped: ", re.MULTILINE)


@dataclass(frozen=True)
class Quality:
    f1: float
    yield_: float


def skipped_sentences(stderr: str) -> list[int]:
    """Sentence ids the CLI reported as skipped under --skip-bad-sentences."""
    return [int(m.group(1)) for m in _SKIP_WARNING.finditer(stderr)]


def parse_checked(output: str, target: CorpusDocument) -> CorpusDocument:
    """Parse an output back and check its tokens against the target corpus."""
    try:
        pred = parse_conll(output)
    except (FormatError, DataError) as exc:
        raise CheckFailed(f"output does not parse back: {exc}") from exc
    if len(pred) != len(target):
        raise CheckFailed(f"output has {len(pred)} sentences, target has {len(target)}")
    for got, want in zip(pred, target):
        if got.sentence.tokens != want.sentence.tokens:
            raise CheckFailed(f"output tokens of sentence {want.sentence.id} differ from target")
    return pred


def check_output(
    returncode: int, output: str | None, target: CorpusDocument, expected: str
) -> None:
    """Raise CheckFailed unless the invocation wrote exactly the expected output.

    `expected` has passed `parse_checked` already, so equal bytes need no
    second parse; different bytes are parsed to name the first problem.
    """
    if returncode != 0:
        raise CheckFailed(f"project exited with code {returncode}")
    if output is None:
        raise CheckFailed("project wrote no output file")
    if output != expected:
        parse_checked(output, target)
        raise CheckFailed("output bytes differ from the in-process pipeline's")


def quality(pred: CorpusDocument, gold: CorpusDocument, source_entities: int) -> Quality:
    """Exact span micro-F1 against gold, and projected over source entities."""
    report = evaluate(pred, gold)
    projected = sum(len(s.entities) for s in pred)
    return Quality(float(report.total.f1), projected / source_entities)
