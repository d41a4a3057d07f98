"""The CLI process runs without the cyclic garbage collector.

``cli.entrypoint`` disables the collector before ``main()`` and freezes what
is alive after it, because a run leaves no cyclic garbage behind: its values
are acyclic and reference counting frees them. The first tests check that
premise, the last ones the process boundary itself. Each runs the CLI in a
fresh interpreter.
"""

import os
import subprocess
import sys
from pathlib import Path
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
    FIXTURES,
    random_alignment,
    random_nonoverlapping_spans,
    words,
    write_round_trip_corpus,
)

ROOT = FIXTURES.parents[1]

# Runs main() with the collector disabled from the start, then prints the
# exit code and how many objects one full collection finds unreachable.
_GARBAGE_PROBE = """
import gc, sys
gc.disable()
from spanproject.cli import main
code = main(sys.argv[1:])
print(code, gc.collect())
"""

# Counts the collections that start between entering cli.entrypoint() and its
# SystemExit, then prints the exit code and that count. Two workers on any
# machine, as in test_package's probe.
_ENTRYPOINT_PROBE = """
import gc, os
from spanproject import cli

os.sched_getaffinity = lambda pid: set(range(8))
starts = []
gc.callbacks.append(lambda phase, info: phase == "start" and starts.append(info))
try:
    cli.entrypoint()
except SystemExit as exc:
    code = exc.code
print(code, len(starts))
"""


def run_fresh(probe: str, *argv: str) -> str:
    """The last stdout line of a fresh interpreter running probe on argv."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", probe, *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def write_corpus(root: Path, n: int, skip_every: int | None = None) -> tuple[str, ...]:
    """A seeded src2tgt corpus of n sentences under root, as project flags.

    Every skip_every-th sentence, the first included, has an alignment pair
    past its target's end. The corpus of n sentences begins with the corpus
    of fewer.
    """
    rng = Random(5)
    source, target, align = [], [], []
    for i in range(n):
        n_src, n_tgt = rng.randint(6, 16), rng.randint(6, 16)
        entities = random_nonoverlapping_spans(rng, n_src, 3)
        source.append(LabeledSentence(Sentence(words(n_src), id=i), entities))
        target.append(LabeledSentence(Sentence(words(n_tgt), id=i)))
        pairs = random_alignment(rng, n_src, n_tgt, density=0.15).pairs
        if skip_every is not None and i % skip_every == 0:
            pairs |= {(0, n_tgt)}
        align.append(serialize_pharaoh(AlignmentSet(pairs)) + "\n")
    root.mkdir()
    files = {
        "labeled": serialize_conll(CorpusDocument(tuple(source))),
        "target": serialize_conll(CorpusDocument(tuple(target))),
        "align": "".join(align),
    }
    flags = []
    for role, text in files.items():
        path = root / role
        path.write_text(text, encoding="utf-8")
        flags += [f"--{role}", str(path)]
    return tuple(flags)


def round_trip_corpus(root: Path, n: int) -> tuple[str, ...]:
    root.mkdir()
    paths = write_round_trip_corpus(root, seed=11, n_sentences=n)
    return (
        "--direction", "tgt2tgt", "--candidates", "ner", "--solver", "assignment",
        *(flag for role in ("marked", "translations", "target", "align", "spans")
          for flag in (f"--{role}", str(paths[role]))),
    )


CASES = {
    "heuristic": (write_corpus, ("--method", "heuristic")),
    "matching": (write_corpus, ("--method", "matching", "--jobs", "1")),
    "round-trip": (round_trip_corpus, ()),
    "skipped": (
        lambda root, n: write_corpus(root, n, skip_every=7),
        ("--method", "matching", "--skip-bad-sentences"),
    ),
}


@pytest.mark.parametrize("case", CASES)
def test_a_run_leaves_as_much_cyclic_garbage_for_one_sentence_as_for_many(tmp_path, case):
    corpus, flags = CASES[case]
    found = []
    for n in (1, 120):
        inputs = corpus(tmp_path / str(n), n)
        out = tmp_path / f"{n}.conll"
        found.append(run_fresh(_GARBAGE_PROBE, "project", *flags, *inputs, "--out", str(out)))
        assert out.exists()
    code, garbage = found[0].split()
    assert code == "0" and int(garbage) > 0  # argparse's parser holds cycles
    assert found[1] == found[0]


@pytest.mark.parametrize(
    "flags", [("--method", "heuristic"), ("--method", "matching", "--jobs", "2")],
    ids=["heuristic", "matching-jobs-2"],
)
def test_the_entrypoint_runs_no_collection_and_writes_what_main_writes(tmp_path, flags):
    inputs = write_corpus(tmp_path / "corpus", 120)
    out = tmp_path / "entry.conll"
    assert run_fresh(_ENTRYPOINT_PROBE, "project", *flags, *inputs, "--out", str(out)) == "0 0"
    expected = tmp_path / "main.conll"
    assert main(["project", *flags, *inputs, "--out", str(expected)]) == 0
    assert out.read_bytes() == expected.read_bytes()
