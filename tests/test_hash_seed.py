"""Library results do not depend on the string hash seed.

The CLI's bytes are pinned under two hash seeds by ``test_golden.py``; this
runs the public library entry points themselves in fresh interpreters under
three seeds and compares the reprs of what they return.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_PROGRAM = """
import sys
from pathlib import Path
from spanproject import (
    assign_marker_labels, build_problem, evaluate, external_candidates,
    ngram_candidates, parse_conll, parse_marked_sentence, parse_pharaoh,
    parse_span_records, parse_translations_line, solve_assignment_exact,
    solve_exact, solve_greedy,
)
from helpers import FIXTURES, write_round_trip_corpus

paths = write_round_trip_corpus(Path(sys.argv[1]), seed=5, n_sentences=40)
text = {role: path.read_text(encoding="utf-8") for role, path in paths.items()}
target = parse_conll(text["target"])
spans = parse_span_records(text["spans"])
print(repr(target))
print(repr(spans))
for i, (marked_line, trans_line, align_line) in enumerate(
    zip(*(text[role].splitlines() for role in ("marked", "translations", "align")))
):
    pairs = parse_translations_line(trans_line)
    marked = parse_marked_sentence(marked_line, pairs)
    labeled = assign_marker_labels(marked, sentence_id=i)
    align = parse_pharaoh(align_line)
    print(repr(pairs), repr(marked), repr(labeled), repr(align))
    sentence = target.sentences[i].sentence
    problem = build_problem(labeled, ngram_candidates(sentence), align)
    print(repr(problem), repr(solve_greedy(problem)), repr(solve_exact(problem)))
    disjoint = external_candidates(sentence, spans.get(i, []))
    problem = build_problem(labeled, disjoint, align)
    print(repr(problem), repr(solve_assignment_exact(problem)))

# five labels in one sentence: per_label's key order once followed set iteration
gold = parse_conll("a B-PER\\nb B-LOC\\nc B-ORG\\nd B-MISC\\ne B-DATE\\n")
pred = parse_conll("a B-PER\\nb I-LOC\\nc B-ORG\\nd O\\ne B-TIME\\n")
for report in (evaluate(pred, gold), evaluate(
    parse_conll((FIXTURES / "noisy_gold.conll").read_text(encoding="utf-8")),
    parse_conll((FIXTURES / "noisy_gold.conll").read_text(encoding="utf-8")),
)):
    t = report.total
    print([(label, s.tp, s.fp, s.fn) for label, s in report.per_label.items()], t.tp, t.fp, t.fn)
"""


def test_library_results_are_the_same_under_three_hash_seeds(tmp_path):
    outputs = []
    for seed in ("1", "2", "3"):
        env = dict(
            os.environ,
            PYTHONHASHSEED=seed,
            PYTHONPATH=os.pathsep.join((str(ROOT / "src"), str(ROOT / "tests"))),
        )
        corpus = tmp_path / seed
        corpus.mkdir()
        proc = subprocess.run(
            [sys.executable, "-c", _PROGRAM, str(corpus)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1] == outputs[2]
    lines = outputs[0].splitlines()
    assert len(lines) == 2 + 3 * 40 + 2
    assert lines[-2] == (
        "[('DATE', 0, 0, 1), ('LOC', 1, 0, 0), ('MISC', 0, 0, 1), "
        "('ORG', 1, 0, 0), ('PER', 1, 0, 0), ('TIME', 0, 1, 0)] 3 1 2"
    )
