import contextlib
import errno
import io
import json
import os
import signal
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spanproject import MatchingSolution, matching, parse_conll, spans_overlap
from spanproject import cli, formats
from spanproject.cli import _worker_count, atomic_write, main
from helpers import FIXTURES, positive_cells, write_round_trip_corpus


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fixture(name: str) -> str:
    return str(FIXTURES / name)


def eval_f1(capsys, pred: str, gold: str) -> Fraction:
    code, out, _ = run(capsys, "evaluate", pred, gold)
    assert code == 0
    record = json.loads(out.splitlines()[-1])
    return Fraction(record["total"]["f1"])


def project(capsys, out_path, *extra: str) -> tuple[int, str, str]:
    return run(
        capsys,
        "project",
        "--labeled", fixture("clean_source.conll"),
        "--target", fixture("clean_target.conll"),
        "--align", fixture("clean.align"),
        "--out", str(out_path),
        *extra,
    )


def project_noisy(capsys, out_path, *extra: str) -> tuple[int, str, str]:
    return run(
        capsys,
        "project",
        "--labeled", fixture("noisy_source.conll"),
        "--target", fixture("noisy_target.conll"),
        "--align", fixture("noisy.align"),
        "--out", str(out_path),
        *extra,
    )


def test_project_clean_corpus_heuristic_is_perfect(tmp_path, capsys):
    out = tmp_path / "pred.conll"
    code, _, err = project(capsys, out, "--method", "heuristic")
    assert (code, err) == (0, "")
    assert eval_f1(capsys, str(out), fixture("clean_gold.conll")) == 1


def test_project_clean_corpus_matching_is_perfect(tmp_path, capsys):
    out = tmp_path / "pred.conll"
    code, _, err = project(capsys, out, "--method", "matching")
    assert (code, err) == (0, "")
    assert eval_f1(capsys, str(out), fixture("clean_gold.conll")) == 1


def test_noisy_corpus_separates_the_methods(tmp_path, capsys):
    heur, match = tmp_path / "heur.conll", tmp_path / "match.conll"
    assert project_noisy(capsys, heur, "--method", "heuristic")[0] == 0
    assert project_noisy(capsys, match, "--method", "matching")[0] == 0
    gold = fixture("noisy_gold.conll")
    f1_heur = eval_f1(capsys, str(heur), gold)
    f1_match = eval_f1(capsys, str(match), gold)
    assert f1_heur == Fraction(2, 5)
    assert f1_match == Fraction(4, 5)


def test_round_trip_direction_recovers_gold(tmp_path, capsys):
    for method in ("heuristic", "matching"):
        out = tmp_path / f"{method}.conll"
        code, _, err = run(
            capsys,
            "project",
            "--direction", "tgt2tgt",
            "--marked", fixture("backtrans.marked"),
            "--translations", fixture("backtrans.trans"),
            "--target", fixture("backtrans_target.conll"),
            "--align", fixture("backtrans.align"),
            "--out", str(out),
            "--method", method,
        )
        assert (code, err) == (0, "")
        assert eval_f1(capsys, str(out), fixture("backtrans_gold.conll")) == 1


def test_external_candidates_with_assignment_solver(tmp_path, capsys):
    spans = tmp_path / "spans.jsonl"
    records = [
        {"sentence_id": 0, "spans": [{"start": 0, "end": 2}, {"start": 3, "end": 4}]},
        {"sentence_id": 2, "spans": [{"start": 0, "end": 1}, {"start": 1, "end": 3}]},
        {"sentence_id": 3, "spans": [{"start": 0, "end": 1}, {"start": 2, "end": 3}]},
    ]
    spans.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    out = tmp_path / "pred.conll"
    code, _, err = project(
        capsys, out,
        "--method", "matching", "--candidates", "ner",
        "--solver", "assignment", "--spans", str(spans),
    )
    assert (code, err) == (0, "")
    assert eval_f1(capsys, str(out), fixture("clean_gold.conll")) == 1


def test_missing_labeled_flag_is_usage_error(tmp_path, capsys):
    code, _, err = run(
        capsys,
        "project",
        "--target", fixture("clean_target.conll"),
        "--align", fixture("clean.align"),
        "--out", str(tmp_path / "pred.conll"),
    )
    assert code == 1
    assert "usage error" in err and "--labeled" in err


def test_marked_flag_rejected_outside_round_trip(tmp_path, capsys):
    code, _, err = project(capsys, tmp_path / "p.conll", "--marked", fixture("backtrans.marked"))
    assert code == 1
    assert "tgt2tgt" in err


def test_spans_flag_requires_external_candidates(tmp_path, capsys):
    code, _, err = project(capsys, tmp_path / "p.conll", "--spans", fixture("clean.align"))
    assert code == 1
    assert "--spans" in err
    code, _, err = project(capsys, tmp_path / "p.conll", "--candidates", "ner")
    assert code == 1
    assert "--spans" in err


def test_missing_input_file_is_io_error(tmp_path, capsys):
    code, _, err = run(
        capsys,
        "project",
        "--labeled", str(tmp_path / "nope.conll"),
        "--target", fixture("clean_target.conll"),
        "--align", fixture("clean.align"),
        "--out", str(tmp_path / "pred.conll"),
    )
    assert code == 2
    assert "io error" in err


def test_count_mismatch_fails_before_any_output(tmp_path, capsys):
    bad_align = tmp_path / "short.align"
    bad_align.write_text("0-0 1-1 2-2 3-3\n", encoding="utf-8")
    out = tmp_path / "pred.conll"
    code, _, err = run(
        capsys,
        "project",
        "--labeled", fixture("clean_source.conll"),
        "--target", fixture("clean_target.conll"),
        "--align", str(bad_align),
        "--out", str(out),
    )
    assert code == 2
    assert "1 lines for 4 target sentences" in err
    assert not out.exists()


def test_infeasible_require_all_is_exit_3(tmp_path, capsys):
    out = tmp_path / "pred.conll"
    code, _, err = project_noisy(capsys, out, "--solver", "exact", "--mode", "all")
    assert code == 3
    assert "solver error" in err
    assert not out.exists()
    assert list(tmp_path.iterdir()) == []


def test_skip_bad_sentences_downgrades_to_warning(tmp_path, capsys):
    out = tmp_path / "pred.conll"
    code, _, err = project_noisy(
        capsys, out, "--solver", "exact", "--mode", "all", "--skip-bad-sentences"
    )
    assert code == 0
    assert "warning: sentence 2" in err
    text = out.read_text(encoding="utf-8")
    blocks = text.rstrip("\n").split("\n\n")
    assert blocks[2] == "Mia O\nliest O"
    assert "New B-LOC\nYork I-LOC\nCity I-LOC" in blocks[1]


def test_sentence_errors_name_their_sentence(tmp_path, capsys):
    align = tmp_path / "bad.align"
    lines = (FIXTURES / "clean.align").read_text(encoding="utf-8").splitlines()
    lines[2] += " 1-²"
    align.write_text("\n".join(lines) + "\n", encoding="utf-8")
    inputs = (
        "--labeled", fixture("clean_source.conll"),
        "--target", fixture("clean_target.conll"),
        "--align", str(align),
    )
    message = f"{align}: line 3: alignment token '1-²' is not of the form <digits>-<digits>"
    out = tmp_path / "p.conll"
    assert run(capsys, "project", *inputs, "--out", str(out)) == (
        2, "", f"format error: sentence 2: {message}\n"
    )
    assert list(tmp_path.iterdir()) == [align]  # no output and no temp file
    assert run(capsys, "solve", *inputs, "--sentence", "2") == (
        2, "", f"format error: sentence 2: {message}\n"
    )
    code, _, err = run(capsys, "project", *inputs, "--out", str(out), "--skip-bad-sentences")
    assert (code, err) == (0, f"warning: sentence 2 skipped: {message}\n")


def test_alignment_index_past_the_int_digit_limit_is_a_located_format_error(tmp_path, capsys):
    align = tmp_path / "long.align"
    lines = (FIXTURES / "clean.align").read_text(encoding="utf-8").splitlines()
    lines[1] = "0-" + "9" * 5000
    align.write_text("\n".join(lines) + "\n", encoding="utf-8")
    inputs = (
        "--labeled", fixture("clean_source.conll"),
        "--target", fixture("clean_target.conll"),
        "--align", str(align),
    )
    message = f"{align}: line 2: alignment index of 5000 digits is too long to read"
    out = tmp_path / "p.conll"
    assert run(capsys, "project", *inputs, "--out", str(out)) == (
        2, "", f"format error: sentence 1: {message}\n"
    )
    assert not out.exists() and list(tmp_path.glob("*.tmp")) == []
    code, _, err = run(capsys, "project", *inputs, "--out", str(out), "--skip-bad-sentences")
    assert (code, err) == (0, f"warning: sentence 1 skipped: {message}\n")


@pytest.mark.parametrize(
    ("bad", "line", "message"),
    [
        ("backtrans.marked", "der [Vereinigten Staaten] ist [Washington",
         "unbalanced '[' in 'der [Vereinigten Staaten] ist [Washington'"),
        ("backtrans.trans", "LOC\tVereinigte Staaten|||LOC Washington",
         "translation entry 'LOC Washington' is not 'label<TAB>text'"),
    ],
    ids=["marked", "translations"],
)
def test_round_trip_line_errors_name_file_and_line(tmp_path, bad, line, message):
    contents = _input_files(("project", *_ROUND_TRIP))
    contents[bad] = f"{line}\n".encode()
    code, out, err = _run_in(tmp_path, ("project", *_ROUND_TRIP), contents)
    assert (code, out, err) == (
        2, "", f"format error: sentence 0: {tmp_path / bad}: line 1: {message}\n"
    )
    assert not (tmp_path / "out.conll").exists()


def test_jobs_print_warnings_in_sentence_order(tmp_path, capsys):
    n = 600
    labeled = tmp_path / "src.conll"
    target = tmp_path / "tgt.conll"
    align = tmp_path / "a.align"
    labeled.write_text("\n".join("A B-PER\nb O\nc B-LOC\n" for _ in range(n)), encoding="utf-8")
    target.write_text("\n".join("x\ny\nz\n" for _ in range(n)), encoding="utf-8")
    # every other sentence has a target index out of bounds
    align.write_text(
        "".join("0-0 2-9\n" if i % 2 == 0 else "0-0 2-2\n" for i in range(n)), encoding="utf-8"
    )
    inputs = ("--labeled", str(labeled), "--target", str(target), "--align", str(align))
    runs = []
    for jobs in ("1", "4"):
        out = tmp_path / f"jobs{jobs}.conll"
        code, _, err = run(
            capsys, "project", *inputs, "--out", str(out), "--skip-bad-sentences",
            "--jobs", jobs,
        )
        runs.append((code, err, out.read_bytes()))
    assert runs[0][1].count("warning: sentence") == n // 2
    assert runs[1] == runs[0]


def test_project_rejects_invalid_solver_output(tmp_path, capsys, monkeypatch):
    def overlapping(problem):
        """Two sources on two overlapping candidates, when the problem has them."""
        spans = problem.candidates.spans
        cells = [
            (s, t)
            for s, row in enumerate(problem.costs)
            for t, cost in enumerate(row)
            if cost > 0
        ]
        for s, t in cells:
            for s2, t2 in cells:
                if s < s2 and t != t2 and spans_overlap(spans[t], spans[t2]):
                    objective = problem.costs[s][t] + problem.costs[s2][t2]
                    return MatchingSolution(((s, t), (s2, t2)), objective)
        return MatchingSolution((), Fraction(0))

    monkeypatch.setattr(matching, "solve_greedy", overlapping)
    out = tmp_path / "p.conll"
    code, _, err = project(capsys, out)
    assert code == 2
    assert err.startswith("data error: sentence 0: chosen candidates ")
    assert err.endswith(" overlap\n")
    assert not out.exists()


def single_token_entities(tmp_path, n_sources: int, n_target: int) -> tuple[str, ...]:
    """Inputs with n_sources one-token PER entities and one alignment link."""
    labeled = tmp_path / "src.conll"
    target = tmp_path / "tgt.conll"
    align = tmp_path / "a.align"
    labeled.write_text("".join(f"s{i} B-PER\n" for i in range(n_sources)), encoding="utf-8")
    target.write_text("".join(f"t{i}\n" for i in range(n_target)), encoding="utf-8")
    align.write_text("0-0\n", encoding="utf-8")
    return "--labeled", str(labeled), "--target", str(target), "--align", str(align)


def test_exact_guard_is_exit_3(tmp_path, capsys):
    out = tmp_path / "pred.conll"
    code, _, err = run(
        capsys,
        "project",
        *single_token_entities(tmp_path, 13, 13),
        "--out", str(out), "--solver", "exact", "--max-ngram", "1",
    )
    assert code == 3
    assert err == (
        "solver error: sentence 0: instance with 13 sources exceeds the exact "
        "solver's guard (10 sources)\n"
    )
    assert not out.exists()


def test_only_solve_prices_every_cell_and_builds_the_dense_matrix(
    tmp_path, capsys, monkeypatch
):
    def refuse(*args):
        raise AssertionError("a project run priced every cell or built the dense matrix")

    for builder in ("_cell_counts", "_dense_costs"):
        monkeypatch.setattr(matching, builder, refuse)
    solvers = (("--solver", "greedy"), ("--solver", "exact"), ("--solver", "exact", "--mode", "all"))
    for extra in solvers:
        code, _, err = project_noisy(
            capsys, tmp_path / "p.conll", "--method", "matching", "--candidates", "ngram",
            *extra, "--skip-bad-sentences",
        )
        assert code == 0, err
    monkeypatch.undo()

    built = {"_cell_counts": [], "_dense_costs": []}
    for builder, calls in built.items():
        real = getattr(matching, builder)
        monkeypatch.setattr(
            matching, builder, lambda *args, real=real, calls=calls: calls.append(args) or real(*args)
        )
    code, out, _ = run(
        capsys, "solve", "--sentence", "0",
        "--labeled", fixture("clean_source.conll"),
        "--target", fixture("clean_target.conll"),
        "--align", fixture("clean.align"),
    )
    # one problem, each builder run once for it, the counts over its own tables
    [(problem,)] = built["_dense_costs"]
    [(sources, links, spans)] = built["_cell_counts"]
    assert sources is problem.sources and links is problem.links
    assert spans is problem.candidates.spans
    n_src, n_cand = problem.shape
    assert code == 0 and out.startswith(f"mode=atmost shape={n_src}x{n_cand}\n")
    # the printout holds every cell, the ones no solver would pick too
    assert len(positive_cells(problem)) > len(problem.frontier)
    rows = out.splitlines()[2 : 2 + n_src]
    assert [row.split()[1:] for row in rows] == [list(map(str, row)) for row in problem.costs]


def test_solve_prints_matrix_and_oracle(capsys):
    code, out, err = run(
        capsys,
        "solve",
        "--labeled", fixture("clean_source.conll"),
        "--target", fixture("clean_target.conll"),
        "--align", fixture("clean.align"),
        "--sentence", "0",
    )
    assert (code, err) == (0, "")
    assert out.startswith("mode=atmost shape=2x10\n")
    assert "s0=[0,2):PER" in out
    assert "greedy: objective=1 assignments=[(0, 1), (1, 9)]" in out
    assert out.endswith("exact: objective=1 assignments=[(0, 1), (1, 9)]\n")


def test_solve_with_exact_prints_its_result_once(capsys):
    code, out, err = run(
        capsys,
        "solve",
        "--labeled", fixture("clean_source.conll"),
        "--target", fixture("clean_target.conll"),
        "--align", fixture("clean.align"),
        "--sentence", "0", "--solver", "exact",
    )
    assert (code, err) == (0, "")
    assert out.count("objective=") == 1
    assert out.endswith("\nexact: objective=1 assignments=[(0, 1), (1, 9)]\n")


def test_solve_empty_problem_prints_notice(capsys):
    code, out, _ = run(
        capsys,
        "solve",
        "--labeled", fixture("clean_source.conll"),
        "--target", fixture("clean_target.conll"),
        "--align", fixture("clean.align"),
        "--sentence", "1",
    )
    assert code == 0
    assert "empty problem: nothing to solve" in out


def test_solve_checks_many_candidates_with_exact(tmp_path, capsys):
    code, out, _ = run(
        capsys,
        "solve",
        *single_token_entities(tmp_path, 1, 13),
        "--sentence", "0", "--max-ngram", "1",
    )
    assert code == 0
    assert "mode=atmost shape=1x13\n" in out
    assert out.endswith(
        "greedy: objective=1/2 assignments=[(0, 0)]\n"
        "exact: objective=1/2 assignments=[(0, 0)]\n"
    )


def test_solve_skips_oracle_beyond_guard(tmp_path, capsys):
    code, out, err = run(
        capsys,
        "solve",
        *single_token_entities(tmp_path, 11, 13),
        "--sentence", "0", "--max-ngram", "1",
    )
    assert (code, err) == (0, "")
    assert out.endswith(
        "greedy: objective=1/2 assignments=[(0, 0)]\n"
        "exact check skipped: 11 sources exceed 10\n"
    )


def test_solve_sentence_out_of_range(capsys):
    code, _, err = run(
        capsys,
        "solve",
        "--labeled", fixture("clean_source.conll"),
        "--target", fixture("clean_target.conll"),
        "--align", fixture("clean.align"),
        "--sentence", "4",
    )
    assert code == 1
    assert "out of range" in err


@pytest.mark.parametrize(
    ("value", "message"),
    [
        ("x", "invalid integer 'x' for --sentence"),
        ("1.0", "invalid integer '1.0' for --sentence"),
        ("", "invalid integer '' for --sentence"),
        ("-1", "--sentence must be at least 0, got -1"),
    ],
)
def test_solve_sentence_is_read_like_the_other_integer_flags(capsys, value, message):
    code, out, err = run(
        capsys,
        "solve",
        "--labeled", fixture("clean_source.conll"),
        "--target", fixture("clean_target.conll"),
        "--align", fixture("clean.align"),
        "--sentence", value,
    )
    assert (code, out, err) == (1, "", f"usage error: {message}\n")


def test_solve_checks_target_alignment_bounds_like_project(tmp_path, capsys):
    labeled = tmp_path / "src.conll"
    target = tmp_path / "tgt.conll"
    align = tmp_path / "a.align"
    labeled.write_text("a B-PER\nb O\n", encoding="utf-8")
    target.write_text("x\ny\n", encoding="utf-8")
    align.write_text("0-0 1-7\n", encoding="utf-8")
    inputs = ("--labeled", str(labeled), "--target", str(target), "--align", str(align))
    solve_code, solve_out, solve_err = run(capsys, "solve", *inputs)
    project_code, _, project_err = run(
        capsys, "project", *inputs, "--out", str(tmp_path / "p.conll")
    )
    assert (solve_code, solve_out) == (2, "")
    assert project_code == 2
    assert "alignment pair (1, 7) out of bounds" in solve_err
    assert solve_err == project_err


def test_solve_has_no_jobs_flag(capsys):
    code, _, err = run(
        capsys,
        "solve",
        "--labeled", fixture("clean_source.conll"),
        "--target", fixture("clean_target.conll"),
        "--align", fixture("clean.align"),
        "--jobs", "1",
    )
    assert code == 1
    assert "--jobs" in err


def test_candidates_subcommand_dumps_ngrams(tmp_path, capsys):
    corpus = tmp_path / "tgt.conll"
    corpus.write_text("a\nb\nc\n", encoding="utf-8")
    out = tmp_path / "cands.jsonl"
    code, _, err = run(
        capsys, "candidates", "--target", str(corpus), "--out", str(out), "--max-ngram", "2"
    )
    assert (code, err) == (0, "")
    record = json.loads(out.read_text(encoding="utf-8"))
    assert record["sentence_id"] == 0
    assert [(s["start"], s["end"]) for s in record["spans"]] == [
        (0, 1), (0, 2), (1, 2), (1, 3), (2, 3),
    ]


def test_candidates_subcommand_empty_corpus(tmp_path, capsys):
    corpus = tmp_path / "tgt.conll"
    corpus.write_text("", encoding="utf-8")
    out = tmp_path / "cands.jsonl"
    code, _, _ = run(capsys, "candidates", "--target", str(corpus), "--out", str(out))
    assert code == 0
    assert out.read_text(encoding="utf-8") == ""


@pytest.mark.parametrize(
    ("command", "flag", "value"),
    [
        ("solve", "--method", "heuristic"),
        ("solve", "--threshold", "1/2"),
        ("candidates", "--candidates", "ngram"),
    ],
    ids=["solve-method", "solve-threshold", "candidates-candidates"],
)
def test_a_flag_the_command_does_not_read_is_unrecognized(
    tmp_path, capsys, monkeypatch, command, flag, value
):
    monkeypatch.chdir(tmp_path)
    argv = {
        "solve": ("--labeled", fixture("clean_source.conll"), "--align", fixture("clean.align")),
        "candidates": ("--out", "c.jsonl"),
    }[command]
    assert run(
        capsys, command, "--target", fixture("clean_target.conll"), *argv, flag, value
    ) == (1, "", f"usage error: unrecognized arguments: {flag} {value}\n")
    assert list(tmp_path.iterdir()) == []


def solve_with_config(capsys, tmp_path, config_text: str, *extra: str) -> tuple[int, str, str]:
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config_text, encoding="utf-8")
    return run(
        capsys, "solve", "--sentence", "2", "--config", str(cfg),
        "--labeled", fixture("noisy_source.conll"),
        "--target", fixture("noisy_target.conll"),
        "--align", fixture("noisy.align"),
        *extra,
    )


def test_solve_ignores_a_method_in_its_config_file(tmp_path, capsys):
    spans = tmp_path / "spans.jsonl"
    spans.write_text('{"sentence_id": 2, "spans": [{"start": 0, "end": 1}]}\n', encoding="utf-8")
    for extra in ((), ("--candidates", "ner", "--spans", str(spans))):
        plain = solve_with_config(capsys, tmp_path, "# no keys\n", *extra)
        assert plain[0] == 0 and plain[2] == ""
        assert solve_with_config(capsys, tmp_path, "method = heuristic\n", *extra) == plain


@pytest.mark.parametrize(
    ("line", "message"),
    [
        ("method = nope", "invalid value 'nope' for --method; expected one of: heuristic, matching"),
        ("threshold = 2", "ratio threshold must be in (0, 1], got 2"),
    ],
    ids=["method", "threshold"],
)
def test_solve_config_still_checks_every_value(tmp_path, capsys, line, message):
    assert solve_with_config(capsys, tmp_path, f"{line}\n") == (1, "", f"usage error: {message}\n")


@pytest.mark.parametrize(
    "line", ["mode = all", "solver = assignment", "method = heuristic", "candidates = ner"],
    ids=["mode", "solver", "method", "candidates"],
)
def test_candidates_config_ignores_the_knobs_it_does_not_read(tmp_path, capsys, line):
    """Only max_ngram reaches candidates; the other keys are checked but not used."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{line}\n", encoding="utf-8")
    plain, configured = tmp_path / "plain.jsonl", tmp_path / "configured.jsonl"
    target = ("--target", fixture("clean_target.conll"))
    assert run(capsys, "candidates", *target, "--out", str(plain)) == (0, "", "")
    assert run(
        capsys, "candidates", *target, "--config", str(cfg), "--out", str(configured)
    ) == (0, "", "")
    assert configured.read_bytes() == plain.read_bytes()


@pytest.mark.parametrize(
    ("line", "message"),
    [
        ("mode = nope", "invalid value 'nope' for --mode; expected one of: atmost, all"),
        ("threshold = 2", "ratio threshold must be in (0, 1], got 2"),
    ],
    ids=["mode", "threshold"],
)
def test_candidates_config_still_checks_every_value(tmp_path, capsys, line, message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{line}\n", encoding="utf-8")
    out = tmp_path / "c.jsonl"
    assert run(
        capsys, "candidates", "--target", fixture("clean_target.conll"),
        "--config", str(cfg), "--out", str(out),
    ) == (1, "", f"usage error: {message}\n")
    assert not out.exists()


def test_candidates_rejects_nonpositive_max_ngram(tmp_path, capsys):
    code, _, err = run(
        capsys,
        "candidates",
        "--target", fixture("clean_target.conll"),
        "--out", str(tmp_path / "c.jsonl"),
        "--max-ngram", "0",
    )
    assert code == 1
    assert "at least 1" in err


def test_evaluate_identical_files(capsys):
    gold = fixture("clean_gold.conll")
    code, out, _ = run(capsys, "evaluate", gold, gold)
    assert code == 0
    assert "ALL" in out
    record = json.loads(out.splitlines()[-1])
    assert record["total"]["f1"] == "1"
    assert record["total"]["fp"] == 0


def test_evaluate_low_score_still_exits_zero(tmp_path, capsys):
    pred = tmp_path / "empty_pred.conll"
    pred.write_text(
        "\n\n".join(
            "\n".join(f"{tok} O" for tok in block.splitlines())
            for block in [
                "Anna\nBerg\nbesucht\nParis",
                "die\nalte\nbruecke\nsteht",
                "Taro\nKyoto\nUniversitaet\nbesuchte",
                "Lena\nsah\nRom",
            ]
        )
        + "\n",
        encoding="utf-8",
    )
    code, out, _ = run(capsys, "evaluate", str(pred), fixture("clean_gold.conll"))
    assert code == 0
    assert Fraction(json.loads(out.splitlines()[-1])["total"]["f1"]) == 0


def test_evaluate_mismatched_corpora_exit_2(capsys):
    code, _, err = run(
        capsys, "evaluate", fixture("clean_gold.conll"), fixture("noisy_gold.conll")
    )
    assert code == 2
    assert "data error" in err


def test_config_file_supplies_defaults_and_cli_overrides(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# projection knobs\nmethod = heuristic\n", encoding="utf-8")
    gold = fixture("noisy_gold.conll")

    from_file = tmp_path / "from_file.conll"
    assert project_noisy(capsys, from_file, "--config", str(cfg))[0] == 0
    assert eval_f1(capsys, str(from_file), gold) == Fraction(2, 5)

    overridden = tmp_path / "overridden.conll"
    assert project_noisy(capsys, overridden, "--config", str(cfg), "--method", "matching")[0] == 0
    assert eval_f1(capsys, str(overridden), gold) == Fraction(4, 5)


@pytest.mark.parametrize(
    ("key", "flag", "value", "extra", "bad"),
    [
        ("method", "--method", "heuristic", (), "nope"),
        ("candidates", "--candidates", "ner", ("--spans", "SPANS"), "nope"),
        ("solver", "--solver", "exact", ("--mode", "all"), "nope"),
        ("mode", "--mode", "all", ("--solver", "exact"), "nope"),
        ("threshold", "--threshold", "1/2", ("--method", "heuristic"), "x"),
        ("max_ngram", "--max-ngram", "1", (), "0"),
    ],
)
def test_config_file_value_acts_like_its_flag(tmp_path, capsys, key, flag, value, extra, bad):
    spans = tmp_path / "spans.jsonl"
    spans.write_text('{"sentence_id": 0, "spans": [{"start": 0, "end": 1}]}\n', encoding="utf-8")
    extra = tuple(str(spans) if arg == "SPANS" else arg for arg in extra)
    cfg = tmp_path / "run.cfg"

    def outcome(*args: str):
        out = tmp_path / "p.conll"
        out.unlink(missing_ok=True)
        code, _, err = project_noisy(capsys, out, *extra, *args)
        return code, err, out.read_bytes() if out.exists() else None

    cfg.write_text(f"{key} = {value}\n", encoding="utf-8")
    from_flag = outcome(flag, value)
    assert outcome("--config", str(cfg)) == from_flag
    assert outcome() != from_flag

    cfg.write_text(f"{key} = {bad}\n", encoding="utf-8")
    code, _, err = project_noisy(capsys, tmp_path / "p.conll", *extra, "--config", str(cfg))
    assert code == 1
    assert err.startswith("usage error: ") and flag in err
    # one converter for both: the bad value as a flag gives the same message
    assert project_noisy(capsys, tmp_path / "p.conll", *extra, flag, bad)[::2] == (code, err)


@pytest.mark.parametrize("command", ["project", "solve", "candidates"])
def test_config_file_non_integer_max_ngram(tmp_path, capsys, command):
    """The file value and the flag are converted once, by the same function."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("max_ngram = abc\n", encoding="utf-8")
    out = tmp_path / "p.conll"
    argv = [command, "--target", fixture("clean_target.conll")]
    if command != "candidates":
        argv += ["--labeled", fixture("clean_source.conll"), "--align", fixture("clean.align")]
    if command != "solve":
        argv += ["--out", str(out)]
    expected = (1, "", "usage error: invalid integer 'abc' for --max-ngram\n")
    assert run(capsys, *argv, "--config", str(cfg)) == expected
    assert run(capsys, *argv, "--max-ngram", "abc") == expected
    assert list(tmp_path.iterdir()) == [cfg]


def test_config_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("sliver = greedy\n", encoding="utf-8")
    code, _, err = project_noisy(capsys, tmp_path / "p.conll", "--config", str(cfg))
    assert code == 1
    assert "unknown config key" in err


def test_config_file_bad_line(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("method heuristic\n", encoding="utf-8")
    code, _, err = project_noisy(capsys, tmp_path / "p.conll", "--config", str(cfg))
    assert code == 1
    assert "line 1" in err


def test_config_file_missing(tmp_path, capsys):
    code, _, err = project_noisy(capsys, tmp_path / "p.conll", "--config", str(tmp_path / "no.cfg"))
    assert code == 1
    assert "cannot read config file" in err


@pytest.mark.parametrize("command", ["project", "solve", "candidates"])
def test_empty_config_path_is_an_error(tmp_path, capsys, command):
    argv = [command, "--target", fixture("clean_target.conll"), "--config", ""]
    if command != "candidates":
        argv += ["--labeled", fixture("clean_source.conll"), "--align", fixture("clean.align")]
    if command != "solve":
        argv += ["--out", str(tmp_path / "out")]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == "usage error: argument --config: empty path ''\n"
    assert not (tmp_path / "out").exists()


# Every path value each command takes: flags, and evaluate's positionals.
PATH_VALUES = {
    "project": (
        "--labeled", "--target", "--align", "--spans", "--marked", "--translations",
        "--config", "--out",
    ),
    "solve": (
        "--labeled", "--target", "--align", "--spans", "--marked", "--translations", "--config",
    ),
    "candidates": ("--target", "--config", "--out"),
    "evaluate": ("PRED", "GOLD"),
}


def working_command_lines(inputs) -> list[list[str]]:
    """Command lines that succeed and between them give every path value.

    Outputs are relative, so they land in the working directory.
    """
    config = inputs / "run.cfg"
    config.write_text("threshold=1/2\n", encoding="utf-8")
    spans = inputs / "spans.jsonl"
    spans.write_text('{"sentence_id": 0, "spans": [{"start": 0, "end": 2}]}\n', encoding="utf-8")
    src2tgt = [
        "--labeled", fixture("clean_source.conll"),
        "--target", fixture("clean_target.conll"),
        "--align", fixture("clean.align"),
    ]
    tgt2tgt = [
        "--direction", "tgt2tgt",
        "--marked", fixture("backtrans.marked"),
        "--translations", fixture("backtrans.trans"),
        "--target", fixture("backtrans_target.conll"),
        "--align", fixture("backtrans.align"),
    ]
    ner = [*src2tgt, "--candidates", "ner", "--spans", str(spans)]
    lines = []
    for command, out in (("project", ["--out", "out.conll"]), ("solve", [])):
        for flags in ([*src2tgt, "--config", str(config)], tgt2tgt, ner):
            lines.append([command, *flags, *out])
    lines.append(
        ["candidates", "--target", fixture("clean_target.conll"), "--config", str(config),
         "--out", "out.jsonl"]
    )
    lines.append(["evaluate", fixture("clean_gold.conll"), fixture("clean_gold.conll")])
    return lines


@pytest.mark.parametrize(
    ("command", "name"),
    [(command, name) for command, names in PATH_VALUES.items() for name in names],
)
def test_empty_path_is_a_usage_error_before_any_file_is_touched(
    tmp_path, capsys, monkeypatch, command, name
):
    (tmp_path / "inputs").mkdir()
    (tmp_path / "cwd").mkdir()
    monkeypatch.chdir(tmp_path / "cwd")
    argv = next(
        line for line in working_command_lines(tmp_path / "inputs")
        if line[0] == command and (name in line or command == "evaluate")
    )
    empty = list(argv)
    position = {"PRED": 1, "GOLD": 2}[name] if command == "evaluate" else argv.index(name) + 1
    empty[position] = ""
    assert run(capsys, *empty) == (1, "", f"usage error: argument {name}: empty path ''\n")
    assert list((tmp_path / "cwd").iterdir()) == []
    # with the path in place, the same command line runs
    assert run(capsys, *argv)[0] == 0


def test_threshold_flag_changes_heuristic_behavior(tmp_path, capsys):
    out = tmp_path / "pred.conll"
    code, _, _ = project_noisy(capsys, out, "--method", "heuristic", "--threshold", "1/2")
    assert code == 0
    assert eval_f1(capsys, str(out), fixture("noisy_gold.conll")) == Fraction(4, 5)


def test_threshold_flag_validation(tmp_path, capsys):
    code, _, err = project_noisy(capsys, tmp_path / "p.conll", "--threshold", "abc")
    assert code == 1
    assert "invalid rational" in err
    code, _, err = project_noisy(
        capsys, tmp_path / "p.conll", "--method", "heuristic", "--threshold", "2"
    )
    assert code == 1
    assert "(0, 1]" in err


def test_greedy_refuses_require_all_mode(tmp_path, capsys):
    code, _, err = project_noisy(capsys, tmp_path / "p.conll", "--mode", "all")
    assert code == 1
    assert "greedy" in err.lower()


def test_jobs_output_matches_serial(tmp_path, capsys):
    serial, parallel = tmp_path / "serial.conll", tmp_path / "parallel.conll"
    assert project(capsys, serial)[0] == 0
    assert project(capsys, parallel, "--jobs", "4")[0] == 0
    assert serial.read_bytes() == parallel.read_bytes()


def assert_no_children() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def eight_sentences(tmp_path, bad: int | None = None) -> tuple[str, ...]:
    """Eight three-token sentences, four chunks of two under --jobs 4; sentence bad
    has a malformed alignment token."""
    labeled = tmp_path / "src.conll"
    target = tmp_path / "tgt.conll"
    align = tmp_path / "a.align"
    labeled.write_text("\n".join("A B-PER\nb O\nc B-LOC\n" for _ in range(8)), encoding="utf-8")
    target.write_text("\n".join("x\ny\nz\n" for _ in range(8)), encoding="utf-8")
    align.write_text(
        "".join("0-0 2-x\n" if i == bad else "0-0 2-2\n" for i in range(8)), encoding="utf-8"
    )
    return "--labeled", str(labeled), "--target", str(target), "--align", str(align)


@pytest.mark.parametrize("bad", [0, 3, 5, 7], ids=["first", "second", "third", "last"])
def test_jobs_fatal_error_in_any_chunk_matches_serial(tmp_path, capsys, eight_cpus, bad):
    inputs = eight_sentences(tmp_path, bad)
    out = tmp_path / "p.conll"
    runs = [run(capsys, "project", *inputs, "--out", str(out), "--jobs", jobs)
            for jobs in ("1", "4")]
    assert runs[0] == (
        2, "", f"format error: sentence {bad}: {tmp_path / 'a.align'}: line {bad + 1}: "
        "alignment token '2-x' is not of the form <digits>-<digits>\n"
    )
    assert runs[1] == runs[0]
    assert not out.exists()
    assert_no_children()


def error_corpus(
    tmp_path, labeled=None, target=None, align=None, labeled_sentences=8, align_lines=8,
    missing=(),
):
    """eight_sentences' files, with sentence i's CoNLL block or alignment line
    replaced where the labeled, target or align dict has an i. The labeled
    corpus has labeled_sentences sentences and the alignment file align_lines
    lines; a file whose role ("labeled" or "align") is in missing is not written."""
    labeled, target, align = labeled or {}, target or {}, align or {}
    files = tmp_path / "src.conll", tmp_path / "tgt.conll", tmp_path / "a.align"
    files[0].write_text(
        "\n".join(labeled.get(i, "A B-PER\nb O\nc B-LOC\n") for i in range(labeled_sentences)),
        encoding="utf-8",
    )
    files[1].write_text("\n".join(target.get(i, "x\ny\nz\n") for i in range(8)), encoding="utf-8")
    files[2].write_text(
        "".join(align.get(i, "0-0 2-2") + "\n" for i in range(align_lines)), encoding="utf-8"
    )
    for role in missing:
        files[("labeled", "target", "align").index(role)].unlink()
    return "--labeled", str(files[0]), "--target", str(files[1]), "--align", str(files[2])


# Sentence i's CoNLL block starts on line 4i + 1. Under --jobs 2 the chunks
# are sentences 0-3 and 4-7; under --jobs 4, 0-1, 2-3, 4-5 and 6-7.
_BAD_TAG = "A B-PER\nb X-Y\nc B-LOC\n"
_THREE_FIELDS = "A B-PER\nb O\nc B-LOC extra\n"
_THREE_FIELD_TARGET = "x\ny y y\nz\n"
_ERROR_ORDER = {
    "bad-tag-in-the-last-chunk": (
        {"labeled": {7: _BAD_TAG}}, (),
        "src.conll: line 30: tag 'X-Y' does not match the BIO grammar",
    ),
    "target-error-beats-an-earlier-labeled-error": (
        {"labeled": {0: _BAD_TAG}, "target": {5: _THREE_FIELD_TARGET}}, (),
        "tgt.conll: line 22: expected 'token' or 'token tag', got 3 fields",
    ),
    "labeled-error-beats-an-earlier-bad-sentence": (
        {"labeled": {4: _THREE_FIELDS}, "align": {1: "0-0 2-x"}}, (),
        "src.conll: line 19: expected 'token' or 'token tag', got 3 fields",
    ),
    "target-error-beats-a-short-labeled-corpus": (
        {"labeled_sentences": 7, "target": {6: _THREE_FIELD_TARGET}}, (),
        "tgt.conll: line 26: expected 'token' or 'token tag', got 3 fields",
    ),
    "labeled-error-beats-a-bad-span-record-file": (
        {"labeled": {6: _BAD_TAG}}, ("--method", "matching", "--candidates", "ner"),
        "src.conll: line 26: tag 'X-Y' does not match the BIO grammar",
    ),
    "target-error-beats-a-short-alignment-file": (
        {"align_lines": 7, "target": {5: _THREE_FIELD_TARGET}}, (),
        "tgt.conll: line 22: expected 'token' or 'token tag', got 3 fields",
    ),
    "target-error-beats-a-missing-alignment-file": (
        {"missing": ("align",), "target": {6: _THREE_FIELD_TARGET}}, (),
        "tgt.conll: line 26: expected 'token' or 'token tag', got 3 fields",
    ),
    "target-error-beats-a-missing-labeled-file": (
        {"missing": ("labeled",), "target": {2: _THREE_FIELD_TARGET}}, (),
        "tgt.conll: line 10: expected 'token' or 'token tag', got 3 fields",
    ),
}


@pytest.mark.parametrize(("files", "flags", "message"), _ERROR_ORDER.values(), ids=_ERROR_ORDER)
def test_jobs_raise_the_serial_first_error_of_chunked_parsing(
    tmp_path, capsys, eight_cpus, files, flags, message
):
    """Each chunk parses its own sentences; the first error is still the serial run's."""
    inputs = error_corpus(tmp_path, **files)
    if flags:
        (tmp_path / "spans.jsonl").write_text("{not json\n", encoding="utf-8")
        flags = (*flags, "--spans", str(tmp_path / "spans.jsonl"))
    out = tmp_path / "p.conll"
    for jobs in ("1", "2", "4", "8"):
        result = run(capsys, "project", *inputs, *flags, "--out", str(out), "--jobs", jobs)
        assert result == (2, "", f"format error: {tmp_path}/{message}\n"), jobs
        assert not out.exists()
        assert_no_children()


@pytest.mark.parametrize("sentence", ["0", "99"])
def test_solve_raises_a_format_error_before_it_reads_its_sentence(tmp_path, capsys, sentence):
    """solve parses the whole corpus first, so a later sentence's format error
    beats both a good --sentence and one out of range."""
    inputs = error_corpus(tmp_path, target={6: _THREE_FIELD_TARGET})
    assert run(capsys, "solve", *inputs, "--sentence", sentence) == (
        2, "", f"format error: {tmp_path / 'tgt.conll'}: line 26: "
        "expected 'token' or 'token tag', got 3 fields\n",
    )


def test_jobs_succeed_and_reap_every_child(tmp_path, capsys, eight_cpus):
    inputs = eight_sentences(tmp_path)
    outputs = []
    for jobs in ("1", "4", "8"):
        out = tmp_path / f"jobs{jobs}.conll"
        assert run(capsys, "project", *inputs, "--out", str(out), "--jobs", jobs) == (0, "", "")
        assert_no_children()
        outputs.append(out.read_bytes())
    assert outputs[1] == outputs[2] == outputs[0]


def test_jobs_raise_an_unexpected_error_from_a_child(tmp_path, capsys, monkeypatch, eight_cpus):
    real = cli.project_matching

    def failing(labeled, target, *rest):
        if target.id == 5:
            raise RuntimeError("boom in sentence 5")
        return real(labeled, target, *rest)

    monkeypatch.setattr(cli, "project_matching", failing)
    out = tmp_path / "p.conll"
    with pytest.raises(RuntimeError, match="boom in sentence 5"):
        main(["project", *eight_sentences(tmp_path), "--out", str(out), "--jobs", "4",
              "--skip-bad-sentences"])
    assert capsys.readouterr() == ("", "")
    assert not out.exists()
    assert_no_children()


def serial_run(capsys, tmp_path, inputs) -> tuple[tuple[int, str, str], bytes]:
    """The --jobs 1 run of inputs (sentence 5 bad and skipped): result and output bytes."""
    out = tmp_path / "serial.conll"
    result = run(capsys, "project", *inputs, "--out", str(out), "--jobs", "1")
    assert result == (0, "", f"warning: sentence 5 skipped: {tmp_path / 'a.align'}: line 6: "
                      "alignment token '2-x' is not of the form <digits>-<digits>\n")
    return result, out.read_bytes()


def record_conll_parses(monkeypatch) -> list[tuple[int, int]]:
    """The sentence range of every CoNLL block parse in this process, in call
    order, wherever cli and formats look the block parser up; a forked child's
    parses are its own."""
    real, ranges = formats._conll_sentences, []

    def recording(text, blocks, first_id=0):
        blocks = list(blocks)
        ranges.append((first_id, first_id + len(blocks)))
        return real(text, blocks, first_id)

    monkeypatch.setattr(formats, "_conll_sentences", recording)
    monkeypatch.setattr(cli, "_conll_sentences", recording)
    return ranges


# Under --jobs 4, the parent parses chunk 0 (target, then labeled), then
# recomputes the chunk of sentences 4 and 5, parsing only its blocks.
_PARENT_PARSES = [(0, 2), (0, 2), (4, 6), (4, 6)]


def test_jobs_recompute_a_chunk_whose_fork_fails(tmp_path, capsys, monkeypatch, eight_cpus):
    inputs = (*eight_sentences(tmp_path, bad=5), "--skip-bad-sentences")
    expected, serial = serial_run(capsys, tmp_path, inputs)
    real_fork, calls = os.fork, []

    def fork():
        calls.append(len(calls) + 1)
        if len(calls) == 2:  # the chunk of sentences 4 and 5
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    parses = record_conll_parses(monkeypatch)
    out = tmp_path / "p.conll"
    assert run(capsys, "project", *inputs, "--out", str(out), "--jobs", "4") == expected
    assert calls == [1, 2, 3]
    assert out.read_bytes() == serial
    assert parses == _PARENT_PARSES
    assert_no_children()


def test_jobs_recompute_a_chunk_whose_child_dies_unwritten(
    tmp_path, capsys, monkeypatch, eight_cpus
):
    inputs = (*eight_sentences(tmp_path, bad=5), "--skip-bad-sentences")
    expected, serial = serial_run(capsys, tmp_path, inputs)
    parent, real = os.getpid(), cli._project_range

    def dying(cfg, load, skip_bad, a, b):
        if os.getpid() != parent and a == 4:  # the child of sentences 4 and 5
            os.kill(os.getpid(), signal.SIGKILL)
        return real(cfg, load, skip_bad, a, b)

    monkeypatch.setattr(cli, "_project_range", dying)
    parses = record_conll_parses(monkeypatch)
    out = tmp_path / "p.conll"
    assert run(capsys, "project", *inputs, "--out", str(out), "--jobs", "4") == expected
    assert out.read_bytes() == serial
    assert parses == _PARENT_PARSES
    assert_no_children()


def test_worker_count_caps_at_jobs_sentences_and_cpus(monkeypatch, eight_cpus):
    assert _worker_count(10**6, 3) == 3
    assert _worker_count(10**6, 16) == 8
    assert _worker_count(5, 16) == 5
    assert _worker_count(10**6, 1) == 1
    assert _worker_count(0, 4) == 1
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 6)
    assert _worker_count(10**6, 16) == 6
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert _worker_count(10**6, 16) == 1
    monkeypatch.setattr(os, "cpu_count", lambda: 6)
    monkeypatch.delattr(os, "fork")
    assert _worker_count(10**6, 16) == 1


@pytest.mark.parametrize(
    ("flags", "warnings"),
    [
        (("--solver", "exact", "--mode", "all"),
         "warning: sentence 2 skipped: no assignment covers every source "
         "(uncoverable sources: [0])\n"),
        (("--method", "matching", "--candidates", "ngram", "--solver", "greedy"), ""),
        (("--method", "matching", "--candidates", "ngram", "--solver", "exact",
          "--mode", "atmost"), ""),
        (("--method", "heuristic"), ""),
        (("--direction", "tgt2tgt", "--candidates", "ner", "--solver", "assignment"), ""),
    ],
    ids=["exact-all", "greedy-ngram", "exact-atmost", "heuristic", "round-trip"],
)
def test_jobs_match_serial_through_the_console_process(tmp_path, flags, warnings):
    """Real file descriptors: no line printed twice, the same bytes and stderr."""
    if "tgt2tgt" in flags:
        paths = write_round_trip_corpus(tmp_path, seed=3, n_sentences=40)
        roles = ("marked", "translations", "target", "align", "spans")
        inputs = (*flags, *(f"--{role}={paths[role]}" for role in roles))
    else:
        inputs = (
            "--labeled", fixture("noisy_source.conll"),
            "--target", fixture("noisy_target.conll"),
            "--align", fixture("noisy.align"),
            *flags, "--skip-bad-sentences",
        )
    env = dict(os.environ, PYTHONPATH=str(FIXTURES.parents[1] / "src"))
    runs = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}.conll"
        proc = subprocess.run(
            [sys.executable, "-m", "spanproject.cli", "project", *inputs, "--out", str(out),
             "--jobs", jobs],
            capture_output=True, text=True, env=env, timeout=60,
        )
        runs.append((proc.returncode, proc.stdout, proc.stderr, out.read_bytes()))
    assert runs[0][:3] == (0, "", warnings)
    assert runs[1] == runs[0]


def test_jobs_must_be_positive(tmp_path, capsys):
    assert project(capsys, tmp_path / "p.conll", "--jobs", "0") == (
        1, "", "usage error: --jobs must be at least 1, got 0\n"
    )
    assert list(tmp_path.iterdir()) == []


def test_jobs_must_be_an_integer(tmp_path, capsys):
    assert project(capsys, tmp_path / "p.conll", "--jobs", "x") == (
        1, "", "usage error: invalid integer 'x' for --jobs\n"
    )
    assert list(tmp_path.iterdir()) == []


# the flags each command is given below, less the ones a case leaves out
_FLAGS = {
    "project": ("--labeled", "--target", "--align", "--out"),
    "solve": ("--labeled", "--target", "--align"),
    "candidates": ("--target", "--out"),
}


@pytest.mark.parametrize(
    ("command", "missing"),
    [
        ("project", ("--align",)),
        ("project", ("--target", "--out")),
        ("solve", ("--align",)),
        ("solve", ("--target", "--align")),
        ("candidates", ("--out",)),
        ("candidates", ("--target", "--out")),
    ],
    ids=["project-one", "project-two", "solve-one", "solve-two", "candidates-one",
         "candidates-two"],
)
def test_the_parser_names_every_missing_required_flag(tmp_path, capsys, command, missing):
    values = {
        "--labeled": fixture("clean_source.conll"),
        "--target": fixture("clean_target.conll"),
        "--align": fixture("clean.align"),
        "--out": str(tmp_path / "out"),
    }
    argv = [part for flag in _FLAGS[command] if flag not in missing
            for part in (flag, values[flag])]
    assert run(capsys, command, *argv) == (
        1, "", f"usage error: the following arguments are required: {', '.join(missing)}\n"
    )
    assert list(tmp_path.iterdir()) == []


def test_byte_order_mark_does_not_change_output(tmp_path, capsys):
    target = tmp_path / "bom_target.conll"
    target.write_bytes(b"\xef\xbb\xbf" + (FIXTURES / "clean_target.conll").read_bytes())
    plain, with_bom = tmp_path / "plain.conll", tmp_path / "bom.conll"
    assert project(capsys, plain)[0] == 0
    code, _, err = run(
        capsys,
        "project",
        "--labeled", fixture("clean_source.conll"),
        "--target", str(target),
        "--align", fixture("clean.align"),
        "--out", str(with_bom),
    )
    assert (code, err) == (0, "")
    assert with_bom.read_bytes() == plain.read_bytes()


_CLEAN = ("--labeled", "clean_source.conll", "--target", "clean_target.conll",
          "--align", "clean.align")
_ROUND_TRIP = ("--direction", "tgt2tgt", "--marked", "backtrans.marked",
               "--translations", "backtrans.trans", "--target", "backtrans_target.conll",
               "--align", "backtrans.align")
# Input files that are not fixtures, by the name argv gives them.
_WRITTEN = {
    "spans.jsonl": (
        b'{"sentence_id": 0, "spans": [{"start": 0, "end": 2}, {"start": 3, "end": 4}]}\n'
        b'{"sentence_id": 2, "spans": [{"start": 0, "end": 1}, {"start": 1, "end": 3}]}\n'
    ),
    "run.cfg": b"# knobs\nmax_ngram = 3\n",
}


def _input_files(argv) -> dict[str, bytes]:
    """The contents of each input file argv names: a fixture or one of _WRITTEN."""
    return {
        arg: _WRITTEN[arg] if arg in _WRITTEN else (FIXTURES / arg).read_bytes()
        for arg in argv
        if arg in _WRITTEN or (FIXTURES / arg).is_file()
    }


def _run_in(root, argv, contents: dict[str, bytes]) -> tuple[int, str, str]:
    """Write contents under root and run main() on argv with its files there."""
    for name, raw in contents.items():
        (root / name).write_bytes(raw)
    args = [str(root / arg) if arg in contents else arg for arg in argv]
    if argv[0] in ("project", "candidates"):
        args += ["--out", str(root / "out.conll")]
    with (
        contextlib.redirect_stdout(io.StringIO()) as out,
        contextlib.redirect_stderr(io.StringIO()) as err,
    ):
        code = main(args)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        (
            ("project", "--direction", "tgt2tgt", "--marked", "backtrans.marked",
             "--target", "backtrans_target.conll", "--align", "backtrans.align"),
            "--marked and --translations are required for --direction tgt2tgt",
        ),
        (
            ("project", *_ROUND_TRIP, "--labeled", "clean_source.conll"),
            "--labeled does not apply to --direction tgt2tgt",
        ),
    ],
    ids=["translations-missing", "labeled-given"],
)
def test_round_trip_flag_combinations_are_usage_errors(tmp_path, argv, message):
    assert _run_in(tmp_path, argv, _input_files(argv)) == (1, "", f"usage error: {message}\n")
    assert not (tmp_path / "out.conll").exists()


@pytest.mark.parametrize(
    ("bad", "what"),
    [("backtrans.marked", "marked file"), ("backtrans.trans", "translations file")],
    ids=["marked", "translations"],
)
def test_round_trip_line_counts_are_checked(tmp_path, bad, what):
    contents = _input_files(("project", *_ROUND_TRIP))
    contents[bad] *= 2  # two lines for the one target sentence
    assert _run_in(tmp_path, ("project", *_ROUND_TRIP), contents) == (
        2, "", f"data error: {what} has 2 lines for 1 target sentences\n"
    )
    assert not (tmp_path / "out.conll").exists()


def test_round_trip_line_files_are_read_before_their_counts_are_checked(tmp_path):
    """A marked file of the wrong length and a missing translations file: the read fails."""
    contents = _input_files(("project", *_ROUND_TRIP))
    contents["backtrans.marked"] *= 2
    del contents["backtrans.trans"]
    missing = tmp_path / "missing.trans"
    argv = [str(missing) if arg == "backtrans.trans" else arg for arg in ("project", *_ROUND_TRIP)]
    assert _run_in(tmp_path, argv, contents) == (
        2, "", f"io error: [Errno 2] No such file or directory: '{missing}'\n"
    )


def test_span_record_past_the_corpus_is_a_data_error(tmp_path):
    argv = ("project", *_CLEAN, "--candidates", "ner", "--spans", "spans.jsonl")
    contents = _input_files(argv)
    contents["spans.jsonl"] = b'{"sentence_id": 5, "spans": [{"start": 0, "end": 1}]}\n'
    assert _run_in(tmp_path, argv, contents) == (
        2, "", "data error: span record for sentence 5 but corpus has 4 sentences\n"
    )
    assert not (tmp_path / "out.conll").exists()


@pytest.mark.parametrize(
    ("record", "cause"),
    [
        (b"[" * 100_000, "maximum recursion depth exceeded"),
        (b'{"sentence_id": ' + b"1" * 5000 + b', "spans": []}', "Exceeds the limit"),
    ],
    ids=["deep-nesting", "long-integer"],
)
def test_span_record_that_json_cannot_decode_is_a_located_format_error(
    tmp_path, record, cause
):
    argv = ("project", *_CLEAN, "--candidates", "ner", "--spans", "spans.jsonl")
    contents = _input_files(argv)
    contents["spans.jsonl"] = record + b"\n"
    code, out, err = _run_in(tmp_path, argv, contents)
    prefix = f"format error: {tmp_path / 'spans.jsonl'}: line 1: invalid JSON record: {cause}"
    assert (code, out, err.startswith(prefix), err.count("\n")) == (2, "", True, 1)
    assert not (tmp_path / "out.conll").exists()


@pytest.mark.parametrize(
    ("argv", "bad"),
    [
        (("project", *_CLEAN), "clean_target.conll"),
        (("project", *_CLEAN), "clean.align"),
        (("project", *_CLEAN), "clean_source.conll"),
        (("project", *_CLEAN, "--candidates", "ner", "--spans", "spans.jsonl"), "spans.jsonl"),
        (("project", *_ROUND_TRIP), "backtrans.marked"),
        (("project", *_ROUND_TRIP), "backtrans.trans"),
        (("evaluate", "clean_gold.conll", "clean_source.conll"), "clean_gold.conll"),
        (("evaluate", "clean_gold.conll", "clean_source.conll"), "clean_source.conll"),
        (("project", *_CLEAN, "--config", "run.cfg"), "run.cfg"),
    ],
    ids=["target", "align", "labeled", "spans", "marked", "translations", "pred", "gold", "config"],
)
def test_invalid_utf8_is_a_located_error(tmp_path, argv, bad):
    contents = _input_files(argv)
    lines = contents[bad].split(b"\n")
    line = min(2, len(lines) - 1)  # the second line, or the only one
    lines[line - 1] = b"\xff" + lines[line - 1]
    contents[bad] = b"\n".join(lines)

    code, out, err = _run_in(tmp_path, argv, contents)
    message = f"{tmp_path / bad}: line {line}: invalid UTF-8 byte 0xff"
    if bad == "run.cfg":
        assert (code, err) == (
            1, f"usage error: cannot read config file {tmp_path / bad}: {message}\n"
        )
    else:
        assert (code, err) == (2, f"format error: {message}\n")
    assert out == ""
    assert not (tmp_path / "out.conll").exists()


_BAD_TAG = (b"x B_PER", "tag 'B_PER' does not match the BIO grammar")


@pytest.mark.parametrize(
    ("argv", "bad", "line", "message"),
    [
        (("project", *_CLEAN), "clean_target.conll", *_BAD_TAG),
        (("project", *_CLEAN), "clean_source.conll", *_BAD_TAG),
        (("project", *_CLEAN, "--candidates", "ner", "--spans", "spans.jsonl"), "spans.jsonl",
         b"[]", "span record must be a JSON object"),
        (("candidates", "--target", "clean_target.conll"), "clean_target.conll", *_BAD_TAG),
        (("evaluate", "clean_gold.conll", "clean_source.conll"), "clean_gold.conll", *_BAD_TAG),
        (("evaluate", "clean_gold.conll", "clean_source.conll"), "clean_source.conll",
         *_BAD_TAG),
        (("project", "--method", "heuristic", *_CLEAN), "clean_target.conll",
         b"New York City", "expected 'token' or 'token tag', got 3 fields"),
    ],
    ids=["target", "labeled", "spans", "candidates-target", "pred", "gold", "target-three-fields"],
)
def test_whole_file_format_errors_name_their_file(tmp_path, argv, bad, line, message):
    contents = _input_files(argv)
    lines = contents[bad].split(b"\n")
    lines[1] = line
    contents[bad] = b"\n".join(lines)

    code, out, err = _run_in(tmp_path, argv, contents)
    assert (code, out, err) == (2, "", f"format error: {tmp_path / bad}: line 2: {message}\n")
    # no output and no temp file: the directory holds the inputs alone
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(contents)


# Fragments of every input grammar, so that joined runs of them get past the
# first parse check more often than uniform random bytes do.
_PIECES = [
    b"0", b"1", b"2", b"9", b"-", b" ", b"\t", b"\n", b"\n\n", b"\r", b"x", b"Mia",
    b"O", b"B-PER", b"I-PER", b"B-LOC", b"I-", b"[", b"]", b"|||", b"PER\t", b"=",
    b"#", b"solver", b"method", b"{", b"}", b'"', b":", b",", b'"spans"', b'"start"',
    b'"end"', b'"sentence_id"', b"\xef\xbb\xbf", b"\xff", b"\xc3\xa9", b"\xe2\x80\xa8",
]


@settings(max_examples=200, deadline=None)
@given(
    argv=st.sampled_from([
        ("project", "--method", "heuristic", *_CLEAN),
        ("project", "--skip-bad-sentences", "--config", "run.cfg", *_CLEAN),
        ("project", "--candidates", "ner", "--solver", "assignment", "--spans", "spans.jsonl",
         *_CLEAN),
        ("project", "--skip-bad-sentences", *_ROUND_TRIP),
        ("solve", "--sentence", "1", *_CLEAN),
        ("evaluate", "clean_gold.conll", "clean_source.conll"),
    ]),
    data=st.data(),
)
def test_any_input_bytes_give_an_exit_code_and_readable_output(tmp_path_factory, argv, data):
    """Arbitrary bytes in one input file: an exit code, never a traceback."""
    contents = _input_files(argv)
    victim = data.draw(st.sampled_from(sorted(contents)), label="file")
    pieces = st.lists(st.sampled_from(_PIECES), max_size=60).map(b"".join)
    payload = data.draw(st.one_of(st.binary(max_size=120), pieces), label="payload")
    # Replace the whole file, or splice the payload into the valid one.
    original = contents[victim]
    start = data.draw(st.integers(0, len(original)), label="start")
    end = data.draw(st.integers(start, len(original)), label="end")
    whole = data.draw(st.booleans(), label="whole file")
    contents[victim] = payload if whole else original[:start] + payload + original[end:]

    root = tmp_path_factory.getbasetemp() / "fuzz"
    root.mkdir(exist_ok=True)
    (root / "out.conll").unlink(missing_ok=True)
    code, _, _ = _run_in(root, argv, contents)
    assert code in (0, 1, 2, 3)
    if argv[0] == "project":
        # a failing run leaves no file; a written one parses back
        assert (root / "out.conll").exists() == (code == 0)
        if code == 0:
            parse_conll((root / "out.conll").read_text(encoding="utf-8"))


@pytest.mark.parametrize("solver", ["greedy"])
def test_solvers_without_coverage_refuse_require_all_mode(tmp_path, capsys, solver):
    refused = (1, "", f"usage error: {solver} solving cannot guarantee REQUIRE_ALL coverage\n")
    out = tmp_path / "p.conll"
    assert project_noisy(capsys, out, "--solver", solver, "--mode", "all") == refused
    assert not out.exists()
    assert run(
        capsys,
        "solve",
        "--labeled", fixture("noisy_source.conll"),
        "--target", fixture("noisy_target.conll"),
        "--align", fixture("noisy.align"),
        "--sentence", "2", "--solver", solver, "--mode", "all",
    ) == refused


def test_atomic_write_replaces_and_cleans_up(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old", encoding="utf-8")
    atomic_write(path, "new contents\n")
    assert path.read_text(encoding="utf-8") == "new contents\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_an_out_that_is_a_symbolic_link_is_written_through(tmp_path, capsys):
    data, links = tmp_path / "data", tmp_path / "links"
    data.mkdir()
    links.mkdir()
    real, link, plain = data / "real.conll", links / "link.conll", tmp_path / "plain.conll"
    real.write_text("old\n", encoding="utf-8")
    real.chmod(0o640)
    link.symlink_to(real)
    assert project(capsys, link) == (0, "", "")
    assert project(capsys, plain) == (0, "", "")
    assert link.is_symlink() and os.readlink(link) == str(real)
    assert real.read_bytes() == plain.read_bytes()
    assert real.stat().st_mode & 0o7777 == 0o640
    assert (list(data.iterdir()), list(links.iterdir())) == ([real], [link])
    assert sorted(tmp_path.iterdir()) == sorted([data, links, plain])  # no temp file


def test_a_dangling_out_link_creates_its_target_and_errors_name_the_link(tmp_path, capsys):
    dangling, broken = tmp_path / "dangling.conll", tmp_path / "broken.conll"
    loop, back = tmp_path / "loop.conll", tmp_path / "back.conll"
    dangling.symlink_to("made.conll")
    broken.symlink_to("missing/x.conll")
    loop.symlink_to(back.name)
    back.symlink_to(loop.name)
    assert project(capsys, dangling) == (0, "", "")
    assert dangling.is_symlink() and (tmp_path / "made.conll").is_file()
    assert project(capsys, broken) == (
        2, "", f"io error: [Errno 2] No such file or directory: '{broken}'\n"
    )
    assert project(capsys, loop) == (
        2, "", f"io error: [Errno {errno.ELOOP}] {os.strerror(errno.ELOOP)}: '{loop}'\n"
    )
    assert loop.is_symlink() and back.is_symlink()
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "back.conll", "broken.conll", "dangling.conll", "loop.conll", "made.conll"
    ]


@contextlib.contextmanager
def _umask(mask: int):
    old = os.umask(mask)
    try:
        yield
    finally:
        os.umask(old)


@pytest.mark.parametrize("umask", [0o022, 0o027], ids=["umask-022", "umask-027"])
def test_output_files_get_the_mode_open_would_leave(tmp_path, capsys, umask):
    new, replaced = tmp_path / "new.conll", tmp_path / "replaced.conll"
    candidates = tmp_path / "c.jsonl"
    replaced.write_text("old\n", encoding="utf-8")
    replaced.chmod(0o604)
    with _umask(umask):
        assert project(capsys, new) == (0, "", "")
        assert project(capsys, replaced) == (0, "", "")
        assert run(
            capsys, "candidates", "--target", fixture("clean_target.conll"),
            "--out", str(candidates),
        ) == (0, "", "")
    # a new file is 0o666 less the umask; a replaced one keeps its mode
    assert tuple(path.stat().st_mode & 0o7777 for path in (new, candidates, replaced)) == (
        0o666 & ~umask, 0o666 & ~umask, 0o604
    )
    assert replaced.read_bytes() == new.read_bytes()
    assert sorted(tmp_path.iterdir()) == sorted([new, replaced, candidates])  # no temp file


@pytest.mark.parametrize(
    ("out", "error"),
    [
        ("missing/x.conll", "[Errno 2] No such file or directory"),
        ("adir", "[Errno 21] Is a directory"),
    ],
    ids=["missing-directory", "a-directory"],
)
def test_an_io_error_on_out_names_the_out_path(tmp_path, capsys, out, error):
    (tmp_path / "adir").mkdir()
    path = tmp_path / out
    expected = (2, "", f"io error: {error}: '{path}'\n")
    assert project(capsys, path) == expected
    assert project(capsys, path) == expected
    assert list(tmp_path.iterdir()) == [tmp_path / "adir"]
    assert list((tmp_path / "adir").iterdir()) == []
