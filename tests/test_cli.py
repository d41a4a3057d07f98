import json
from fractions import Fraction

from spanproject.cli import atomic_write, main
from helpers import FIXTURES


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
    code, _, err = project_noisy(capsys, out, "--solver", "brute", "--mode", "all")
    assert code == 3
    assert "solver error" in err
    assert not out.exists()
    assert list(tmp_path.iterdir()) == []


def test_skip_bad_sentences_downgrades_to_warning(tmp_path, capsys):
    out = tmp_path / "pred.conll"
    code, _, err = project_noisy(
        capsys, out, "--solver", "brute", "--mode", "all", "--skip-bad-sentences"
    )
    assert code == 0
    assert "warning: sentence 2" in err
    text = out.read_text(encoding="utf-8")
    blocks = text.rstrip("\n").split("\n\n")
    assert blocks[2] == "Mia O\nliest O"
    assert "New B-LOC\nYork I-LOC\nCity I-LOC" in blocks[1]


def test_brute_force_guard_is_exit_3(tmp_path, capsys):
    n = 13
    labeled = tmp_path / "src.conll"
    target = tmp_path / "tgt.conll"
    align = tmp_path / "a.align"
    labeled.write_text("aaa B-PER\n", encoding="utf-8")
    target.write_text("".join(f"t{i}\n" for i in range(n)), encoding="utf-8")
    align.write_text("0-0\n", encoding="utf-8")
    out = tmp_path / "pred.conll"
    code, _, err = run(
        capsys,
        "project",
        "--labeled", str(labeled), "--target", str(target), "--align", str(align),
        "--out", str(out), "--solver", "brute", "--max-ngram", "1",
    )
    assert code == 3
    assert "solver error" in err
    assert not out.exists()


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
    assert "brute-force oracle: objective=1" in out


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


def test_solve_skips_oracle_beyond_guard(tmp_path, capsys):
    n = 13
    labeled = tmp_path / "src.conll"
    target = tmp_path / "tgt.conll"
    align = tmp_path / "a.align"
    labeled.write_text("aaa B-PER\n", encoding="utf-8")
    target.write_text("".join(f"t{i}\n" for i in range(n)), encoding="utf-8")
    align.write_text("0-0\n", encoding="utf-8")
    code, out, _ = run(
        capsys,
        "solve",
        "--labeled", str(labeled), "--target", str(target), "--align", str(align),
        "--sentence", "0", "--max-ngram", "1",
    )
    assert code == 0
    assert "greedy: objective=1/2" in out
    assert "brute-force oracle skipped" in out


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


def test_candidates_subcommand_rejects_external_source(tmp_path, capsys):
    code, _, err = run(
        capsys,
        "candidates",
        "--target", fixture("clean_target.conll"),
        "--out", str(tmp_path / "c.jsonl"),
        "--candidates", "ner",
    )
    assert code == 1
    assert "n-gram" in err


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


def test_jobs_must_be_positive(tmp_path, capsys):
    code, _, err = project(capsys, tmp_path / "p.conll", "--jobs", "0")
    assert code == 1
    assert "--jobs" in err


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


def test_atomic_write_replaces_and_cleans_up(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old", encoding="utf-8")
    atomic_write(path, "new contents\n")
    assert path.read_text(encoding="utf-8") == "new contents\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]
