"""Tests for the benchmark's generator, output checker and traced pipeline.

Run from the repository root:

    PYTHONPATH=src python -m pytest -q bench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from spanproject import Method, ProjectionConfig, parse_conll

from check import check_output, parse_checked
from corpus import WORKLOADS, generate, self_check
from pipeline import CheckFailed, Inputs, Tracer, project_files
from run import invoke_project, run_workload

BENCH = Path(__file__).resolve().parent
FIXTURES = BENCH.parent / "tests" / "fixtures"


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_bytes_other_seed_other_bytes(name):
    spec = WORKLOADS[name]
    first = generate(spec, 7)
    self_check(first)
    again = generate(spec, 7).files()
    other = generate(spec, 8).files()
    assert first.files() == again
    for role, text in first.files().items():
        assert text != other[role], role


def _small_case(tmp_path: Path) -> tuple[str, Inputs]:
    spec = dataclasses.replace(WORKLOADS["heuristic"], sentences=20)
    inputs = Inputs.from_roles(generate(spec, 3).write(tmp_path))
    return project_files(inputs, spec.config(), Tracer()).text, inputs


def _drop_line(text: str) -> str:
    lines = text.split("\n")
    return "\n".join(lines[:3] + lines[4:])


def _flip_tag(text: str) -> str:
    lines = text.split("\n")
    k = next(k for k, line in enumerate(lines) if " B-" in line)
    token, tag = lines[k].split()
    lines[k] = f"{token} {'B-LOC' if tag != 'B-LOC' else 'B-PER'}"
    return "\n".join(lines)


def _truncate(text: str) -> str:
    return text[: len(text) // 2]


@pytest.mark.parametrize("corrupt", [_drop_line, _flip_tag, _truncate])
def test_checker_rejects_corrupted_output(tmp_path, corrupt):
    expected, inputs = _small_case(tmp_path)
    target = parse_conll(inputs.target.read_text(encoding="utf-8"))
    parse_checked(expected, target)
    check_output(0, expected, target, expected)
    bad = corrupt(expected)
    assert bad != expected
    with pytest.raises(CheckFailed):
        check_output(0, bad, target, expected)


def test_checker_rejects_failed_invocation(tmp_path):
    expected, inputs = _small_case(tmp_path)
    target = parse_conll(inputs.target.read_text(encoding="utf-8"))
    with pytest.raises(CheckFailed):
        check_output(2, expected, target, expected)
    with pytest.raises(CheckFailed):
        check_output(0, None, target, expected)


def _fixture_cases():
    src2tgt = {
        name: Inputs(
            target=FIXTURES / f"{name}_target.conll",
            align=FIXTURES / f"{name}.align",
            labeled=FIXTURES / f"{name}_source.conll",
        )
        for name in ("clean", "noisy")
    }
    backtrans = Inputs(
        target=FIXTURES / "backtrans_target.conll",
        align=FIXTURES / "backtrans.align",
        marked=FIXTURES / "backtrans.marked",
        translations=FIXTURES / "backtrans.trans",
    )
    for name, inputs in src2tgt.items():
        yield name + "-heuristic", inputs, ["--method", "heuristic"], Method.HEURISTIC
        yield name + "-matching", inputs, ["--method", "matching"], Method.CANDIDATE_MATCHING
    yield "backtrans", backtrans, ["--direction", "tgt2tgt"], Method.CANDIDATE_MATCHING


@pytest.mark.parametrize(
    "inputs,flags,method", [case[1:] for case in _fixture_cases()],
    ids=[case[0] for case in _fixture_cases()],
)
def test_traced_pipeline_matches_cli_on_fixtures(tmp_path, inputs, flags, method):
    traced = project_files(inputs, ProjectionConfig(method=method), Tracer())
    cli = invoke_project(flags, inputs, tmp_path / "out.conll")
    assert cli.returncode == 0, cli.stderr
    assert cli.output == traced.text
    assert traced.skipped == []


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_pipeline_matches_cli_on_workloads(tmp_path, name):
    spec = dataclasses.replace(WORKLOADS[name], sentences=30)
    files = generate(spec, 5).write(tmp_path)
    inputs = Inputs.from_roles(files)
    tracer = Tracer()
    traced = project_files(inputs, spec.config(), tracer)
    cli = invoke_project(spec.flags(), inputs, tmp_path / "out.conll")
    assert cli.returncode == 0, cli.stderr
    assert cli.output == traced.text
    assert {span[1] for span in tracer.spans if span[0] == "cli.sentence"} == set(range(30))


def test_self_time_subtracts_children():
    tracer = Tracer()
    tracer.spans = [
        ["cli.sentence", 0, -1, 0, 100],
        ["projection.matching", 0, 0, 10, 90],
        ["matching.build_problem", 0, 1, 20, 50],
        ["bench.check", 0, 0, 90, 95],
    ]
    assert tracer.self_times() == [15, 50, 30, 5]


def test_run_fails_without_the_package(tmp_path):
    ignore = shutil.ignore_patterns("_work", "__pycache__")
    shutil.copytree(BENCH, tmp_path / "bench", ignore=ignore)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "heuristic", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("trace,key", [(False, "end_to_end"), (True, "per_layer")])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_result_matches_benchmark_json(tmp_path, name, trace, key):
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"] for w in declared["workloads"]} <= set(WORKLOADS)
    spec = dataclasses.replace(WORKLOADS[name], sentences=10)
    result = run_workload(spec, 1, 0, trace, tmp_path, tmp_path / "spans.jsonl")
    assert result["correct"] and result["failed"] == 0
    units = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert units == {metric["name"]: metric["unit"] for metric in declared[key]}
