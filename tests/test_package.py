"""The package surface, and which modules each command loads.

The package root resolves its names lazily, and each CLI command imports
only the modules it runs. The footprint tests run the command in a fresh
interpreter and read its ``sys.modules`` afterwards.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import spanproject
from helpers import FIXTURES, write_round_trip_corpus

ROOT = FIXTURES.parents[1]

# Runs main() on the command line it is given, then prints, after the
# command's own output and a marker line, the exit code, one flag per os.fork
# call (whether the module named by SPANPROJECT_WATCH was loaded at that
# fork) and every loaded module, one per line. It imports nothing the tests
# look for.
_PROBE = """
import os, sys
from spanproject.cli import main

watched, forks = os.environ.get("SPANPROJECT_WATCH"), []
if watched:
    real_fork = os.fork

    def fork():
        forks.append(watched in sys.modules)
        return real_fork()

    os.fork = fork
    os.sched_getaffinity = lambda pid: set(range(8))  # two workers on any machine
code = main(sys.argv[1:])
print("--- probe ---")
print(code, forks)
print(*sorted(sys.modules), sep="\\n")
"""


# No command loads these: dataclasses (which imports inspect) costs several
# milliseconds of start-up, and the value types are plain slotted classes.
NEVER_LOADED = {"dataclasses", "inspect"}


def run_probe(*argv: str, watch: str | None = None) -> tuple[str, set[str]]:
    """(exit code and fork flags line, loaded module names) of one fresh run."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("SPANPROJECT_WATCH", None)
    if watch is not None:
        env["SPANPROJECT_WATCH"] = watch
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    first, *modules = proc.stdout.split("--- probe ---\n")[-1].splitlines()
    return first, set(modules)


def fixture(name: str) -> str:
    return str(FIXTURES / name)


def clean_project(out: Path, *extra: str) -> tuple[str, ...]:
    return (
        "project",
        "--labeled", fixture("clean_source.conll"),
        "--target", fixture("clean_target.conll"),
        "--align", fixture("clean.align"),
        "--out", str(out),
        *extra,
    )


def round_trip_project(tmp_path, *extra: str) -> tuple[str, ...]:
    paths = write_round_trip_corpus(tmp_path, seed=11, n_sentences=6)
    return (
        "project", "--direction", "tgt2tgt",
        "--marked", str(paths["marked"]),
        "--translations", str(paths["translations"]),
        "--target", str(paths["target"]),
        "--align", str(paths["align"]),
        "--out", str(tmp_path / "rt.conll"),
        *extra,
    )


@pytest.mark.parametrize(
    ("argv", "loaded", "absent"),
    [
        (
            ("--method", "heuristic"),
            {"spanproject.projection"},
            {
                "spanproject.candidates",
                "spanproject.matching",
                "spanproject.evaluation",
                "spanproject.roundtrip",
                "json",
            }
            | NEVER_LOADED,
        ),
        (
            ("--method", "matching", "--jobs", "1"),
            {"spanproject.projection", "spanproject.matching"},
            {"spanproject.evaluation", "spanproject.roundtrip", "json"} | NEVER_LOADED,
        ),
    ],
    ids=["heuristic", "matching"],
)
def test_project_loads_only_what_its_method_runs(tmp_path, argv, loaded, absent):
    out = tmp_path / "p.conll"
    first, modules = run_probe(*clean_project(out, *argv))
    assert first == "0 []"
    assert out.exists()
    assert loaded <= modules
    assert modules & absent == set()


def test_evaluate_loads_neither_matcher_nor_round_trip():
    first, modules = run_probe(
        "evaluate", fixture("clean_gold.conll"), fixture("clean_gold.conll")
    )
    assert first == "0 []"
    assert "spanproject.evaluation" in modules
    assert modules & (
        {"spanproject.candidates", "spanproject.matching", "spanproject.roundtrip"} | NEVER_LOADED
    ) == set()


@pytest.mark.parametrize("command", ["solve"])
def test_solve_and_candidates_load_neither_dataclasses_nor_inspect(command):
    first, modules = run_probe(
        command, "--sentence", "0", "--labeled", fixture("clean_source.conll"),
        "--target", fixture("clean_target.conll"), "--align", fixture("clean.align"),
    )
    assert first == "0 []"
    assert modules & NEVER_LOADED == set()
    # the footprint README states: solve adds candidates and matching
    assert "spanproject.matching" in modules
    assert modules & {"spanproject.roundtrip", "spanproject.evaluation"} == set()


def test_matching_is_loaded_before_every_fork(tmp_path):
    first, modules = run_probe(
        *clean_project(tmp_path / "p.conll", "--jobs", "2"), watch="spanproject.matching"
    )
    assert first == "0 [True]"
    assert modules & NEVER_LOADED == set()


@pytest.mark.parametrize("method", ["heuristic", "matching"])
def test_forked_workers_load_no_json(tmp_path, method):
    # the workers' payloads are marshalled; json is only for span records and evaluate
    first, modules = run_probe(
        *clean_project(tmp_path / "p.conll", "--method", method, "--jobs", "2"), watch="json"
    )
    assert first == "0 [False]"
    assert modules & ({"json"} | NEVER_LOADED) == set()


def test_round_trip_is_loaded_before_every_fork(tmp_path):
    first, modules = run_probe(
        *round_trip_project(tmp_path, "--method", "heuristic", "--jobs", "2"),
        watch="spanproject.roundtrip",
    )
    assert first == "0 [True]"
    assert modules & ({"spanproject.matching"} | NEVER_LOADED) == set()


def test_importing_the_package_loads_no_submodule():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, spanproject; "
         "print(*sorted(m for m in sys.modules if m.startswith('spanproject.')))"],
        capture_output=True, text=True, env=env, timeout=60, check=True,
    )
    assert proc.stdout == "\n"


SURFACE = [
    "AlignmentSet", "CandidateSet", "CorpusDocument", "DataError", "EntitySpan",
    "EvalReport", "FormatError", "GuardError", "InfeasibleError", "LabelScores",
    "LabeledSentence", "MarkedSentence", "MatchMode", "MatchingProblem",
    "MatchingSolution", "Method", "ProjectionConfig", "Sentence", "Solver",
    "SourceKind", "SpanProjectError", "UsageError", "assign_marker_labels",
    "bio_decode", "bio_encode", "build_problem", "edit_distance", "evaluate",
    "external_candidates", "fuzzy_similarity", "ngram_candidates", "parse_conll",
    "parse_marked_sentence", "parse_pharaoh", "parse_span_records",
    "parse_translations_line", "project_heuristic", "project_matching",
    "render_problem", "render_report", "report_record", "serialize_conll",
    "serialize_pharaoh", "serialize_span_records", "solve_assignment_exact",
    "solve_exact", "solve_greedy", "spans_overlap", "validate_solution",
]


def test_package_surface_is_pinned():
    assert SURFACE == sorted(SURFACE) and len(SURFACE) == 49
    assert spanproject.__all__ == SURFACE
    # the test oracles live in tests/helpers.py, not in the package
    for name in ("solve_bruteforce", "solve_relaxed_mwis", "matching_cost"):
        with pytest.raises(AttributeError, match=f"no attribute '{name}'"):
            getattr(spanproject, name)


def test_every_exported_name_resolves():
    for name in spanproject.__all__:
        value = getattr(spanproject, name)
        assert getattr(value, "__name__", name) == name
    with pytest.raises(AttributeError, match="no attribute 'not_a_name'"):
        spanproject.not_a_name
    # in a fresh interpreter, so that importing each submodule is part of
    # the run: no name's resolution warns
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c",
         "import spanproject; [getattr(spanproject, n) for n in spanproject.__all__]"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, "")


def test_dir_lists_every_name_before_any_is_resolved():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, spanproject; "
         "print(set(spanproject.__all__) <= set(dir(spanproject))); "
         "print(*sorted(m for m in sys.modules if m.startswith('spanproject.')))"],
        capture_output=True, text=True, env=env, timeout=60, check=True,
    )
    # listing the names imports no submodule
    assert proc.stdout == "True\n\n"
    assert set(spanproject.__all__) <= set(dir(spanproject))


def test_star_import_binds_every_name():
    namespace: dict = {}
    exec("from spanproject import *", namespace)
    assert {name: namespace[name] for name in spanproject.__all__} == {
        name: getattr(spanproject, name) for name in spanproject.__all__
    }


def test_match_mode_is_one_class():
    from spanproject import core, matching

    assert matching.MatchMode is core.MatchMode is spanproject.MatchMode


def test_source_kind_is_one_class():
    from spanproject import candidates, core

    assert candidates.SourceKind is core.SourceKind is spanproject.SourceKind


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    library = readme.split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", library, re.DOTALL)
    exec(compile(block.group(1), "README.md", "exec"), {})
