"""Projection benchmark: run one workload on one seed and print one JSON line.

    python3 bench/run.py --workload heuristic --seed 1 --seconds 50 --trace 0

Run it from the root of a checkout of the repository; it imports and
runs the package under `src/` beside `bench/`, and writes only under
`bench/_work/`. It generates the workload's corpus from the seed, runs the
real `spanproject project` CLI as a child process (one at a time, a closed
loop of one client), checks every output and prints, as the last line of
standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones (tracing off); with
`--trace 1` they are per-layer times and counts from the traced in-process
pipeline in `pipeline.py`. The exit code is 1 when any check failed.
See README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"

if __name__ == "__main__" and not (SRC / "spanproject" / "__init__.py").is_file():
    sys.exit(f"bench: no spanproject package at {SRC / 'spanproject'}; run inside a checkout")
sys.path.insert(0, str(SRC))

from spanproject import SpanProjectError, parse_conll  # noqa: E402

from check import (  # noqa: E402
    Quality,
    check_output,
    parse_checked,
    quality,
    skipped_sentences,
)
from corpus import WORKLOADS, Corpus, CorpusError, WorkloadSpec, generate, self_check  # noqa: E402
from pipeline import (  # noqa: E402
    CheckFailed,
    Inputs,
    Tracer,
    layer_metrics,
    project_files,
    sentence_ms,
)

SETUP_RUNS = 9  # fewest one-sentence invocations per run; setup_s is their median
MIN_RUNS = 3  # full-corpus invocations per run, however short --seconds is
MIN_PASSES = 2  # traced in-process passes per --trace 1 run
INVOCATION_TIMEOUT_S = 120

# Machine-speed probe. On the shared reference host the CPU runs fast or
# slow for stretches of a fraction of a second to minutes as neighbours come
# and go, and the share of slow time in a run moves run-level throughput by
# 10-25%, more than the changes this benchmark exists to show. The probe is
# a fixed child process (interpreter start, standard-library imports, a
# fixed pure-Python loop) that runs none of the package's code. One probe
# runs right before each set-up and full invocation, so the probes sample
# the same fast/slow mix as the invocations, and the time metrics are
# rescaled by the probes' mean time against PROBE_REFERENCE_S, the probe's
# typical time on the two-core reference machine. A change to the package
# moves the metrics exactly as it moves wall time.
PROBE_REFERENCE_S = 0.15
_PROBE_CODE = """
import argparse, json, tempfile
from fractions import Fraction
rows = []
for i in range(1, 30000):
    words = ("w%d x%d" % (i, i * 7 % 13)).split()
    rows.append((words, Fraction(len(words[0]), i % 7 + 1)))
"""


@dataclass
class Invocation:
    returncode: int
    wall_s: float
    peak_rss_mb: float
    output: str | None
    stderr: str


def invoke_project(flags: list[str], inputs: Inputs, out: Path) -> Invocation:
    """Run `spanproject project` once as a child process and wait for it."""
    argv = [sys.executable, "-m", "spanproject.cli", "project", *flags, "--out", str(out)]
    for flag, path in (
        ("--target", inputs.target),
        ("--align", inputs.align),
        ("--labeled", inputs.labeled),
        ("--marked", inputs.marked),
        ("--translations", inputs.translations),
        ("--spans", inputs.spans),
    ):
        if path is not None:
            argv += [flag, str(path)]
    out.unlink(missing_ok=True)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with tempfile.TemporaryFile(dir=out.parent) as err:
        start = perf_counter()
        proc = subprocess.Popen(
            argv, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err, env=env
        )
        # A hung child is killed; its exit code then fails the output check.
        timer = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode("utf-8", "replace")
    output = out.read_text(encoding="utf-8") if out.exists() else None
    return Invocation(proc.returncode, wall, usage.ru_maxrss / 1024, output, stderr)


def probe() -> float:
    """Wall time of one run of the machine-speed probe."""
    start = perf_counter()
    subprocess.run(
        [sys.executable, "-c", _PROBE_CODE],
        stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, check=True,
        timeout=INVOCATION_TIMEOUT_S,
    )
    return perf_counter() - start


class Case:
    """One corpus written to disk, with its expected output and gold."""

    def __init__(self, corpus: Corpus, directory: Path):
        files = corpus.write(directory)
        self.inputs = Inputs.from_roles(files)
        self.out = directory / "out.conll"
        self.flags = corpus.spec.flags()
        self.config = corpus.spec.config()
        self.sentences = len(corpus.sentences)
        self.source_entities = corpus.source_entities
        self.target = parse_conll(files["target"].read_text(encoding="utf-8"))
        self.gold = parse_conll(files["gold"].read_text(encoding="utf-8"))

    def reference(self, tracer: Tracer) -> tuple[str, list[int], Quality, float]:
        """Project in process; the output must pass the checks the CLI's must.

        The benchmark's own objects are frozen out of the garbage collector
        while the pipeline runs, so collections cost what they cost in a
        fresh CLI process. Returns the output, the skipped sentences, the
        quality and the pipeline's wall time.
        """
        gc.collect()
        gc.freeze()
        try:
            start = perf_counter()
            result = project_files(self.inputs, self.config, tracer)
            wall_s = perf_counter() - start
        finally:
            gc.unfreeze()
        pred = parse_checked(result.text, self.target)
        return result.text, result.skipped, quality(pred, self.gold, self.source_entities), wall_s


class Tally:
    """Sentences attempted and failed; a failed check fails all its sentences."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.checks_failed = 0

    def ok(self, sentences: int, skipped: int) -> None:
        self.attempted += sentences
        self.failed += skipped

    def fail(self, sentences: int, reason: str) -> None:
        print(f"check failed: {reason}", file=sys.stderr)
        self.attempted += sentences
        self.failed += sentences
        self.checks_failed += 1


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_workload(
    spec: WorkloadSpec, seed: int, seconds: float, trace: bool, tmp: Path, spans_out: Path
) -> dict:
    """Generate, check and measure one workload; return the result record."""
    corpus = generate(spec, seed)
    tally = Tally()
    try:
        self_check(corpus)
        full = Case(corpus, tmp / "full")
        one = Case(corpus.head(1), tmp / "one")
        one_expected, one_skipped, _, _ = one.reference(Tracer())
        first_tracer = Tracer()
        expected, skipped, qual, first_pass_s = full.reference(first_tracer)
    except (CorpusError, CheckFailed, SpanProjectError) as exc:
        tally.fail(spec.sentences, str(exc))
        return {"correct": False, "attempted": tally.attempted, "failed": tally.failed,
                "metrics": {}}

    def cli(case: Case, want: str, want_skipped: list[int]) -> Invocation:
        """One checked CLI invocation."""
        inv = invoke_project(case.flags, case.inputs, case.out)
        try:
            check_output(inv.returncode, inv.output, case.target, want)
            if skipped_sentences(inv.stderr) != want_skipped:
                raise CheckFailed("the CLI skipped other sentences than the pipeline")
        except CheckFailed as exc:
            tally.fail(case.sentences, f"{exc}\n{inv.stderr}")
        else:
            tally.ok(case.sentences, len(want_skipped))
        return inv

    cli(one, one_expected, one_skipped)  # warm-up: bytecode cache and page cache
    deadline = perf_counter() + seconds
    if not trace:
        # Set-up and full invocations alternate, each after a probe. The
        # throughput is the run's total against the probes' mean, not a
        # median: a median settles on the fast or the slow level, a total
        # moves smoothly with their mix. A set-up invocation is short like
        # its probe, so it is rescaled by the probe just before it.
        setup_ratios, runs, probes = [], [], []

        def setup_ratio() -> float:
            probes.append(probe())
            return cli(one, one_expected, one_skipped).wall_s / probes[-1]

        while len(runs) < MIN_RUNS or perf_counter() < deadline:
            setup_ratios.append(setup_ratio())
            probes.append(probe())
            runs.append(cli(full, expected, skipped))
        while len(setup_ratios) < SETUP_RUNS:
            setup_ratios.append(setup_ratio())
        slowdown = statistics.fmean(probes) / PROBE_REFERENCE_S
        throughput = full.sentences * len(runs) / sum(r.wall_s for r in runs)
        metrics = {
            "sentences_per_s": _metric(throughput * slowdown, "1/s"),
            "setup_s": _metric(statistics.median(setup_ratios) * PROBE_REFERENCE_S, "s"),
            "peak_rss_mb": _metric(statistics.median(r.peak_rss_mb for r in runs), "MB"),
            "f1": _metric(qual.f1, "ratio"),
            "yield": _metric(qual.yield_, "ratio"),
        }
    else:
        setups = [cli(one, one_expected, one_skipped) for _ in range(SETUP_RUNS)]
        cli_s = statistics.median(cli(full, expected, skipped).wall_s for _ in range(MIN_RUNS))
        passes = [(first_tracer, first_pass_s)]
        while len(passes) < MIN_PASSES or perf_counter() < deadline:
            tracer = Tracer()
            try:
                text, pass_skipped, _, pass_s = full.reference(tracer)
            except (CheckFailed, SpanProjectError) as exc:
                tally.fail(full.sentences, str(exc))
                break
            passes.append((tracer, pass_s))
            if text != expected or pass_skipped != skipped:
                tally.fail(full.sentences, "the traced pipeline is not deterministic")
            else:
                tally.ok(full.sentences, len(pass_skipped))
        metrics = _trace_metrics(passes, cli_s, statistics.median(r.wall_s for r in setups))
        passes[-1][0].write(spans_out)

    if not trace:
        metrics["success_frac"] = _metric(1 - tally.failed / tally.attempted, "ratio")
    return {
        "correct": tally.checks_failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }


_UNITS = {"_s": "s", "_ms_p50": "ms", "_ms_p99": "ms", "_ratio": "ratio", "_frac": "ratio"}


def _trace_metrics(passes: list[tuple[Tracer, float]], cli_s: float, setup_s: float) -> dict:
    """Median over traced passes of every layer metric, plus the CLI comparison."""
    per_pass = [layer_metrics(tracer) for tracer, _ in passes]
    values = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    pooled_ms = [ms for tracer, _ in passes for ms in sentence_ms(tracer)]
    values["cli.sentence_ms_p50"] = statistics.median(pooled_ms)
    values["cli.sentence_ms_p99"] = statistics.quantiles(pooled_ms, n=100)[98]
    check_s = [
        sum(end - start for name, _, _, start, end in tracer.spans if name == "bench.check") / 1e9
        for tracer, _ in passes
    ]
    traced_s = statistics.median(wall - check for (_, wall), check in zip(passes, check_s))
    values["cli.wall_s"] = cli_s
    values["cli.unattributed_s"] = cli_s - setup_s - values["layer.total_s"]
    values["trace.overhead_frac"] = traced_s / (cli_s - setup_s) - 1
    metrics = {}
    for name, value in values.items():
        unit = next((u for suffix, u in _UNITS.items() if name.endswith(suffix)), "count")
        metrics[name] = _metric(value, unit)
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Exit through the normal path on SIGTERM, so the running child is killed
    # and waited for and the temporary corpus is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK, prefix=f"{args.workload}-") as tmp:
        spans_out = WORK / f"spans-{args.workload}-seed{args.seed}.jsonl"
        result = run_workload(
            WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), Path(tmp),
            spans_out,
        )
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
