#!/usr/bin/env python3
"""The shardbench benchmark: scan, compare and generate workloads against the CLI.

Run from the repository root:

    python3 perfbench/run.py --workload analyze-md5 --seed 1 --seconds 30 --trace 0

Workloads (the seed makes the inputs; the program only sees the files):

  analyze-md5  `analyze <corpus> --strategy md5 --level 1 --format json` with
               auto workers over a name-like corpus of more than 4 MiB, so the
               process pool engages, with seeded dirty lines. Drives model
               normalization, md5 placement, histogramming, the reject report
               and the pool.
  compare-all  `compare` of letter, ascii-sum, md5 and mapping:10000,20 at levels
               0 and 1 with SHARDBENCH_THREADS=1 over a clean name-like corpus.
               Serial, so a scan-kernel or single-pass gain shows undiluted by
               pool start-up, and letter and ascii-sum placement are covered.
  gen-corpus   `gen-corpus --model name-like`: the write side, the generator and
               its dedupe set; none of the scan layers.

Load is a closed loop with one client: one CLI invocation at a time, each
started when the previous one has been reaped. Every invocation's output is
checked against the stdlib oracle in `oracle.py`.

--trace 0 prints the end-to-end metrics, measured with tracing off: the median
wall time of one invocation, its tail, input lines (or names written) per
second, CPU time and peak RSS of the invocation's own process tree (from
wait4, so no other invocation's children count), and set-up time, the median
wall time of the same verb on a one-line input.

--trace 1 prints the per-layer metrics: the same invocation called in this
process, serial, with the public functions of each module traced from
outside (see `spans.py`), next to an untraced call for the tracing overhead
and a serial and an auto-worker subprocess run for the parallel efficiency.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. Lines before it are a human-readable summary and a `record` line
with the machine, the sample counts and the sha256 of every input and
output, so two commits can be shown to have read and written the same bytes.

The benchmark's self-tests: python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import inputs
import oracle
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

ANALYZE_NAMES = 420_000  # about 4.5 MB with dirty lines: over the CLI's 4 MiB parallel threshold
PARALLEL_MIN_BYTES = 4 << 20
COMPARE_NAMES = 20_000
COMPARE_SPECS = ["letter", "ascii-sum", "md5", "mapping:10000,20"]
COMPARE_LEVELS = [0, 1]
GEN_NAMES = 100_000
NAME_LENGTHS = (3, 12)  # gen-corpus defaults

MIN_SAMPLES = 11  # the tail percentile needs ten samples beyond it
SAMPLING_DEADLINE_S = 140  # stop sampling here whatever the count, to exit within 180 s

WORKLOADS = ("analyze-md5", "compare-all", "gen-corpus")

END_TO_END_UNITS = {
    "wall_s": "s", "wall_s.tail": "s", "lines_per_s": "1/s",
    "cpu_s": "s", "peak_rss_mb": "MiB", "setup_s": "s",
}
PER_LAYER_UNITS = {
    "corpus.generate_s": "s", "corpus.load_corpus_s": "s",
    "model.normalize_username_s": "s", "model.rejected": "count",
    "strategies.md5_placement_s": "s", "strategies.md5_digest_s": "s",
    "strategies.letter_placement_s": "s", "strategies.ascii_sum_placement_s": "s",
    "stats.build_histogram_s": "s", "stats.build_mapping_histogram_s": "s",
    "stats.merge_histograms_s": "s", "stats.compute_stats_s": "s",
    "cli.main_s": "s", "cli.self_s": "s", "cli.read_amp": "ratio",
    "cli.workers": "count", "cli.parallel_efficiency": "ratio", "trace_overhead_s": "s",
}


class SetupError(Exception):
    """The inputs could not be made; the run ends without a result."""


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# --- one CLI invocation in its own process tree ---------------------------------

@dataclass
class Sample:
    code: int
    stdout: bytes
    stderr: bytes
    wall: float
    cpu: float
    rss_mb: float
    workers: int | None


def _child_env(threads: str | None) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "SHARDBENCH_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONIOENCODING"] = "utf-8"
    if threads is not None:
        env["SHARDBENCH_THREADS"] = threads
    return env


class Launcher:
    """Runs `python -m shardbench.cli argv` through `launcher.py`, one invocation at a time.

    The launcher forks each invocation from a small process and reaps it with
    wait4, which gives the CPU time of its whole process tree and the largest
    peak RSS in it, untouched by earlier invocations and by this process's heap.
    """

    def __init__(self, work: Path) -> None:
        self.work = work
        self.proc = subprocess.Popen([sys.executable, str(Path(__file__).with_name("launcher.py"))],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def invoke(self, argv: list[str], threads: str | None, probe: bool = False) -> Sample:
        out_path, err_path = self.work / "stdout", self.work / "stderr"
        request = {"argv": [sys.executable, "-m", "shardbench.cli", *argv],
                   "env": _child_env(threads), "cwd": str(ROOT),
                   "stdout": str(out_path), "stderr": str(err_path), "probe": probe}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise SetupError("the launcher process ended")
        result = json.loads(reply)
        return Sample(result["code"], out_path.read_bytes(), err_path.read_bytes(), result["wall"],
                      result["cpu"], result["rss_kb"] / 1024, result["workers"] if probe else None)


# --- workloads --------------------------------------------------------------------

@dataclass
class Case:
    """One workload, made from a seed: how to invoke it and how to check it."""

    argv: list[str]
    threads: str | None  # SHARDBENCH_THREADS for the invocation; None is auto
    lines: int  # input lines one invocation scans, or names it writes
    check: Callable[[bytes, bytes], tuple[list[str], bytes]]  # -> (problems, output)
    setup_argv: list[str]
    setup_check: Callable[[bytes, bytes], tuple[list[str], bytes]]
    read_base: int  # bytes one pass reads: the corpus size (for gen-corpus, bytes written)
    model_rejects: int  # lines the oracle expects normalize_username to reject
    inputs: dict[str, str] = field(default_factory=dict)  # input file -> sha256


def _generate(launcher: Launcher, name: str, count: int, seed: int) -> bytes:
    """A clean name-like corpus from the program's own generator."""
    path = launcher.work / name
    sample = launcher.invoke(["gen-corpus", "--model", "name-like", "--count", str(count),
                              "--seed", str(seed), "-o", str(path)], None)
    if sample.code != 0:
        raise SetupError(f"gen-corpus exited {sample.code}: {sample.stderr.decode()[-300:]}")
    return path.read_bytes()


def _stdout_check(check, expected):
    return lambda out, err: (check(out, err, expected), out)


def analyze_md5(launcher: Launcher, seed: int, auto_threads: str | None) -> Case:
    work = launcher.work
    clean = _generate(launcher, "clean.txt", ANALYZE_NAMES, seed)
    data = inputs.inject_dirty(clean, seed)
    if len(data) <= PARALLEL_MIN_BYTES:
        raise SetupError(f"corpus of {len(data)} bytes would not engage the worker pool")
    corpus, one = work / "analyze.txt", work / "one.txt"
    corpus.write_bytes(data)
    one_data = clean[: clean.index(b"\n") + 1]
    one.write_bytes(one_data)
    flags = ["--strategy", "md5", "--level", "1", "--format", "json"]
    expected = oracle.expected_analyze(data, "md5", 1)
    return Case(
        argv=["analyze", str(corpus), *flags], threads=auto_threads,
        lines=data.count(b"\n"),
        check=_stdout_check(oracle.check_analyze, expected),
        setup_argv=["analyze", str(one), *flags],
        setup_check=_stdout_check(oracle.check_analyze, oracle.expected_analyze(one_data, "md5", 1)),
        read_base=len(data), model_rejects=expected["model_rejects"],
        inputs={"analyze.txt": sha256(data), "one.txt": sha256(one_data)},
    )


def compare_all(launcher: Launcher, seed: int, auto_threads: str | None) -> Case:
    work = launcher.work
    data = _generate(launcher, "compare.txt", COMPARE_NAMES, seed)
    one_data = data[: data.index(b"\n") + 1]
    corpus, one = work / "compare.txt", work / "one.txt"
    one.write_bytes(one_data)
    flags = [arg for spec in COMPARE_SPECS for arg in ("--strategy", spec)]
    flags += [arg for level in COMPARE_LEVELS for arg in ("--level", str(level))]
    expected = oracle.expected_compare(data, COMPARE_SPECS, COMPARE_LEVELS, (1, COMPARE_NAMES))
    expected_one = oracle.expected_compare(one_data, COMPARE_SPECS, COMPARE_LEVELS, (1, 1))
    return Case(
        argv=["compare", str(corpus), *flags, "--ids", f"1..{COMPARE_NAMES}"], threads="1",
        lines=data.count(b"\n"),
        check=_stdout_check(oracle.check_compare, expected),
        setup_argv=["compare", str(one), *flags, "--ids", "1..1"],
        setup_check=_stdout_check(oracle.check_compare, expected_one),
        read_base=len(data), model_rejects=expected["model_rejects"],
        inputs={"compare.txt": sha256(data), "one.txt": sha256(one_data)},
    )


def gen_corpus(launcher: Launcher, seed: int, auto_threads: str | None) -> Case:
    def argv(count: int, path: Path) -> list[str]:
        return ["gen-corpus", "--model", "name-like", "--count", str(count),
                "--seed", str(seed), "-o", str(path)]

    def checker(count: int, path: Path):
        verdicts: dict[str, list[str]] = {}  # output sha256 -> problems; the output is deterministic

        def check(out: bytes, err: bytes) -> tuple[list[str], bytes]:
            data = path.read_bytes()
            digest = sha256(data)
            if digest not in verdicts:
                verdicts[digest] = oracle.check_generated(data, count, *NAME_LENGTHS)
            problems = list(verdicts[digest])
            if f"wrote {count} names".encode() not in err:
                problems.append("no 'wrote N names' line on stderr")
            return problems, data
        return check

    big, one = launcher.work / "generated.txt", launcher.work / "one.txt"
    return Case(
        argv=argv(GEN_NAMES, big), threads=auto_threads, lines=GEN_NAMES,
        check=checker(GEN_NAMES, big),
        setup_argv=argv(1, one), setup_check=checker(1, one),
        read_base=0, model_rejects=0,
    )


PREPARE = {"analyze-md5": analyze_md5, "compare-all": compare_all, "gen-corpus": gen_corpus}


# --- running and checking -----------------------------------------------------------

class Ledger:
    """Counts invocations and failures, and the sha256 of every output seen."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.outputs: dict[str, int] = {}

    def judge(self, label: str, code: int, stdout: bytes, stderr: bytes, check) -> None:
        self.attempted += 1
        if code != 0:
            problems, output = [f"exit code {code}: {stderr.decode('utf-8', 'replace')[-200:]}"], b""
        else:
            problems, output = check(stdout, stderr)
            digest = sha256(output)
            self.outputs[f"{label}:{digest}"] = self.outputs.get(f"{label}:{digest}", 0) + 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems[:3])


def tail(walls: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of the highest percentile with ten samples beyond it.

    With fewer than eleven samples no percentile has ten beyond it, and the
    maximum is reported with the count that is beyond it: none.
    """
    ordered = sorted(walls)
    rank = len(ordered) - 10 if len(ordered) > 10 else len(ordered)
    return ordered[rank - 1], 100.0 * rank / len(ordered), len(ordered) - rank


def run_end_to_end(case: Case, seconds: int, launcher: Launcher, ledger: Ledger, began: float):
    # Untimed first calls: the set-up call compiles .pyc files, the full one counts workers.
    setup = launcher.invoke(case.setup_argv, case.threads)
    ledger.judge("setup", setup.code, setup.stdout, setup.stderr, case.setup_check)
    warm = launcher.invoke(case.argv, case.threads, probe=True)
    ledger.judge("run", warm.code, warm.stdout, warm.stderr, case.check)

    # Set-up calls alternate with full ones, so both see the same spells of machine load.
    samples: list[Sample] = []
    setup_walls: list[float] = []
    start = time.perf_counter()
    while (time.perf_counter() - start < seconds or len(samples) < MIN_SAMPLES) \
            and time.perf_counter() - began < SAMPLING_DEADLINE_S:
        sample = launcher.invoke(case.argv, case.threads)
        ledger.judge("run", sample.code, sample.stdout, sample.stderr, case.check)
        samples.append(sample)
        setup = launcher.invoke(case.setup_argv, case.threads)
        ledger.judge("setup", setup.code, setup.stdout, setup.stderr, case.setup_check)
        setup_walls.append(setup.wall)

    walls = [s.wall for s in samples]
    wall = statistics.median(walls)
    tail_value, tail_pct, beyond = tail(walls)
    metrics = {
        "wall_s": wall,
        "wall_s.tail": tail_value,
        "lines_per_s": case.lines / wall,
        "cpu_s": statistics.median(s.cpu for s in samples),
        "peak_rss_mb": statistics.median(s.rss_mb for s in samples),
        "setup_s": statistics.median(setup_walls),
    }
    notes = {
        "wall_s": f"median of {len(walls)} invocations",
        "wall_s.tail": f"p{tail_pct:.1f} of {len(walls)}, {beyond} samples beyond it",
        "lines_per_s": f"{case.lines} lines / median wall",
        "cpu_s": "median user+sys of the invocation's process tree",
        "peak_rss_mb": "median of the largest peak RSS in the invocation's process tree",
        "setup_s": f"median of {len(setup_walls)} one-line invocations",
    }
    detail = {"samples": len(walls), "tail_percentile": round(tail_pct, 1),
              "auto_workers": warm.workers, "walls": [round(w, 4) for w in walls]}
    return metrics, notes, detail


def run_traced(case: Case, seconds: int, launcher: Launcher, ledger: Ledger, began: float):
    sys.path.insert(0, str(SRC))
    import shardbench

    if Path(shardbench.__file__).resolve().parent != SRC / "shardbench":
        raise SetupError(f"imported shardbench from {shardbench.__file__}, not {SRC}")

    def in_process(label: str, threads: str | None, traced: bool):
        tracer = spans.Tracer() if traced else None
        result = spans.call_main(case.argv, threads, tracer)
        ledger.judge(label, result["code"], result["stdout"], result["stderr"], case.check)
        return result, tracer.summary() if tracer else None

    warm = spans.call_main(case.setup_argv, "1")  # imports and tables load before timing
    ledger.judge("setup", warm["code"], warm["stdout"], warm["stderr"], case.setup_check)
    rounds = []
    start = time.perf_counter()
    while True:
        auto = launcher.invoke(case.argv, case.threads, probe=True)
        ledger.judge("auto", auto.code, auto.stdout, auto.stderr, case.check)
        plain, _ = in_process("in-process", "1", traced=False)
        traced, totals = in_process("traced", "1", traced=True)
        merge = totals["stats.merge_histograms"]["incl"]
        efficiency = 1.0  # a serial invocation is its own serial baseline
        if auto.workers > 1:
            serial = launcher.invoke(case.argv, "1")
            ledger.judge("serial", serial.code, serial.stdout, serial.stderr, case.check)
            efficiency = serial.wall / (auto.wall * auto.workers)
            # Only a pooled scan merges; its workers record no spans.
            _, pooled = in_process("traced-pool", case.threads, traced=True)
            merge = pooled["stats.merge_histograms"]["incl"]
        rejected = totals["model.normalize_username"]["raised"]
        if rejected != case.model_rejects:
            ledger.problems.append(f"model rejected {rejected} names, oracle expects {case.model_rejects}")
        rounds.append({
            "corpus.generate_s": totals["corpus.generate_corpus"]["incl"],
            "corpus.load_corpus_s": totals["corpus.load_corpus"]["self"] + totals["cli._iter_range"]["self"],
            "model.normalize_username_s": totals["model.normalize_username"]["incl"],
            "model.rejected": rejected,
            "strategies.md5_placement_s": totals["strategies.md5_placement"]["incl"],
            "strategies.md5_digest_s": totals["strategies.md5_digest"]["incl"],
            "strategies.letter_placement_s": totals["strategies.letter_placement"]["incl"],
            "strategies.ascii_sum_placement_s": totals["strategies.ascii_sum_placement"]["incl"],
            "stats.build_histogram_s": totals["stats.build_histogram"]["self"],
            "stats.build_mapping_histogram_s": totals["stats.build_mapping_histogram"]["incl"],
            "stats.merge_histograms_s": merge,
            "stats.compute_stats_s": totals["stats.compute_stats"]["incl"],
            "cli.main_s": totals[spans.ROOT]["incl"],
            "cli.self_s": totals[spans.ROOT]["self"],
            "cli.read_amp": traced["read"] / case.read_base if case.read_base else 0.0,
            "cli.workers": auto.workers,
            "cli.parallel_efficiency": efficiency,
            "trace_overhead_s": traced["wall"] - plain["wall"],
        })
        if time.perf_counter() - start >= seconds or time.perf_counter() - began >= SAMPLING_DEADLINE_S:
            break
    metrics = {name: statistics.median(r[name] for r in rounds) for name in PER_LAYER_UNITS}
    notes = {name: f"median of {len(rounds)} traced calls" for name in PER_LAYER_UNITS}
    notes["cli.read_amp"] = f"bytes read / {case.read_base} corpus bytes"
    notes["cli.parallel_efficiency"] = "serial wall / (auto wall x workers)"
    detail = {"rounds": len(rounds), "auto_workers": rounds[-1]["cli.workers"],
              "bytes_read": traced["read"]}
    return metrics, notes, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    began = time.perf_counter()

    if not (SRC / "shardbench" / "cli.py").is_file():
        print(f"error: no program to benchmark at {SRC / 'shardbench'}", file=sys.stderr)
        return 2
    cpus, affinity = os.cpu_count() or 1, len(os.sched_getaffinity(0))
    # Auto mode sizes its pool from cpu_count; pin it to the CPUs this process may use.
    auto_threads = str(affinity) if affinity < cpus else None
    ledger = Ledger()
    with tempfile.TemporaryDirectory(prefix=".work-", dir=Path(__file__).parent) as tmp:
        launcher = Launcher(Path(tmp))
        try:
            case = PREPARE[args.workload](launcher, args.seed, auto_threads)
            run = run_traced if args.trace else run_end_to_end
            metrics, notes, detail = run(case, args.seconds, launcher, ledger, began)
        except SetupError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        finally:
            launcher.close()
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS

    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{ledger.attempted} invocations, {ledger.failed} failed")
    for name, unit in units.items():
        print(f"  {name:34} {metrics[name]:>14.6g} {unit:6} {notes[name]}")
    print(f"  {'failed_ratio':34} {ledger.failed / max(ledger.attempted, 1):>14.6g} {'ratio':6} "
          f"{ledger.failed} of {ledger.attempted} invocations")
    for problem in ledger.problems[:10]:
        print(f"  problem: {problem}")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "machine": {
            "cpu_count": cpus, "affinity_cpus": affinity, "python": platform.python_version(),
            "inherited_SHARDBENCH_THREADS": os.environ.get("SHARDBENCH_THREADS"),
            "SHARDBENCH_THREADS": case.threads, "pinned_to_affinity": auto_threads is not None,
        },
        **detail, "inputs": case.inputs, "outputs": ledger.outputs,
        "failed_ratio": ledger.failed / max(ledger.attempted, 1),
    }
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": ledger.failed == 0 and not ledger.problems,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
