"""End-to-end CLI behavior: verbs, formats, exit codes, parallel scanning."""

import csv
import json
import math
import os
import stat
import sys

import pytest

from shardbench import cli
from shardbench.cli import EXIT_EMPTY, EXIT_IO, EXIT_LIMIT, EXIT_OK, EXIT_USAGE, main
from shardbench.corpus import CorpusSpec, generate_corpus


@pytest.fixture(scope="module")
def corpus_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus") / "names.txt"
    with open(path, "w", encoding="utf-8") as out:
        for name in generate_corpus(CorpusSpec("name_like", 5_000, 5)):
            out.write(name + "\n")
    return str(path)


def test_no_arguments_is_a_usage_error(capsys):
    assert main([]) == EXIT_USAGE
    capsys.readouterr()


def test_gen_corpus_is_deterministic(tmp_path, capsys):
    a, b = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
    args = ["gen-corpus", "--model", "name-like", "--count", "200", "--seed", "11"]
    assert main(args + ["-o", a]) == EXIT_OK
    assert main(args + ["-o", b]) == EXIT_OK
    err = capsys.readouterr().err
    assert "wrote 200 names" in err
    with open(a, "rb") as fa, open(b, "rb") as fb:
        assert fa.read() == fb.read()


@pytest.mark.parametrize("count", [1, 3000])
def test_gen_corpus_to_stdout_writes_the_file_bytes(tmp_path, capfdbinary, count):
    args = ["gen-corpus", "--model", "name-like", "--count", str(count), "--seed", "11", "-o"]
    assert main(args + [str(tmp_path / "names.txt")]) == EXIT_OK
    capfdbinary.readouterr()
    assert main(args + ["-"]) == EXIT_OK
    out, err = capfdbinary.readouterr()
    assert out == (tmp_path / "names.txt").read_bytes()
    assert err == f"wrote {count} names (model=name-like, seed=11)\n".encode()
    assert os.listdir(tmp_path) == ["names.txt"]


def test_gen_corpus_overdrawn_space(tmp_path, capsys):
    code = main(["gen-corpus", "--model", "uniform", "--count", "38",
                 "--min-len", "1", "--max-len", "1",
                 "-o", str(tmp_path / "x.txt")])
    assert code == EXIT_USAGE
    assert "distinct" in capsys.readouterr().err


def test_analyze_json_schema(corpus_path, capsys):
    assert main(["analyze", corpus_path, "--strategy", "md5"]) == EXIT_OK
    out, err = capsys.readouterr()
    report = json.loads(out)
    assert list(report) == [
        "strategy", "config", "level", "bucket_count", "total", "skipped",
        "ideal_mean", "std_dev", "deviation_ratio", "counts",
    ]
    assert report["strategy"] == "md5"
    assert report["config"] == {"moduli": [64, 64, 128]}
    assert report["level"] == 0
    assert report["bucket_count"] == 64
    assert report["total"] == 5_000
    assert report["skipped"] == 0
    assert sum(report["counts"]) == 5_000
    assert report["ideal_mean"] == pytest.approx(5_000 / 64)
    assert "ideal_mean=" in err and "ratio=" in err and "skipped=0" in err


def test_analyze_no_counts(corpus_path, capsys):
    assert main(["analyze", corpus_path, "--strategy", "md5", "--no-counts"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert "counts" not in report


def test_analyze_csv(corpus_path, capsys):
    assert main(["analyze", corpus_path, "--strategy", "ascii-sum",
                 "--format", "csv"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "bucket,count"
    assert len(lines) == 1 + 31
    total = sum(int(line.split(",")[1]) for line in lines[1:])
    assert total == 5_000


def test_analyze_plot_data(corpus_path, capsys):
    assert main(["analyze", corpus_path, "--strategy", "letter",
                 "--format", "plot-data"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 37
    assert all(len(line.split(" ")) == 2 for line in lines)
    assert sum(int(line.split(" ")[1]) for line in lines) == 5_000


def test_analyze_level_one_joint_space(corpus_path, capsys):
    assert main(["analyze", corpus_path, "--strategy", "md5", "--level", "1",
                 "--no-counts"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["bucket_count"] == 64 * 64


def test_analyze_output_file(corpus_path, tmp_path, capsys):
    target = str(tmp_path / "report.json")
    assert main(["analyze", corpus_path, "--strategy", "md5",
                 "--no-counts", "-o", target]) == EXIT_OK
    out, _ = capsys.readouterr()
    assert out == ""
    with open(target, encoding="utf-8") as handle:
        assert json.load(handle)["strategy"] == "md5"


def test_analyze_reports_rejected_lines(tmp_path, capsys):
    path = tmp_path / "messy.txt"
    path.write_text("frank\nna me\n" + "x" * 65 + "\nbob\n", encoding="utf-8")
    assert main(["analyze", str(path), "--strategy", "md5", "--no-counts"]) == EXIT_OK
    out, err = capsys.readouterr()
    assert json.loads(out)["total"] == 2
    assert "line 2:" in err
    assert "line 3:" in err
    assert "2 lines rejected" in err


def test_analyze_empty_corpus(tmp_path, capsys):
    path = tmp_path / "empty.txt"
    path.write_text("\n\n", encoding="utf-8")
    assert main(["analyze", str(path), "--strategy", "md5"]) == EXIT_EMPTY
    capsys.readouterr()


def test_analyze_missing_file(capsys):
    assert main(["analyze", "/no/such/file", "--strategy", "md5"]) == EXIT_IO
    capsys.readouterr()


def test_analyze_level_out_of_range(corpus_path, capsys):
    assert main(["analyze", corpus_path, "--strategy", "md5",
                 "--level", "3"]) == EXIT_USAGE
    capsys.readouterr()


def test_analyze_mapping_even_range(capsys):
    assert main(["analyze", "--strategy", "mapping", "--bucket-size", "10",
                 "--servers", "10", "--ids", "1..1000", "--no-counts"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["strategy"] == "mapping"
    assert report["bucket_count"] == 10
    assert report["total"] == 1_000
    assert report["deviation_ratio"] == 0.0


LONG_IDS = "1..99999999999999999999"  # more IDs than sys.maxsize, so no len() of their range


def test_analyze_mapping_over_a_range_longer_than_maxsize(capsys):
    assert main(["analyze", "--strategy", "mapping", "--ids", LONG_IDS,
                 "--bucket-size", "1", "--servers", "3"]) == EXIT_OK
    out, err = capsys.readouterr()
    report = json.loads(out)
    assert report["total"] == 99999999999999999999
    assert report["counts"] == [33333333333333333333] * 3
    assert err.endswith(" skipped=0\n")


# Loads one apart past 2^53, where a float mean rounds them all to the same value.
@pytest.mark.parametrize("ids, servers, std_dev", [
    ("1..100000000000000000001", "3", math.sqrt(2 / 9)),  # loads n+1, n+1, n
    ("1..9007199254740993", "2", 0.5),  # loads n+1, n with n = 2^52
])
def test_analyze_mapping_spread_is_exact_past_2_to_the_53(ids, servers, std_dev, capsys):
    assert main(["analyze", "--strategy", "mapping", "--ids", ids, "--bucket-size", "1",
                 "--servers", servers, "--no-counts"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["std_dev"] == std_dev


@pytest.mark.parametrize("argv", [
    ["analyze", "--strategy", "mapping", "--ids", f"1..{10**400}", "--bucket-size", "1",
     "--servers", "3", "--no-counts"],
    ["compare", os.devnull, "--strategy", "mapping:1,3", "--strategy", "mapping:2,3",
     "--ids", f"1..{10**400}"],
    ["analyze", "--strategy", "mapping", "--ids", f"1..{10**200}",
     "--bucket-size", str(3 * 10**199), "--servers", "3", "--no-counts"],
], ids=["analyze-mean", "compare-mean", "analyze-variance"])
def test_a_spread_past_the_float_range_is_one_error_line(argv, tmp_path, capsys):
    out = tmp_path / "out.txt"
    out.write_bytes(b"old\n")
    assert main(argv + ["-o", str(out)]) == EXIT_USAGE
    assert capsys.readouterr() == ("", "error: integer division result too large for a float\n")
    assert out.read_bytes() == b"old\n"


def test_compare_mapping_over_a_range_longer_than_maxsize(corpus_path, capsys):
    assert main(["compare", corpus_path, "--strategy", "mapping:1,3", "--strategy", "md5",
                 "--ids", LONG_IDS, "--format", "csv"]) == EXIT_OK
    out, err = capsys.readouterr()
    rows = {row[0]: row for row in csv.reader(out.splitlines()[1:])}
    assert rows["mapping[1,3]"][1:5] == ["0", "3", "3.33333e+19", "0"]
    assert "md5" in rows
    assert err == ""


def test_analyze_mapping_requires_ids(capsys):
    assert main(["analyze", "--strategy", "mapping", "--bucket-size", "10",
                 "--servers", "10"]) == EXIT_USAGE
    capsys.readouterr()


def test_analyze_rejects_mapping_flags_on_md5(corpus_path, capsys):
    assert main(["analyze", corpus_path, "--strategy", "md5",
                 "--ids", "1..10"]) == EXIT_USAGE
    capsys.readouterr()


def test_analyze_rejects_bad_ids(capsys):
    assert main(["analyze", "--strategy", "mapping", "--bucket-size", "10",
                 "--servers", "10", "--ids", "10..1"]) == EXIT_USAGE
    capsys.readouterr()


def test_compare_sorts_by_ratio_within_level(corpus_path, capsys):
    assert main(["compare", corpus_path,
                 "--strategy", "letter", "--strategy", "ascii-sum",
                 "--strategy", "md5"]) == EXIT_OK
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0].split()[0] == "strategy"
    rows = [line.split() for line in lines[1:]]
    assert len(rows) == 3
    ratios = [float(row[5]) for row in rows]
    assert ratios == sorted(ratios)
    # A name-heavy corpus puts the first-letter scheme firmly last.
    assert rows[-1][0] == "letter"


def test_compare_csv(corpus_path, capsys):
    assert main(["compare", corpus_path, "--format", "csv",
                 "--strategy", "md5", "--strategy", "ascii-sum"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "strategy,level,bucket_count,ideal_mean,std_dev,deviation_ratio,skipped"
    assert len(lines) == 3


def test_compare_needs_two_strategies(corpus_path, capsys):
    assert main(["compare", corpus_path, "--strategy", "md5"]) == EXIT_USAGE
    capsys.readouterr()


def test_compare_multiple_levels_skips_shallow(corpus_path, capsys):
    assert main(["compare", corpus_path,
                 "--strategy", "md5", "--strategy", "mapping:100,10",
                 "--ids", "1..5000", "--level", "0", "--level", "1"]) == EXIT_OK
    out, err = capsys.readouterr()
    assert "skipping mapping at level 1" in err
    rows = [line.split() for line in out.splitlines()[1:]]
    levels = [row[1] for row in rows]
    assert levels == sorted(levels)
    assert sum(1 for row in rows if row[0].startswith("mapping")) == 1


def test_compare_strategy_spec_with_config(corpus_path, capsys):
    assert main(["compare", corpus_path,
                 "--strategy", "md5:16,16", "--strategy", "ascii-sum:31"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    buckets = {row.split()[0]: int(row.split()[2]) for row in lines[1:]}
    assert buckets == {"md5": 16, "ascii-sum": 31}


def test_compare_empty_corpus(tmp_path, capsys):
    path = tmp_path / "empty.txt"
    path.write_text("", encoding="utf-8")
    assert main(["compare", str(path), "--strategy", "md5",
                 "--strategy", "ascii-sum"]) == EXIT_EMPTY
    capsys.readouterr()


def test_locate_letter(capsys):
    assert main(["locate", "frankie", "--strategy", "letter",
                 "--root", "/data"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["15 27 10 23 20 18", "/data/f/r/a/n/k/i/frankie"]


def test_locate_md5(capsys):
    assert main(["locate", "frank", "--strategy", "md5", "--root", "/nas"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["18 40 72", "/nas/18/40/72/frank"]


def test_locate_normalizes_input(capsys):
    assert main(["locate", "  Frank ", "--strategy", "md5", "--root", "/nas"]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[1] == "/nas/18/40/72/frank"


def test_locate_invalid_name(capsys):
    assert main(["locate", "na me", "--strategy", "md5"]) == EXIT_USAGE
    capsys.readouterr()


def test_locate_cross_strategy_flags(capsys):
    assert main(["locate", "frank", "--strategy", "letter",
                 "--moduli", "64,64"]) == EXIT_USAGE
    assert main(["locate", "frank", "--strategy", "md5",
                 "--levels", "3"]) == EXIT_USAGE
    capsys.readouterr()


def test_check_fanout_md5_defaults(capsys):
    assert main(["check-fanout", "--strategy", "md5"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert "per_level_dirs=64,64,128" in lines
    assert "dirs_under_one_top=8192" in lines
    assert "total_leaf_buckets=524288" in lines
    assert "ok=true" in lines


def test_check_fanout_over_limit(capsys):
    assert main(["check-fanout", "--strategy", "md5",
                 "--moduli", "70000"]) == EXIT_LIMIT
    assert "ok=false" in capsys.readouterr().out


def test_check_fanout_letter_levels(capsys):
    assert main(["check-fanout", "--strategy", "letter", "--levels", "2"]) == EXIT_OK
    assert "per_level_dirs=37,37" in capsys.readouterr().out


def test_mkdirs_materializes(tmp_path, capsys):
    root = str(tmp_path / "tree")
    assert main(["mkdirs", "--strategy", "md5", "--moduli", "3,4",
                 "--root", root]) == EXIT_OK
    assert "created 15 directories" in capsys.readouterr().err
    assert os.path.isdir(os.path.join(root, "2", "3"))


def test_mkdirs_refuses_over_limit(tmp_path, capsys):
    root = str(tmp_path / "tree")
    assert main(["mkdirs", "--strategy", "md5", "--moduli", "70000",
                 "--root", root]) == EXIT_LIMIT
    assert "refusing" in capsys.readouterr().err
    assert not os.path.exists(root)


def test_parallel_scan_matches_serial(corpus_path, tmp_path, monkeypatch, capsys):
    serial, parallel = str(tmp_path / "s.json"), str(tmp_path / "p.json")
    monkeypatch.setenv("SHARDBENCH_THREADS", "1")
    assert main(["analyze", corpus_path, "--strategy", "md5", "-o", serial]) == EXIT_OK
    monkeypatch.setenv("SHARDBENCH_THREADS", "3")
    assert main(["analyze", corpus_path, "--strategy", "md5", "-o", parallel]) == EXIT_OK
    capsys.readouterr()
    with open(serial, "rb") as fs, open(parallel, "rb") as fp:
        assert fs.read() == fp.read()


def test_parallel_scan_preserves_reject_line_numbers(tmp_path, monkeypatch, capsys):
    path = tmp_path / "messy.txt"
    lines = ["name%04d" % i for i in range(400)]
    lines[57] = "bad line"
    lines[333] = "another bad one"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    monkeypatch.setenv("SHARDBENCH_THREADS", "4")
    assert main(["analyze", str(path), "--strategy", "md5", "--no-counts"]) == EXIT_OK
    out, err = capsys.readouterr()
    assert json.loads(out)["total"] == 398
    assert "line 58:" in err
    assert "line 334:" in err


def test_threads_env_garbage_warns_but_runs(corpus_path, monkeypatch, capsys):
    monkeypatch.setenv("SHARDBENCH_THREADS", "lots")
    assert main(["analyze", corpus_path, "--strategy", "md5", "--no-counts"]) == EXIT_OK
    assert "SHARDBENCH_THREADS" in capsys.readouterr().err


def test_gen_corpus_failure_keeps_the_old_output(tmp_path, capsys):
    target = tmp_path / "existing.txt"
    target.write_text("old\n", encoding="utf-8")
    code = main(["gen-corpus", "--model", "uniform", "--count", "40",
                 "--min-len", "1", "--max-len", "1", "-o", str(target)])
    assert code == EXIT_USAGE
    assert "distinct" in capsys.readouterr().err
    assert target.read_text(encoding="utf-8") == "old\n"
    assert os.listdir(tmp_path) == ["existing.txt"]


@pytest.mark.parametrize("emitter, argv", [
    ("_emit_analysis", ["analyze", "{corpus}", "--strategy", "md5"]),
    ("_emit_compare", ["compare", "{corpus}", "--strategy", "md5", "--strategy", "letter"]),
])
def test_report_failure_keeps_the_old_output(corpus_path, tmp_path, monkeypatch, capsys,
                                             emitter, argv):
    def fail_midway(out, *args):
        out.write("partial")
        raise OSError(28, "No space left on device")

    target = tmp_path / "report.txt"
    target.write_text("old\n", encoding="utf-8")
    monkeypatch.setattr(cli, emitter, fail_midway)
    assert main([arg.format(corpus=corpus_path) for arg in argv] + ["-o", str(target)]) == EXIT_IO
    assert "No space left on device" in capsys.readouterr().err
    assert target.read_text(encoding="utf-8") == "old\n"
    assert os.listdir(tmp_path) == ["report.txt"]
    monkeypatch.undo()
    assert main([arg.format(corpus=corpus_path) for arg in argv] + ["-o", str(target)]) == EXIT_OK
    capsys.readouterr()
    assert target.read_text(encoding="utf-8") != "old\n"
    assert os.listdir(tmp_path) == ["report.txt"]


@pytest.mark.parametrize("argv", [
    ["gen-corpus", "--model", "uniform", "--count", "50"],
    ["analyze", "{corpus}", "--strategy", "md5"],
    ["compare", "{corpus}", "--strategy", "md5", "--strategy", "letter"],
])
def test_output_to_a_device_streams_through_it(corpus_path, capsys, argv):
    assert main([arg.format(corpus=corpus_path) for arg in argv] + ["-o", os.devnull]) == EXIT_OK
    capsys.readouterr()
    assert stat.S_ISCHR(os.lstat(os.devnull).st_mode)


def test_output_through_a_symlink_writes_its_target(tmp_path, capsys):
    target = tmp_path / "corpus.txt"
    target.write_text("old\n", encoding="utf-8")
    link = tmp_path / "link.txt"
    link.symlink_to(target)
    assert main(["gen-corpus", "--model", "uniform", "--count", "50", "-o", str(link)]) == EXIT_OK
    capsys.readouterr()
    assert link.is_symlink()
    assert len(target.read_text(encoding="utf-8").splitlines()) == 50
    assert sorted(os.listdir(tmp_path)) == ["corpus.txt", "link.txt"]


def test_replaced_output_keeps_its_mode(tmp_path, capsys):
    target = tmp_path / "report.txt"
    target.write_text("old\n", encoding="utf-8")
    target.chmod(0o640)
    assert main(["gen-corpus", "--model", "uniform", "--count", "50", "-o", str(target)]) == EXIT_OK
    capsys.readouterr()
    assert stat.S_IMODE(target.stat().st_mode) == 0o640
    assert len(target.read_text(encoding="utf-8").splitlines()) == 50


@pytest.mark.skipif(os.geteuid() != 0, reason="only root can give a file to another owner")
def test_replaced_output_keeps_its_owner(tmp_path, capsys):
    target = tmp_path / "report.txt"
    target.write_text("old\n", encoding="utf-8")
    os.chown(target, 4321, 4322)
    assert main(["gen-corpus", "--model", "uniform", "--count", "50", "-o", str(target)]) == EXIT_OK
    capsys.readouterr()
    assert (target.stat().st_uid, target.stat().st_gid) == (4321, 4322)


def test_new_output_gets_the_umask_mode(tmp_path, capsys):
    mask = os.umask(0o027)
    try:
        code = main(["gen-corpus", "--model", "uniform", "--count", "50",
                     "-o", str(tmp_path / "new.txt")])
    finally:
        os.umask(mask)
    assert code == EXIT_OK
    capsys.readouterr()
    assert stat.S_IMODE((tmp_path / "new.txt").stat().st_mode) == 0o640


def test_a_leftover_temp_file_does_not_block_output(tmp_path, capsys):
    target = tmp_path / "corpus.txt"
    leftover = tmp_path / f"corpus.txt.{os.getpid()}.tmp"
    leftover.write_text("killed run\n", encoding="utf-8")
    assert main(["gen-corpus", "--model", "uniform", "--count", "50", "-o", str(target)]) == EXIT_OK
    capsys.readouterr()
    assert len(target.read_text(encoding="utf-8").splitlines()) == 50
    assert sorted(os.listdir(tmp_path)) == sorted([target.name, leftover.name])



@pytest.mark.parametrize("argv", [
    ["gen-corpus", "--model", "uniform", "--count", "50", "-o", "-"],
    ["analyze", "{corpus}", "--strategy", "md5"],
    ["compare", "{corpus}", "--strategy", "md5", "--strategy", "letter"],
    ["locate", "frank", "--strategy", "md5"],
    ["check-fanout", "--strategy", "md5"],
])
def test_a_closed_stdout_is_one_error_line(corpus_path, monkeypatch, capsys, argv):
    monkeypatch.setattr(sys, "stdout", None)  # as when the program starts with `>&-`
    assert main([arg.format(corpus=corpus_path) for arg in argv]) == EXIT_IO
    assert capsys.readouterr().err == "error: [Errno 9] Bad file descriptor: '<stdout>'\n"


@pytest.mark.parametrize("target", ["closed stdout", "missing directory"])
@pytest.mark.parametrize("argv", [
    ["gen-corpus", "--model", "uniform", "--count", "30000", "-o", "{output}"],
    ["analyze", "{corpus}", "--strategy", "md5", "-o", "{output}"],
    ["compare", "{corpus}", "--strategy", "md5", "--strategy", "letter", "-o", "{output}"],
], ids=["gen-corpus", "analyze", "compare"])
def test_a_target_that_cannot_be_opened_fails_before_any_work(tmp_path, monkeypatch, capsys,
                                                              argv, target):
    def fork():
        raise AssertionError(f"{argv[0]} forked a worker with nowhere to write")

    corpus = tmp_path / "dirty.txt"
    corpus.write_bytes(b"frank\nna me\nalice\n\xff\nbob\n" * 100)  # 200 rejected lines
    output = str(tmp_path / "no" / "such" / "dir" / "report.txt")
    if target == "closed stdout":
        monkeypatch.setattr(sys, "stdout", None)
        output, error = "-", "[Errno 9] Bad file descriptor: '<stdout>'"
    else:
        error = f"[Errno 2] No such file or directory: {output!r}"
    monkeypatch.setenv("SHARDBENCH_THREADS", "2")
    monkeypatch.setattr(os, "fork", fork)
    assert main([arg.format(corpus=corpus, output=output) for arg in argv]) == EXIT_IO
    assert capsys.readouterr().err == f"error: {error}\n"  # no reject line: nothing was read


@pytest.mark.parametrize("argv", [
    ["gen-corpus", "--model", "uniform", "--count", "50", "--min-len", "0"],
    ["analyze", "--strategy", "mapping"],
    ["analyze", "{corpus}", "--strategy", "md5", "--level", "9"],
    ["compare", "{corpus}", "--strategy", "md5", "--strategy", "mapping:1,3"],
])
def test_a_usage_error_wins_over_a_target_that_cannot_be_opened(corpus_path, tmp_path, capsys,
                                                                 argv):
    output = str(tmp_path / "no" / "such" / "dir" / "report.txt")
    assert main([arg.format(corpus=corpus_path) for arg in argv] + ["-o", output]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("target", ["closed stdout", "missing directory"])
@pytest.mark.parametrize("argv, error", [
    (["analyze", "{corpus}", "--strategy", "letter", "--level", "5"],
     "joint space 2565726409 exceeds dense cap 2097152"),  # level 5's space, as compare writes
    (["gen-corpus", "--model", "uniform", "--count", "40", "--min-len", "1", "--max-len", "1"],
     "40 names requested but the uniform model can only produce 37 distinct names of "
     "length 1..1"),
], ids=["analyze", "gen-corpus"])
def test_a_refusal_wins_over_a_target_that_cannot_be_opened(corpus_path, tmp_path, monkeypatch,
                                                            capsys, argv, error, target):
    output = str(tmp_path / "no" / "such" / "dir" / "report.txt")
    if target == "closed stdout":
        monkeypatch.setattr(sys, "stdout", None)
        output = "-"
    assert main([arg.format(corpus=corpus_path) for arg in argv] + ["-o", output]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {error}\n"
