"""CLI contract details: bad strategy configs are usage errors; exact output is pinned."""

import json

import pytest

from shardbench import cli, corpus, scan
from shardbench.cli import EXIT_LIMIT, EXIT_OK, EXIT_USAGE, main

# Every reject class, Unicode whitespace padding, CRLF, a blank line and no
# trailing newline; ascii-sum:31 has depth 1, so level 1 skips it with a note.
DIRTY = (b"frank\nna me\n\xff\xfebob\n  Alice \r\n\n" + b"x" * 65
         + b"\nzoe\x1c\nCarol\xc2\xa0\nbob")
COMPARE_ARGS = ["--strategy", "ascii-sum:31", "--strategy", "md5", "--level", "1", "--level", "0"]
COMPARE_STDERR = (
    "note: skipping ascii-sum at level 1 (depth 1)\n"
    "line 2: invalid character ' ' at position 2\n"
    "line 3: undecodable bytes\n"
    "line 6: username has 65 characters, max 64\n"
    "3 lines rejected\n"
)
COMPARE_STDOUT = (
    "strategy   level  bucket_count  ideal_mean  std_dev    deviation_ratio  skipped\n"
    "ascii-sum  0      31            0.16129     0.367799   2.28035          0\n"
    "md5        0      64            0.078125    0.268368   3.43511          0\n"
    "md5        1      4096          0.0012207   0.0349172  28.6042          0\n"
)


@pytest.fixture
def dirty_path(tmp_path):
    path = tmp_path / "dirty.txt"
    path.write_bytes(DIRTY)
    return str(path)


@pytest.mark.parametrize("threads", ["1", "3"])
def test_compare_stderr_is_pinned(dirty_path, threads, monkeypatch, capsys):
    monkeypatch.setenv("SHARDBENCH_THREADS", threads)
    assert main(["compare", dirty_path, *COMPARE_ARGS]) == EXIT_OK
    out, err = capsys.readouterr()
    assert err == COMPARE_STDERR
    assert out == COMPARE_STDOUT


@pytest.mark.parametrize("argv", [
    ["compare", "{corpus}", "--strategy", "md5:300", "--strategy", "letter"],
    ["compare", "{corpus}", "--strategy", "letter:9", "--strategy", "md5"],
    ["compare", "{corpus}", "--strategy", "letter:x", "--strategy", "md5"],
    ["compare", "{corpus}", "--strategy", "mapping:0,20", "--strategy", "md5", "--ids", "1..10"],
    ["analyze", "{corpus}", "--strategy", "md5", "--moduli", "300"],
    ["locate", "frank", "--strategy", "letter", "--levels", "9"],
    ["check-fanout", "--strategy", "letter", "--levels", "9"],
    # A depth of 0 is text, not a missing flag: it must not fall back to the 6-level default.
    ["analyze", "{corpus}", "--strategy", "letter", "--levels", "0"],
    ["compare", "{corpus}", "--strategy", "letter:0", "--strategy", "md5"],
    ["check-fanout", "--strategy", "letter", "--levels", "0"],
])
def test_bad_strategy_config_is_a_usage_error(dirty_path, argv, capsys):
    assert main([arg.format(corpus=dirty_path) for arg in argv]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage error: ")
    assert err.count("\n") == 1


def test_overdrawn_corpus_message_is_pinned(tmp_path, capsys):
    argv = ["gen-corpus", "--model", "uniform", "--count", "40",
            "--min-len", "1", "--max-len", "1", "-o", str(tmp_path / "x.txt")]
    assert main(argv) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: 40 names requested but the uniform model can only produce "
                   "37 distinct names of length 1..1\n")


@pytest.mark.parametrize("strategy, stdout", [
    ("md5", "18 40 72\n/18/40/72/frank\n"),
    ("letter", "15 27 10 23 20\n/f/r/a/n/k/frank\n"),
])
def test_locate_default_root_renders_a_leading_slash(strategy, stdout, capsys):
    assert main(["locate", "frank", "--strategy", strategy]) == EXIT_OK
    out, err = capsys.readouterr()
    assert (out, err) == (stdout, "")


def test_reject_report_is_pinned_past_one_write(tmp_path, monkeypatch, capsys):
    # Blocks of 8 bytes spread the rejects over several writes, which must join seamlessly.
    path = tmp_path / "bad.txt"
    path.write_bytes(b"ok\n" + b"na me\n" * 5)
    monkeypatch.setattr(corpus, "_BLOCK", 8)
    assert main(["analyze", str(path), "--strategy", "md5", "--no-counts"]) == EXIT_OK
    err = capsys.readouterr().err
    assert err.startswith("".join(f"line {n}: invalid character ' ' at position 2\n"
                                  for n in range(2, 7)) + "5 lines rejected\nideal_mean=")


# Every verb that takes --levels/--moduli, each strategy with the flag it does not take.
WRONG_FLAG = [
    (verb, strategy, flag)
    for verb in ("analyze", "locate", "check-fanout", "mkdirs")
    for strategy, flag in (("letter", "--moduli"), ("md5", "--levels"), ("ascii-sum", "--levels"))
    if verb == "analyze" or strategy != "ascii-sum"
]
VERB_HEAD = {
    "analyze": ["analyze", "{corpus}"],
    "locate": ["locate", "frank"],
    "check-fanout": ["check-fanout"],
    "mkdirs": ["mkdirs", "--root", "{root}"],
}


@pytest.mark.parametrize("verb, strategy, flag", WRONG_FLAG)
def test_wrong_strategy_flag_message_is_pinned(dirty_path, tmp_path, verb, strategy, flag,
                                                capsys):
    argv = [arg.format(corpus=dirty_path, root=tmp_path / "tree") for arg in VERB_HEAD[verb]]
    assert main(argv + ["--strategy", strategy, flag, "3"]) == EXIT_USAGE
    assert capsys.readouterr() == ("", f"usage error: {flag} does not apply to the "
                                       f"{strategy} strategy\n")
    assert not (tmp_path / "tree").exists()


@pytest.mark.parametrize("spec, message", [
    ("letter:x", "letter spec expects an integer depth, got 'x'"),
    ("md5:1,a", "--moduli expects comma-separated integers, got '1,a'"),
    ("md5:300", "bad md5 config: modulus 300 outside 2..256"),
    ("mapping", "mapping spec needs bucket_size,num_servers (e.g. mapping:50000,20)"),
    ("mapping:1", "mapping spec needs exactly bucket_size,num_servers"),
    ("bogus", "unknown strategy 'bogus' in spec 'bogus'"),
])
def test_bad_compare_spec_message_is_pinned(dirty_path, spec, message, capsys):
    argv = ["compare", dirty_path, "--strategy", spec, "--strategy", "md5", "--ids", "1..10"]
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr() == ("", f"usage error: {message}\n")


def test_mapping_without_ids_message_is_pinned(capsys):
    argv = ["analyze", "--strategy", "mapping", "--bucket-size", "10", "--servers", "4"]
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr() == ("", "usage error: the mapping strategy requires --ids A..B\n")


@pytest.mark.parametrize("argv, message", [
    (["--strategy", "mapping", "--ids", "1..5", "--servers", "3"],
     "the mapping strategy requires --bucket-size and --servers"),
    (["--strategy", "mapping", "--ids", "1..5", "--bucket-size", "2"],
     "the mapping strategy requires --bucket-size and --servers"),
    (["--strategy", "md5"], "the md5 strategy requires a corpus file"),
    (["--strategy", "letter", "--levels", "2"], "the letter strategy requires a corpus file"),
])
def test_analyze_missing_input_message_is_pinned(argv, message, capsys):
    assert main(["analyze", *argv]) == EXIT_USAGE
    assert capsys.readouterr() == ("", f"usage error: {message}\n")


@pytest.mark.parametrize("argv, choices", [
    (["analyze", "x", "--strategy", "bogus"], "'letter', 'ascii-sum', 'mapping', 'md5'"),
    (["locate", "x", "--strategy", "bogus"], "'letter', 'md5'"),
])
def test_strategy_choice_order_is_pinned(argv, choices, capsys):
    assert main(argv) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[-1] == (f"shardbench {argv[0]}: error: argument --strategy: "
                                    f"invalid choice: 'bogus' (choose from {choices})")


@pytest.mark.parametrize("flags, config", [
    (["--strategy", "letter"], {"levels": 6}),
    (["--strategy", "letter", "--levels", "3"], {"levels": 3}),
    (["--strategy", "letter", "--moduli="], {"levels": 6}),
    (["--strategy", "ascii-sum"], {"moduli": [31, 33]}),
    (["--strategy", "ascii-sum", "--moduli="], {"moduli": [31, 33]}),
    (["--strategy", "md5", "--moduli", "32,16"], {"moduli": [32, 16]}),
    (["--strategy", "md5", "--moduli="], {"moduli": [64, 64, 128]}),
    (["--strategy", "mapping", "--bucket-size", "10", "--servers", "4", "--ids", "1..100",
      "--levels", "9", "--moduli", "x"],
     {"bucket_size": 10, "num_servers": 4, "ids": "1..100"}),
])
def test_analyze_config_echo_is_pinned(dirty_path, flags, config, capsys):
    corpus = [] if "mapping" in flags else [dirty_path]
    assert main(["analyze", *corpus, *flags, "--no-counts"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["config"] == config


def test_check_fanout_letter_defaults_are_pinned(capsys):
    assert main(["check-fanout", "--strategy", "letter"]) == EXIT_OK
    assert capsys.readouterr() == (
        "per_level_dirs=37,37,37,37,37,37\n"
        "dirs_under_one_top=69343957\n"
        "total_leaf_buckets=2565726409\n"
        "limit=64000\n"
        "ok=true\n",
        "",
    )


@pytest.mark.parametrize("moduli", ["0", "5,-1"])
@pytest.mark.parametrize("verb", [["check-fanout"], ["mkdirs", "--root", "{root}"]],
                         ids=["check-fanout", "mkdirs"])
def test_bad_raw_moduli_message_is_pinned(tmp_path, verb, moduli, capsys):
    root = tmp_path / "tree"
    argv = [arg.format(root=root) for arg in verb] + ["--strategy", "md5", "--moduli", moduli]
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr() == (
        "", "usage error: bad md5 config: moduli must be a non-empty list of positive integers\n")
    assert not root.exists()


def _refuse_to_build(root, moduli):
    raise AssertionError(f"mkdirs tried to build {moduli}")


@pytest.mark.parametrize("flags, leaves", [
    (["--strategy", "letter"], 2565726409),
    (["--strategy", "letter", "--levels", "5"], 69343957),
    (["--strategy", "md5", "--moduli", "128,128,129"], 2113536),
])
def test_mkdirs_refuses_more_leaves_than_the_cap(tmp_path, monkeypatch, flags, leaves, capsys):
    monkeypatch.setattr(cli, "materialize_tree", _refuse_to_build)
    assert main(["mkdirs", "--root", str(tmp_path / "tree"), *flags]) == EXIT_LIMIT
    assert capsys.readouterr() == (
        "", f"error: {leaves} leaf directories exceed the cap of 2097152; refusing to create\n")
    assert not (tmp_path / "tree").exists()


@pytest.mark.parametrize("flags, moduli", [
    (["--strategy", "md5"], (64, 64, 128)),
    (["--strategy", "letter", "--levels", "4"], (37, 37, 37, 37)),
    (["--strategy", "md5", "--moduli", "128,128,128"], (128, 128, 128)),
])
def test_mkdirs_builds_layouts_up_to_the_cap(tmp_path, monkeypatch, flags, moduli, capsys):
    built = []
    monkeypatch.setattr(cli, "materialize_tree", lambda root, m: built.append(tuple(m)) or 0)
    assert main(["mkdirs", "--root", str(tmp_path), *flags]) == EXIT_OK
    assert built == [moduli]


OVER_CAP = "error: joint space 2097153 exceeds dense cap 2097152\n"


def test_analyze_refuses_mapping_servers_over_the_dense_cap(capsys):
    argv = ["analyze", "--strategy", "mapping", "--ids", "1..10", "--bucket-size", "1",
            "--servers", "2097153", "--no-counts"]
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr() == ("", OVER_CAP)


def test_compare_refuses_mapping_servers_over_the_dense_cap_before_it_scans(
        dirty_path, monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("compare scanned or built loads before refusing")

    monkeypatch.setattr(cli, "build_mapping_histogram", refuse)
    monkeypatch.setattr(scan, "_scan", refuse)
    argv = ["compare", dirty_path, "--strategy", "mapping:1,2097153", "--strategy", "md5",
            "--ids", "1..10"]
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr() == ("", OVER_CAP)


# Each bad step comes after a scanned md5 step, on a corpus with rejects: the
# scan would print them, and its reject count, before the error.
@pytest.mark.parametrize("flags, message", [
    (["--strategy", "mapping:1,3"],
     "usage error: mapping strategies in compare require --ids A..B\n"),
    (["--strategy", "mapping:1,3", "--ids", "10..1"],
     "usage error: --ids needs 1 <= A <= B, got '10..1'\n"),
    (["--strategy", "mapping:1,2097153", "--ids", "1..10"], OVER_CAP),
    (["--strategy", "ascii-sum:1500,1500", "--level", "0", "--level", "1"],
     "error: joint space 2250000 exceeds dense cap 2097152\n"),
])
def test_compare_checks_every_step_before_it_reads_the_corpus(
        dirty_path, monkeypatch, capsys, flags, message):
    def refuse(*args):
        raise AssertionError("compare read the corpus before refusing")

    monkeypatch.setattr(scan, "_scan", refuse)
    assert main(["compare", dirty_path, "--strategy", "md5", *flags]) == EXIT_USAGE
    assert capsys.readouterr() == ("", message)


# A pooled scan would warn of the bad SHARDBENCH_THREADS before the error.
@pytest.mark.parametrize("flags, space", [
    (["--strategy", "letter", "--level", "5"], 2565726409),
    (["--strategy", "ascii-sum", "--moduli", "1500,1500", "--level", "1"], 2250000),
    (["--strategy", "md5", "--moduli", "256,256,256", "--level", "2"], 16777216),
])
def test_analyze_checks_its_step_before_it_reads_the_corpus(dirty_path, monkeypatch, capsys,
                                                            flags, space):
    def refuse(*args):
        raise AssertionError("analyze read the corpus before refusing")

    monkeypatch.setattr(scan, "_scan", refuse)
    monkeypatch.setenv("SHARDBENCH_THREADS", "x")
    assert main(["analyze", dirty_path, *flags]) == EXIT_USAGE
    assert capsys.readouterr() == ("", f"error: joint space {space} exceeds dense cap 2097152\n")


def test_gen_corpus_checks_its_capacity_before_it_draws(tmp_path, monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("gen-corpus drew names before refusing")

    monkeypatch.setattr(cli, "_segments", refuse)  # the name gen-corpus calls it by
    monkeypatch.setattr(corpus, "_segments", refuse)
    output = tmp_path / "names.txt"
    argv = ["gen-corpus", "--model", "name-like", "--count", "1113", "--min-len", "1",
            "--max-len", "2", "-o", str(output)]
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr() == ("", "error: 1113 names requested but the name_like model can "
                                       "only produce 1112 distinct names of length 1..2\n")
    assert not output.exists()
