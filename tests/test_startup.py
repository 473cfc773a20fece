"""Start-up: the modules a CLI run loads beyond a bare interpreter's.

Each run is a fresh interpreter with this environment, so the modules the
interpreter's own start-up (`site`) loads are in both sets and cancel out.
"""

import gc
import os
import subprocess
import sys
from pathlib import Path

import pytest

from shardbench import cli

SRC = Path(__file__).resolve().parents[1] / "src"
SLOW_IMPORTS = {"dataclasses", "inspect", "json", "csv"}
MARK = "--- modules ---"


def _loaded_by(code: str, *options: str, **environ: str) -> set[str]:
    """The modules loaded once `code` has run, less those of `python -c pass`.

    `options` go to the interpreter, before its -c.
    """
    env = dict(os.environ, **environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    listing = f"import sys; print({MARK!r}); print(*sys.modules, sep='\\n')"

    def modules(source: str) -> set[str]:
        run = subprocess.run([sys.executable, *options, "-c", source], env=env, capture_output=True,
                             text=True, timeout=60)
        assert run.returncode == 0, run.stderr
        return set(run.stdout.split(MARK, 1)[1].split())

    return modules(f"{code}\n{listing}") - modules(listing)


def test_importing_the_cli_loads_no_slow_stdlib_module():
    added = _loaded_by("import shardbench.cli")
    assert "shardbench.cli" in added
    assert not added & SLOW_IMPORTS


def test_importing_the_cli_without_site_loads_no_resource_module():
    # Without -S, `site` may load both first (a .pth file that imports
    # certifi does), and they cancel out.
    added = _loaded_by("import shardbench.cli", "-S")
    assert "shardbench.cli" in added
    assert not added & {"importlib.resources", "pathlib"}


def test_a_text_compare_loads_no_report_module(tmp_path):
    corpus = tmp_path / "one.txt"
    corpus.write_text("frank\n")
    argv = ["compare", str(corpus), "--strategy", "letter", "--strategy", "ascii-sum",
            "--strategy", "md5", "--strategy", "mapping:50000,20", "--level", "0",
            "--level", "1", "--ids", "1..1", "--format", "text"]
    added = _loaded_by(f"from shardbench import cli\nassert cli.main({argv!r}) == 0")
    assert not added & {"json", "csv"}


def test_each_report_format_loads_its_module(tmp_path):
    corpus = tmp_path / "one.txt"
    corpus.write_text("frank\n")
    for fmt, module in (("json", "json"), ("csv", "csv")):
        argv = ["analyze", str(corpus), "--strategy", "md5", "--format", fmt]
        added = _loaded_by(f"from shardbench import cli\nassert cli.main({argv!r}) == 0")
        assert module in added, fmt


def test_a_scan_split_across_workers_loads_no_pool_module(tmp_path):
    corpus = tmp_path / "names.txt"
    corpus.write_text("".join(f"user{n}\n" for n in range(100)))
    argv = ["analyze", str(corpus), "--strategy", "md5", "--no-counts"]
    added = _loaded_by(f"from shardbench import cli\nassert cli.main({argv!r}) == 0",
                       SHARDBENCH_THREADS="2")
    assert not added & {"concurrent.futures", "multiprocessing", "pickle", "signal"}


def test_only_the_scanning_verbs_load_the_kernel(tmp_path):
    corpus = tmp_path / "one.txt"
    corpus.write_text("frank\n")
    scanning = [
        ["analyze", str(corpus), "--strategy", "md5"],
        ["compare", str(corpus), "--strategy", "letter", "--strategy", "md5"],
    ]
    others = [
        ["gen-corpus", "--model", "name-like", "--count", "1", "-o", str(tmp_path / "gen.txt")],
        ["locate", "frank", "--strategy", "md5"],
        ["check-fanout", "--strategy", "md5"],
        ["mkdirs", "--strategy", "md5", "--moduli", "2,2", "--root", str(tmp_path / "tree")],
    ]
    for argv in scanning + others:
        added = _loaded_by(f"from shardbench import cli\nassert cli.main({argv!r}) == 0")
        assert ("shardbench.scan" in added) == (argv in scanning), argv[0]


def test_a_pooled_gen_corpus_loads_neither_the_kernel_nor_a_pool_module(tmp_path):
    argv = ["gen-corpus", "--model", "name-like", "--count", "3000",
            "-o", str(tmp_path / "gen.txt")]
    code = ("import os\nforks = []\nfork = os.fork\n"
            "os.fork = lambda: forks.append(1) or fork()\n"
            f"from shardbench import cli\nassert cli.main({argv!r}) == 0\nassert len(forks) == 2")
    added = _loaded_by(code, SHARDBENCH_THREADS="3")
    assert not added & {"shardbench.scan", "concurrent.futures", "multiprocessing", "pickle",
                        "signal"}


def test_a_one_name_gen_corpus_forks_nothing(tmp_path, monkeypatch, capsys):
    def no_fork():
        raise AssertionError("a worker was forked")

    monkeypatch.delenv("SHARDBENCH_THREADS", raising=False)
    monkeypatch.setattr(os, "fork", no_fork)
    argv = ["gen-corpus", "--model", "name-like", "--count", "1", "-o", str(tmp_path / "one.txt")]
    assert cli.main(argv) == cli.EXIT_OK
    assert capsys.readouterr().err == "wrote 1 names (model=name-like, seed=0)\n"


def test_an_in_process_run_freezes_nothing(tmp_path, capsys):
    corpus = tmp_path / "one.txt"
    corpus.write_text("frank\n")
    frozen = gc.get_freeze_count()
    assert cli.main(["analyze", str(corpus), "--strategy", "md5"]) == cli.EXIT_OK
    capsys.readouterr()
    assert gc.get_freeze_count() == frozen


def test_the_program_freezes_its_start_up_heap():
    # Some interpreters start with objects frozen already (CPython 3.12.1
    # with 375), so the run is judged by what it adds.
    code = ("import gc, runpy, sys\n"
            "sys.argv = ['shardbench', 'locate', 'frank', '--strategy', 'md5']\n"
            "before = gc.get_freeze_count()\n"
            "try:\n"
            "    runpy.run_module('shardbench.cli', run_name='__main__')\n"
            "except SystemExit as exc:\n"
            "    print(exc.code, before, gc.get_freeze_count(), file=sys.stderr)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=60)
    code, before, after = map(int, run.stderr.split())
    assert code == cli.EXIT_OK
    assert after - before > 1000


@pytest.mark.parametrize("verb", ["analyze", "gen-corpus"])
def test_no_worker_outlives_a_pooled_run(tmp_path, monkeypatch, capsys, verb):
    corpus = tmp_path / "names.txt"
    corpus.write_text("".join(f"user{n}\n" for n in range(3000)))
    argv = {"analyze": ["analyze", str(corpus), "--strategy", "md5", "--no-counts"],
            "gen-corpus": ["gen-corpus", "--model", "name-like", "--count", "3000",
                           "-o", str(tmp_path / "gen.txt")]}[verb]
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    monkeypatch.setenv("SHARDBENCH_THREADS", "3")
    assert cli.main(argv) == cli.EXIT_OK
    capsys.readouterr()
    assert len(forks) == 2
    with pytest.raises(ChildProcessError):  # no child, running or unreaped
        os.waitpid(-1, os.WNOHANG)
