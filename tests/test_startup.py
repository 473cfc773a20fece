"""Start-up: the modules a CLI run loads beyond a bare interpreter's.

Each run is a fresh interpreter with this environment, so the modules the
interpreter's own start-up (`site`) loads are in both sets and cancel out.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
SLOW_IMPORTS = {"dataclasses", "inspect", "json", "csv"}
MARK = "--- modules ---"


def _loaded_by(code: str) -> set[str]:
    """The modules loaded once `code` has run, less those of `python -c pass`."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    listing = f"import sys; print({MARK!r}); print(*sys.modules, sep='\\n')"

    def modules(source: str) -> set[str]:
        run = subprocess.run([sys.executable, "-c", source], env=env, capture_output=True,
                             text=True, timeout=60)
        assert run.returncode == 0, run.stderr
        return set(run.stdout.split(MARK, 1)[1].split())

    return modules(f"{code}\n{listing}") - modules(listing)


def test_importing_the_cli_loads_no_slow_stdlib_module():
    added = _loaded_by("import shardbench.cli")
    assert "shardbench.cli" in added
    assert not added & SLOW_IMPORTS


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
