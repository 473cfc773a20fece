"""The tracer: read amplification, span nesting and clean removal."""

import pytest

import spans
from shardbench import CorpusSpec, cli, generate_corpus, stats

STRATEGIES = ["letter", "ascii-sum", "md5"]
LEVELS = [0, 1]


@pytest.fixture(scope="module")
def corpus(tmp_path_factory) -> str:
    path = tmp_path_factory.mktemp("spans") / "names.txt"
    path.write_text("".join(n + "\n" for n in generate_corpus(CorpusSpec("name_like", 300, 9))))
    return str(path)


def test_read_amp_of_compare_is_strategies_times_levels(corpus):
    argv = ["compare", corpus, *[a for s in STRATEGIES for a in ("--strategy", s)],
            *[a for level in LEVELS for a in ("--level", str(level))]]
    spans.call_main(argv, "1")  # first call loads anything imported lazily
    result = spans.call_main(argv, "1", spans.Tracer())
    assert result["code"] == 0
    with open(corpus, "rb") as handle:
        size = len(handle.read())
    assert result["read"] == len(STRATEGIES) * len(LEVELS) * size


def test_spans_nest_under_the_scan(corpus):
    tracer = spans.Tracer()
    result = spans.call_main(["analyze", corpus, "--strategy", "md5"], "1", tracer)
    assert result["code"] == 0
    totals = tracer.summary()
    assert totals[spans.ROOT]["count"] == 1
    assert totals["model.normalize_username"]["count"] == 300
    assert totals["strategies.md5_placement"]["count"] == 300
    assert totals["strategies.md5_digest"]["count"] == 300
    for name, entry in totals.items():
        assert 0 <= entry["self"] <= entry["incl"] + 1e-9, name
    placement = totals["strategies.md5_placement"]
    assert placement["self"] < placement["incl"]  # the digest is its child
    assert totals[spans.ROOT]["incl"] <= result["wall"]


def test_install_restores_the_library(corpus):
    before = (cli.build_histogram, stats.build_histogram, cli.normalize_username)
    with spans.Tracer().install():
        assert cli.build_histogram is not before[0]
    assert (cli.build_histogram, stats.build_histogram, cli.normalize_username) == before
