"""Acceptance gate: every release-blocking behavior, one criterion per test.

Each test registers a `criterion N [PASS|FAIL]` line that conftest prints in
the terminal summary, so the gate can be read off a plain pytest run.
Tolerances are pinned in the assertions themselves; nothing here is tunable.
"""

import io
from contextlib import contextmanager

import _gate
from md5_reference import RFC_VECTORS, md5_hexdigest

from shardbench.corpus import CorpusSpec, generate_corpus
from shardbench.layout import fanout_report, letter_path, md5_path
from shardbench.model import Username
from shardbench.stats import (
    Histogram,
    build_histogram,
    build_mapping_histogram,
    compute_stats,
)
from shardbench.strategies import (
    AsciiSumConfig,
    LetterConfig,
    MappingConfig,
    Md5Config,
    ascii_sum,
    ascii_sum_placement,
    counter_placement,
    letter_placement,
    md5_digest,
    md5_hex,
    md5_placement,
)

FRANK_DIGEST = "d268c8fe7f154537c2c9ed60a0b8f2fd"


@contextmanager
def _report(number, description):
    try:
        yield
    except BaseException:
        _gate.record(number, False, description)
        raise
    else:
        _gate.record(number, True, description)


def test_criterion_01_digest_exactness():
    with _report(1, "pinned frank digest and all seven RFC 1321 vectors bit-exact"):
        assert md5_digest(Username("frank")) == FRANK_DIGEST
        for message, expected in RFC_VECTORS:
            assert md5_hex(message) == expected
            assert md5_hexdigest(message) == expected


def test_criterion_02_worked_example_chain():
    with _report(2, "ascii-sum and md5 worked examples, recomputed independently"):
        assert ascii_sum(Username("bob"), 0) == 307
        assert ord("b") + ord("o") + ord("b") == 307
        placement = ascii_sum_placement(Username("bob"), AsciiSumConfig((31, 33)))
        assert placement.levels == ((28, 31), (11, 33))
        assert (307 % 31, (ord("o") + ord("b")) % 33) == (28, 11)

        placement = md5_placement(Username("frank"), Md5Config((64, 64, 128)))
        assert [b for b, _ in placement.levels] == [18, 40, 72]
        pairs = [int(FRANK_DIGEST[k : k + 2], 16) for k in (0, 2, 4)]
        assert [p % m for p, m in zip(pairs, (64, 64, 128))] == [18, 40, 72]


def test_criterion_03_letter_path_fidelity():
    with _report(3, "letter path renders .../f/r/a/n/k/i/frankie"):
        rendered = letter_path(Username("frankie"), "/data").render()
        assert rendered.endswith("/f/r/a/n/k/i/frankie")
        assert rendered == "/data/f/r/a/n/k/i/frankie"


def test_criterion_04_fanout_counts():
    with _report(4, "md5 [64,64,128]: 8,192 dirs under one top, 524,288 leaves"):
        report = fanout_report(Md5Config((64, 64, 128)))
        assert report.dirs_under_one_top == 8_192
        assert report.total_leaf_buckets == 524_288


def test_criterion_05a_counter_mapping_even_million():
    with _report("5a", "1M IDs fill 20 servers with exactly 50,000 each; next ID → server 0"):
        cfg = MappingConfig(50_000, 20)
        hist = build_mapping_histogram(range(1, 1_000_001), cfg)
        assert hist.counts == [50_000] * 20
        bucket, server = counter_placement(1_000_001, cfg)
        assert (bucket, server) == (20, 0)


def test_criterion_05b_counter_mapping_worst_gap():
    """Bucket size 10,000, 20 servers, IDs 1..1,049,999: the worst gap is 10,000.

    Reckoned from the rule bucket = (id - 1) // 10,000, server = bucket % 20:
    - IDs 1..1,049,999 fill buckets 0..104; 0..103 are full (10,000 each)
      and bucket 104 holds IDs 1,040,001..1,049,999, i.e. 9,999.
    - Server s gets buckets s, s + 20, s + 40, ...; 105 = 5 * 20 + 5, so
      servers 0-4 get 6 buckets each and servers 5-19 get 5 each.
    - The partial bucket 104 lands on server 104 % 20 = 4.
    So servers 0-3 carry 60,000, server 4 carries 59,999, servers 5-19 carry
    50,000, and max - min is 10,000: the bound gap <= bucket_size is reached.
    A gap of bucket_size - 1 appears only one ID short of a whole bucket row,
    N = (20k + 1) * 10,000 - 1 (1,009,999 or 1,209,999); 1,049,999 is that
    boundary for bucket size 50,000 instead (21 * 50,000 - 1, gap 49,999).
    """
    with _report("5b", "bucket size 10,000 over IDs 1..1,049,999: loads 4x60,000, "
                       "59,999, 15x50,000, max load gap 10,000"):
        hist = build_mapping_histogram(range(1, 1_050_000), MappingConfig(10_000, 20))
        assert hist.counts == [60_000] * 4 + [59_999] + [50_000] * 15
        assert max(hist.counts) - min(hist.counts) == 10_000


def test_criterion_06_distribution_quality():
    with _report(6, "100k name-like corpus: md5 at multinomial floor, md5 <= ascii < letter"):
        names = list(generate_corpus(CorpusSpec("name_like", 100_000, 7)))

        def ratio(placement_fn, moduli):
            hist = build_histogram(names, placement_fn, moduli, 0)
            return compute_stats(hist).deviation_ratio

        letter_cfg, ascii_cfg, md5_cfg = LetterConfig(6), AsciiSumConfig(), Md5Config()
        letter = ratio(lambda u: letter_placement(u, letter_cfg), letter_cfg.level_moduli)
        ascii_ = ratio(lambda u: ascii_sum_placement(u, ascii_cfg), ascii_cfg.level_moduli)
        md5 = ratio(lambda u: md5_placement(u, md5_cfg), md5_cfg.level_moduli)

        floor = (64 / 100_000) ** 0.5  # ≈ 0.0253, the multinomial expectation
        assert md5 < 0.05
        assert floor / 2 <= md5 <= floor * 2
        assert ascii_ < 0.1
        assert letter > 0.3
        assert md5 <= ascii_ < letter


def test_criterion_07_injectivity():
    with _report(7, "100k distinct names render 100k distinct md5 and letter paths"):
        names = list(generate_corpus(CorpusSpec("uniform", 100_000, 99)))
        cfg = Md5Config()
        md5_paths = {md5_path(u, cfg, "/nas").render() for u in names}
        letter_paths = {letter_path(u, "/data").render() for u in names}
        assert len(md5_paths) == 100_000
        assert len(letter_paths) == 100_000


def test_criterion_08_oracle_equivalence(tmp_path, monkeypatch):
    with _report(8, "streamed and parallel histograms match naive recounting everywhere"):
        from shardbench import scan

        names = list(generate_corpus(CorpusSpec("name_like", 1_000, 21)))
        path = tmp_path / "names.txt"
        path.write_text("".join(name + "\n" for name in names), encoding="utf-8")
        monkeypatch.setenv("SHARDBENCH_THREADS", "4")

        letter_cfg, ascii_cfg, md5_cfg = LetterConfig(6), AsciiSumConfig(), Md5Config()
        cases = [
            # Dense joint arrays cap at 2^21 buckets, which bounds the letter
            # strategy to levels 0..3 (37^5 is already ~69M).
            (letter_cfg, lambda u: letter_placement(u, letter_cfg), (37,) * 6, range(4)),
            (ascii_cfg, lambda u: ascii_sum_placement(u, ascii_cfg), (31, 33), range(2)),
            (md5_cfg, lambda u: md5_placement(u, md5_cfg), (64, 64, 128), range(3)),
        ]
        for cfg, placement_fn, moduli, levels in cases:
            for level in levels:
                naive: dict[tuple[int, ...], int] = {}
                skipped = 0
                for u in names:
                    placement = placement_fn(u)
                    if placement.depth <= level:
                        skipped += 1
                        continue
                    key = tuple(b for b, _ in placement.levels[: level + 1])
                    naive[key] = naive.get(key, 0) + 1

                bucket_count = 1
                for m in moduli[: level + 1]:
                    bucket_count *= m
                expected = [0] * bucket_count
                for key, count in naive.items():
                    index = 0
                    for bucket, m in zip(key, moduli[: level + 1]):
                        index = index * m + bucket
                    expected[index] = count

                streamed = build_histogram(names, placement_fn, moduli, level)
                assert streamed.counts == expected
                assert streamed.skipped == skipped
                (parallel,) = scan._scan(str(path), [(cfg, level)], io.StringIO())
                assert parallel.counts == expected
                assert parallel.total == streamed.total
                assert parallel.skipped == skipped


def test_criterion_09_stats_definition():
    with _report(9, "counts [20,0,...,0] give ideal_mean 2, std_dev 6, ratio 3"):
        stats = compute_stats(Histogram([20] + [0] * 9, 20))
        assert stats.ideal_mean == 2.0
        assert stats.std_dev == 6.0
        assert stats.deviation_ratio == 3.0
