"""The percentile rule and the digest check."""

import pytest

from rules import DIGESTS_SCHEMA, MIN_BEYOND, DigestBook, job_key, \
    percentile, sha256_hex


def test_tail_needs_ten_samples_beyond():
    p99 = percentile([float(i) for i in range(1000)], 99)
    assert (p99.count, p99.beyond, p99.kept) == (1000, 10, True)
    assert p99.value == 989.0
    short = percentile([float(i) for i in range(999)], 99)
    assert short.beyond == MIN_BEYOND - 1 and not short.kept


def test_p90_cutoff_and_counts():
    kept = percentile([float(i) for i in range(1, 101)], 90)
    assert (kept.value, kept.count, kept.beyond, kept.kept) == \
        (90.0, 100, 10, True)
    dropped = percentile([float(i) for i in range(1, 100)], 90)
    assert dropped.count == 99 and not dropped.kept


def test_median_is_always_kept_and_interpolates():
    p50 = percentile([4.0, 1.0, 3.0, 2.0], 50)
    assert p50.value == 2.5 and p50.kept and p50.count == 4


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 100)


def _book(data: bytes) -> DigestBook:
    return DigestBook({"schema": DIGESTS_SCHEMA,
                       "jobs": {job_key("go", "baseline"): sha256_hex(data)},
                       "suite": {"s": sha256_hex(data)}})


def test_one_flipped_byte_fails_the_digest_check():
    data = b'{"name":"go","stats":{"committed":10198}}\n'
    book = _book(data)
    key = job_key("go", "baseline")
    assert book.job_ok(key, data) and book.suite_ok("s", data)
    for index in range(len(data)):
        flipped = bytearray(data)
        flipped[index] ^= 0x01
        assert not book.job_ok(key, bytes(flipped))
        assert not book.suite_ok("s", bytes(flipped))


def test_one_flipped_expected_digest_fails():
    data = b"payload"
    book = _book(data)
    key = job_key("go", "baseline")
    digest = book.jobs[key]
    book.jobs[key] = ("0" if digest[0] != "0" else "1") + digest[1:]
    assert not book.job_ok(key, data)


def test_unknown_job_fails_and_schema_is_checked():
    book = _book(b"x")
    assert not book.job_ok(job_key("gcc", "baseline"), b"x")
    with pytest.raises(ValueError):
        DigestBook({"schema": "other", "jobs": {}, "suite": {}})


def test_committed_digests_cover_every_drawable_job():
    from digests import drawable_jobs, suite_key
    book = DigestBook.load()
    assert {job_key(*spec) for spec in drawable_jobs()} == set(book.jobs)
    assert suite_key() in book.suite
