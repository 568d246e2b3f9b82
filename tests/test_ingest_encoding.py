"""Trace ingest on bytes that are not a well-formed trace: arbitrary bytes read
through the CLI's reader never raise in lenient mode, every line is counted
once, and strict mode aborts at the first line lenient mode skips."""

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from launderscan.cli import _read_lines
from launderscan.ingest import ParseAbortError, load_trace
from launderscan.model import PublicSuffixSet

from conftest import parsed_count

GOOD_HTTP = b'{"ts": 5, "machine": "m1", "url": "http://a.com/x", "ip": "1.2.3.4"}'
SAMPLE_LINES = [
    GOOD_HTTP,
    b'{"ts": 6, "machine": "m1", "kind": "impression", "attr_domain": "a.com"}',
    b'{"ts": 7, "machine": "m\\u00e9", "kind": "pageview", "pub_domain": "b.com"}',
    '{"ts": 8, "machine": "mé", "url": "http://é.com/", "ip": "1.2.3.4"}'.encode(),
    b'{"ts": 9, "machine": "m1", "url": "http://a.com/\xff", "ip": "1.2.3.4"}',
    b'{"ts": 9, "machine": "m\\udcff", "url": "http://a.com/", "ip": "1.2.3.4"}',
]


def _load(data: bytes, strict: bool):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "trace.jsonl"
        path.write_bytes(data)
        return load_trace(_read_lines(path), PublicSuffixSet.builtin(), strict=strict)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.binary(max_size=80), st.sampled_from(SAMPLE_LINES)), max_size=10))
def test_arbitrary_bytes_never_raise_and_strict_stops_at_first_skip(lines):
    data = b"\n".join(lines) + b"\n"
    lenient = _load(data, strict=False)
    assert len(lenient.skipped) + parsed_count(lenient) == lenient.total_lines
    if lenient.skipped:
        with pytest.raises(ParseAbortError) as err:
            _load(data, strict=True)
        assert (err.value.line_no, err.value.reason) == lenient.skipped.first
    else:
        assert parsed_count(_load(data, strict=True)) == parsed_count(lenient)


@pytest.mark.parametrize(
    "line, reason",
    [
        (b'{"ts": 5, "machine": "m1", "url": "http://a.com/\xff", "ip": "1.2.3.4"}', "bad encoding"),
        (b'{"ts": 5, "machine": "m\\udcff", "url": "http://a.com/", "ip": "1.2.3.4"}', "bad encoding"),
        (b"[" * 100_000, "bad json"),
        (b'{"ts": ' + b"1" * 5_000 + b"}", "bad json"),
    ],
    ids=["raw-byte", "escaped-lone-surrogate", "deep-nesting", "oversized-int"],
)
def test_undecodable_line_is_skipped_with_reason(line, reason):
    result = _load(GOOD_HTTP + b"\n" + line + b"\n", strict=False)
    assert len(result.http) == 1
    assert result.skipped.counts == {reason: 1}
    assert result.skipped.first == (2, reason)
