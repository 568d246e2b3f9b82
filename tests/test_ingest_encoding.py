"""Trace ingest on bytes that are not a well-formed trace: arbitrary bytes read
through the CLI's reader never raise in lenient mode, every line is counted
once, strict mode aborts at the first line lenient mode skips, and a line
decodes exactly when json.loads accepts it."""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from launderscan.cli import _read_lines
from launderscan.ingest import ParseAbortError, decode_line, load_trace
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


def _decoded(decode, line: str):
    """(True, value) when ``decode`` accepts ``line``, else (False, None)."""
    try:
        return True, decode(line)
    except (ValueError, RecursionError):
        return False, None


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
).map(json.dumps)  # NaN and Infinity included
_EDGES = st.sampled_from(["", " ", "\ufeff", "\x1c", "\u00a0", "\t", "x", "1", "{}", "]", ",", "\n"])


@settings(max_examples=500, deadline=None)
@given(st.one_of(st.text(max_size=40), st.tuples(_EDGES, _JSON_VALUES, _EDGES).map("".join)))
@example('{"a": 1} {"b": 2}')  # trailing data
@example('{"a": 1}x')
@example("\ufeff" + GOOD_HTTP.decode())  # a leading BOM
@example("NaN")
@example('[NaN, Infinity, -Infinity, 1e999]')
@example('{"a": 1, "a": 2, "b": {"a": 3, "a": [4]}}')  # duplicate keys: the last wins
@example("[" * 100_000)  # deep nesting
@example("[" * 100_000 + "]" * 100_000)
@example('{"ts": ' + "1" * 5_000 + "}")  # an int past the 4,300-digit limit
@example("1" * 4_300)
@example('{"machine": "m\\udcff"}')  # an escaped lone surrogate decodes
@example('"\\ud83d\\ude00"')
def test_decode_line_accepts_what_json_loads_accepts(text):
    """load_trace's decode (``decode_line``, one raw_decode per stripped line)
    accepts a stripped line exactly when json.loads accepts it, and gives an
    equal value: the same JSON text, so NaN, key order, ints and floats agree."""
    line = text.strip()
    ok, want = _decoded(json.loads, line)
    got_ok, got = _decoded(decode_line, line)
    assert got_ok == ok
    if ok:
        assert type(got) is type(want)
        assert json.dumps(got) == json.dumps(want)
