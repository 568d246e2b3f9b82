"""Trace ingest on bytes that are not a well-formed trace: arbitrary bytes read
through the CLI's reader never raise in lenient mode, every line is counted
once, strict mode aborts at the first line lenient mode skips, and a line
decodes exactly when json.loads accepts it.  The orjson decode and a narrowed
``kinds`` change no record, skip or strict abort, and the records come in
time order, stable."""

import json
import sys
import tempfile
from operator import attrgetter
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from launderscan.cli import _read_lines
from launderscan.ingest import RECORD_KINDS, ParseAbortError, decode_line, load_trace
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


# -- the orjson decode and ``kinds`` leave every record and skip as they were

try:
    import orjson
except ImportError:
    orjson = None

needs_orjson = pytest.mark.skipif(orjson is None, reason="orjson is not installed")


def _http_line(**fields) -> str:
    obj = {"ts": 5, "machine": "m1", "url": "http://a.com/x", "ip": "1.2.3.4"}
    obj.update(fields)
    return json.dumps(obj)


def _sized(n: int) -> str:
    """A good http line of exactly ``n`` characters."""
    stub = _http_line(pad="")
    return stub[:-2] + "x" * (n - len(stub)) + '"}'


EQUIVALENCE_LINES = [
    *(_http_line(status=v) for v in (2**64, -2**64, -2**63 - 1, 2**63, 200, 200.0, True)),
    *(_http_line(ts=v) for v in (2**64, -2**64, -2**63 - 1)),
    "[" * 200_000 + "]" * 200_000,
    _http_line(x=json.loads("[" * 600 + "]" * 600)),
    _http_line()[:-1] + ', "x": ' + "[" * 2_000 + "]" * 2_000 + "}",  # too deep for json
    _http_line(x=json.loads("[" * 470 + "]" * 470)),  # short enough for orjson
    "[" * 511 + "]" * 511,
    _sized(1_024),
    _sized(1_025),
    '{"ts": 5, "machine": "m\\udcff", "url": "http://a.com/", "ip": "1.2.3.4"}',
    '{"ts": 5, "machine": "\\ud83d\\ude00", "url": "http://a.com/", "ip": "1.2.3.4"}',
    "\ufeff" + _http_line(),
    "null",
    "NaN",
    '{"ts": NaN, "machine": "m1", "url": "http://a.com/", "ip": "1.2.3.4"}',
    '{"ts": 5, "machine": "m1", "url": "http://a.com/", "ip": "1.2.3.4", "status": 1e400}',
    '{"ts": 1, "machine": "m1", "ts": 6, "url": "http://a.com/", "ip": "1.2.3.4", "url": 7}',
    '{"ts": 1, "machine": "m1", "ts": 6, "url": "http://b.com/", "ip": "1.2.3.4"}',
    '{"ts": 5, "machine": "m1", "kind": "impression", "attr_domain": "a.com", "ts": 9}',
    '{"ts": 5, "machine": "m1", "url": "http://a.com/", "ip": "1.2.3.4"} x',
    '{"ts": 5, "machine": "m1", "url": "http://a\x01.com/", "ip": "1.2.3.4"}',
    "",
    # JSON whitespace, which orjson takes unstripped, and other whitespace,
    # which only strip() drops
    *(ws + _http_line() for ws in (" ", "\t", "\r", "\x0c", "\xa0", "\x85", "\u2028")),
    *(_http_line() + ws for ws in (" ", "\t", "\r", "\x0c", "\xa0", "\x85", "\u2028")),
]
EQUIVALENCE_BYTES = [
    *(line.encode("utf-8", "surrogatepass") for line in EQUIVALENCE_LINES),
    b'{"ts": 5, "machine": "m\xff", "url": "http://a.com/", "ip": "1.2.3.4"}',
    *SAMPLE_LINES,
]

_FIELD_VALUES = st.one_of(
    st.none(), st.booleans(), st.floats(), st.text(max_size=6),
    st.integers(), st.integers(min_value=2**63 - 2, max_value=2**64 + 2).map(lambda v: v * (-1) ** (v % 2)),
    st.sampled_from(["a.com", "http://b.co.uk/", "1.2.3.4", "m1", "impression", "pageview", "http",
                     "\udcff", "\ufeff", "é"]),
    st.lists(st.integers(), max_size=2),
)
_FIELDS = st.dictionaries(
    st.sampled_from(["ts", "machine", "url", "ip", "kind", "status", "proc", "method", "ua", "ref",
                     "attr_domain", "pub_domain", "account"]),
    _FIELD_VALUES, max_size=8,
)
_TRACE_LINES = st.one_of(
    _FIELDS.map(lambda d: json.dumps({"ts": 5, "machine": "m1", **d}).encode("utf-8", "surrogatepass")),
    _FIELDS.map(lambda d: _http_line(**d).encode("utf-8", "surrogatepass")),
    st.binary(max_size=40),
    st.sampled_from(EQUIVALENCE_BYTES),
)


def _text_lines(data: bytes) -> list[str]:
    """``data``'s lines as the CLI's reader gives them."""
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "trace.jsonl"
        path.write_bytes(data)
        return list(_read_lines(path))


def _outcome(data: bytes | list[str], strict: bool, with_orjson: bool, kinds=RECORD_KINDS,
             consumer=None):
    """What ``load_trace`` gives with its orjson decode on or off, from a
    file's bytes or from its text lines: the strict abort, or the records and
    skips."""
    lines = _text_lines(data) if isinstance(data, bytes) else data
    off = {} if with_orjson else {"orjson": None}  # a None entry fails the import
    try:
        with mock.patch.dict(sys.modules, off):
            got = load_trace(lines, PublicSuffixSet.builtin(), strict=strict, kinds=kinds,
                             consumer=consumer)
    except ParseAbortError as err:
        return ("abort", err.line_no, err.reason)
    return (got.http, got.impressions, got.pageviews, got.skipped.counts, got.skipped.first,
            got.total_lines)


def _skips(outcome):
    """An outcome without its records: the abort, or the skips and line count."""
    return outcome if outcome[0] == "abort" else outcome[3:]


@needs_orjson
@settings(max_examples=300, deadline=None)
@given(st.lists(_TRACE_LINES, max_size=8))
def test_orjson_decode_loads_what_json_loads(lines):
    data = b"\n".join(lines) + b"\n"
    for strict in (False, True):
        assert _outcome(data, strict, True) == _outcome(data, strict, False)


@needs_orjson
@pytest.mark.parametrize("line", EQUIVALENCE_BYTES, ids=range(len(EQUIVALENCE_BYTES)))
def test_orjson_decode_loads_each_odd_line_as_json(line):
    """From a file, and as a text line that no reader has split (a CR,
    which the file reader ends a line at, stays in it)."""
    data = GOOD_HTTP + b"\n" + line + b"\n"
    text = [GOOD_HTTP.decode(), line.decode("utf-8", "surrogateescape")]
    for strict in (False, True):
        assert _outcome(data, strict, True) == _outcome(data, strict, False)
        assert _outcome(text, strict, True) == _outcome(text, strict, False)


@needs_orjson
def test_orjson_decode_skips_200000_deep_nesting_as_bad_json():
    # orjson 3.8.3 itself crashes the process on this line
    _, _, _, counts, first, _ = _outcome(GOOD_HTTP + b"\n" + b"[" * 200_000 + b"]" * 200_000,
                                         False, True)
    assert (counts, first) == ({"bad json": 1}, (2, "bad json"))


# records out of time order, with equal timestamps within and across kinds;
# each tie is in an order that no sort on another field would give
TIME_TIES = [
    b'{"ts": 9, "machine": "m2", "url": "http://b.com/2", "ip": "1.2.3.4"}',
    b'{"ts": 7, "machine": "m2", "kind": "pageview", "pub_domain": "b.com"}',
    b'{"ts": 5, "machine": "m2", "kind": "impression", "attr_domain": "b.com"}',
    b'{"ts": 9, "machine": "m1", "url": "http://a.com/1", "ip": "1.2.3.4"}',
    b'{"ts": 5, "machine": "m3", "url": "http://c.com/3", "ip": "1.2.3.4"}',
    b'{"ts": 5, "machine": "m1", "kind": "impression", "attr_domain": "a.com"}',
    b'{"ts": 7, "machine": "m1", "kind": "pageview", "pub_domain": "a.com"}',
    GOOD_HTTP,  # ts 5, machine m1
    b'{"ts": 1, "machine": "m3", "kind": "pageview", "pub_domain": "c.com"}',
]


@settings(max_examples=200, deadline=None)
@given(st.lists(_TRACE_LINES, max_size=8), st.booleans())
@example(TIME_TIES, True)
@example(TIME_TIES, False)
def test_kinds_keep_only_their_records_and_every_skip(lines, with_orjson):
    """Each list equals the records of every line loaded on its own,
    concatenated in file order and then stable-sorted by timestamp, for each
    ``kinds``, lenient and (unless it aborts) strict.  With a consumer, the
    http list stays empty and the consumer gets those http records' fields
    in file order, unsorted; the other lists and the skips do not change."""
    data = b"\n".join(lines) + b"\n"
    full = _outcome(data, False, with_orjson)
    for kinds in [RECORD_KINDS, (), ("http",), ("impression", "pageview"), ("impression",), ("pageview",)]:
        http, impressions, pageviews, *rest = _outcome(data, False, with_orjson, kinds)
        assert rest == list(full[3:])
        assert http == (full[0] if "http" in kinds else [])
        assert impressions == (full[1] if "impression" in kinds else [])
        assert pageviews == (full[2] if "pageview" in kinds else [])
        strict = _outcome(data, True, with_orjson, kinds)
        assert _skips(strict) == _skips(_outcome(data, True, with_orjson))
        per_line = [_outcome([line], False, with_orjson, kinds) for line in _text_lines(data)]
        want = [sorted((rec for got in per_line for rec in got[k]), key=attrgetter("timestamp"))
                for k in range(3)]
        assert [http, impressions, pageviews] == want
        if strict[0] != "abort":
            assert list(strict[:3]) == want
        in_file_order = [rec for got in per_line for rec in got[0]]
        for strict_mode, outcome in ((False, full), (True, strict)):
            streamed = []
            got = _outcome(data, strict_mode, with_orjson, kinds,
                           lambda *fields: streamed.append(fields))
            if outcome[0] == "abort":
                assert got == outcome
                continue
            assert got[0] == [] and list(got[1:3]) == want[1:] and got[3:] == outcome[3:]
            assert streamed == in_file_order
