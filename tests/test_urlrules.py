import random
from bisect import bisect_right
from operator import attrgetter
from urllib.parse import parse_qsl

import pytest
from hypothesis import example, given, settings, strategies as st

from launderscan.model import (
    InvalidDomainError,
    PublicSuffixSet,
    is_valid_ipv4,
    normalize_domain,
    url_host,
    url_query,
)
from launderscan.urlrules import (
    LAND_IP_KEY,
    SPOOF_DOMAIN_KEY,
    EmptyFingerprintError,
    EnvFingerprint,
    MalformedSignalError,
    SpoofSignal,
    check_spoof_query,
    classify_env,
    sibling_referrer_consistency,
    verify_spoof_followthrough,
    _query_values,
)

from oracles import HttpRecord, followthrough_index, record_domain

SUFFIX = PublicSuffixSet.builtin()

NATIVE_ESCAPE = "function escape() { [native code] }"
TAMPERED_ESCAPE = "function(n) { return privateEncode(n, wrapper['escape']);}"


def test_spoof_query_extraction():
    sig = check_spoof_query("http://x.tld/ad?spoof_domain=example.com&land_ip=10.1.2.3", SUFFIX)
    assert sig is not None
    assert sig.spoof_domain == "example.com"
    assert sig.land_ip == "10.1.2.3"


def test_spoof_query_requires_both_keys():
    assert check_spoof_query("http://x.tld/ad?spoof_domain=example.com", SUFFIX) is None
    assert check_spoof_query("http://x.tld/ad?land_ip=1.2.3.4", SUFFIX) is None
    assert check_spoof_query("http://x.tld/ad", SUFFIX) is None


def test_spoof_query_malformed_land_ip():
    with pytest.raises(MalformedSignalError):
        check_spoof_query("http://x.tld/ad?spoof_domain=example.com&land_ip=10.1.2", SUFFIX)
    with pytest.raises(MalformedSignalError):
        check_spoof_query("http://x.tld/ad?spoof_domain=&land_ip=10.1.2.3", SUFFIX)
    # octets whose digits are not ASCII: a superscript two (raw and
    # percent-encoded) and an Arabic-Indic one; an octet with a leading zero
    for land_ip in ("1.1.1.%C2%B2", "1.1.1.\u00b2", "%D9%A1.1.1.1", "1.2.3.04"):
        with pytest.raises(MalformedSignalError):
            check_spoof_query(f"http://x.tld/ad?spoof_domain=example.com&land_ip={land_ip}", SUFFIX)


def test_spoof_query_percent_decoded_once():
    sig = check_spoof_query("http://x.tld/ad?spoof_domain=example%2Ecom&land_ip=10.1.2.3", SUFFIX)
    assert sig.spoof_domain == "example.com"


@pytest.mark.parametrize(
    "query",
    [
        "spoof%5Fdomain=example.com&land%5Fip=10.1.2.3",
        "%73poof_domain=example.com&land_ip=10.1.2.3",
        "spoof_do\tmain=example.com&land_ip=10.1.2.3",  # urlsplit drops the tab
    ],
)
def test_spoof_query_keys_spelled_another_way_still_signal(query):
    sig = check_spoof_query("http://x.tld/ad?" + query, SUFFIX)
    assert sig is not None
    assert sig.spoof_domain == "example.com"
    assert sig.land_ip == "10.1.2.3"


def test_spoof_query_order_and_noise_invariant():
    rng = random.Random(12)
    base = [("spoof_domain", "example.com"), ("land_ip", "10.1.2.3")]
    for _ in range(50):
        params = base + [(f"k{rng.randrange(9)}", f"v{rng.randrange(99)}") for _ in range(rng.randrange(5))]
        rng.shuffle(params)
        url = "http://x.tld/ad?" + "&".join(f"{k}={v}" for k, v in params)
        sig = check_spoof_query(url, SUFFIX)
        assert sig.spoof_domain == "example.com"
        assert sig.land_ip == "10.1.2.3"


def _spoof_oracle(url: str, suffix: PublicSuffixSet):
    """check_spoof_query without its shortcuts: every query parsed, every
    value checked afresh.  The signal or None, or the error message."""
    values: dict[str, list[str]] = {}
    for key, val in parse_qsl(url_query(url), keep_blank_values=True):
        values.setdefault(key, []).append(val)
    if "spoof_domain" not in values or "land_ip" not in values:
        return None
    spoof_val, land_val = values["spoof_domain"][0], values["land_ip"][0]
    if not is_valid_ipv4(land_val):
        return f"unparseable land_ip value {land_val!r}"
    try:
        dom = normalize_domain(url_host(spoof_val) if "://" in spoof_val else spoof_val, suffix)
    except InvalidDomainError:
        return f"unparseable spoof_domain value {spoof_val!r}"
    return SpoofSignal(spoof_domain=dom, land_ip=land_val)


def _spoof_outcome(url: str, suffix: PublicSuffixSet):
    try:
        return check_spoof_query(url, suffix)
    except MalformedSignalError as err:
        return str(err)


_URL_PIECES = st.sampled_from([
    "spoof_domain", "land_ip", "spoof", "_domain", "land", "_ip", "%5F", "%73", "%2E", "%", "+",
    "\t", "\r", "\n", "=", "&", "?", "#", "http://", "a.com", "www.b.co.uk", "1.2.3.4", "10.0.0.", "5",
    " ", "\u00b2", "\x00",
])
ROOTLESS = PublicSuffixSet.from_lines(["com"])  # no co.uk: a second suffix set for the memo


@settings(max_examples=1_000, deadline=None)
@given(st.lists(_URL_PIECES | st.text(max_size=3), max_size=16).map("".join),
       st.sampled_from([SUFFIX, ROOTLESS]))
@example("http://x.tld/ad?spoof_do\tmain=a.com&land_ip=1.2.3.4", SUFFIX)
@example("http://x.tld/ad?spoof_domain=a.com&land\r_ip=1.2.3.4", SUFFIX)
@example("http://x.tld/ad?spoof\n_domain=a.com&land_ip=1.2.3.4", SUFFIX)
@example("http://x.tld/ad?spoof%5Fdomain=a.com&land%5Fip=1.2.3.4", SUFFIX)
@example("http://x.tld/ad?spoof_domain=x+y.com&land_ip=1.2.3.4", SUFFIX)
@example("http://x.tld/ad?spoof_domain=http://www.b.co.uk/&land_ip=1.2.3.4", SUFFIX)
@example("http://x.tld/ad?spoof_domain=http://www.b.co.uk/&land_ip=1.2.3.4", ROOTLESS)
def test_spoof_query_matches_unshortcut_oracle(url, suffix):
    """The URL pre-test and the memoised value checks change no outcome."""
    assert _spoof_outcome(url, suffix) == _spoof_oracle(url, suffix)


_QUERY_PIECES = st.sampled_from([
    "&", "=", ";", "%", "+", "\t", "spoof_domain", "land_ip", "ref", "referrer",
    "spoof", "_domain", "land", "_ip", "re", "ferrer", "%5F", "%3D", "%26", "a.com", "1.2.3.4",
])
# the rules' key sets: the spoof keys, --referrer-param values, and an empty one
_QUERY_KEYS = st.sampled_from([(SPOOF_DOMAIN_KEY, LAND_IP_KEY), ("ref",), ("referrer",), ("",)])


@settings(max_examples=1_000, deadline=None)
@given(st.lists(_QUERY_PIECES | st.text(max_size=2), max_size=12).map("".join), _QUERY_KEYS)
@example("spoof_domain=a=b&&land_ip&spoof_domain=", (SPOOF_DOMAIN_KEY, LAND_IP_KEY))
@example("ref=a.com;ref=b.com&ref", ("ref",))
@example("=a.com&&=&x", ("",))
def test_query_values_match_parse_qsl(query, keys):
    """A query with neither '%' nor '+', split without parse_qsl, gives
    each key's values as parse_qsl does."""
    url = "http://x.tld/ad?" + query
    want: dict[str, list[str]] = {}
    for key, val in parse_qsl(url_query(url), keep_blank_values=True):
        if key in keys:
            want.setdefault(key, []).append(val)
    assert _query_values(url, keys) == want


def _rec(ts, url, ip, machine="m1"):
    return HttpRecord(
        timestamp=ts,
        machine_id=machine,
        process_name="p",
        url=url,
        domain=record_domain(url, SUFFIX),
        referrer=None,
        server_ip=ip,
    )


def _signal():
    return check_spoof_query("http://x.tld/ad?spoof_domain=example.com&land_ip=10.1.2.3", SUFFIX)


def test_followthrough_verified():
    trace = [
        _rec(1000, "http://x.tld/ad?spoof_domain=example.com&land_ip=10.1.2.3", "4.4.4.4"),
        _rec(3000, "http://other.com/", "5.5.5.5"),
        _rec(6000, "http://www.example.com/page", "10.1.2.3"),
    ]
    assert verify_spoof_followthrough(_signal(), 1000, followthrough_index(trace), horizon_ms=60_000)


def test_followthrough_wrong_ip_not_verified():
    trace = [_rec(6000, "http://www.example.com/page", "10.9.9.9")]
    assert not verify_spoof_followthrough(_signal(), 1000, followthrough_index(trace), horizon_ms=60_000)


def test_followthrough_at_the_signal_time_not_verified():
    trace = [
        _rec(999, "http://www.example.com/page", "10.1.2.3"),
        _rec(1000, "http://www.example.com/page", "10.1.2.3"),
        _rec(1000, "http://x.tld/ad?spoof_domain=example.com&land_ip=10.1.2.3", "4.4.4.4"),
    ]
    assert not verify_spoof_followthrough(_signal(), 1000, followthrough_index(trace), horizon_ms=60_000)
    trace.append(_rec(1001, "http://www.example.com/page", "10.1.2.3"))
    assert verify_spoof_followthrough(_signal(), 1000, followthrough_index(trace), horizon_ms=60_000)


def test_followthrough_outside_horizon_not_verified():
    trace = [_rec(70_000, "http://www.example.com/page", "10.1.2.3")]
    assert not verify_spoof_followthrough(_signal(), 1000, followthrough_index(trace), horizon_ms=60_000)
    # horizon is inclusive at the edge
    trace = [_rec(61_000, "http://www.example.com/page", "10.1.2.3")]
    assert verify_spoof_followthrough(_signal(), 1000, followthrough_index(trace), horizon_ms=60_000)


def _scan_followthrough(signal, ts, trace, horizon_ms):
    """Reference: scan the machine's time-sorted records after ``ts`` up to
    the horizon for the spoofed domain requested from the landing IP."""
    for k in range(bisect_right(trace, ts, key=attrgetter("timestamp")), len(trace)):
        rec = trace[k]
        if rec.timestamp > ts + horizon_ms:
            break
        if rec.server_ip == signal.land_ip and rec.domain == signal.spoof_domain:
            return True
    return False


_IPS = ("10.1.2.3", "10.9.9.9")
_URLS = ("http://www.example.com/p", "http://example.com/", "http://other.com/", "http://zulilycom/")


@given(
    rows=st.lists(st.tuples(st.integers(0, 40), st.sampled_from(_URLS), st.sampled_from(_IPS)), max_size=30),
    land_ip=st.sampled_from(_IPS),
    spoof_domain=st.sampled_from(("example.com", "other.com")),
    ts=st.integers(-5, 45),
    horizon_ms=st.integers(0, 20),
)
def test_followthrough_lookup_equals_the_record_scan(rows, land_ip, spoof_domain, ts, horizon_ms):
    trace = sorted((_rec(t, url, ip) for t, url, ip in rows), key=attrgetter("timestamp"))
    signal = SpoofSignal(spoof_domain=spoof_domain, land_ip=land_ip)
    assert verify_spoof_followthrough(signal, ts, followthrough_index(trace), horizon_ms) == (
        _scan_followthrough(signal, ts, trace, horizon_ms)
    )


class _CountingTrace(list):
    """A record list that counts every record read from it."""

    reads = 0

    def __getitem__(self, k):
        self.reads += 1
        return super().__getitem__(k)

    def __iter__(self):
        for rec in super().__iter__():
            self.reads += 1
            yield rec


def _followthrough_reads(n):
    """Record reads to verify n spoof signals 1 ms apart, all inside one
    horizon, whose landing IP the machine never contacts."""
    url = "http://x.tld/ad?spoof_domain=example.com&land_ip=10.1.2.3"
    trace = _CountingTrace(_rec(1_000 + i, url, "4.4.4.4") for i in range(n))
    index = followthrough_index(trace)
    for i in range(n):
        assert not verify_spoof_followthrough(_signal(), 1_000 + i, index, horizon_ms=60_000)
    return trace.reads


def test_followthrough_reads_grow_linearly_with_the_signals():
    n = 2_000
    assert _followthrough_reads(2 * n) <= 2.1 * _followthrough_reads(n)


def test_referrer_inconsistency_detected():
    urls = [
        "http://exch.net/bid?referrer=forbes.com&sz=300x250",
        "http://exch.net/bid?referrer=cnn.com&sz=728x90",
    ]
    check = sibling_referrer_consistency(urls, "referrer", SUFFIX)
    assert not check.consistent
    assert check.values == {"forbes.com", "cnn.com"}


def test_referrer_single_or_absent_is_consistent():
    assert sibling_referrer_consistency(
        ["http://exch.net/bid?referrer=forbes.com"], "referrer", SUFFIX
    ).consistent
    assert sibling_referrer_consistency(
        ["http://exch.net/bid?sz=1x1", "http://exch.net/other"], "referrer", SUFFIX
    ).consistent
    assert sibling_referrer_consistency([], "referrer", SUFFIX).consistent


def test_referrer_same_registrable_is_consistent():
    urls = [
        "http://exch.net/bid?referrer=www.forbes.com",
        "http://exch.net/bid?referrer=forbes.com",
        "http://exch.net/bid?referrer=http://forbes.com/story",
    ]
    assert sibling_referrer_consistency(urls, "referrer", SUFFIX).consistent


def test_referrer_never_inconsistent_for_short_lists():
    rng = random.Random(4)
    for _ in range(50):
        url = f"http://exch.net/bid?referrer=site{rng.randrange(100)}.com"
        assert sibling_referrer_consistency([url], "referrer", SUFFIX).consistent


def test_classify_env_verbatim_strings():
    clean = classify_env(EnvFingerprint(functions={"escape": NATIVE_ESCAPE}))
    assert clean.clean
    tampered = classify_env(EnvFingerprint(functions={"escape": TAMPERED_ESCAPE}))
    assert tampered.tampered == {"escape"}


def test_classify_env_all_native_and_variants():
    fp = EnvFingerprint(
        functions={
            "escape": NATIVE_ESCAPE,
            "encodeURI": "function encodeURI() {\n    [native code]\n}",
            "encodeURIComponent": "function () { [native code] }",
        }
    )
    assert classify_env(fp).clean


def test_classify_env_name_mismatch_is_tampered():
    fp = EnvFingerprint(functions={"escape": "function encodeURI() { [native code] }"})
    assert classify_env(fp).tampered == {"escape"}


def test_classify_env_errors():
    with pytest.raises(EmptyFingerprintError):
        classify_env(EnvFingerprint(functions={}))
    with pytest.raises(ValueError):
        EnvFingerprint(functions={"alert": "function alert() { [native code] }"})


def test_classify_env_single_substitution_property():
    rng = random.Random(31)
    names = sorted({"escape", "encodeURI", "encodeURIComponent"})
    for _ in range(100):
        victim = rng.choice(names)
        functions = {n: f"function {n}() {{ [native code] }}" for n in names}
        functions[victim] = f"function(x) {{ return hook_{rng.randrange(1000)}(x); }}"
        assert classify_env(EnvFingerprint(functions=functions)).tampered == {victim}
