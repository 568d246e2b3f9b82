import random

import pytest

from launderscan.ingest import record_domain
from launderscan.model import HttpRecord, PublicSuffixSet
from launderscan.urlrules import (
    EmptyFingerprintError,
    EnvFingerprint,
    MalformedSignalError,
    check_spoof_query,
    classify_env,
    sibling_referrer_consistency,
    verify_spoof_followthrough,
)

SUFFIX = PublicSuffixSet.builtin()

NATIVE_ESCAPE = "function escape() { [native code] }"
TAMPERED_ESCAPE = "function(n) { return privateEncode(n, wrapper['escape']);}"


def test_spoof_query_extraction():
    sig = check_spoof_query("http://x.tld/ad?spoof_domain=example.com&land_ip=10.1.2.3", SUFFIX)
    assert sig is not None
    assert sig.spoof_domain.registrable == "example.com"
    assert sig.land_ip == "10.1.2.3"
    assert not sig.verified


def test_spoof_query_requires_both_keys():
    assert check_spoof_query("http://x.tld/ad?spoof_domain=example.com", SUFFIX) is None
    assert check_spoof_query("http://x.tld/ad?land_ip=1.2.3.4", SUFFIX) is None
    assert check_spoof_query("http://x.tld/ad", SUFFIX) is None


def test_spoof_query_malformed_land_ip():
    with pytest.raises(MalformedSignalError):
        check_spoof_query("http://x.tld/ad?spoof_domain=example.com&land_ip=10.1.2", SUFFIX)
    with pytest.raises(MalformedSignalError):
        check_spoof_query("http://x.tld/ad?spoof_domain=&land_ip=10.1.2.3", SUFFIX)


def test_spoof_query_percent_decoded_once():
    sig = check_spoof_query("http://x.tld/ad?spoof_domain=example%2Ecom&land_ip=10.1.2.3", SUFFIX)
    assert sig.spoof_domain.registrable == "example.com"


def test_spoof_query_order_and_noise_invariant():
    rng = random.Random(12)
    base = [("spoof_domain", "example.com"), ("land_ip", "10.1.2.3")]
    for _ in range(50):
        params = base + [(f"k{rng.randrange(9)}", f"v{rng.randrange(99)}") for _ in range(rng.randrange(5))]
        rng.shuffle(params)
        url = "http://x.tld/ad?" + "&".join(f"{k}={v}" for k, v in params)
        sig = check_spoof_query(url, SUFFIX)
        assert sig.spoof_domain.registrable == "example.com"
        assert sig.land_ip == "10.1.2.3"


def _rec(ts, url, ip, machine="m1"):
    return HttpRecord(
        timestamp=ts,
        machine_id=machine,
        process_name="p",
        method="GET",
        url=url,
        domain=record_domain(url, SUFFIX),
        referrer=None,
        server_ip=ip,
        status=200,
        user_agent=None,
    )


def _signal(ts=1000):
    return check_spoof_query(
        "http://x.tld/ad?spoof_domain=example.com&land_ip=10.1.2.3", SUFFIX, ts=ts
    )


def test_followthrough_verified():
    trace = [
        _rec(1000, "http://x.tld/ad?spoof_domain=example.com&land_ip=10.1.2.3", "4.4.4.4"),
        _rec(3000, "http://other.com/", "5.5.5.5"),
        _rec(6000, "http://www.example.com/page", "10.1.2.3"),
    ]
    assert verify_spoof_followthrough(_signal(), trace, horizon_ms=60_000).verified


def test_followthrough_wrong_ip_not_verified():
    trace = [_rec(6000, "http://www.example.com/page", "10.9.9.9")]
    assert not verify_spoof_followthrough(_signal(), trace, horizon_ms=60_000).verified


def test_followthrough_outside_horizon_not_verified():
    trace = [_rec(70_000, "http://www.example.com/page", "10.1.2.3")]
    assert not verify_spoof_followthrough(_signal(), trace, horizon_ms=60_000).verified
    # horizon is inclusive at the edge
    trace = [_rec(61_000, "http://www.example.com/page", "10.1.2.3")]
    assert verify_spoof_followthrough(_signal(), trace, horizon_ms=60_000).verified


def test_referrer_inconsistency_detected():
    urls = [
        "http://exch.net/bid?referrer=forbes.com&sz=300x250",
        "http://exch.net/bid?referrer=cnn.com&sz=728x90",
    ]
    check = sibling_referrer_consistency(urls, suffix=SUFFIX)
    assert not check.consistent
    assert check.values == {"forbes.com", "cnn.com"}


def test_referrer_single_or_absent_is_consistent():
    assert sibling_referrer_consistency(
        ["http://exch.net/bid?referrer=forbes.com"], suffix=SUFFIX
    ).consistent
    assert sibling_referrer_consistency(
        ["http://exch.net/bid?sz=1x1", "http://exch.net/other"], suffix=SUFFIX
    ).consistent
    assert sibling_referrer_consistency([], suffix=SUFFIX).consistent


def test_referrer_same_registrable_is_consistent():
    urls = [
        "http://exch.net/bid?referrer=www.forbes.com",
        "http://exch.net/bid?referrer=forbes.com",
        "http://exch.net/bid?referrer=http://forbes.com/story",
    ]
    assert sibling_referrer_consistency(urls, suffix=SUFFIX).consistent


def test_referrer_never_inconsistent_for_short_lists():
    rng = random.Random(4)
    for _ in range(50):
        url = f"http://exch.net/bid?referrer=site{rng.randrange(100)}.com"
        assert sibling_referrer_consistency([url], suffix=SUFFIX).consistent


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
