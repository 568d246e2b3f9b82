"""One URL→host rule: every module counts a URL under the same domain as the
bare ``http://host/``, whatever fragment, path, query, port, userinfo or case
the URL carries."""

import json
from urllib.parse import quote

import pytest
from hypothesis import example, given, strategies as st

from launderscan.detector import Detection, build_resolution_index
from launderscan.fingerprint import FLAG_MALFORMED, extract_features
from launderscan.ingest import load_trace
from launderscan.ipattr import IpAttributionTable
from launderscan.model import PublicSuffixSet, normalize_domain, url_host
from launderscan.urlrules import (
    SpoofSignal,
    check_spoof_query,
    sibling_referrer_consistency,
    verify_spoof_followthrough,
)

from conftest import window_tally
from oracles import followthrough_index

SUFFIX = PublicSuffixSet.builtin()
IP = "10.1.2.3"
TAILS = ("", "/p", "?q=1", "#f", "#/a/b", "/p?q=1#f", ":8080/")

_LABEL = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789", min_size=1, max_size=8)


def _host(labels, suffix, upper):
    host = ".".join([*labels, suffix])
    return host.upper() if upper else host


# "zulilycom" matches no suffix: such hosts must stay malformed under every tail
hosts = st.builds(
    _host,
    st.lists(_LABEL, min_size=1, max_size=3),
    st.sampled_from(("com", "net", "co.uk", "zulilycom")),
    st.booleans(),
)


@pytest.mark.parametrize(
    "url, host",
    [
        ("http://www.target.com#top", "www.target.com"),
        ("https://user:pw@Shop.Example.COM:8443/a?b=c#d", "Shop.Example.COM:8443"),
        ("http://a.com?x=http://b.com/", "a.com"),
        ("http://a.com#/p?q", "a.com"),
        ("http://", ""),
        ("://a.com/", ""),
        ("a.com/path", ""),
    ],
)
def test_url_host_examples(url, host):
    assert url_host(url) == host


def _rec(url, ts=2_000):
    """The record ingest makes of one http line, domain included."""
    line = json.dumps({"ts": ts, "machine": "m1", "proc": "p", "url": url, "ip": IP})
    (rec,) = load_trace([line], SUFFIX).http
    return rec


def _answers(url: str, host: str):
    table = IpAttributionTable()
    table.insert("10.0.0.0/8", "isp")
    index = build_resolution_index(window_tally([_rec(url)], (0, 10_000)), table)
    detection = Detection(
        ip=IP,
        isp="isp",
        domains=frozenset(),
        process_names=(),
        machine_ids=frozenset({"m1"}),
        request_count=1,
        label="Unlabeled",
    )
    profile = extract_features([detection], [_rec(url)], SUFFIX)[0]
    signal = SpoofSignal(spoof_domain=normalize_domain(host, SUFFIX), land_ip=IP)
    verified = verify_spoof_followthrough(signal, 1_000, followthrough_index([_rec(url)]), 60_000)
    referrer = sibling_referrer_consistency(
        [f"http://ads.net/call?referrer={quote(url, safe='')}"], "referrer", SUFFIX
    )
    return set().union(*index.by_ip.values()), FLAG_MALFORMED in profile.signature_flags, verified, referrer.values


@given(host=hosts, tail=st.sampled_from(TAILS), user=st.sampled_from(("", "user@")))
@example(host="www.target.com", tail="#top", user="")
def test_every_module_resolves_a_url_like_its_bare_host(host, tail, user):
    url = f"http://{user}{host}{tail}"
    assert _rec(url).domain == normalize_domain(host, SUFFIX)
    bare = _answers(f"http://{host}/", host)
    assert bare[2], "a follow-through to the spoofed host itself must verify"
    assert _answers(url, host) == bare


def test_a_url_valued_parameter_counts_as_its_hosts_domain():
    """The spoof and referrer rules resolve the same value to the same domain."""
    value = "http://www.target.com/a"
    signal = check_spoof_query(f"http://ads.net/imp?spoof_domain={value}&land_ip={IP}", SUFFIX)
    assert signal.spoof_domain == "target.com"
    index = followthrough_index([_rec("http://target.com/")])
    assert verify_spoof_followthrough(signal, 1_000, index, 60_000)
    referrer = sibling_referrer_consistency([f"http://ads.net/call?referrer={value}"], "referrer", SUFFIX)
    assert referrer.values == {"target.com"}
