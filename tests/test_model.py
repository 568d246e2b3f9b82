from urllib.parse import urlsplit

import pytest
from hypothesis import example, given, settings, strategies as st

from launderscan.model import (
    InvalidDomainError,
    PublicSuffixSet,
    is_malformed_domain,
    normalize_domain,
    url_host,
    url_query,
)

from oracles import url_host_split

BUILTIN = PublicSuffixSet.builtin()
TINY = PublicSuffixSet(frozenset({"com", "co.uk", "net"}))


def match_oracle(host: str, suffixes) -> str | None:
    """The longest suffix that ends ``host``, trying every tail of its
    labels, longest first."""
    labels = host.split(".")
    for start in range(len(labels)):
        cand = ".".join(labels[start:])
        if cand in suffixes:
            return cand
    return None


def malformed_oracle(host: str, suffix_list: PublicSuffixSet) -> bool:
    """The malformed rule on the full host: the host, normalized but not cut
    to its registrable domain, ends in no known public suffix."""
    h = host.lower().rsplit("@", 1)[-1].split(":", 1)[0].rstrip(".")
    return suffix_list.match(h) is None


def test_normalize_strips_case_and_port():
    assert normalize_domain("WWW.Example.COM:8080", BUILTIN) == "example.com"


def test_normalize_two_label_suffix():
    assert normalize_domain("a.co.uk", TINY) == "a.co.uk"
    assert normalize_domain("shop.example.co.uk", TINY) == "example.co.uk"


def test_normalize_unknown_suffix_keeps_full_host():
    d = normalize_domain("li.zulilycom", BUILTIN)
    assert d == "li.zulilycom"
    assert is_malformed_domain(d, BUILTIN)


def test_normalize_trailing_dot_and_userinfo():
    assert normalize_domain("user@News.BBC.co.uk.", BUILTIN) == "bbc.co.uk"


@pytest.mark.parametrize("bad", ["", "  ", "a b.com", "a\t.com", "a..com", ":8080"])
def test_normalize_rejects_bad_hosts(bad):
    with pytest.raises(InvalidDomainError):
        normalize_domain(bad, BUILTIN)


def test_malformed_examples():
    assert is_malformed_domain(normalize_domain("li.zulilycom", BUILTIN), BUILTIN)
    assert not is_malformed_domain(normalize_domain("zulily.com", BUILTIN), BUILTIN)
    assert not is_malformed_domain(normalize_domain("shop.example.co.uk", TINY), TINY)


def test_suffix_match_respects_label_boundaries():
    # "xco.uk" ends with the string "co.uk" but not with the label sequence
    assert TINY.match("xco.uk") is None
    assert TINY.match("x.co.uk") == "co.uk"


def test_suffix_file_parsing():
    text = "# comment\ncom\n\n  CO.UK  \n.net # inline\n.\n"  # "." names no suffix
    ps = PublicSuffixSet.from_lines(text.splitlines(keepends=True))
    assert ps.suffixes == frozenset({"com", "co.uk", "net"})


_LABEL = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789-", min_size=1, max_size=8).filter(
    lambda s: not s.startswith("-") and not s.endswith("-")
)


@given(st.lists(_LABEL, min_size=1, max_size=5))
def test_normalize_idempotent(labels):
    host = ".".join(labels)
    once = normalize_domain(host, BUILTIN)
    twice = normalize_domain(once, BUILTIN)
    assert once == twice


# few labels, so hosts and suffixes share their tails often
_SMALL_LABEL = st.sampled_from(["a", "b", "co", "uk", "com", "x-1"])
_SUFFIX_SETS = st.builds(
    PublicSuffixSet,
    st.frozensets(st.lists(_SMALL_LABEL, min_size=1, max_size=3).map(".".join), max_size=6),
)


@settings(max_examples=500)
@given(
    st.lists(_SMALL_LABEL, min_size=1, max_size=5).map(".".join),
    st.sampled_from(["", ".", ":8080", ".:8080"]),
    st.sampled_from(["", "user@"]),
    st.booleans(),
    _SUFFIX_SETS,
)
def test_malformed_on_the_registrable_matches_the_full_host_rule(host, tail, userinfo, upper, suffixes):
    raw = userinfo + (host.upper() if upper else host) + tail
    registrable = normalize_domain(raw, suffixes)
    assert is_malformed_domain(registrable, suffixes) == malformed_oracle(raw, suffixes)
    assert normalize_domain(registrable, suffixes) == registrable


@settings(max_examples=500)
@given(st.lists(_SMALL_LABEL, min_size=1, max_size=12).map(".".join), _SUFFIX_SETS)
def test_suffix_match_equals_the_every_tail_oracle(host, suffixes):
    assert suffixes.match(host) == match_oracle(host, suffixes.suffixes)


class _CountingSet(frozenset):
    lookups = 0

    def __contains__(self, item):
        _CountingSet.lookups += 1
        return super().__contains__(item)


def test_suffix_match_tries_no_tail_longer_than_a_suffix():
    suffixes = PublicSuffixSet(_CountingSet({"com", "co.uk", "net"}))
    assert suffixes.max_labels == 2
    host = "a." * 10_000 + "com"  # 10,001 labels
    _CountingSet.lookups = 0
    assert suffixes.match(host) == "com"
    assert _CountingSet.lookups <= suffixes.max_labels


@given(st.lists(_LABEL, min_size=1, max_size=5))
def test_malformed_check_deterministic(labels):
    host = ".".join(labels)
    d = normalize_domain(host, BUILTIN)
    assert is_malformed_domain(d, BUILTIN) == is_malformed_domain(d, BUILTIN)


# the characters that end or open a URL part, the ones urlsplit drops or
# rejects (tab, CR, LF, unbalanced brackets, a fullwidth '#' that NFKC turns
# into '#'), and the ones parse_qsl decodes
_URL_TEXT = st.text(alphabet="ab1.:/[]#?%+@=& \t\r\n\uff03", max_size=24)


@settings(max_examples=500, deadline=None)
@given(st.sampled_from(("", "http://", "//", "a:", " http://")), _URL_TEXT)
@example("http://", "[bad/p?x=1")
@example("http://", "a\uff03b/?spoof_domain=a.com")
@example("http://", "x.tld/ad?spoof_do\tmain=a.com#f?g")
def test_url_query_matches_urlsplit_and_never_raises(prefix, rest):
    url = prefix + rest
    query = url_query(url)
    try:
        expected = urlsplit(url).query
    except ValueError:
        return
    assert query == expected


@settings(max_examples=1_000, deadline=None)
@given(st.sampled_from(("", "http://", "://", "a:", "a://", " http://")),
       st.text(alphabet="ab1.:/?#@%\t ", max_size=24))
@example("http://", "u@a.com:80/p?q=http://b.com/#f")
@example("http://", "a.com#x/y?z")
@example("http://", "@/")
def test_url_host_matches_the_split_form(prefix, rest):
    url = prefix + rest
    assert url_host(url) == url_host_split(url)
