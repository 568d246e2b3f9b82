import pytest
from hypothesis import given, strategies as st

from launderscan.model import (
    InvalidDomainError,
    PublicSuffixSet,
    is_malformed_domain,
    normalize_domain,
)

BUILTIN = PublicSuffixSet.builtin()
TINY = PublicSuffixSet(frozenset({"com", "co.uk", "net"}))


def test_normalize_strips_case_and_port():
    d = normalize_domain("WWW.Example.COM:8080", BUILTIN)
    assert d.registrable == "example.com"
    assert d.full_host == "www.example.com"


def test_normalize_two_label_suffix():
    d = normalize_domain("a.co.uk", TINY)
    assert d.registrable == "a.co.uk"
    assert d.full_host == "a.co.uk"
    assert normalize_domain("shop.example.co.uk", TINY).registrable == "example.co.uk"


def test_normalize_unknown_suffix_keeps_full_host():
    d = normalize_domain("li.zulilycom", BUILTIN)
    assert d.registrable == "li.zulilycom"
    assert is_malformed_domain(d, BUILTIN)


def test_normalize_trailing_dot_and_userinfo():
    assert normalize_domain("user@News.BBC.co.uk.", BUILTIN).registrable == "bbc.co.uk"


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
    text = "# comment\ncom\n\n  CO.UK  \n.net # inline\n"
    ps = PublicSuffixSet.from_lines(text.splitlines(keepends=True))
    assert ps.suffixes == frozenset({"com", "co.uk", "net"})


_LABEL = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789-", min_size=1, max_size=8).filter(
    lambda s: not s.startswith("-") and not s.endswith("-")
)


@given(st.lists(_LABEL, min_size=1, max_size=5))
def test_normalize_idempotent(labels):
    host = ".".join(labels)
    once = normalize_domain(host, BUILTIN)
    twice = normalize_domain(once.full_host, BUILTIN)
    assert once == twice


@given(st.lists(_LABEL, min_size=1, max_size=5))
def test_malformed_check_deterministic(labels):
    host = ".".join(labels)
    d = normalize_domain(host, BUILTIN)
    assert is_malformed_domain(d, BUILTIN) == is_malformed_domain(d, BUILTIN)
