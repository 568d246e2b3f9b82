import random

import pytest

from launderscan.ingest import AliasGroups, load_alias_groups
from launderscan.model import DAY_MS, DomainEvent, PublicSuffixSet, normalize_domain
from launderscan.panel import (
    SessionPolicy,
    attributed_ads,
    misattribution_table,
    publisher_visits,
    rank_machines,
)

from conftest import DAY0, total_attributed

SUFFIX = PublicSuffixSet.builtin()
ALIAS = load_alias_groups(["outlook.com,live.com,hotmail.com", "realtor.com,move.com"], SUFFIX)


def _imp(machine, domain, ts):
    return DomainEvent(timestamp=ts, machine_id=machine, domain=normalize_domain(domain, SUFFIX))


def _pv(machine, domain, ts):
    return DomainEvent(timestamp=ts, machine_id=machine, domain=normalize_domain(domain, SUFFIX))


def test_policy_validation():
    with pytest.raises(ValueError):
        SessionPolicy(lookback_ms=0)


def test_attributed_ads_day_boundary():
    imps = [
        _imp("m1", "a.com", DAY0),
        _imp("m1", "a.com", DAY0 + DAY_MS - 1),
        _imp("m1", "a.com", DAY0 - 1),  # previous day
        _imp("m1", "a.com", DAY0 + DAY_MS),  # next day
        _imp("m2", "b.com", DAY0 + 5),
    ]
    ads = attributed_ads(imps, DAY0, DAY0 + DAY_MS)
    assert len(ads["m1"]) == 2
    assert ads["m2"] == [(DAY0 + 5, "b.com")]
    assert attributed_ads([], DAY0, DAY0 + DAY_MS) == {}


def test_visits_alias_sibling_counts():
    policy = SessionPolicy(alias=ALIAS)
    visits = publisher_visits([_pv("m1", "hotmail.com", DAY0 + 1000)], policy)
    assert visits.visited("m1", "live.com", DAY0 + 61_000)
    assert visits.visited("m1", "outlook.com", DAY0 + 61_000)
    assert not visits.visited("m1", "realtor.com", DAY0 + 61_000)
    assert not visits.visited("m2", "live.com", DAY0 + 61_000)


def test_visits_lookback_boundary():
    policy = SessionPolicy(lookback_ms=10_000, alias=AliasGroups.empty())
    visits = publisher_visits([_pv("m1", "a.com", DAY0 + 1000)], policy)
    assert visits.visited("m1", "a.com", DAY0 + 1000)  # same instant
    assert visits.visited("m1", "a.com", DAY0 + 11_000)  # exactly lookback later
    assert not visits.visited("m1", "a.com", DAY0 + 11_001)  # 1 ms too late
    assert not visits.visited("m1", "a.com", DAY0 + 999)  # view is in the future


def test_visits_include_previous_day_within_lookback():
    policy = SessionPolicy(lookback_ms=DAY_MS)
    visits = publisher_visits([_pv("m1", "a.com", DAY0 - 3_600_000)], policy)
    assert visits.visited("m1", "a.com", DAY0 + 1000)


def test_no_visits_means_nothing_visited():
    policy = SessionPolicy()
    visits = publisher_visits([], policy)
    assert not visits.visited("m1", "a.com", DAY0 + 1)


def test_fraction_all_missing():
    policy = SessionPolicy()
    ads = attributed_ads(
        [_imp("m1", "d.com", DAY0 + i) for i in range(1, 11)], DAY0, DAY0 + DAY_MS
    )
    table = misattribution_table(ads, publisher_visits([], policy))
    assert table.per_domain["d.com"].fraction == 1.0
    assert table.per_machine["m1"].missing == 10


def test_fraction_hand_counted_quarters():
    policy = SessionPolicy(lookback_ms=60_000)
    pvs = [_pv("m1", "d.com", DAY0 + 1000)]
    imps = [
        _imp("m1", "d.com", DAY0 + 30_000),   # visited 29 s earlier -> ok
        _imp("m1", "d.com", DAY0 + 100_000),  # outside 60 s lookback -> missing
        _imp("m1", "d.com", DAY0 + 200_000),  # missing
        _imp("m1", "d.com", DAY0 + 300_000),  # missing
    ]
    table = misattribution_table(
        attributed_ads(imps, DAY0, DAY0 + DAY_MS), publisher_visits(pvs, policy)
    )
    stat = table.per_domain["d.com"]
    assert (stat.attributed, stat.missing) == (4, 3)
    assert stat.fraction == 0.75


def test_alias_rule_prevents_false_positive():
    policy = SessionPolicy(alias=ALIAS)
    pvs = [_pv("m1", "hotmail.com", DAY0 + 1000)]
    imps = [_imp("m1", "live.com", DAY0 + 60_000), _imp("m1", "outlook.com", DAY0 + 90_000)]
    table = misattribution_table(
        attributed_ads(imps, DAY0, DAY0 + DAY_MS), publisher_visits(pvs, policy)
    )
    assert table.per_domain["live.com"].fraction == 0.0
    assert table.per_machine["m1"].missing == 0
    # without the alias groups the same ads are missing
    bare = SessionPolicy()
    table = misattribution_table(
        attributed_ads(imps, DAY0, DAY0 + DAY_MS), publisher_visits(pvs, bare)
    )
    assert table.per_machine["m1"].missing == 2


def test_rank_machines_bot_first_and_min_ads():
    policy = SessionPolicy()
    imps = [_imp("bot", f"d{i % 7}.com", DAY0 + i) for i in range(500)]
    imps += [_imp("clean", "d0.com", DAY0 + 1_000_000 + i) for i in range(50)]
    pvs = [_pv("clean", "d0.com", DAY0 + 900_000)]
    table = misattribution_table(
        attributed_ads(imps, DAY0, DAY0 + DAY_MS), publisher_visits(pvs, policy)
    )
    ranked = rank_machines(table, min_ads=25)
    assert ranked[0] == "bot"
    assert table.per_machine["clean"].missing == 0
    assert rank_machines(table, min_ads=1000) == []


def test_rank_machines_tie_breaks_lexically():
    policy = SessionPolicy()
    imps = [_imp("mB", "x.com", DAY0 + 1), _imp("mA", "x.com", DAY0 + 2)]
    table = misattribution_table(
        attributed_ads(imps, DAY0, DAY0 + DAY_MS), publisher_visits([], policy)
    )
    assert rank_machines(table, min_ads=1) == ["mA", "mB"]


def _random_day(rng, n_machines=6, n_domains=5, n_imps=120, n_views=60):
    domains = [f"d{i}.com" for i in range(n_domains)]
    imps = [
        _imp(f"m{rng.randrange(n_machines)}", rng.choice(domains), DAY0 + rng.randrange(DAY_MS))
        for _ in range(n_imps)
    ]
    pvs = [
        _pv(f"m{rng.randrange(n_machines)}", rng.choice(domains), DAY0 - 3_600_000 + rng.randrange(DAY_MS))
        for _ in range(n_views)
    ]
    return imps, pvs


def _total_missing(imps, pvs, policy):
    table = misattribution_table(
        attributed_ads(imps, DAY0, DAY0 + DAY_MS), publisher_visits(pvs, policy)
    )
    return sum(s.missing for s in table.per_machine.values()), table


def test_alias_merge_never_increases_missing():
    rng = random.Random(19)
    merged_alias = load_alias_groups(["d0.com,d1.com"], SUFFIX)
    for _ in range(20):
        imps, pvs = _random_day(rng)
        plain, _ = _total_missing(imps, pvs, SessionPolicy())
        merged, _ = _total_missing(imps, pvs, SessionPolicy(alias=merged_alias))
        assert merged <= plain


def test_lookback_monotonicity():
    rng = random.Random(23)
    for _ in range(20):
        imps, pvs = _random_day(rng)
        short, _ = _total_missing(imps, pvs, SessionPolicy(lookback_ms=3_600_000))
        long, _ = _total_missing(imps, pvs, SessionPolicy(lookback_ms=DAY_MS))
        assert long <= short


def test_conservation_of_attributed_counts():
    rng = random.Random(29)
    imps, pvs = _random_day(rng, n_imps=200)
    in_day = [i for i in imps if DAY0 <= i.timestamp < DAY0 + DAY_MS]
    policy = SessionPolicy()
    _, table = _total_missing(imps, pvs, policy)
    assert total_attributed(table) == len(in_day)
    assert sum(s.attributed for s in table.per_machine.values()) == len(in_day)
