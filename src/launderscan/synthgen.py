"""Labeled synthetic corpus generator: a clean background population (each
publisher domain hosted by exactly one ISP) plus planted laundering schemes,
with full ground truth for evaluating every detector.

Determinism contract: a fixed seed yields byte-identical output files.
Generation is partitioned per machine with derived sub-seeds, records are
written grouped by machine (background first, then plants in template order)
and time-ordered within each machine.

Volume scaling: a scheme's daily request volume is divided by the scenario
divisor, but every plant IP still serves its full per-day target-domain set
at least once (a coverage pass runs before random fill).  The per-IP domain
count is the detector's decision variable, so it is preserved exactly rather
than proportionally.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Optional

import numpy as np

from .ingest import AliasGroups, RankedDomainList, load_alias_groups, load_ip_map, record_domain
from .ipattr import IpAttributionTable
from .model import (
    DAY_MS,
    HttpRecord,
    ImpressionRecord,
    NormalizedDomain,
    PageViewRecord,
    PublicSuffixSet,
    normalize_domain,
)

KIND_HOSTS_HIJACK = "HostsHijack"
KIND_MALFORMED_BOT = "MalformedBot"
KIND_REFERRER_GATE = "ReferrerGate"
KIND_EPHEMERAL_ROTATOR = "EphemeralRotator"
KINDS = (KIND_HOSTS_HIJACK, KIND_MALFORMED_BOT, KIND_REFERRER_GATE, KIND_EPHEMERAL_ROTATOR)

# 2018-03-01T00:00:00Z
DEFAULT_EPOCH_MS = 1_519_862_400_000

BACKGROUND_PROCS = ("chrome.exe", "firefox.exe", "iexplore.exe", "safari", "opera.exe")
BACKGROUND_UAS = (
    "Mozilla/5.0 (Windows NT 10.0; Win64; x64) Chrome/64.0",
    "Mozilla/5.0 (Windows NT 6.1; WOW64) Firefox/58.0",
    "Mozilla/5.0 (Macintosh; Intel Mac OS X 10_13) Safari/604.1",
    "Mozilla/5.0 (Windows NT 10.0) Edge/16.16299",
    "Mozilla/5.0 (X11; Linux x86_64) Chrome/63.0",
)
UA_CHROME = BACKGROUND_UAS[0]
UA_IE = "Mozilla/5.0 (compatible; MSIE 11.0; Windows NT 6.1; Trident/7.0)"

MALWARE_DECOYS = ("adware_helper.exe", "trkbot32.exe", "clickzombie.exe")

ALIAS_DOMAINS = ("outlook.com", "live.com", "hotmail.com", "realtor.com", "move.com")
ALIAS_GROUP_LINES = ("outlook.com,live.com,hotmail.com", "realtor.com,move.com")

_TLDS = ("com", "net", "org", "info", "biz")


@dataclass(frozen=True)
class SchemeTemplate:
    """One planted scheme.  ``daily_requests``/``daily_impressions`` are
    full-scale volumes; the scenario divisor scales them down."""

    label: str
    kind: str
    isp_pool: tuple[str, ...]
    ip_count: int
    machine_count: int
    target_domains: int
    daily_requests: int
    daily_impressions: int
    process_name: str
    user_agents: tuple[str, ...] = (UA_CHROME,)
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown scheme kind {self.kind!r}")
        for name in ("ip_count", "machine_count", "target_domains", "daily_requests"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not self.isp_pool:
            raise ValueError("isp_pool must not be empty")
        if self.machine_count < self.ip_count:
            raise ValueError("machine_count must be >= ip_count so every IP sees traffic")


@dataclass(frozen=True)
class BackgroundSpec:
    machine_count: int = 10_000
    daily_requests_per_machine: int = 80
    visits_per_machine: int = 8
    impressions_per_machine: int = 8
    domain_count: int = 2_500
    high_value_cutoff: int = 2_000
    isp_count: int = 40
    alias_sibling_rate: float = 0.5


@dataclass(frozen=True)
class Scenario:
    seed: int
    day_count: int = 1
    divisor: int = 100
    background: BackgroundSpec = BackgroundSpec()
    plants: tuple[SchemeTemplate, ...] = ()
    epoch_ms: int = DEFAULT_EPOCH_MS

    def __post_init__(self):
        if self.divisor < 1:
            raise ValueError("divisor must be >= 1")


def five_scheme_plants() -> tuple[SchemeTemplate, ...]:
    """Five planted schemes spanning every template kind, with shapes
    (ISPs, IPs, target domains, machines, daily volume) sized like schemes
    observed in the wild."""
    return (
        SchemeTemplate(
            label="hyphbot",
            kind=KIND_HOSTS_HIJACK,
            isp_pool=("cloudnode-a", "cloudnode-b", "cloudnode-c", "cloudnode-d"),
            ip_count=25,
            machine_count=141,
            target_domains=726,
            daily_requests=326_239,
            daily_impressions=250_000,
            process_name="",
            user_agents=(UA_CHROME, UA_IE),
        ),
        SchemeTemplate(
            label="scheme-beta",
            kind=KIND_MALFORMED_BOT,
            isp_pool=("vds-park",),
            ip_count=4,
            machine_count=159,
            target_domains=208,
            daily_requests=60_328,
            daily_impressions=15_000,
            process_name="zbotsvc.exe",
            extras={"malformed_fraction": 0.08, "malware_listed": True},
        ),
        SchemeTemplate(
            label="scheme-gamma",
            kind=KIND_REFERRER_GATE,
            isp_pool=("rentvps-io",),
            ip_count=4,
            machine_count=136,
            target_domains=163,
            daily_requests=18_878,
            daily_impressions=4_700,
            process_name="updater.exe",
            extras={"gate_token": "monkeysee"},
        ),
        SchemeTemplate(
            label="scheme-omega",
            kind=KIND_MALFORMED_BOT,
            isp_pool=("boxhost-ltd",),
            ip_count=1,
            machine_count=134,
            target_domains=364,
            daily_requests=6_704,
            daily_impressions=1_600,
            process_name="  ",
            extras={"malformed_fraction": 0.0},
        ),
        SchemeTemplate(
            label="scheme-lambda",
            kind=KIND_EPHEMERAL_ROTATOR,
            isp_pool=("flexcloud-east",),
            ip_count=6,
            machine_count=80,
            target_domains=168,
            daily_requests=1_611,
            daily_impressions=400,
            process_name="svhost.exe",
            extras={"active_per_day": 28, "malware_listed": True},
        ),
    )


def five_scheme_scenario(
    seed: int = 7,
    divisor: int = 100,
    background_machines: int = 10_000,
    day_count: int = 1,
) -> Scenario:
    return Scenario(
        seed=seed,
        day_count=day_count,
        divisor=divisor,
        background=BackgroundSpec(machine_count=background_machines),
        plants=five_scheme_plants(),
    )


def clean_scenario(seed: int = 7, background_machines: int = 1_000, day_count: int = 1) -> Scenario:
    return Scenario(
        seed=seed,
        day_count=day_count,
        divisor=100,
        background=BackgroundSpec(machine_count=background_machines),
        plants=(),
    )


@dataclass(frozen=True)
class GroundTruth:
    planted_pairs: frozenset[tuple[str, str]]
    planted_machines: frozenset[str]
    record_labels: dict[int, str]  # record index -> scheme label; absent = clean
    scheme_pairs: dict[str, frozenset[tuple[str, str]]]
    scheme_machines: dict[str, frozenset[str]]

    def to_json_dict(self) -> dict:
        return {
            "planted_pairs": sorted([ip, isp] for ip, isp in self.planted_pairs),
            "planted_machines": sorted(self.planted_machines),
            "record_labels": {str(i): lab for i, lab in sorted(self.record_labels.items())},
            "schemes": {
                lab: {
                    "pairs": sorted([ip, isp] for ip, isp in self.scheme_pairs[lab]),
                    "machines": sorted(self.scheme_machines[lab]),
                }
                for lab in sorted(self.scheme_pairs)
            },
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "GroundTruth":
        return cls(
            planted_pairs=frozenset((p[0], p[1]) for p in obj["planted_pairs"]),
            planted_machines=frozenset(obj["planted_machines"]),
            record_labels={int(k): v for k, v in obj["record_labels"].items()},
            scheme_pairs={
                lab: frozenset((p[0], p[1]) for p in s["pairs"])
                for lab, s in obj["schemes"].items()
            },
            scheme_machines={lab: frozenset(s["machines"]) for lab, s in obj["schemes"].items()},
        )


# ---------------------------------------------------------------------------
# World: the static tables a scenario implies
# ---------------------------------------------------------------------------


@dataclass
class _World:
    domains: list[str]  # rank order
    home_ips: dict[str, list[str]]
    home_isp: dict[str, str]
    ipmap_rows: list[tuple[str, str]]
    malware_names: list[str]
    plant_isp_octet: dict[str, int]
    plant_ips: dict[str, list[str]]  # template label -> ips (index-aligned with isp assignment)
    plant_ip_isp: dict[str, str]
    plant_targets: dict[str, list[str]]
    alias: AliasGroups
    suffix: PublicSuffixSet


def _pool_domains(n: int) -> list[str]:
    names = [f"pub-{i:04d}.{_TLDS[i % len(_TLDS)]}" for i in range(n)]
    for j, dom in enumerate(ALIAS_DOMAINS):
        if 10 + j < n:
            names[10 + j] = dom
    return names


def _build_world(scenario: Scenario) -> _World:
    bg = scenario.background
    suffix = PublicSuffixSet.builtin()
    domains = _pool_domains(bg.domain_count)
    high_value = domains[: bg.high_value_cutoff]

    home_ips: dict[str, list[str]] = {}
    home_isp: dict[str, str] = {}
    per_isp_counter = [0] * bg.isp_count
    for i, dom in enumerate(domains):
        isp_idx = i % bg.isp_count
        n_ips = 2 if i % 3 == 0 else 1
        ips = []
        for _ in range(n_ips):
            per_isp_counter[isp_idx] += 1
            h = per_isp_counter[isp_idx]
            ips.append(f"100.{isp_idx}.{h >> 8}.{h & 255}")
        home_ips[dom] = ips
        home_isp[dom] = f"hostco-{isp_idx:02d}"
    ipmap_rows = [(f"100.{i}.0.0/16", f"hostco-{i:02d}") for i in range(bg.isp_count)]

    plant_isp_octet: dict[str, int] = {}
    plant_ips: dict[str, list[str]] = {}
    plant_ip_isp: dict[str, str] = {}
    plant_targets: dict[str, list[str]] = {}
    malware_names = list(MALWARE_DECOYS)
    for p_idx, tpl in enumerate(scenario.plants):
        if tpl.target_domains > len(high_value):
            raise ValueError(
                f"plant {tpl.label} wants {tpl.target_domains} target domains, "
                f"ranking provides {len(high_value)}"
            )
        for isp in tpl.isp_pool:
            if isp not in plant_isp_octet:
                octet = len(plant_isp_octet)
                plant_isp_octet[isp] = octet
                ipmap_rows.append((f"185.{octet}.0.0/16", isp))
        per_isp_host: dict[str, int] = {}
        ips = []
        for k in range(tpl.ip_count):
            isp = tpl.isp_pool[k % len(tpl.isp_pool)]
            per_isp_host[isp] = per_isp_host.get(isp, 0) + 1
            ip = f"185.{plant_isp_octet[isp]}.{p_idx}.{per_isp_host[isp]}"
            ips.append(ip)
            plant_ip_isp[ip] = isp
        plant_ips[tpl.label] = ips
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(scenario.seed, 90, p_idx)))
        pick = rng.choice(len(high_value), size=tpl.target_domains, replace=False)
        plant_targets[tpl.label] = sorted(high_value[j] for j in pick)
        if tpl.extras.get("malware_listed"):
            malware_names.append(tpl.process_name.casefold())

    alias = load_alias_groups(ALIAS_GROUP_LINES, suffix)
    return _World(
        domains=domains,
        home_ips=home_ips,
        home_isp=home_isp,
        ipmap_rows=ipmap_rows,
        malware_names=sorted(set(malware_names)),
        plant_isp_octet=plant_isp_octet,
        plant_ips=plant_ips,
        plant_ip_isp=plant_ip_isp,
        plant_targets=plant_targets,
        alias=alias,
        suffix=suffix,
    )


# ---------------------------------------------------------------------------
# Record streams (one block per machine, time-ordered inside the block)
# ---------------------------------------------------------------------------

Row = tuple[int, dict, Optional[str]]  # (sort ts, json-ready payload, scheme label)


def _background_block(scenario: Scenario, world: _World, i: int) -> list[Row]:
    bg = scenario.background
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(scenario.seed, 1, i)))
    machine = f"bg-{i:05d}"
    n_dom = len(world.domains)
    # block schedule: machine i visits domains [i*v, i*v + v) mod pool, so the
    # population collectively covers every pool domain each day whenever
    # machine_count * visits_per_machine >= domain_count
    visit_idx: list[int] = []
    for k in range(bg.visits_per_machine):
        j = (i * bg.visits_per_machine + k) % n_dom
        if j not in visit_idx:
            visit_idx.append(j)
    visit_doms = [world.domains[j] for j in visit_idx]
    rows: list[Row] = []
    for d in range(scenario.day_count):
        day = scenario.epoch_ms + d * DAY_MS
        vts = np.sort(rng.integers(day, day + DAY_MS - 3_600_000, size=len(visit_doms)))
        order = rng.permutation(len(visit_doms))
        visit_ts = {}
        for slot, j in enumerate(order):
            dom = visit_doms[int(j)]
            ts = int(vts[slot])
            visit_ts[dom] = ts
            rows.append((ts, {"ts": ts, "machine": machine, "kind": "pageview", "pub_domain": dom}, None))
        n_http = bg.daily_requests_per_machine
        hts = rng.integers(day, day + DAY_MS, size=n_http)
        hdx = rng.integers(0, len(visit_doms), size=n_http)
        ip_pick = rng.integers(0, 2, size=n_http)
        paths = rng.integers(0, 100_000, size=n_http)
        proc_i = rng.integers(0, len(BACKGROUND_PROCS), size=n_http)
        ua_i = rng.integers(0, len(BACKGROUND_UAS), size=n_http)
        ref_coin = rng.random(n_http)
        for k in range(n_http):
            dom = visit_doms[int(hdx[k])]
            ips = world.home_ips[dom]
            ip = ips[int(ip_pick[k]) % len(ips)]
            ts = int(hts[k])
            url = f"http://www.{dom}/p/{int(paths[k])}"
            rows.append(
                (
                    ts,
                    {
                        "ts": ts,
                        "machine": machine,
                        "proc": BACKGROUND_PROCS[int(proc_i[k])],
                        "method": "GET",
                        "url": url,
                        "ref": f"http://www.{dom}/" if ref_coin[k] < 0.5 else None,
                        "ip": ip,
                        "status": 200,
                        "ua": BACKGROUND_UAS[int(ua_i[k])],
                        "kind": "http",
                    },
                    None,
                )
            )
        n_imp = bg.impressions_per_machine
        imp_dx = rng.integers(0, len(visit_doms), size=n_imp)
        deltas = rng.integers(60_000, 3_600_000, size=n_imp)
        sib_coin = rng.random(n_imp)
        acct_coin = rng.random(n_imp)
        acct_val = rng.integers(0, 50, size=n_imp)
        for k in range(n_imp):
            dom = visit_doms[int(imp_dx[k])]
            ts = min(visit_ts[dom] + int(deltas[k]), day + DAY_MS - 1)
            attr = dom
            gid = world.alias.index.get(dom)
            if gid is not None and sib_coin[k] < bg.alias_sibling_rate:
                siblings = sorted(world.alias.groups[gid] - {dom})
                attr = siblings[int(rng.integers(0, len(siblings)))]
            payload = {"ts": ts, "machine": machine, "kind": "impression", "attr_domain": attr}
            if acct_coin[k] < 0.3:
                payload["account"] = f"acct-{int(acct_val[k]):02d}"
            rows.append((ts, payload, None))
    rows.sort(key=lambda r: r[0])
    return rows


def _active_targets(tpl: SchemeTemplate, targets: list[str], day_index: int) -> list[str]:
    if tpl.kind != KIND_EPHEMERAL_ROTATOR:
        return targets
    active = int(tpl.extras.get("active_per_day", 5))
    active = max(1, min(active, len(targets)))
    start = (day_index * active) % len(targets)
    window = targets[start:] + targets[:start]
    return window[:active]


def _malformed_variant(dom: str, tag: str) -> str:
    return f"{tag}.{dom.replace('.', '')}"


def _plant_machine_block(
    scenario: Scenario, world: _World, p_idx: int, tpl: SchemeTemplate, k: int
) -> list[Row]:
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(scenario.seed, 2, p_idx, k)))
    machine = f"{tpl.label}-m{k:03d}"
    ips = world.plant_ips[tpl.label]
    targets = world.plant_targets[tpl.label]
    g = k % tpl.ip_count
    ip = ips[g]
    group = list(range(g, tpl.machine_count, tpl.ip_count))
    rank = group.index(k)
    group_size = len(group)
    scaled_fill = max(0, round(tpl.daily_requests / scenario.divisor))
    imp_total = max(0, round(tpl.daily_impressions / scenario.divisor))
    gate_token = tpl.extras.get("gate_token", "monkeysee")
    malformed_fraction = float(tpl.extras.get("malformed_fraction", 0.0))
    replay_ms = int(tpl.extras.get("replay_period_ms", 0))
    rows: list[Row] = []
    ua_seq = 0

    def ua() -> str:
        nonlocal ua_seq
        s = tpl.user_agents[ua_seq % len(tpl.user_agents)]
        ua_seq += 1
        return s

    def http_row(ts: int, url: str, ref: Optional[str], server_ip: str) -> Row:
        return (
            ts,
            {
                "ts": ts,
                "machine": machine,
                "proc": tpl.process_name,
                "method": "GET",
                "url": url,
                "ref": ref,
                "ip": server_ip,
                "status": 200,
                "ua": ua(),
                "kind": "http",
            },
            tpl.label,
        )

    for d in range(scenario.day_count):
        day = scenario.epoch_ms + d * DAY_MS
        today = _active_targets(tpl, targets, d)
        # coverage: this machine's share of (ip, domain) pairs for its IP
        my_doms = [dom for j, dom in enumerate(today) if j % group_size == rank]
        # random fill on top of coverage
        coverage_total = len(today) * tpl.ip_count
        fill_total = max(0, scaled_fill - coverage_total)
        my_fill = fill_total // tpl.machine_count + (1 if k < fill_total % tpl.machine_count else 0)
        fill_doms = [today[int(j)] for j in rng.integers(0, len(today), size=my_fill)]
        units = [(dom, True) for dom in my_doms] + [(dom, False) for dom in fill_doms]
        if replay_ms > 0 and replay_ms < DAY_MS:
            base_span = min(DAY_MS - replay_ms, replay_ms) - 1
            uts = np.sort(rng.integers(day, day + base_span, size=len(units)))
        else:
            uts = np.sort(rng.integers(day, day + DAY_MS - 60_000, size=len(units)))
        day_rows: list[Row] = []
        for u, (dom, _) in enumerate(units):
            ts = int(uts[u])
            if tpl.kind == KIND_HOSTS_HIJACK:
                cb = int(rng.integers(0, 10_000_000))
                ad_url = (
                    f"http://sync.adx-mediahub.net/imp?cb={cb}"
                    f"&spoof_domain={dom}&land_ip={ip}"
                )
                day_rows.append(http_row(ts, ad_url, None, ip))
                follow_ts = ts + int(rng.integers(2_000, 8_000))
                day_rows.append(
                    http_row(follow_ts, f"http://www.{dom}/article/{cb}", ad_url, ip)
                )
            elif tpl.kind == KIND_REFERRER_GATE:
                c = int(rng.integers(1, 9))
                staging = f"http://{dom}/featured?category={c}"
                day_rows.append(http_row(ts, staging, None, ip))
                sec_ts = ts + int(rng.integers(500, 3_000))
                sec = f"http://{dom}/living/post-{int(rng.integers(0, 100_000))}"
                day_rows.append(http_row(sec_ts, sec, f"{staging}&gate={gate_token}", ip))
            else:
                day_rows.append(
                    http_row(ts, f"http://{dom}/c/{int(rng.integers(0, 100_000))}", None, ip)
                )
        if malformed_fraction > 0.0:
            n_bad = round(malformed_fraction * len(units))
            bad_dx = rng.integers(0, len(today), size=n_bad)
            bad_ts = rng.integers(day, day + DAY_MS - 60_000, size=n_bad)
            tags = ("li", "ad", "img", "cdn")
            tag_dx = rng.integers(0, len(tags), size=n_bad)
            for b in range(n_bad):
                host = _malformed_variant(today[int(bad_dx[b])], tags[int(tag_dx[b])])
                ts = int(bad_ts[b])
                day_rows.append(http_row(ts, f"http://{host}/t/{b}", None, ip))
        if replay_ms > 0 and replay_ms < DAY_MS:
            dup = []
            for ts, payload, label in day_rows:
                ts2 = ts + replay_ms
                if ts2 < day + DAY_MS:
                    p2 = dict(payload)
                    p2["ts"] = ts2
                    dup.append((ts2, p2, label))
            day_rows.extend(dup)
        my_imps = imp_total // tpl.machine_count + (1 if k < imp_total % tpl.machine_count else 0)
        imp_dx = rng.integers(0, len(today), size=my_imps)
        imp_ts = rng.integers(day, day + DAY_MS, size=my_imps)
        for b in range(my_imps):
            ts = int(imp_ts[b])
            day_rows.append(
                (
                    ts,
                    {
                        "ts": ts,
                        "machine": machine,
                        "kind": "impression",
                        "attr_domain": today[int(imp_dx[b])],
                        "account": f"acct-x{p_idx:02d}",
                    },
                    tpl.label,
                )
            )
        rows.extend(day_rows)
    rows.sort(key=lambda r: r[0])
    return rows


def _iter_blocks(scenario: Scenario, world: _World) -> Iterator[list[Row]]:
    for i in range(scenario.background.machine_count):
        yield _background_block(scenario, world, i)
    for p_idx, tpl in enumerate(scenario.plants):
        for k in range(tpl.machine_count):
            yield _plant_machine_block(scenario, world, p_idx, tpl, k)


def _truth_from(
    scenario: Scenario, world: _World, record_labels: dict[int, str]
) -> GroundTruth:
    scheme_pairs: dict[str, frozenset] = {}
    scheme_machines: dict[str, frozenset] = {}
    for tpl in scenario.plants:
        pairs = frozenset(
            (ip, world.plant_ip_isp[ip]) for ip in world.plant_ips[tpl.label]
        )
        machines = frozenset(f"{tpl.label}-m{k:03d}" for k in range(tpl.machine_count))
        scheme_pairs[tpl.label] = pairs
        scheme_machines[tpl.label] = machines
    all_pairs = frozenset(p for s in scheme_pairs.values() for p in s)
    all_machines = frozenset(m for s in scheme_machines.values() for m in s)
    return GroundTruth(
        planted_pairs=all_pairs,
        planted_machines=all_machines,
        record_labels=record_labels,
        scheme_pairs=scheme_pairs,
        scheme_machines=scheme_machines,
    )


@dataclass
class GeneratedCorpus:
    records: list  # HttpRecord | ImpressionRecord | PageViewRecord, file order
    truth: GroundTruth
    table: IpAttributionTable
    ranking: RankedDomainList
    alias: AliasGroups
    malware_names: list[str]

    def http_records(self) -> list[HttpRecord]:
        return [r for r in self.records if isinstance(r, HttpRecord)]

    def impression_records(self) -> list[ImpressionRecord]:
        return [r for r in self.records if isinstance(r, ImpressionRecord)]

    def pageview_records(self) -> list[PageViewRecord]:
        return [r for r in self.records if isinstance(r, PageViewRecord)]


def _table_and_ranking(world: _World, cutoff: int) -> tuple[IpAttributionTable, RankedDomainList]:
    load = load_ip_map(f"{cidr},{isp}" for cidr, isp in world.ipmap_rows)
    entries = tuple(
        NormalizedDomain(registrable=d, full_host=d) for d in world.domains
    )
    ranking = RankedDomainList(entries=entries, cutoff=min(cutoff, len(entries)))
    return load.table, ranking


def _typed_record(payload: dict, suffix: PublicSuffixSet):
    kind = payload["kind"]
    if kind == "http":
        return HttpRecord(
            timestamp=payload["ts"],
            machine_id=payload["machine"],
            process_name=payload["proc"],
            method=payload["method"],
            url=payload["url"],
            domain=record_domain(payload["url"], suffix),
            referrer=payload["ref"],
            server_ip=payload["ip"],
            status=payload["status"],
            user_agent=payload["ua"],
        )
    if kind == "impression":
        return ImpressionRecord(
            timestamp=payload["ts"],
            machine_id=payload["machine"],
            attributed_domain=normalize_domain(payload["attr_domain"], suffix),
            exchange_account=payload.get("account"),
        )
    return PageViewRecord(
        timestamp=payload["ts"],
        machine_id=payload["machine"],
        publisher_domain=normalize_domain(payload["pub_domain"], suffix),
    )


def generate(scenario: Scenario) -> GeneratedCorpus:
    """Materialize a scenario in memory.  For large scenarios prefer
    emit_scenario_files, which streams machine by machine."""
    world = _build_world(scenario)
    records = []
    labels: dict[int, str] = {}
    idx = 0
    for block in _iter_blocks(scenario, world):
        for _, payload, label in block:
            records.append(_typed_record(payload, world.suffix))
            if label is not None:
                labels[idx] = label
            idx += 1
    truth = _truth_from(scenario, world, labels)
    table, ranking = _table_and_ranking(world, scenario.background.high_value_cutoff)
    return GeneratedCorpus(
        records=records,
        truth=truth,
        table=table,
        ranking=ranking,
        alias=world.alias,
        malware_names=world.malware_names,
    )


class _HashingWriter:
    def __init__(self, path: Path):
        self.path = path
        self.sha = hashlib.sha256()
        self.lines = 0
        self.bytes = 0
        self._fh = open(path, "wb")

    def write_line(self, line: str):
        data = (line + "\n").encode("utf-8")
        self._fh.write(data)
        self.sha.update(data)
        self.lines += 1
        self.bytes += len(data)

    def close(self) -> dict:
        self._fh.close()
        return {"sha256": self.sha.hexdigest(), "lines": self.lines, "bytes": self.bytes}


def emit_scenario_files(scenario: Scenario, output_dir) -> dict:
    """Write trace.jsonl, ipmap.csv, ranking.txt, malware.txt, aliases.csv,
    truth.json and manifest.json into output_dir; returns the manifest dict."""
    outdir = Path(output_dir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        probe = outdir / ".write-probe"
        probe.write_text("")
        probe.unlink()
    except OSError as err:
        raise OSError(f"output directory not writable: {outdir}") from err

    world = _build_world(scenario)
    files: dict[str, dict] = {}

    trace = _HashingWriter(outdir / "trace.jsonl")
    labels: dict[int, str] = {}
    idx = 0
    for block in _iter_blocks(scenario, world):
        for _, payload, label in block:
            trace.write_line(json.dumps(payload, separators=(",", ":")))
            if label is not None:
                labels[idx] = label
            idx += 1
    files["trace.jsonl"] = trace.close()

    truth = _truth_from(scenario, world, labels)
    tables = {
        "ipmap.csv": [f"{cidr},{isp}" for cidr, isp in world.ipmap_rows],
        "ranking.txt": world.domains,
        "malware.txt": world.malware_names,
        "aliases.csv": ALIAS_GROUP_LINES,
        "truth.json": [json.dumps(truth.to_json_dict(), sort_keys=True)],
    }
    for name, lines in tables.items():
        w = _HashingWriter(outdir / name)
        for line in lines:
            w.write_line(line)
        files[name] = w.close()

    manifest = {
        "seed": scenario.seed,
        "divisor": scenario.divisor,
        "day_count": scenario.day_count,
        "epoch_ms": scenario.epoch_ms,
        "background_machines": scenario.background.machine_count,
        "plants": [tpl.label for tpl in scenario.plants],
        "high_value_cutoff": scenario.background.high_value_cutoff,
        "files": files,
    }
    (outdir / "manifest.json").write_bytes(
        (json.dumps(manifest, sort_keys=True, indent=1) + "\n").encode("utf-8")
    )
    return manifest
