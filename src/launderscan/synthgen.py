"""Labeled synthetic corpus generator: a clean background population (each
publisher domain hosted by exactly one ISP) plus planted laundering schemes,
with full ground truth for evaluating every detector.

Determinism contract: a fixed seed yields byte-identical output files.
Generation is partitioned per machine with derived sub-seeds, records are
written grouped by machine (background first, then plants in template order)
and time-ordered within each machine.  A block's scheme label marks every
line of it in the ground truth: a plant machine's lines carry its template's
label, and a background machine's lines carry none.

A row is ``(ts, tail)``: ``tail`` is the line's JSON text after ``"ts":N``, made
from a per-kind template with json's own ASCII escaping.  Sorts on ``ts`` are stable.

Volume scaling: a scheme's daily request volume is divided by the scenario
divisor, but every plant IP still serves its full per-day target-domain set
at least once (a coverage pass runs before random fill).  The per-IP domain
count is the detector's decision variable, so it is preserved exactly rather
than proportionally.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _js
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .ingest import AliasGroups, load_alias_groups
from .model import DAY_MS, PublicSuffixSet

KIND_HOSTS_HIJACK = "HostsHijack"
KIND_MALFORMED_BOT = "MalformedBot"
KIND_REFERRER_GATE = "ReferrerGate"
KIND_EPHEMERAL_ROTATOR = "EphemeralRotator"
KINDS = (KIND_HOSTS_HIJACK, KIND_MALFORMED_BOT, KIND_REFERRER_GATE, KIND_EPHEMERAL_ROTATOR)

# 2018-03-01T00:00:00Z: the start of every scenario's first day
EPOCH_MS = 1_519_862_400_000

# per background machine and day
DAILY_REQUESTS_PER_MACHINE = 80
IMPRESSIONS_PER_MACHINE = 8
# share of a background machine's impressions on an alias domain that are
# attributed to a sibling in its group
ALIAS_SIBLING_RATE = 0.5

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

ALIAS_GROUP_LINES = ("outlook.com,live.com,hotmail.com", "realtor.com,move.com")
ALIAS_DOMAINS = tuple(dom for line in ALIAS_GROUP_LINES for dom in line.split(","))
# the referrer parameter every ReferrerGate scheme's secondary requests carry
GATE_TOKEN = "monkeysee"

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
    visits_per_machine: int = 8
    domain_count: int = 2_500
    high_value_cutoff: int = 2_000
    isp_count: int = 40


@dataclass(frozen=True)
class Scenario:
    seed: int
    day_count: int = 1
    divisor: int = 100
    background: BackgroundSpec = BackgroundSpec()
    plants: tuple[SchemeTemplate, ...] = ()

    def __post_init__(self):
        if self.day_count < 1:
            raise ValueError("day_count must be >= 1")
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


@dataclass(frozen=True)
class GroundTruth:
    record_labels: dict[int, str]  # trace.jsonl line index -> scheme label; absent = clean
    scheme_pairs: dict[str, frozenset[tuple[str, str]]]
    scheme_machines: dict[str, frozenset[str]]

    @property
    def planted_pairs(self) -> frozenset[tuple[str, str]]:
        return frozenset().union(*self.scheme_pairs.values())

    @property
    def planted_machines(self) -> frozenset[str]:
        return frozenset().union(*self.scheme_machines.values())

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


# ---------------------------------------------------------------------------
# World: the static tables a scenario implies
# ---------------------------------------------------------------------------


@dataclass
class _World:
    domains: list[str]  # rank order
    home_ips: dict[str, list[str]]
    ipmap_lines: list[str]  # "CIDR,ISP"
    malware_names: list[str]
    plant_ips: dict[str, list[str]]  # template label -> ips (index-aligned with isp assignment)
    plant_ip_isp: dict[str, str]
    plant_targets: dict[str, list[str]]
    alias: AliasGroups


def _pool_domains(n: int) -> list[str]:
    names = [f"pub-{i:04d}.{_TLDS[i % len(_TLDS)]}" for i in range(n)]
    for j, dom in enumerate(ALIAS_DOMAINS):
        if 10 + j < n:
            names[10 + j] = dom
    return names


def _build_world(scenario: Scenario) -> _World:
    bg = scenario.background
    domains = _pool_domains(bg.domain_count)
    high_value = domains[: bg.high_value_cutoff]

    home_ips: dict[str, list[str]] = {}
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
    ipmap_lines = [f"100.{i}.0.0/16,hostco-{i:02d}" for i in range(bg.isp_count)]

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
                ipmap_lines.append(f"185.{octet}.0.0/16,{isp}")
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

    return _World(
        domains=domains,
        home_ips=home_ips,
        ipmap_lines=ipmap_lines,
        malware_names=sorted(set(malware_names)),
        plant_ips=plant_ips,
        plant_ip_isp=plant_ip_isp,
        plant_targets=plant_targets,
        alias=load_alias_groups(ALIAS_GROUP_LINES, PublicSuffixSet.builtin()),
    )


# ---------------------------------------------------------------------------
# Record streams (one block per machine, time-ordered inside the block)
# ---------------------------------------------------------------------------


def _http(ts: int, machine: str, proc: str, url: str, ref: str | None, ip: str, ua: str) -> tuple[int, str]:
    ref_js = "null" if ref is None else _js(ref)
    return ts, (f',"machine":{_js(machine)},"proc":{_js(proc)},"method":"GET","url":{_js(url)},"ref":{ref_js},'
                f'"ip":{_js(ip)},"status":200,"ua":{_js(ua)},"kind":"http"}}')


def _pageview(ts: int, machine: str, domain: str) -> tuple[int, str]:
    return ts, f',"machine":{_js(machine)},"kind":"pageview","pub_domain":{_js(domain)}}}'


def _impression(ts: int, machine: str, domain: str, account: str | None) -> tuple[int, str]:
    account_js = "" if account is None else f',"account":{_js(account)}'
    return ts, f',"machine":{_js(machine)},"kind":"impression","attr_domain":{_js(domain)}{account_js}}}'


def _background_block(scenario: Scenario, world: _World, i: int) -> list[tuple[int, str]]:
    bg = scenario.background
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(scenario.seed, 1, i)))
    machine = f"bg-{i:05d}"
    # block schedule: machine i visits domains [i*v, i*v + v) mod pool, so the
    # population collectively covers every pool domain each day whenever
    # machine_count * visits_per_machine >= domain_count
    v = bg.visits_per_machine
    visit_doms = list(dict.fromkeys(world.domains[(i * v + k) % len(world.domains)] for k in range(v)))
    rows: list[tuple[int, str]] = []
    for d in range(scenario.day_count):
        day = EPOCH_MS + d * DAY_MS
        vts = np.sort(rng.integers(day, day + DAY_MS - 3_600_000, size=len(visit_doms))).tolist()
        visit_ts = {visit_doms[j]: ts for j, ts in zip(rng.permutation(len(visit_doms)).tolist(), vts)}
        rows += [_pageview(ts, machine, dom) for dom, ts in visit_ts.items()]
        n_http = DAILY_REQUESTS_PER_MACHINE
        hts = rng.integers(day, day + DAY_MS, size=n_http).tolist()
        hdx = rng.integers(0, len(visit_doms), size=n_http).tolist()
        ip_pick = rng.integers(0, 2, size=n_http).tolist()
        paths = rng.integers(0, 100_000, size=n_http).tolist()
        proc_i = rng.integers(0, len(BACKGROUND_PROCS), size=n_http).tolist()
        ua_i = rng.integers(0, len(BACKGROUND_UAS), size=n_http).tolist()
        ref_coin = rng.random(n_http).tolist()
        for k in range(n_http):
            dom = visit_doms[hdx[k]]
            ips = world.home_ips[dom]
            rows.append(_http(
                hts[k], machine, BACKGROUND_PROCS[proc_i[k]],
                f"http://www.{dom}/p/{paths[k]}",
                f"http://www.{dom}/" if ref_coin[k] < 0.5 else None,
                ips[ip_pick[k] % len(ips)], BACKGROUND_UAS[ua_i[k]],
            ))
        n_imp = IMPRESSIONS_PER_MACHINE
        imp_dx = rng.integers(0, len(visit_doms), size=n_imp).tolist()
        deltas = rng.integers(60_000, 3_600_000, size=n_imp).tolist()
        sib_coin = rng.random(n_imp).tolist()
        acct_coin = rng.random(n_imp).tolist()
        acct_val = rng.integers(0, 50, size=n_imp).tolist()
        for k in range(n_imp):
            dom = visit_doms[imp_dx[k]]
            ts = min(visit_ts[dom] + deltas[k], day + DAY_MS - 1)
            attr = dom
            gid = world.alias.index.get(dom)
            if gid is not None and sib_coin[k] < ALIAS_SIBLING_RATE:
                siblings = sorted(world.alias.groups[gid] - {dom})
                attr = siblings[int(rng.integers(0, len(siblings)))]
            account = f"acct-{acct_val[k]:02d}" if acct_coin[k] < 0.3 else None
            rows.append(_impression(ts, machine, attr, account))
    rows.sort(key=itemgetter(0))
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
) -> list[tuple[int, str]]:
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(scenario.seed, 2, p_idx, k)))
    machine = f"{tpl.label}-m{k:03d}"
    targets = world.plant_targets[tpl.label]
    g = k % tpl.ip_count
    ip = world.plant_ips[tpl.label][g]
    group = list(range(g, tpl.machine_count, tpl.ip_count))
    rank = group.index(k)
    group_size = len(group)
    scaled_fill = max(0, round(tpl.daily_requests / scenario.divisor))
    imp_total = max(0, round(tpl.daily_impressions / scenario.divisor))
    malformed_fraction = float(tpl.extras.get("malformed_fraction", 0.0))
    replay_ms = int(tpl.extras.get("replay_period_ms", 0))
    if not 0 < replay_ms < DAY_MS:
        replay_ms = 0
    uas = itertools.cycle(tpl.user_agents)

    def http(ts: int, url: str, ref: str | None = None) -> tuple[int, str]:
        return _http(ts, machine, tpl.process_name, url, ref, ip, next(uas))

    rows: list[tuple[int, str]] = []
    for d in range(scenario.day_count):
        day = EPOCH_MS + d * DAY_MS
        today = _active_targets(tpl, targets, d)
        # coverage: this machine's share of (ip, domain) pairs for its IP
        my_doms = [dom for j, dom in enumerate(today) if j % group_size == rank]
        # random fill on top of coverage
        coverage_total = len(today) * tpl.ip_count
        fill_total = max(0, scaled_fill - coverage_total)
        my_fill = fill_total // tpl.machine_count + (1 if k < fill_total % tpl.machine_count else 0)
        units = my_doms + [today[j] for j in rng.integers(0, len(today), size=my_fill).tolist()]
        if replay_ms:
            base_span = min(DAY_MS - replay_ms, replay_ms) - 1
            uts = np.sort(rng.integers(day, day + base_span, size=len(units)))
        else:
            uts = np.sort(rng.integers(day, day + DAY_MS - 60_000, size=len(units)))
        day_rows: list[tuple[int, str]] = []
        for dom, ts in zip(units, uts.tolist()):
            if tpl.kind == KIND_HOSTS_HIJACK:
                cb = int(rng.integers(0, 10_000_000))
                ad_url = (
                    f"http://sync.adx-mediahub.net/imp?cb={cb}"
                    f"&spoof_domain={dom}&land_ip={ip}"
                )
                day_rows.append(http(ts, ad_url))
                follow_ts = ts + int(rng.integers(2_000, 8_000))
                day_rows.append(http(follow_ts, f"http://www.{dom}/article/{cb}", ad_url))
            elif tpl.kind == KIND_REFERRER_GATE:
                c = int(rng.integers(1, 9))
                staging = f"http://{dom}/featured?category={c}"
                day_rows.append(http(ts, staging))
                sec_ts = ts + int(rng.integers(500, 3_000))
                sec = f"http://{dom}/living/post-{int(rng.integers(0, 100_000))}"
                day_rows.append(http(sec_ts, sec, f"{staging}&gate={GATE_TOKEN}"))
            else:
                day_rows.append(http(ts, f"http://{dom}/c/{int(rng.integers(0, 100_000))}"))
        if malformed_fraction > 0.0:
            n_bad = round(malformed_fraction * len(units))
            bad_dx = rng.integers(0, len(today), size=n_bad).tolist()
            bad_ts = rng.integers(day, day + DAY_MS - 60_000, size=n_bad).tolist()
            tags = ("li", "ad", "img", "cdn")
            tag_dx = rng.integers(0, len(tags), size=n_bad).tolist()
            for b in range(n_bad):
                host = _malformed_variant(today[bad_dx[b]], tags[tag_dx[b]])
                day_rows.append(http(bad_ts[b], f"http://{host}/t/{b}"))
        if replay_ms:
            day_rows += [(ts + replay_ms, tail) for ts, tail in day_rows if ts + replay_ms < day + DAY_MS]
        my_imps = imp_total // tpl.machine_count + (1 if k < imp_total % tpl.machine_count else 0)
        imp_dx = rng.integers(0, len(today), size=my_imps).tolist()
        imp_ts = rng.integers(day, day + DAY_MS, size=my_imps).tolist()
        account = f"acct-x{p_idx:02d}"
        day_rows += [_impression(ts, machine, today[j], account) for j, ts in zip(imp_dx, imp_ts)]
        rows.extend(day_rows)
    rows.sort(key=itemgetter(0))
    return rows


def _trace_blocks(scenario: Scenario, world: _World, labels: dict[int, str]) -> Iterator[list[str]]:
    """The lines of trace.jsonl, one block per machine (background first, then
    plants in template order).  Maps the file index of every line of a plant
    machine's block to its template's label in ``labels``."""
    blocks = itertools.chain(
        ((None, _background_block(scenario, world, i)) for i in range(scenario.background.machine_count)),
        (
            (tpl.label, _plant_machine_block(scenario, world, p_idx, tpl, k))
            for p_idx, tpl in enumerate(scenario.plants)
            for k in range(tpl.machine_count)
        ),
    )
    start = 0
    for label, rows in blocks:
        if label is not None:
            labels.update(dict.fromkeys(range(start, start + len(rows)), label))
        start += len(rows)
        yield [f'{{"ts":{ts}{tail}' for ts, tail in rows]


def _truth_from(
    scenario: Scenario, world: _World, record_labels: dict[int, str]
) -> GroundTruth:
    return GroundTruth(
        record_labels=record_labels,
        scheme_pairs={
            tpl.label: frozenset((ip, world.plant_ip_isp[ip]) for ip in world.plant_ips[tpl.label])
            for tpl in scenario.plants
        },
        scheme_machines={
            tpl.label: frozenset(f"{tpl.label}-m{k:03d}" for k in range(tpl.machine_count))
            for tpl in scenario.plants
        },
    )


def _write_blocks(path: Path, blocks: Iterable[Sequence[str]]) -> dict:
    """Write the blocks of lines in order, each line ending in a newline;
    returns the file's sha256, line count and byte count."""
    sha, lines, size = hashlib.sha256(), 0, 0
    with open(path, "wb") as fh:
        for block in blocks:
            data = "".join(line + "\n" for line in block).encode("utf-8")
            fh.write(data)
            sha.update(data)
            lines += len(block)
            size += len(data)
    return {"sha256": sha.hexdigest(), "lines": lines, "bytes": size}


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
    labels: dict[int, str] = {}
    files = {"trace.jsonl": _write_blocks(outdir / "trace.jsonl", _trace_blocks(scenario, world, labels))}
    truth = _truth_from(scenario, world, labels)
    tables = {
        "ipmap.csv": world.ipmap_lines,
        "ranking.txt": world.domains,
        "malware.txt": world.malware_names,
        "aliases.csv": ALIAS_GROUP_LINES,
        "truth.json": [json.dumps(truth.to_json_dict(), sort_keys=True)],
    }
    for name, lines in tables.items():
        files[name] = _write_blocks(outdir / name, [lines])

    manifest = {
        "seed": scenario.seed,
        "divisor": scenario.divisor,
        "day_count": scenario.day_count,
        "epoch_ms": EPOCH_MS,
        "background_machines": scenario.background.machine_count,
        "plants": [tpl.label for tpl in scenario.plants],
        "high_value_cutoff": scenario.background.high_value_cutoff,
        "files": files,
    }
    (outdir / "manifest.json").write_bytes(
        (json.dumps(manifest, sort_keys=True, indent=1) + "\n").encode("utf-8")
    )
    return manifest
