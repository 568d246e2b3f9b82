"""Command-line front door.

Subcommands: detect, fingerprint, panelscan, framedepth, synth, rules.
Exit codes are a stable contract: 0 success, 2 missing input or a bad flag
value (named on stderr), 3 parse abort (a bad line in strict mode; a
reference table with a non-UTF-8 line; an unparseable alias, report or
fingerprint file; a frame-depth sample with no depth >= 1), 4 report/trace
window mismatch.  A parse abort names the file on stderr.

Reruns with identical inputs produce byte-identical outputs; reports embed
the effective configuration, never the wall clock (unless --timestamp).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import sys
import time
from collections import Counter
from datetime import datetime, timezone
from operator import itemgetter
from pathlib import Path
from typing import Iterable

from . import framedepth as fd
from . import panel as pn
from . import urlrules as ur
from .detector import CSV_HEADER, Detection, DetectorConfig, WindowTallies, detect
from .ingest import (
    MAX_TS_MS,
    ParseAbortError,
    is_utf8,
    load_alias_groups,
    load_ip_map,
    load_malware_list,
    load_ranked_domains,
    load_trace,
)
from .model import DAY_MS, DomainEvent, HttpRecord, PublicSuffixSet

EXIT_OK = 0
EXIT_MISSING_INPUT = 2
EXIT_PARSE_ABORT = 3
EXIT_WINDOW_MISMATCH = 4

MAX_WINDOW_DAYS = 3_660  # ten years of UTC-day windows per --window


class CmdError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _require(path_s: str, what: str) -> Path:
    path = Path(path_s)
    if not path.exists():
        raise CmdError(EXIT_MISSING_INPUT, f"missing {what}: {path}")
    return path


@contextlib.contextmanager
def _parsing(path: Path, *errors: type[Exception]):
    """Turn a ParseAbortError, or any of ``errors``, raised while parsing the
    file at ``path`` into a parse abort (exit 3) that names the file."""
    try:
        yield
    except (ParseAbortError, *errors) as err:
        raise CmdError(EXIT_PARSE_ABORT, f"{path}: {err}") from None


@contextlib.contextmanager
def _flag_values(**flags: str):
    """Turn a ValueError raised while applying flag values into exit 2; the
    message names each flag in place of the field (keyword) it sets."""
    try:
        yield
    except ValueError as err:
        msg = str(err)
        for name, flag in flags.items():
            msg = msg.replace(name, flag)
        raise CmdError(EXIT_MISSING_INPUT, f"bad flag value: {msg}") from None


def _check_flag(ok: bool, flag: str, rule: str):
    """Exit 2 naming ``flag`` unless its value is ``ok``."""
    if not ok:
        raise CmdError(EXIT_MISSING_INPUT, f"bad flag value: {flag} must be {rule}")


def _read_lines(path: Path):
    """The file's lines.  Bytes that are not UTF-8 arrive as lone surrogates,
    so the trace loader can skip such a line (``ingest.is_utf8``)."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        yield from fh


def _read_table(path: Path):
    """A reference table's lines; the first line that is not UTF-8 aborts."""
    for line_no, line in enumerate(_read_lines(path), start=1):
        if not is_utf8(line):
            raise ParseAbortError(line_no, "bad encoding")
        yield line


def _load_trace(args, suffix: PublicSuffixSet, **consumers):
    """Parse ``--trace``, handing each record to its kind's consumer (exit 2
    when it is missing, 3 on a strict-mode abort)."""
    path = _require(args.trace, "trace")
    with _parsing(path):
        return load_trace(_read_lines(path), suffix, strict=args.strict, **consumers)


def _suffix_set(args) -> PublicSuffixSet:
    if getattr(args, "suffixes", None):
        path = _require(args.suffixes, "suffix list")
        with _parsing(path):
            return PublicSuffixSet.from_lines(_read_table(path))
    return PublicSuffixSet.builtin()


def _day_ms(date_s: str) -> int:
    dt = datetime.strptime(date_s, "%Y-%m-%d").replace(tzinfo=timezone.utc)
    return int(dt.timestamp() * 1000)


def parse_window(s: str) -> tuple[int, int]:
    """"YYYY-MM-DD" (one UTC day), "YYYY-MM-DD:YYYY-MM-DD" (end exclusive),
    or raw "start_ms..end_ms"."""
    try:
        if ".." in s:
            a, b = s.split("..", 1)
            w = (int(a), int(b))
        elif ":" in s:
            a, b = s.split(":", 1)
            w = (_day_ms(a), _day_ms(b))
        else:
            d = _day_ms(s)
            w = (d, d + DAY_MS)
    except ValueError as err:  # not a date, or not an integer
        raise CmdError(EXIT_MISSING_INPUT, f"bad --window {s!r}: {err}") from None
    if w[0] >= w[1]:
        raise CmdError(EXIT_MISSING_INPUT, f"bad --window {s!r}: start must precede end")
    return w


def _day_cuts(w: tuple[int, int]) -> range:
    """The UTC midnights strictly inside ``w``, where it splits into day
    windows: none when ``w`` is at most one day long.  ``w`` makes
    ``len(_day_cuts(w)) + 1`` windows."""
    start, end = w
    if end - start <= DAY_MS:
        return range(0)
    return range(start - start % DAY_MS + DAY_MS, end, DAY_MS)


def _window(window_arg) -> tuple[int, int] | None:
    """``--window`` parsed, at most MAX_WINDOW_DAYS UTC days; None without one."""
    if not window_arg:
        return None
    w = parse_window(window_arg)
    days = len(_day_cuts(w)) + 1
    if days > MAX_WINDOW_DAYS:
        raise CmdError(
            EXIT_MISSING_INPUT,
            f"bad --window {window_arg!r}: {days} day windows, more than {MAX_WINDOW_DAYS}",
        )
    return w


def _windows(span: tuple[int, int] | None) -> list[tuple[int, int]]:
    """``span`` split at UTC midnights, at most MAX_WINDOW_DAYS windows;
    none for no span."""
    if span is None:
        return []
    cuts = _day_cuts(span)
    days = len(cuts) + 1
    if days > MAX_WINDOW_DAYS:
        raise CmdError(
            EXIT_MISSING_INPUT,
            f"the records span {days} UTC days, more than {MAX_WINDOW_DAYS}; "
            "pass --window to pick the days to scan",
        )
    edges = [span[0], *cuts, span[1]]
    return list(zip(edges, edges[1:]))


def _write_text(path: Path, chunks: Iterable[str]):
    """Write the strings one after another, without holding them joined."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(chunks)


def _write_json(path: Path, obj):
    _write_text(path, [json.dumps(obj, sort_keys=True, indent=1) + "\n"])


def _write_csv(path: Path, rows):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# detect
# ---------------------------------------------------------------------------


def cmd_detect(args) -> int:
    t0 = time.monotonic()
    with _flag_values(high_value_cutoff="--cutoff", min_ips_per_domain="--min-ips",
                      min_isps_per_domain="--min-isps", flag_threshold="--threshold"):
        cfg = DetectorConfig(
            high_value_cutoff=args.cutoff,
            min_ips_per_domain=args.min_ips,
            min_isps_per_domain=args.min_isps,
            flag_threshold=args.threshold,
        )
    window = _window(args.window)
    suffix = _suffix_set(args)
    ipmap_path = _require(args.ipmap, "ipmap")
    ranking_path = _require(args.ranking, "ranking")
    malware_path = _require(args.malware, "malware list")

    windows = _windows(window)
    tallies = WindowTallies(windows)
    loaded = _load_trace(args, suffix, http=tallies)
    with _parsing(ipmap_path):
        table, ipmap_skipped = load_ip_map(_read_table(ipmap_path), strict=args.strict)
    with _parsing(ranking_path):
        ranking, _ = load_ranked_domains(_read_table(ranking_path), suffix, strict=args.strict)
    with _parsing(malware_path):
        malware = load_malware_list(_read_table(malware_path))

    if window is None:
        windows = _windows(tallies.day_span())
    reports = [
        detect(tally, table, ranking, malware, cfg, w)
        for w, tally in zip(windows, tallies.per_window(windows))
    ]
    elapsed = time.monotonic() - t0

    pairs = sum(r.diagnostics["pairs_flagged"] for r in reports)
    labels = Counter()
    for r in reports:
        labels.update(r.diagnostics["labels"])
    out = {
        "tool": "launderscan detect",
        "inputs": {
            "trace_lines": loaded.total_lines,
            "trace_skipped": len(loaded.skipped),
            "ipmap_skipped": len(ipmap_skipped),
        },
        "reports": [r.to_json_dict() for r in reports],
        "summary": {
            "windows": len(windows),
            "pairs_flagged": pairs,
            "labels": dict(sorted(labels.items())),
        },
    }
    if args.timestamp:
        out["generated_at"] = datetime.now(timezone.utc).isoformat()
    if args.out:
        if args.format == "csv":
            rows = [CSV_HEADER]
            for r in reports:
                rows.extend(r.csv_rows())
            _write_csv(Path(args.out), rows)
        else:
            _write_json(Path(args.out), out)
    print(
        f"windows={len(windows)} pairs_flagged={pairs} "
        f"labels={json.dumps(labels, sort_keys=True)} "
        f"elapsed_s={elapsed:.1f}"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# fingerprint
# ---------------------------------------------------------------------------


def _json_field(obj: dict, key: str, kind: type, item: type | None = None):
    """``obj[key]`` when it has the JSON type detect writes there: ``kind``,
    with every element (of a dict, every value) of type ``item``.  A bool is
    never an int here.  Any other value raises ValueError naming the key."""
    value = obj[key]
    items = value.values() if isinstance(value, dict) else value
    if type(value) is not kind or (item is not None and any(type(v) is not item for v in items)):
        of = f" of {item.__name__}" if item is not None else ""
        raise ValueError(f"{key!r} is not a {kind.__name__}{of}")
    return value


def _detections_from_report(obj: dict) -> list[tuple[tuple[int, int], Detection]]:
    out = []
    for rep in obj.get("reports", []):
        start, end = _json_field(rep, "window", list, int)
        for d in _json_field(rep, "detections", list, dict):
            domains = _json_field(d, "domains", list, str)
            if not domains:  # detect flags a pair only for its domains
                raise ValueError("a detection has no domains")
            detection = Detection(
                ip=_json_field(d, "ip", str),
                isp=_json_field(d, "isp", str),
                domains=frozenset(domains),
                process_names=tuple(sorted(_json_field(d, "process_names", dict, int).items())),
                machine_ids=frozenset(_json_field(d, "machine_ids", list, str)),
                request_count=_json_field(d, "request_count", int),
                label=_json_field(d, "label", str),
            )
            out.append(((start, end), detection))
    return out


def cmd_fingerprint(args) -> int:
    from . import fingerprint as fp  # here, so that other subcommands skip it

    _check_flag(0.0 <= args.feature_agreement <= 1.0, "--feature-agreement", "in [0, 1]")
    suffix = _suffix_set(args)
    report_path = _require(args.report, "detection report")
    _require(args.trace, "trace")
    # the report comes first: its IPs pick the records to keep.  One not
    # written by detect, or nested too deep to decode, fails in one of these ways
    with _parsing(report_path, ValueError, KeyError, TypeError, AttributeError, RecursionError):
        with open(report_path, "r", encoding="utf-8") as fh:
            pairs = _detections_from_report(json.load(fh))
    detections: dict[str, list[Detection]] = {}
    for _, d in pairs:
        detections.setdefault(d.ip, []).append(d)
    by_ip: dict[str, list] = {ip: [] for ip in detections}
    lo, hi = MAX_TS_MS, 0  # the first and last http timestamps, once read

    def keep(ts, machine, proc, url, domain, ref, ip):
        nonlocal lo, hi
        if ts < lo:
            lo = ts
        if ts > hi:
            hi = ts
        kept = by_ip.get(ip)
        if kept is not None:
            kept.append(HttpRecord(ts, machine, proc, url, domain, ref, ip))

    loaded = _load_trace(args, suffix, http=keep)
    if pairs:
        if not hi:
            raise CmdError(EXIT_WINDOW_MISMATCH, "report has detections but trace has no records")
        for window, _ in pairs:
            if window[1] <= lo or window[0] > hi:
                raise CmdError(
                    EXIT_WINDOW_MISMATCH,
                    f"report window {window} does not overlap trace span [{lo}, {hi}]",
                )

    profiles = [p for ip, ds in detections.items() for p in fp.extract_features(ds, by_ip[ip], suffix)]
    grouped = fp.group_detections(profiles, feature_agreement=args.feature_agreement)
    schemes = [dataclasses.replace(p, label=f"scheme-{i:02d}") for i, p in enumerate(grouped, 1)]

    outdir = Path(args.out)
    _write_csv(outdir / "profiles.csv", fp.profile_csv_rows(schemes, [p.label for p in grouped]))
    lines = fp.jaccard_matrix(schemes).to_csv_lines() if schemes else []
    _write_text(outdir / "jaccard.csv", ["\n".join(lines) + "\n"])
    print(f"detections={len(pairs)} profiles={len(schemes)} trace_skipped={len(loaded.skipped)}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# panelscan
# ---------------------------------------------------------------------------


def cmd_panelscan(args) -> int:
    _check_flag(args.top >= 0, "--top", ">= 0")
    _check_flag(args.min_ads >= 0, "--min-ads", ">= 0")
    with _flag_values(lookback_ms="--lookback"):
        policy = pn.SessionPolicy(lookback_ms=args.lookback)
    window = _window(args.window)
    suffix = _suffix_set(args)
    impressions: list[DomainEvent] = []
    pageviews: list[DomainEvent] = []
    loaded = _load_trace(args, suffix,
                         impression=lambda *fields: impressions.append(DomainEvent(*fields)),
                         pageview=lambda *fields: pageviews.append(DomainEvent(*fields)))
    if args.alias:
        alias_path = _require(args.alias, "alias groups")
        with _parsing(alias_path):
            alias = load_alias_groups(_read_table(alias_path), suffix)
        policy = dataclasses.replace(policy, alias=alias)

    # A visit qualifies by its distance from the impression alone, so the
    # span only bounds which impressions count.
    span = window
    if span is None and impressions:
        lo = min(imp.timestamp for imp in impressions)
        hi = max(imp.timestamp for imp in impressions)
        span = (lo - lo % DAY_MS, hi - hi % DAY_MS + DAY_MS)
    ads = pn.attributed_ads(impressions, *(span or (0, 0)))
    visits = pn.publisher_visits(pageviews, policy)
    table = pn.misattribution_table(ads, visits)
    ranked = pn.rank_machines(table, args.min_ads)
    below_min_ads = sum(
        1 for stat in table.per_machine.values() if stat.missing and stat.attributed < args.min_ads
    )

    outdir = Path(args.out)
    dom_rows = [["domain", "attributed", "missing", "fraction"]]
    for dom in sorted(table.per_domain):
        stat = table.per_domain[dom]
        dom_rows.append([dom, stat.attributed, stat.missing, f"{stat.fraction:.4f}"])
    _write_csv(outdir / "domains.csv", dom_rows)
    mach_rows = [["machine", "attributed", "missing"]]
    for machine in sorted(table.per_machine):
        stat = table.per_machine[machine]
        mach_rows.append([machine, stat.attributed, stat.missing])
    _write_csv(outdir / "machines.csv", mach_rows)
    _write_text(outdir / "ranking.txt", (m + "\n" for m in ranked))

    evidence = []
    for machine in ranked[: args.top]:
        events = table.missing_events.get(machine, ())
        evidence.append(f"# machine {machine}: {len(events)} attributed ads with no qualifying visit")
        for ts, dom in events:
            evidence.append(f"{ts} {dom}")
        evidence.append("")
    _write_text(outdir / "evidence.txt", (e + "\n" for e in evidence))
    print(
        f"days={len(_day_cuts(span)) + 1 if span else 0} machines_ranked={len(ranked)} "
        f"below_min_ads={below_min_ads} impressions={len(impressions)} "
        f"trace_skipped={len(loaded.skipped)}"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# framedepth / synth / rules
# ---------------------------------------------------------------------------


def _depth_sample(path: Path, label: str) -> tuple[fd.DepthSample, int]:
    """A frame-depth CSV and how many rows it skipped.  One with no row of
    depth >= 1 cannot be compared, so it is a parse abort like a malformed
    one."""
    with _parsing(path, ValueError):
        sample, skipped = fd.load_depth_csv(_read_table(path), label=label)
        fd.depth_histogram(sample)  # raises on such a sample
    return sample, len(skipped)


def cmd_framedepth(args) -> int:
    tainted_path = _require(args.tainted, "tainted sample")
    general_path = _require(args.general, "general sample")
    tainted, tainted_skipped = _depth_sample(tainted_path, "tainted")
    general, general_skipped = _depth_sample(general_path, "general")
    cmp_result = fd.compare(tainted, general)
    _write_json(Path(args.out), cmp_result.to_json_dict())
    if args.plotdata:
        _write_text(Path(args.plotdata), ["\n".join(cmp_result.plot_lines()) + "\n"])
    print(
        f"max_depth tainted={cmp_result.max_depth_a} general={cmp_result.max_depth_b} "
        f"dominance_k3={dict(cmp_result.tail_dominance).get(3, 0.0):+.4f} "
        f"skipped tainted={tainted_skipped} general={general_skipped}"
    )
    return EXIT_OK


def cmd_synth(args) -> int:
    from . import synthgen as sg  # here: synthgen imports numpy

    _check_flag(args.seed >= 0, "--seed", ">= 0")
    _check_flag(args.machines >= 0, "--machines", ">= 0")
    with _flag_values(divisor="--scale-divisor", day_count="--days"):
        scenario = sg.Scenario(
            seed=args.seed,
            day_count=args.days,
            divisor=args.scale_divisor,
            background=sg.BackgroundSpec(machine_count=args.machines),
            plants=sg.five_scheme_plants() if args.plants == "five" else (),
        )
    manifest = sg.emit_scenario_files(scenario, args.out)
    lines = manifest["files"]["trace.jsonl"]["lines"]
    print(f"out={args.out} trace_lines={lines} plants={len(manifest['plants'])} seed={manifest['seed']}")
    return EXIT_OK


def cmd_rules(args) -> int:
    _check_flag(args.horizon >= 1, "--horizon", ">= 1")
    suffix = _suffix_set(args)
    param = args.referrer_param
    # per machine, what a rule can read: its request times by (server IP,
    # domain), the (ts, url) of each request whose URL can hold a spoof
    # signal, and per referrer the URLs that can hold ``param``
    machines: dict[str, tuple[dict, list, dict]] = {}

    def keep(ts, machine, proc, url, domain, ref, ip):
        kept = machines.get(machine)
        if kept is None:
            kept = machines[machine] = ({}, [], {})
        times, rows, groups = kept
        key = (ip, domain)
        if key in times:
            times[key].append(ts)
        else:
            times[key] = [ts]
        if ur.may_hold(url, ur.SPOOF_DOMAIN_KEY):
            rows.append((ts, url))
        if ref and ur.may_hold(url, param):
            groups.setdefault(ref, []).append(url)

    loaded = _load_trace(args, suffix, http=keep)
    findings: list[dict] = []
    verified = 0
    for machine in sorted(machines):
        times, rows, groups = machines[machine]
        rows.sort(key=itemgetter(0))  # stable: equal times keep file order
        unsorted = True  # the times, until the machine's first spoof signal
        for ts, url in rows:
            try:
                signal = ur.check_spoof_query(url, suffix)
            except ur.MalformedSignalError as err:
                findings.append(
                    {"type": "malformed_spoof_signal", "machine": machine, "ts": ts,
                     "url": url, "error": str(err)}
                )
                continue
            if signal is None:
                continue
            if unsorted:
                for t in times.values():
                    t.sort()
                unsorted = False
            followed = ur.verify_spoof_followthrough(signal, ts, times, args.horizon)
            verified += followed
            findings.append(
                {
                    "type": "spoof_signal",
                    "machine": machine,
                    "ts": ts,
                    "url": url,
                    "spoof_domain": signal.spoof_domain,
                    "land_ip": signal.land_ip,
                    "verified": followed,
                }
            )
        for ref in sorted(groups):
            check = ur.sibling_referrer_consistency(groups[ref], param, suffix)
            if not check.consistent:
                findings.append(
                    {
                        "type": "referrer_inconsistency",
                        "machine": machine,
                        "context_referrer": ref,
                        "values": sorted(check.values),
                    }
                )
    if args.envfp:
        envfp_path = _require(args.envfp, "environment fingerprint")
        # bad JSON or encoding, nested too deep, not an object of strings, or no functions
        with _parsing(envfp_path, ValueError, RecursionError):
            with open(envfp_path, "r", encoding="utf-8") as fh:
                result = ur.classify_env(ur.EnvFingerprint(functions=json.load(fh)))
        findings.append(
            {
                "type": "env_fingerprint",
                "status": "clean" if result.clean else "tampered",
                "tampered": sorted(result.tampered),
            }
        )
    if args.out:
        encode = json.JSONEncoder(sort_keys=True).encode  # json.dumps(f, sort_keys=True)
        _write_text(Path(args.out), (encode(f) + "\n" for f in findings))
    spoof_total = sum(1 for f in findings if f["type"] == "spoof_signal")
    print(f"findings={len(findings)} spoof_signals={spoof_total} verified={verified} "
          f"trace_skipped={len(loaded.skipped)}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="launderscan",
        description="Placement-laundering detection toolkit for HTTP(S) trace logs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--suffixes", help="public suffix list file (default: built-in mini list)")
        p.add_argument("--strict", action="store_true", help="abort on the first bad input line")

    p = sub.add_parser("detect", help="flag (IP, ISP) pairs serving many high-value domains")
    common(p)
    p.add_argument("--trace", required=True)
    p.add_argument("--ipmap", required=True)
    p.add_argument("--ranking", required=True)
    p.add_argument("--malware", required=True)
    p.add_argument("--window", help="YYYY-MM-DD, YYYY-MM-DD:YYYY-MM-DD, or start_ms..end_ms")
    p.add_argument("--threshold", type=int, default=20, help="candidate domains per IP before flagging")
    p.add_argument("--cutoff", type=int, default=2000, help="high-value rank cutoff")
    p.add_argument("--min-ips", type=int, default=2, dest="min_ips")
    p.add_argument("--min-isps", type=int, default=2, dest="min_isps")
    p.add_argument("--out", help="report file")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--timestamp", action="store_true", help="embed wall-clock time in the report")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("fingerprint", help="profile and group detections; Jaccard matrix")
    common(p)
    p.add_argument("--report", required=True, help="JSON report from detect")
    p.add_argument("--trace", required=True)
    p.add_argument("--feature-agreement", type=float, default=0.0, dest="feature_agreement",
                   help="if > 0, also require this domain-set Jaccard before merging")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_fingerprint)

    p = sub.add_parser("panelscan", help="rank machines by misattributed impressions")
    common(p)
    p.add_argument("--trace", required=True, help="trace with impression/pageview records")
    p.add_argument("--alias", help="alias groups CSV")
    p.add_argument("--window", help="day or range to scan (default: span of impressions)")
    p.add_argument("--lookback", type=int, default=DAY_MS, help="session lookback in ms")
    p.add_argument("--min-ads", type=int, default=25, dest="min_ads",
                   help="minimum attributed impressions before a machine is ranked")
    p.add_argument("--top", type=int, default=10, help="machines to include in evidence bundles")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_panelscan)

    p = sub.add_parser("framedepth", help="compare max-iframe-depth distributions")
    p.add_argument("--tainted", required=True, help="CSV url,max_depth for the suspect population")
    p.add_argument("--general", required=True, help="CSV url,max_depth for the general population")
    p.add_argument("--out", required=True, help="comparison JSON")
    p.add_argument("--plotdata", help="optional two-series bar data file")
    p.set_defaults(func=cmd_framedepth)

    p = sub.add_parser("synth", help="generate a labeled synthetic scenario")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--scale-divisor", type=int, default=100, dest="scale_divisor")
    p.add_argument("--machines", type=int, default=10_000, help="background machines")
    p.add_argument("--days", type=int, default=1)
    p.add_argument("--plants", choices=("five", "none"), default="five")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("rules", help="scan a trace for spoof signals and referrer inconsistencies")
    common(p)
    p.add_argument("--trace", required=True)
    p.add_argument("--horizon", type=int, default=60_000, help="follow-through horizon in ms")
    p.add_argument("--referrer-param", default="referrer", dest="referrer_param")
    p.add_argument("--envfp", help="JSON environment fingerprint to classify")
    p.add_argument("--out", help="findings JSONL")
    p.set_defaults(func=cmd_rules)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CmdError as err:
        kind = "parse abort" if err.code == EXIT_PARSE_ABORT else "error"
        print(f"{kind}: {err}", file=sys.stderr)
        return err.code
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_MISSING_INPUT


if __name__ == "__main__":
    sys.exit(main())
