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
import json
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

from . import fingerprint as fp
from . import framedepth as fd
from . import panel as pn
from . import synthgen as sg
from . import urlrules as ur
from .detector import Detection, DetectorConfig, detect
from .ingest import (
    AliasGroups,
    ParseAbortError,
    is_utf8,
    load_alias_groups,
    load_ip_map,
    load_malware_list,
    load_ranked_domains,
    load_trace,
)
from .model import DAY_MS, PublicSuffixSet

EXIT_OK = 0
EXIT_MISSING_INPUT = 2
EXIT_PARSE_ABORT = 3
EXIT_WINDOW_MISMATCH = 4


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


def _split_days(w: tuple[int, int]) -> list[tuple[int, int]]:
    start, end = w
    if end - start <= DAY_MS:
        return [w]
    out = []
    cur = start
    while cur < end:
        nxt = min(end, (cur - cur % DAY_MS) + DAY_MS)
        out.append((cur, nxt))
        cur = nxt
    return out


def _windows(window_arg, records) -> list[tuple[int, int]]:
    """``--window`` split at UTC midnights, else the UTC days the records span."""
    if window_arg:
        return _split_days(parse_window(window_arg))
    if not records:
        return []
    lo = min(r.timestamp for r in records)
    hi = max(r.timestamp for r in records)
    return _split_days((lo - lo % DAY_MS, hi - hi % DAY_MS + DAY_MS))


def _write_text(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _write_json(path: Path, obj):
    _write_text(path, json.dumps(obj, sort_keys=True, indent=1) + "\n")


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
    suffix = _suffix_set(args)
    trace_path = _require(args.trace, "trace")
    ipmap_path = _require(args.ipmap, "ipmap")
    ranking_path = _require(args.ranking, "ranking")
    malware_path = _require(args.malware, "malware list")

    with _parsing(trace_path):
        loaded = load_trace(_read_lines(trace_path), suffix, strict=args.strict)
    with _parsing(ipmap_path):
        ipmap = load_ip_map(_read_table(ipmap_path), strict=args.strict)
    with _parsing(ranking_path):
        ranking, _ = load_ranked_domains(_read_table(ranking_path), cutoff=args.cutoff, suffix=suffix)
    with _parsing(malware_path):
        malware = load_malware_list(_read_table(malware_path))

    records = loaded.http
    windows = _windows(args.window, records)

    reports = [
        detect(records, ipmap.table, ranking, malware, cfg, w) for w in windows
    ]
    elapsed = time.monotonic() - t0

    pairs = sum(len(r.detections) for r in reports)
    labels: dict[str, int] = {}
    for r in reports:
        for d in r.detections:
            labels[d.label] = labels.get(d.label, 0) + 1
    out = {
        "tool": "launderscan detect",
        "inputs": {
            "trace_lines": loaded.total_lines,
            "trace_skipped": len(loaded.skipped),
            "ipmap_skipped": len(ipmap.skipped),
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
            rows = [["window_start", "window_end", "ip", "isp", "domain_count", "request_count", "label"]]
            for r in reports:
                rows.extend(r.csv_rows())
            _write_csv(Path(args.out), rows)
        else:
            _write_json(Path(args.out), out)
    print(
        f"windows={len(windows)} pairs_flagged={pairs} "
        f"labels={json.dumps(dict(sorted(labels.items())), sort_keys=True)} "
        f"elapsed_s={elapsed:.1f}"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# fingerprint
# ---------------------------------------------------------------------------


def _detections_from_report(obj: dict) -> list[tuple[tuple[int, int], Detection]]:
    out = []
    for rep in obj.get("reports", []):
        start, end = rep["window"]
        window = (int(start), int(end))
        for d in rep["detections"]:
            out.append(
                (
                    window,
                    Detection(
                        ip=d["ip"],
                        isp=d["isp"],
                        domains=frozenset(d["domains"]),
                        process_names=tuple(sorted(d["process_names"].items())),
                        machine_ids=frozenset(d["machine_ids"]),
                        request_count=d["request_count"],
                        label=d["label"],
                    ),
                )
            )
    return out


def cmd_fingerprint(args) -> int:
    suffix = _suffix_set(args)
    report_path = _require(args.report, "detection report")
    trace_path = _require(args.trace, "trace")
    # a report not written by detect fails in any of these ways
    with _parsing(report_path, ValueError, KeyError, TypeError, AttributeError):
        with open(report_path, "r", encoding="utf-8") as fh:
            pairs = _detections_from_report(json.load(fh))
    with _parsing(trace_path):
        loaded = load_trace(_read_lines(trace_path), suffix, strict=args.strict)
    records = loaded.http
    if pairs and records:
        lo = min(r.timestamp for r in records)
        hi = max(r.timestamp for r in records)
        for window, _ in pairs:
            if window[1] <= lo or window[0] > hi:
                raise CmdError(
                    EXIT_WINDOW_MISMATCH,
                    f"report window {window} does not overlap trace span [{lo}, {hi}]",
                )
    elif pairs and not records:
        raise CmdError(EXIT_WINDOW_MISMATCH, "report has detections but trace has no records")

    by_ip: dict[str, list] = {}
    flagged_ips = {d.ip for _, d in pairs}
    for rec in records:
        if rec.server_ip in flagged_ips:
            by_ip.setdefault(rec.server_ip, []).append(rec)
    high_value = frozenset().union(*(d.domains for _, d in pairs)) if pairs else frozenset()
    profiles = [
        fp.extract_features(d, by_ip.get(d.ip, []), suffix, high_value) for _, d in pairs
    ]
    grouped = fp.group_detections(profiles, feature_agreement=args.feature_agreement)
    named = []
    for i, prof in enumerate(grouped):
        members = prof.label
        prof.label = f"scheme-{i + 1:02d}"
        named.append((prof, members))

    outdir = Path(args.out)
    rows = fp.profile_csv_rows([p for p, _ in named])
    rows[0].append("first_member")
    for row, (_, members) in zip(rows[1:], named):
        row.append(members)
    _write_csv(outdir / "profiles.csv", rows)
    if named:
        matrix = fp.jaccard_matrix([p for p, _ in named])
        _write_text(outdir / "jaccard.csv", "\n".join(matrix.to_csv_lines()) + "\n")
    else:
        _write_text(outdir / "jaccard.csv", "\n")
    print(f"detections={len(pairs)} profiles={len(named)}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# panelscan
# ---------------------------------------------------------------------------


def cmd_panelscan(args) -> int:
    suffix = _suffix_set(args)
    trace_path = _require(args.trace, "trace")
    with _parsing(trace_path):
        loaded = load_trace(_read_lines(trace_path), suffix, strict=args.strict)
    alias = AliasGroups.empty()
    if args.alias:
        alias_path = _require(args.alias, "alias groups")
        with _parsing(alias_path):
            alias = load_alias_groups(_read_table(alias_path), suffix)
    with _flag_values(lookback_ms="--lookback"):
        policy = pn.SessionPolicy(lookback_ms=args.lookback, alias=alias)

    windows = _windows(args.window, loaded.impressions)
    agg_dom: dict[str, list[int]] = {}
    agg_machine: dict[str, list[int]] = {}
    missing_events: dict[str, list[tuple[int, str]]] = {}
    for day, end in windows:
        # each impression counts in exactly one window, clipped to its end
        ads = pn.attributed_ads(loaded.impressions, day, end)
        visits = pn.publisher_visits(loaded.pageviews, day, policy)
        table = pn.misattribution_table(ads, visits, policy)
        for dom, stat in table.per_domain.items():
            cur = agg_dom.setdefault(dom, [0, 0])
            cur[0] += stat.attributed
            cur[1] += stat.missing
        for machine, stat in table.per_machine.items():
            cur = agg_machine.setdefault(machine, [0, 0])
            cur[0] += stat.attributed
            cur[1] += stat.missing
        for machine, events in table.missing_events.items():
            missing_events.setdefault(machine, []).extend(events)

    ranked = [
        m
        for m, (attributed, missing) in sorted(
            agg_machine.items(), key=lambda kv: (-kv[1][1], -kv[1][0], kv[0])
        )
        if attributed >= args.min_ads
    ]
    below_min_ads = sum(
        1 for attributed, missing in agg_machine.values() if missing and attributed < args.min_ads
    )

    outdir = Path(args.out)
    dom_rows = [["domain", "attributed", "missing", "fraction"]]
    for dom in sorted(agg_dom):
        attributed, missing = agg_dom[dom]
        frac = missing / attributed if attributed else 0.0
        dom_rows.append([dom, attributed, missing, f"{frac:.4f}"])
    _write_csv(outdir / "domains.csv", dom_rows)
    mach_rows = [["machine", "attributed", "missing"]]
    for machine in sorted(agg_machine):
        attributed, missing = agg_machine[machine]
        mach_rows.append([machine, attributed, missing])
    _write_csv(outdir / "machines.csv", mach_rows)
    _write_text(outdir / "ranking.txt", "".join(m + "\n" for m in ranked))

    evidence = []
    for machine in ranked[: args.top]:
        events = sorted(missing_events.get(machine, []))
        evidence.append(f"# machine {machine}: {len(events)} attributed ads with no qualifying visit")
        for ts, dom in events:
            evidence.append(f"{ts} {dom}")
        evidence.append("")
    _write_text(outdir / "evidence.txt", "\n".join(evidence) + ("\n" if evidence else ""))
    print(
        f"days={len(windows)} machines_ranked={len(ranked)} below_min_ads={below_min_ads} "
        f"impressions={len(loaded.impressions)}"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# framedepth / synth / rules
# ---------------------------------------------------------------------------


def _depth_sample(path: Path, label: str) -> fd.DepthSample:
    """A frame-depth CSV.  One with no row of depth >= 1 cannot be compared,
    so it is a parse abort like a malformed one."""
    with _parsing(path, ValueError):
        sample, _ = fd.load_depth_csv(_read_table(path), label=label)
        fd.depth_histogram(sample, include_zero=False)  # raises on such a sample
    return sample


def cmd_framedepth(args) -> int:
    tainted_path = _require(args.tainted, "tainted sample")
    general_path = _require(args.general, "general sample")
    tainted = _depth_sample(tainted_path, "tainted")
    general = _depth_sample(general_path, "general")
    cmp_result = fd.compare(tainted, general)
    _write_json(Path(args.out), cmp_result.to_json_dict())
    if args.plotdata:
        _write_text(Path(args.plotdata), "\n".join(cmp_result.plot_lines()) + "\n")
    print(
        f"max_depth tainted={cmp_result.max_depth_a} general={cmp_result.max_depth_b} "
        f"dominance_k3={dict(cmp_result.tail_dominance).get(3, 0.0):+.4f}"
    )
    return EXIT_OK


def cmd_synth(args) -> int:
    with _flag_values(divisor="--scale-divisor"):
        if args.plants == "five":
            scenario = sg.five_scheme_scenario(
                seed=args.seed,
                divisor=args.scale_divisor,
                background_machines=args.machines,
                day_count=args.days,
            )
        else:
            scenario = sg.Scenario(
                seed=args.seed,
                day_count=args.days,
                divisor=args.scale_divisor,
                background=sg.BackgroundSpec(machine_count=args.machines),
                plants=(),
            )
    manifest = sg.emit_scenario_files(scenario, args.out)
    lines = manifest["files"]["trace.jsonl"]["lines"]
    print(f"out={args.out} trace_lines={lines} plants={len(manifest['plants'])} seed={manifest['seed']}")
    return EXIT_OK


def cmd_rules(args) -> int:
    suffix = _suffix_set(args)
    trace_path = _require(args.trace, "trace")
    with _parsing(trace_path):
        loaded = load_trace(_read_lines(trace_path), suffix, strict=args.strict)
    findings: list[dict] = []

    by_machine: dict[str, list] = {}
    for rec in loaded.http:
        by_machine.setdefault(rec.machine_id, []).append(rec)
    verified = 0
    for machine in sorted(by_machine):
        recs = sorted(by_machine[machine], key=lambda r: r.timestamp)
        for rec in recs:
            try:
                signal = ur.check_spoof_query(rec.url, suffix, ts=rec.timestamp)
            except ur.MalformedSignalError as err:
                findings.append(
                    {"type": "malformed_spoof_signal", "machine": machine, "ts": rec.timestamp,
                     "url": rec.url, "error": str(err)}
                )
                continue
            if signal is None:
                continue
            signal = ur.verify_spoof_followthrough(signal, recs, args.horizon)
            verified += signal.verified
            findings.append(
                {
                    "type": "spoof_signal",
                    "machine": machine,
                    "ts": rec.timestamp,
                    "url": rec.url,
                    "spoof_domain": signal.spoof_domain.registrable,
                    "land_ip": signal.land_ip,
                    "verified": signal.verified,
                }
            )
        groups: dict[str, list[str]] = {}
        for rec in recs:
            if rec.referrer:
                groups.setdefault(rec.referrer, []).append(rec.url)
        for ref in sorted(groups):
            check = ur.sibling_referrer_consistency(groups[ref], args.referrer_param, suffix)
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
        # bad JSON or encoding, not an object of strings, or no functions
        with _parsing(envfp_path, ValueError):
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
        _write_text(
            Path(args.out),
            "".join(json.dumps(f, sort_keys=True) + "\n" for f in findings),
        )
    spoof_total = sum(1 for f in findings if f["type"] == "spoof_signal")
    print(f"findings={len(findings)} spoof_signals={spoof_total} verified={verified}")
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
