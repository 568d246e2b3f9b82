import csv
import json
import os
import random
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import launderscan
from launderscan import fingerprint
from launderscan.cli import (
    MAX_WINDOW_DAYS, CmdError, _day_cuts, _window, _windows, main,
)
from launderscan.model import DAY_MS

from conftest import DAY0


def _csv_rows(path: Path) -> list[list[str]]:
    """A CSV file's rows, read as UTF-8."""
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


@pytest.fixture(scope="module")
def scenario_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("scenario")
    code = main(
        ["synth", "--out", str(out), "--seed", "11", "--machines", "320", "--days", "1"]
    )
    assert code == 0
    return out


def _detect_args(d: Path, extra=()):
    return [
        "detect",
        "--trace", str(d / "trace.jsonl"),
        "--ipmap", str(d / "ipmap.csv"),
        "--ranking", str(d / "ranking.txt"),
        "--malware", str(d / "malware.txt"),
        *extra,
    ]


def test_synth_is_deterministic(scenario_dir, tmp_path):
    again = tmp_path / "again"
    assert main(["synth", "--out", str(again), "--seed", "11", "--machines", "320"]) == 0
    for name in ("trace.jsonl", "ipmap.csv", "ranking.txt", "malware.txt", "truth.json", "manifest.json"):
        assert (scenario_dir / name).read_bytes() == (again / name).read_bytes()


def test_detect_flags_planted_pairs(scenario_dir, tmp_path, capsys):
    report = tmp_path / "report.json"
    code = main(_detect_args(scenario_dir, ["--out", str(report)]))
    assert code == 0
    out = capsys.readouterr().out
    assert "pairs_flagged=40" in out
    obj = json.loads(report.read_text())
    truth = json.loads((scenario_dir / "truth.json").read_text())
    flagged = {(d["ip"], d["isp"]) for r in obj["reports"] for d in r["detections"]}
    assert flagged == {tuple(p) for p in truth["planted_pairs"]}


def test_detect_csv_format(scenario_dir, tmp_path):
    report = tmp_path / "report.csv"
    assert main(_detect_args(scenario_dir, ["--out", str(report), "--format", "csv"])) == 0
    rows = _csv_rows(report)
    assert rows[0] == ["window_start", "window_end", "ip", "isp", "domain_count", "request_count", "label"]
    assert len(rows) == 41


def test_detect_rerun_is_byte_identical(scenario_dir, tmp_path):
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(_detect_args(scenario_dir, ["--out", str(r1)])) == 0
    assert main(_detect_args(scenario_dir, ["--out", str(r2)])) == 0
    assert r1.read_bytes() == r2.read_bytes()


def test_detect_summary_sums_the_window_diagnostics(tmp_path, capsys):
    """Over a three-day trace, the summary and the stdout line hold each
    window's ``pairs_flagged`` and ``labels`` summed, and those count the
    window's detections."""
    rng = random.Random(5)
    # one IP per label: the others get only chrome.exe
    procs = {0: ("evil.exe", "chrome.exe"), 1: ("", "chrome.exe")}
    lines = [
        json.dumps({"ts": DAY0 + rng.randrange(3 * DAY_MS), "machine": f"m{rng.randrange(4)}",
                    "url": f"http://d{rng.randrange(6)}.com/", "ip": f"10.0.{ip}.1",
                    "proc": rng.choice(procs.get(ip, ("chrome.exe",)))})
        for ip in (rng.randrange(5) for _ in range(400))
    ]
    (tmp_path / "trace.jsonl").write_text("\n".join(lines) + "\n")
    (tmp_path / "ipmap.csv").write_text("".join(f"10.0.{i}.0/24,isp{i % 2}\n" for i in range(5)))
    (tmp_path / "ranking.txt").write_text("".join(f"d{i}.com\n" for i in range(6)))
    (tmp_path / "malware.txt").write_text("evil.exe\n")
    report = tmp_path / "report.json"
    thresholds = ["--min-ips", "2", "--min-isps", "2", "--threshold", "2"]
    assert main(_detect_args(tmp_path, ["--out", str(report), *thresholds])) == 0
    obj = json.loads(report.read_text())
    pairs, labels = 0, {}
    for r in obj["reports"]:
        diag = r["diagnostics"]
        assert diag["pairs_flagged"] == len(r["detections"])
        assert sum(diag["labels"].values()) == len(r["detections"])
        pairs += diag["pairs_flagged"]
        for label, n in diag["labels"].items():
            labels[label] = labels.get(label, 0) + n
    assert len(obj["reports"]) == 3 and len(labels) == 3
    assert obj["summary"] == {"windows": 3, "pairs_flagged": pairs, "labels": labels}
    assert capsys.readouterr().out.startswith(
        f"windows=3 pairs_flagged={pairs} labels={json.dumps(labels, sort_keys=True)} ")


def test_detect_missing_input_exit_2(scenario_dir, tmp_path):
    args = _detect_args(scenario_dir)
    args[args.index("--ipmap") + 1] = str(tmp_path / "absent.csv")
    assert main(args) == 2


def test_detect_strict_abort_exit_3(scenario_dir, tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"ts": 1, "machine": "m", "url": "http://a.com/", "ip": "1.2.3.4"}\nnot json\n')
    args = _detect_args(scenario_dir, ["--strict"])
    args[args.index("--trace") + 1] = str(bad)
    assert main(args) == 3


@pytest.mark.parametrize(
    "field, value",
    [("ts", True), ("status", False), ("proc", 5), ("method", 1), ("ua", 2), ("ref", 3),
     ("ip", "1.1.1.\u00b2")],
)
def test_detect_wrongly_typed_field_skipped_or_exit_3(scenario_dir, tmp_path, field, value):
    line = {"ts": DAY0 + 1, "machine": "m", "url": "http://a.com/", "ip": "1.2.3.4", field: value}
    bad = tmp_path / "bad.jsonl"
    bad.write_text(json.dumps(line) + "\n")
    args = _detect_args(scenario_dir, ["--out", str(tmp_path / "report.json")])
    args[args.index("--trace") + 1] = str(bad)
    assert main(args) == 0
    inputs = json.loads((tmp_path / "report.json").read_text())["inputs"]
    assert (inputs["trace_lines"], inputs["trace_skipped"]) == (1, 1)
    assert main([*args, "--strict"]) == 3


def test_fingerprint_outputs(scenario_dir, tmp_path):
    report = tmp_path / "report.json"
    assert main(_detect_args(scenario_dir, ["--out", str(report)])) == 0
    outdir = tmp_path / "fp"
    code = main(
        [
            "fingerprint",
            "--report", str(report),
            "--trace", str(scenario_dir / "trace.jsonl"),
            "--out", str(outdir),
        ]
    )
    assert code == 0
    rows = _csv_rows(outdir / "profiles.csv")
    assert rows[0][:7] == ["label", "isps", "ips", "days_seen", "top2k_domains", "machines", "avg_daily_requests"]
    # hyphbot splits per ISP (4), the other four schemes group to one each
    assert len(rows) - 1 == 8
    matrix_lines = (outdir / "jaccard.csv").read_text().strip().splitlines()
    assert len(matrix_lines) == 9
    assert matrix_lines[1].split(",")[1] == "1.00"
    # rerun byte-identical
    outdir2 = tmp_path / "fp2"
    assert main(
        ["fingerprint", "--report", str(report), "--trace", str(scenario_dir / "trace.jsonl"), "--out", str(outdir2)]
    ) == 0
    assert (outdir / "profiles.csv").read_bytes() == (outdir2 / "profiles.csv").read_bytes()
    assert (outdir / "jaccard.csv").read_bytes() == (outdir2 / "jaccard.csv").read_bytes()


def test_fingerprint_window_mismatch_exit_4(scenario_dir, tmp_path):
    report = tmp_path / "mismatch.json"
    report.write_text(
        json.dumps(
            {
                "reports": [
                    {
                        "window": [0, 86_400_000],
                        "detections": [
                            {
                                "ip": "1.2.3.4",
                                "isp": "x",
                                "domains": ["a.com"],
                                "process_names": {},
                                "machine_ids": [],
                                "request_count": 1,
                                "label": "Unlabeled",
                            }
                        ],
                    }
                ]
            }
        )
    )
    code = main(
        [
            "fingerprint",
            "--report", str(report),
            "--trace", str(scenario_dir / "trace.jsonl"),
            "--out", str(tmp_path / "fpx"),
        ]
    )
    assert code == 4


def test_panelscan_with_alias(scenario_dir, tmp_path):
    outdir = tmp_path / "panel"
    code = main(
        [
            "panelscan",
            "--trace", str(scenario_dir / "trace.jsonl"),
            "--alias", str(scenario_dir / "aliases.csv"),
            "--min-ads", "1",
            "--out", str(outdir),
        ]
    )
    assert code == 0
    truth = json.loads((scenario_dir / "truth.json").read_text())
    planted = set(truth["planted_machines"])
    ranked = (outdir / "ranking.txt").read_text().splitlines()
    machines = {
        row[0]: (int(row[1]), int(row[2]))
        for row in _csv_rows(outdir / "machines.csv")[1:]
    }
    # every background machine reconciles fully once aliases are honored
    for machine, (attributed, missing) in machines.items():
        if machine.startswith("bg-"):
            assert missing == 0
        else:
            assert machine in planted
    # ranked head is planted machines only (clean machines have zero missing)
    with_missing = [m for m in ranked if machines[m][1] > 0]
    assert with_missing and all(m in planted for m in with_missing)
    assert ranked[: len(with_missing)] == with_missing
    assert (outdir / "evidence.txt").read_text().startswith("# machine ")


def test_panelscan_window_counts_each_impression_once(tmp_path):
    """A raw-ms window longer than a day that starts off midnight is split
    into clipped windows; no impression may land in two of them."""
    hour = 3_600_000
    trace = tmp_path / "trace.jsonl"
    trace.write_text("".join(
        json.dumps({"ts": ts, "machine": "m1", "kind": "impression", "attr_domain": "a.com"}) + "\n"
        for ts in (DAY0 + 20 * hour, DAY0 + 25 * hour)
    ))
    outdir = tmp_path / "panel"
    window = f"{DAY0 + 12 * hour}..{DAY0 + 60 * hour}"
    assert main(["panelscan", "--trace", str(trace), "--window", window, "--min-ads", "0",
                 "--out", str(outdir)]) == 0
    assert (outdir / "machines.csv").read_text().splitlines() == ["machine,attributed,missing", "m1,2,2"]
    evidence = (outdir / "evidence.txt").read_text().splitlines()
    assert evidence[1:3] == [f"{DAY0 + 20 * hour} a.com", f"{DAY0 + 25 * hour} a.com"]
    assert len(evidence) == 4


def _oracle_panel(imps, pvs, alias, lookback, span):
    """Brute force: an impression inside ``span`` is missing exactly when no
    page view of the same machine and alias group falls in [ts - lookback, ts]."""
    group = {d: min(g) for g in alias for d in g}
    machines, domains, missing = {}, {}, {}
    for ts, machine, dom in sorted(imps):
        if span is not None and not span[0] <= ts < span[1]:
            continue
        miss = not any(
            pm == machine and group.get(pd, pd) == group.get(dom, dom) and ts - lookback <= pts <= ts
            for pts, pm, pd in pvs
        )
        for table, key in ((machines, machine), (domains, dom)):
            attributed, missed = table.get(key, (0, 0))
            table[key] = (attributed + 1, missed + miss)
        if miss:
            missing.setdefault(machine, []).append((ts, dom))
    return machines, domains, missing


def test_multi_day_panelscan_matches_brute_force_oracle(tmp_path):
    rng = random.Random(31)
    hour = 3_600_000
    doms = [f"d{i}.com" for i in range(6)]
    alias = [("d0.com", "d1.com"), ("d2.com", "d3.com", "d4.com")]
    (tmp_path / "aliases.csv").write_text("".join(",".join(g) + "\n" for g in alias))
    for case in range(40):
        lookback = rng.choice([1_000, hour, DAY_MS, 200_000_000, rng.randrange(1, 2 * DAY_MS)])
        imps = [(DAY0 - 6 * hour + rng.randrange(4 * DAY_MS), f"m{rng.randrange(4)}", rng.choice(doms))
                for _ in range(rng.randrange(1, 60))]
        pvs = [(DAY0 - 2 * DAY_MS + rng.randrange(6 * DAY_MS), f"m{rng.randrange(4)}", rng.choice(doms))
               for _ in range(rng.randrange(40))]
        # views on either side of each lookback edge of some impressions
        for ts, machine, dom in rng.sample(imps, len(imps) // 3):
            edge = rng.choice([0, -1, lookback, lookback + 1])
            pvs.append((ts - edge, machine, rng.choice([dom, *doms])))
        lines = [{"ts": ts, "machine": m, "kind": "impression", "attr_domain": d} for ts, m, d in imps]
        lines += [{"ts": ts, "machine": m, "kind": "pageview", "pub_domain": d} for ts, m, d in pvs]
        rng.shuffle(lines)
        trace = tmp_path / "trace.jsonl"
        trace.write_text("".join(json.dumps(line) + "\n" for line in lines))
        span, min_ads = None, rng.randrange(4)
        args = ["panelscan", "--trace", str(trace), "--alias", str(tmp_path / "aliases.csv"),
                "--lookback", str(lookback), "--min-ads", str(min_ads), "--top", "99"]
        if rng.random() < 0.5:  # a raw-ms window, mostly off midnight
            start = DAY0 - 6 * hour + rng.randrange(3 * DAY_MS)
            span = (start, start + rng.randrange(1, 3 * DAY_MS))
            args += ["--window", f"{span[0]}..{span[1]}"]
        outdir = tmp_path / f"panel{case}"
        assert main([*args, "--out", str(outdir)]) == 0, case
        machines, domains, missing = _oracle_panel(imps, pvs, alias, lookback, span)
        rows = _csv_rows(outdir / "machines.csv")[1:]
        assert rows == [[m, str(a), str(n)] for m, (a, n) in sorted(machines.items())], case
        rows = _csv_rows(outdir / "domains.csv")[1:]
        assert rows == [[d, str(a), str(n), f"{n / a:.4f}"] for d, (a, n) in sorted(domains.items())], case
        ranked = sorted((m for m, (a, _) in machines.items() if a >= min_ads),
                        key=lambda m: (-machines[m][1], -machines[m][0], m))
        assert (outdir / "ranking.txt").read_text().splitlines() == ranked, case
        evidence = []
        for m in ranked:
            evidence.append(f"# machine {m}: {len(missing.get(m, []))} attributed ads with no qualifying visit")
            evidence += [f"{ts} {d}" for ts, d in missing.get(m, [])]
            evidence.append("")
        assert (outdir / "evidence.txt").read_text().split("\n")[:-1] == evidence, case


def _readme_chain():
    """The launderscan commands of the README quick start, in order, with
    backslash continuations joined."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("## Quick start", 1)[1].split("\n## ", 1)[0]
    commands = []
    for block in section.split("```")[1::2]:
        for cmd in block.replace("\\\n", " ").splitlines():
            if cmd.startswith("launderscan "):
                commands.append(shlex.split(cmd)[1:])
    return commands


def test_readme_quick_start_chain(scenario_dir, tmp_path, capsys):
    """detect → fingerprint → panelscan → rules exactly as the README shows
    them, on the test scenario in place of /tmp/scenario."""
    def local(arg):
        for readme_dir, here in (("/tmp/scenario/", scenario_dir), ("/tmp/", tmp_path)):
            if arg.startswith(readme_dir):
                return str(here / arg[len(readme_dir):])
        return arg

    chain = [
        [local(a) for a in cmd]
        for cmd in _readme_chain()
        if cmd[0] in ("detect", "fingerprint", "panelscan", "rules")
    ]
    assert [cmd[0] for cmd in chain] == ["detect", "fingerprint", "panelscan", "rules"]
    for cmd in chain:
        assert main(cmd) == 0, cmd
    out = capsys.readouterr().out
    profiles = _csv_rows(tmp_path / "fp" / "profiles.csv")
    assert len(profiles) > 1
    hyphbot = json.loads((scenario_dir / "truth.json").read_text())["schemes"]["hyphbot"]["machines"]
    ranked = (tmp_path / "panel" / "ranking.txt").read_text().splitlines()
    assert len(hyphbot) == 141 and set(ranked[: len(hyphbot)]) == set(hyphbot)
    assert f"machines_ranked={len(ranked)} " in out
    assert (tmp_path / "findings.jsonl").read_text()


def test_non_ascii_digit_land_ip_is_a_malformed_signal(tmp_path):
    """A land_ip octet that decodes to a superscript two is a finding in
    rules and a spoof flag in fingerprint, not a traceback."""
    url = "http://ads.net/imp?spoof_domain=a.com&land_ip=1.1.1.%C2%B2"
    trace = tmp_path / "trace.jsonl"
    trace.write_text(json.dumps({"ts": DAY0 + 5, "machine": "m1", "url": url, "ip": "1.2.3.4"}) + "\n")
    findings = tmp_path / "findings.jsonl"
    assert main(["rules", "--trace", str(trace), "--out", str(findings)]) == 0
    assert [json.loads(line)["type"] for line in findings.read_text().splitlines()] == [
        "malformed_spoof_signal"
    ]
    report = tmp_path / "report.json"
    report.write_bytes(_report_bytes(window=[DAY0, DAY0 + DAY_MS]))
    assert main(["fingerprint", "--report", str(report), "--trace", str(trace),
                 "--out", str(tmp_path / "fp")]) == 0
    profile = _csv_rows(tmp_path / "fp" / "profiles.csv")[1]
    assert "SpoofQueryFields" in profile[7].split(";")


@pytest.mark.parametrize(
    "url, findings",
    [
        ("http://[bad/p?x=1", []),  # an unbalanced bracket
        ("http://[a]/?referrer=b.com", []),  # a bracketed host that is not an IP
        # a host that NFKC turns into one holding '#'
        ("http://a\uff03b/?spoof_domain=a.com&land_ip=1.1.1.1", ["spoof_signal"]),
    ],
)
def test_urls_urlsplit_rejects_run_through_rules_and_fingerprint(tmp_path, url, findings):
    """urllib's urlsplit raises ValueError on each of these URLs; the URL
    rules read the query without it, so neither command has a traceback."""
    trace = tmp_path / "trace.jsonl"
    trace.write_text(json.dumps({"ts": DAY0 + 5, "machine": "m1", "url": url,
                                 "ref": "http://a.com/", "ip": "1.2.3.4"}) + "\n")
    for strict in ([], ["--strict"]):
        out = tmp_path / "findings.jsonl"
        assert main(["rules", *strict, "--trace", str(trace), "--out", str(out)]) == 0
        assert [json.loads(line)["type"] for line in out.read_text().splitlines()] == findings
    report = tmp_path / "report.json"
    report.write_bytes(_report_bytes(window=[DAY0, DAY0 + DAY_MS]))
    assert main(["fingerprint", "--report", str(report), "--trace", str(trace),
                 "--out", str(tmp_path / "fp")]) == 0
    profile = _csv_rows(tmp_path / "fp" / "profiles.csv")[1]
    assert ("SpoofQueryFields" in profile[7].split(";")) == bool(findings)


def test_framedepth_cli(tmp_path, capsys):
    tainted = tmp_path / "tainted.csv"
    general = tmp_path / "general.csv"
    tainted.write_text("url,max_depth\n" + "".join(f"http://t{i}/,{d}\n" for i, d in enumerate([2, 3, 11, 5, 4])))
    general.write_text("".join(f"http://g{i}/,{d}\n" for i, d in enumerate([1, 1, 2, 0])))
    out = tmp_path / "cmp.json"
    plot = tmp_path / "cmp.dat"
    assert main(["framedepth", "--tainted", str(tainted), "--general", str(general),
                 "--out", str(out), "--plotdata", str(plot)]) == 0
    obj = json.loads(out.read_text())
    assert obj["a"]["max_depth"] == 11
    assert plot.read_text().startswith("# depth")
    assert "skipped tainted=0 general=0" in capsys.readouterr().out
    assert main(["framedepth", "--tainted", str(tmp_path / "nope.csv"), "--general", str(general),
                 "--out", str(out)]) == 2
    # a depth past MAX_DEPTH is a skipped row, and stdout counts it
    tainted.write_text("http://a/,200000\nhttp://b/,1\n")
    capsys.readouterr()
    assert main(["framedepth", "--tainted", str(tainted), "--general", str(general),
                 "--out", str(out)]) == 0
    assert capsys.readouterr().out.rstrip().endswith("skipped tainted=1 general=0")


def test_unstored_trace_fields_feed_no_output(scenario_dir, tmp_path, capsys):
    """load_trace checks an http line's method, status and ua and loads an
    impression whatever its account, but stores none of them: other valid
    values leave every output file and stdout byte-identical."""
    rewritten = tmp_path / "rewritten.jsonl"
    with open(scenario_dir / "trace.jsonl", encoding="utf-8") as src, \
            open(rewritten, "w", encoding="utf-8") as dst:
        for line in src:
            obj = json.loads(line)
            if obj.get("kind", "http") == "http":
                obj.update(method="POST", status=404, ua="Other-UA/1.0")
            elif obj["kind"] == "impression":
                obj["account"] = ["x", 1]
            dst.write(json.dumps(obj) + "\n")

    def outputs(trace: Path, out: Path):
        report = out / "report.json"
        chain = [
            ["detect", "--trace", trace, "--ipmap", scenario_dir / "ipmap.csv",
             "--ranking", scenario_dir / "ranking.txt", "--malware", scenario_dir / "malware.txt",
             "--out", report],
            ["fingerprint", "--report", report, "--trace", trace, "--out", out / "fp"],
            ["rules", "--trace", trace, "--out", out / "findings.jsonl"],
            ["panelscan", "--trace", trace, "--alias", scenario_dir / "aliases.csv",
             "--min-ads", "5", "--out", out / "panel"],
        ]
        stdout = []
        for argv in chain:
            assert main([str(a) for a in argv]) == 0, argv
            stdout.append(re.sub(r"elapsed_s=\S+", "", capsys.readouterr().out))
        files = {p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
        return stdout, files

    original = outputs(scenario_dir / "trace.jsonl", tmp_path / "original")
    assert "profiles=0" not in original[0][1] and "spoof_signals=0" not in original[0][2]
    assert outputs(rewritten, tmp_path / "rewritten") == original


def test_rules_finds_verified_spoof_signals(scenario_dir, tmp_path):
    findings_path = tmp_path / "findings.jsonl"
    envfp = tmp_path / "envfp.json"
    envfp.write_text(json.dumps({"escape": "function(n) { return privateEncode(n, wrapper['escape']);}"}))
    code = main(
        [
            "rules",
            "--trace", str(scenario_dir / "trace.jsonl"),
            "--envfp", str(envfp),
            "--out", str(findings_path),
        ]
    )
    assert code == 0
    findings = [json.loads(line) for line in findings_path.read_text().splitlines()]
    spoof = [f for f in findings if f["type"] == "spoof_signal"]
    assert spoof and all(f["verified"] for f in spoof)
    env = [f for f in findings if f["type"] == "env_fingerprint"]
    assert env == [{"type": "env_fingerprint", "status": "tampered", "tampered": ["escape"]}]


def test_synth_clean_plants_none(tmp_path, capsys):
    out = tmp_path / "clean"
    assert main(["synth", "--out", str(out), "--seed", "2", "--machines", "50", "--plants", "none"]) == 0
    truth = json.loads((out / "truth.json").read_text())
    assert truth["planted_pairs"] == []
    report = tmp_path / "clean-report.json"
    assert main(_detect_args(out, ["--out", str(report)])) == 0
    assert "pairs_flagged=0" in capsys.readouterr().out


def test_panelscan_reports_machines_below_min_ads(scenario_dir, tmp_path, capsys):
    """With the default floor nothing ranks; the summary says how many
    machines with missing impressions the floor held back."""
    outdir = tmp_path / "panel"
    assert main(["panelscan", "--trace", str(scenario_dir / "trace.jsonl"), "--out", str(outdir)]) == 0
    out = capsys.readouterr().out
    rows = _csv_rows(outdir / "machines.csv")[1:]
    below = sum(1 for _, attributed, missing in rows if int(missing) > 0 and int(attributed) < 25)
    assert below == 360
    assert "machines_ranked=0 below_min_ads=360 " in out


def test_non_utf8_trace_line_skipped_or_exit_3(scenario_dir, tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_bytes(
        b'{"ts": 5, "machine": "m1", "url": "http://a.com/", "ip": "1.2.3.4"}\n'
        b'{"ts": 5, "machine": "m1", "url": "http://a.com/\xff", "ip": "1.2.3.4"}\n'
    )
    report = tmp_path / "report.json"
    args = _detect_args(scenario_dir, ["--out", str(report)])
    args[args.index("--trace") + 1] = str(bad)
    assert main(args) == 0
    inputs = json.loads(report.read_text())["inputs"]
    assert (inputs["trace_lines"], inputs["trace_skipped"]) == (2, 1)
    capsys.readouterr()
    assert main([*args, "--strict"]) == 3
    assert capsys.readouterr().err == f"parse abort: {bad}: line 2: bad encoding\n"


@pytest.fixture
def tiny_inputs(tmp_path):
    files = {
        "trace.jsonl": b'{"ts": 5, "machine": "m1", "url": "http://a.com/", "ip": "1.2.3.4"}\n',
        "ipmap.csv": b"1.2.3.0/24,isp\n",
        "ranking.txt": b"a.com\n",
        "malware.txt": b"evil.exe\n",
        "report.json": b'{"reports": []}\n',
        "depth.csv": b"http://a/,1\n",
    }
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    return tmp_path


def _report_bytes(window=(0, DAY_MS), **over):
    """A report of one detection on 1.2.3.4 over ``window`` (by default the
    tiny trace's), with ``over`` replacing detection fields."""
    det = {"ip": "1.2.3.4", "isp": "isp", "domains": ["a.com"], "process_names": {},
           "machine_ids": ["m1"], "request_count": 1, "label": "Unlabeled", **over}
    return json.dumps({"reports": [{"window": list(window), "detections": [det]}]}).encode()


# nested past the JSON decoder's recursion limit
DEEP_JSON = b"[" * 200_000 + b"]" * 200_000


@pytest.mark.parametrize(
    "command, flag, data",
    [
        ("detect", "--ipmap", b"1.2.3.0/24,isp\xff\n"),
        ("detect", "--ranking", b"a.com\n\xffb.com\n"),
        ("detect", "--malware", b"evil\xff.exe\n"),
        ("panelscan", "--alias", b"a.com,b.com\nb.com,c.com\n"),
        ("panelscan", "--alias", b"a.com,b..com\n"),
        ("panelscan", "--alias", b"a.com,\xffb.com\n"),
        ("rules", "--suffixes", b"com\n\xffnet\n"),
        ("rules", "--envfp", b"not json"),
        ("rules", "--envfp", b'["escape"]'),
        ("rules", "--envfp", b'{"escape": 5}'),
        ("rules", "--envfp", b"{}"),
        ("rules", "--envfp", b'{"escape": "\xff"}'),
        ("fingerprint", "--report", b"not json"),
        ("fingerprint", "--report", b'{"reports": [{"window": [0, 1]}]}'),
        ("fingerprint", "--report", b'{"reports": [{"window": [0], "detections": []}]}'),
        ("fingerprint", "--report", b"[]"),
        ("fingerprint", "--report", _report_bytes(domains=[])),
        ("fingerprint", "--report", _report_bytes(request_count="7")),
        pytest.param("fingerprint", "--report", DEEP_JSON, id="fingerprint---report-deep-nesting"),
        pytest.param("rules", "--envfp", DEEP_JSON, id="rules---envfp-deep-nesting"),
        ("framedepth", "--tainted", b"http://a/,1\n\xff,2\n"),
        ("framedepth", "--general", b"http://\xff/,1\n"),
        ("framedepth", "--tainted", b"url,max_depth\n"),
        ("framedepth", "--general", b"http://a/,0\n"),
    ],
)
def test_malformed_input_file_is_a_parse_abort(tiny_inputs, capsys, command, flag, data):
    d = tiny_inputs
    base = {
        "detect": ["--trace", d / "trace.jsonl", "--ipmap", d / "ipmap.csv",
                   "--ranking", d / "ranking.txt", "--malware", d / "malware.txt"],
        "panelscan": ["--trace", d / "trace.jsonl", "--out", d / "out"],
        "rules": ["--trace", d / "trace.jsonl"],
        "fingerprint": ["--report", d / "report.json", "--trace", d / "trace.jsonl", "--out", d / "out"],
        "framedepth": ["--tainted", d / "depth.csv", "--general", d / "depth.csv", "--out", d / "cmp.json"],
    }[command]
    assert main([command, *map(str, base)]) == 0
    bad = d / "bad.input"
    bad.write_bytes(data)
    args = [command, *map(str, base)]
    if flag in args:
        args[args.index(flag) + 1] = str(bad)
    else:
        args += [flag, str(bad)]
    capsys.readouterr()
    assert main(args) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"parse abort: {bad}: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("detect", "--window", "garbage"),
        ("detect", "--window", "1..x"),
        ("detect", "--window", "2018-13-45"),
        ("detect", "--window", "0..316310400000"),  # 3,661 UTC days
        ("detect", "--window", "0..86400000000000"),
        ("panelscan", "--window", "2000-01-01:2020-01-01"),
        ("detect", "--threshold", "0"),
        ("detect", "--min-ips", "0"),
        ("detect", "--cutoff", "0"),
        ("panelscan", "--lookback", "0"),
        ("synth", "--scale-divisor", "0"),
        ("panelscan", "--top", "-1"),
        ("panelscan", "--min-ads", "-3"),
        ("rules", "--horizon", "-1"),
        ("rules", "--horizon", "0"),
        ("fingerprint", "--feature-agreement", "nan"),
        ("fingerprint", "--feature-agreement", "-0.5"),
        ("fingerprint", "--feature-agreement", "1.5"),
        ("synth", "--days", "0"),
        ("synth", "--seed", "-1"),
        ("synth", "--machines", "-5"),
    ],
)
def test_bad_flag_value_exits_2_naming_the_flag(tiny_inputs, capsys, command, flag, value):
    d = tiny_inputs
    base = {
        "detect": ["--trace", d / "trace.jsonl", "--ipmap", d / "ipmap.csv",
                   "--ranking", d / "ranking.txt", "--malware", d / "malware.txt"],
        "panelscan": ["--trace", d / "trace.jsonl", "--out", d / "out"],
        "rules": ["--trace", d / "trace.jsonl"],
        "fingerprint": ["--report", d / "report.json", "--trace", d / "trace.jsonl", "--out", d / "out"],
        "synth": ["--out", d / "synth"],
    }[command]
    assert main([command, *map(str, base), flag, value]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and flag in err and err.count("\n") == 1


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("detect", "--window", "garbage"),
        ("panelscan", "--window", "garbage"),
        ("panelscan", "--lookback", "0"),
        ("panelscan", "--min-ads", "-3"),
    ],
)
def test_bad_flag_value_exits_2_before_any_file_is_read(tmp_path, capsys, command, flag, value):
    """Every input path names a missing file, so a flag checked after the
    first read would report that file instead."""
    paths = {"detect": ["--trace", "--ipmap", "--ranking", "--malware"],
             "panelscan": ["--trace", "--alias", "--suffixes", "--out"]}[command]
    args = [command, flag, value]
    for p in paths:
        args += [p, str(tmp_path / "nothere" / p.lstrip("-"))]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad ") and flag in err and err.count("\n") == 1
    assert not (tmp_path / "nothere").exists()


def test_detect_strict_aborts_on_a_bad_ranking_line(tiny_inputs, capsys):
    d = tiny_inputs
    args = ["detect", "--trace", str(d / "trace.jsonl"), "--ipmap", str(d / "ipmap.csv"),
            "--ranking", str(d / "ranking.txt"), "--malware", str(d / "malware.txt")]
    assert main([*args, "--out", str(d / "clean.json")]) == 0
    bad = d / "bad_ranking.txt"
    bad.write_text("a.com\nbad domain\n")
    args[args.index("--ranking") + 1] = str(bad)
    assert main([*args, "--out", str(d / "lenient.json")]) == 0
    assert (d / "lenient.json").read_bytes() == (d / "clean.json").read_bytes()
    capsys.readouterr()
    assert main([*args, "--strict"]) == 3
    assert capsys.readouterr().err == f"parse abort: {bad}: line 2: bad domain\n"


def test_fingerprint_profiles_keep_domains_of_no_ranking(tiny_inputs):
    """A profile's top2k_domains is its detection's domain count, also for
    domains that no ranking lists."""
    d = tiny_inputs
    counts = {("1.2.3.4", "isp-a"): 3, ("5.6.7.8", "isp-b"): 1}
    dets = [
        {"ip": ip, "isp": isp, "domains": [f"offlist-{i}.com" for i in range(n)],
         "process_names": {}, "machine_ids": ["m1"], "request_count": 1, "label": "Unlabeled"}
        for (ip, isp), n in counts.items()
    ]
    report = d / "offlist.json"
    report.write_text(json.dumps({"reports": [{"window": [0, DAY_MS], "detections": dets}]}))
    out = d / "fp"
    assert main(["fingerprint", "--report", str(report), "--trace", str(d / "trace.jsonl"),
                 "--out", str(out)]) == 0
    with open(out / "profiles.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    got = {tuple(r["first_member"].split("|")): int(r["top2k_domains"]) for r in rows}
    assert got == counts


def _two_window_inputs(d):
    """A trace of four machines on three IPs over two days, and a report
    that flags 1.2.3.4 in both days' windows."""
    trace = d / "two-day.jsonl"
    lines = [(5, "m1", "1.2.3.4", "a.com", "bot.exe"), (DAY_MS + 5, "m2", "1.2.3.4", "a.com", "bot.exe"),
             (10, "m3", "5.6.7.8", "b.com", "bot.exe"), (20, "m4", "9.9.9.9", "c.com", "other.exe")]
    trace.write_text("".join(
        json.dumps({"ts": ts, "machine": m, "ip": ip, "url": f"http://{dom}/", "proc": proc}) + "\n"
        for ts, m, ip, dom, proc in lines
    ))

    def det(ip, isp, domains, machine, count):
        return {"ip": ip, "isp": isp, "domains": domains, "process_names": {}, "machine_ids": [machine],
                "request_count": count, "label": "Unlabeled"}

    report = d / "two-window.json"
    report.write_text(json.dumps({"reports": [
        {"window": [0, DAY_MS], "detections": [
            det("5.6.7.8", "isp-a", ["b.com"], "m3", 4),
            det("1.2.3.4", "isp-a", ["a.com", "b.com"], "m1", 2),
            det("9.9.9.9", "isp-b", ["b.com", "c.com"], "m4", 5),
        ]},
        {"window": [DAY_MS, 2 * DAY_MS], "detections": [det("1.2.3.4", "isp-a", ["a.com"], "m2", 3)]},
    ]}))
    return trace, report


def test_fingerprint_reads_the_report_before_the_trace(tiny_inputs, capsys):
    """A missing --report or --trace exits 2 before either file is read.
    Past that the report is read first, so a malformed report wins over a
    trace that --strict aborts on: stderr names the report."""
    d = tiny_inputs
    report, trace = d / "bad-report.json", d / "bad-trace.jsonl"
    report.write_text("{")
    trace.write_text(json.dumps({"ts": DAY0, "machine": "m1", "url": "http://a.com/",
                                 "ip": "1.2.3.4"}) + "\nnot json\n")
    args = ["fingerprint", "--report", str(report), "--trace", str(trace), "--out", str(d / "fp")]
    capsys.readouterr()
    assert main([*args, "--strict"]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"parse abort: {report}: ") and str(trace) not in err
    assert main(args) == 3  # lenient: the trace is fine, the report still is not
    assert capsys.readouterr().err.startswith(f"parse abort: {report}: ")
    assert main(["fingerprint", "--report", str(report), "--trace", str(d / "none.jsonl"),
                 "--out", str(d / "fp")]) == 2
    assert capsys.readouterr().err == f"error: missing trace: {d / 'none.jsonl'}\n"
    assert main(["fingerprint", "--report", str(d / "none.json"), "--trace", str(trace),
                 "--out", str(d / "fp")]) == 2
    assert capsys.readouterr().err == f"error: missing detection report: {d / 'none.json'}\n"


def test_fingerprint_reads_each_flagged_ip_once(tiny_inputs, monkeypatch):
    """1.2.3.4 is flagged in two windows; each of its machines is searched
    for a repeat cycle once."""
    calls = []

    def counted(events, tolerance_ms, min_len):
        calls.append(tuple(events))
        return real(events, tolerance_ms, min_len)

    real = fingerprint.detect_repeat_cycle
    monkeypatch.setattr(fingerprint, "detect_repeat_cycle", counted)
    trace, report = _two_window_inputs(tiny_inputs)
    assert main(["fingerprint", "--report", str(report), "--trace", str(trace),
                 "--out", str(tiny_inputs / "fp")]) == 0
    # one call per machine of each flagged IP: m1 and m2 of 1.2.3.4, m3, m4
    assert len(calls) == 4 and len(set(calls)) == 4


def test_fingerprint_names_schemes_by_their_first_member(tiny_inputs):
    """Schemes are named scheme-01, scheme-02, ... in order of their first
    member, the smallest ip|isp of the group, and the Jaccard table uses the
    names.  An empty report writes the two headers alone."""
    trace, report = _two_window_inputs(tiny_inputs)
    out = tiny_inputs / "fp"
    assert main(["fingerprint", "--report", str(report), "--trace", str(trace), "--out", str(out)]) == 0
    rows = _csv_rows(out / "profiles.csv")
    assert rows == [
        ["label", "isps", "ips", "days_seen", "top2k_domains", "machines", "avg_daily_requests", "flags",
         "first_member"],
        ["scheme-01", "1", "2", "2", "2", "3", "4.50", "", "1.2.3.4|isp-a"],
        ["scheme-02", "1", "1", "1", "2", "1", "5.00", "", "9.9.9.9|isp-b"],
    ]
    assert (out / "jaccard.csv").read_text() == (
        ",scheme-01,scheme-02\nscheme-01,1.00,0.33\nscheme-02,-,1.00\n"
    )

    empty = tiny_inputs / "empty"
    assert main(["fingerprint", "--report", str(tiny_inputs / "report.json"), "--trace", str(trace),
                 "--out", str(empty)]) == 0
    assert (empty / "profiles.csv").read_text() == (
        "label,isps,ips,days_seen,top2k_domains,machines,avg_daily_requests,flags,first_member\n"
    )
    assert (empty / "jaccard.csv").read_text() == "\n"


def test_window_day_count_is_arithmetic_and_bounded():
    rng = random.Random(3)
    for _ in range(300):
        start = rng.randrange(-5 * DAY_MS, 5 * DAY_MS)
        w = (start, start + rng.randrange(1, 6 * DAY_MS))
        windows = _windows(w)
        assert len(windows) == len(_day_cuts(w)) + 1
        # the windows tile w exactly
        assert windows[0][0] == w[0] and windows[-1][1] == w[1]
        assert all(a < b for a, b in windows)
        assert all(prev[1] == nxt[0] for prev, nxt in zip(windows, windows[1:]))
        if w[1] - w[0] > DAY_MS:
            # one window per UTC day touched, none crossing a midnight
            assert len(windows) == (w[1] - 1) // DAY_MS - w[0] // DAY_MS + 1
            assert all(a // DAY_MS == (b - 1) // DAY_MS for a, b in windows)
        else:
            assert windows == [w]
    limit = MAX_WINDOW_DAYS * DAY_MS
    assert len(_windows(_window(f"0..{limit}"))) == MAX_WINDOW_DAYS
    assert len(_windows(_window(f"{DAY_MS}..{limit + DAY_MS}"))) == MAX_WINDOW_DAYS
    with pytest.raises(CmdError, match="--window"):
        _windows(_window(f"{DAY_MS - 1}..{limit + DAY_MS - 1}"))


def test_detect_without_window_bounds_the_record_span(tiny_inputs, capsys):
    """Records 3,660 days apart span 3,661 UTC days, one more than detect
    makes windows for unless --window picks them; panelscan counts the days
    without making windows."""
    d = tiny_inputs
    last = DAY0 + MAX_WINDOW_DAYS * DAY_MS
    trace = d / "long.jsonl"
    trace.write_text("".join(
        json.dumps({"ts": ts, "machine": "m1", "url": "http://a.com/", "ip": "1.2.3.4"}) + "\n"
        + json.dumps({"ts": ts, "machine": "m1", "kind": "impression", "attr_domain": "a.com"}) + "\n"
        for ts in (DAY0, last)
    ))
    args = ["detect", "--trace", str(trace), "--ipmap", str(d / "ipmap.csv"),
            "--ranking", str(d / "ranking.txt"), "--malware", str(d / "malware.txt")]
    capsys.readouterr()
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "3661" in err and "--window" in err and err.count("\n") == 1
    assert main([*args, "--window", "2018-03-01"]) == 0
    assert capsys.readouterr().out.startswith("windows=1 ")
    assert main(["panelscan", "--trace", str(trace), "--out", str(d / "panel"), "--min-ads", "1"]) == 0
    assert capsys.readouterr().out.startswith("days=3661 machines_ranked=1 ")


# Run in a fresh interpreter: each step is a cli.main call, then a check of
# whether numpy has been imported by then.
_NUMPY_PROBE = """
import json, sys
from launderscan.cli import main
steps = json.loads(sys.argv[1])
seen = []
for argv in steps:
    assert main(argv) == 0, argv
    seen.append("numpy" in sys.modules)
print(json.dumps(seen))
"""


def test_numpy_loads_only_for_a_repeat_cycle_search(tiny_inputs):
    """detect, rules, panelscan, and fingerprint on a report with no
    detections never import numpy; fingerprint imports it once a detection's
    machine has enough events for the repeat-cycle search."""
    d = tiny_inputs
    trace = d / "long.jsonl"
    trace.write_text("".join(
        json.dumps({"ts": 5 + i, "machine": "m1", "url": "http://a.com/", "ip": "1.2.3.4"}) + "\n"
        for i in range(10)  # 2 * fingerprint.CYCLE_MIN_LEN events
    ))
    (d / "one.json").write_bytes(_report_bytes())
    t = str(trace)
    steps = [
        ["detect", "--trace", t, "--ipmap", str(d / "ipmap.csv"), "--ranking", str(d / "ranking.txt"),
         "--malware", str(d / "malware.txt"), "--out", str(d / "detect.json")],
        ["rules", "--trace", t, "--out", str(d / "findings.jsonl")],
        ["panelscan", "--trace", t, "--out", str(d / "panel")],
        ["fingerprint", "--report", str(d / "report.json"), "--trace", t, "--out", str(d / "fp0")],
        ["fingerprint", "--report", str(d / "one.json"), "--trace", t, "--out", str(d / "fp1")],
    ]
    src = str(Path(launderscan.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-c", _NUMPY_PROBE, json.dumps(steps)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [False, False, False, False, True]


def test_summary_lines_end_with_the_trace_skip_count(tiny_inputs, capsys):
    """rules, fingerprint and panelscan end their stdout line with
    trace_skipped; skipped lines change no output file."""
    d = tiny_inputs
    good = (d / "trace.jsonl").read_text()
    bad_ip = json.dumps({"ts": 6, "machine": "m1", "url": "http://a.com/", "ip": "1.2.3.256"}) + "\n"
    (d / "skips.jsonl").write_text(bad_ip + good + bad_ip * 2)
    (d / "one.json").write_bytes(_report_bytes())

    def run(trace: str, out: Path) -> dict:
        lines = {}
        for argv in (
            ["rules", "--trace", trace, "--out", str(out / "findings.jsonl")],
            ["fingerprint", "--report", str(d / "one.json"), "--trace", trace, "--out", str(out / "fp")],
            ["panelscan", "--trace", trace, "--out", str(out / "panel")],
        ):
            assert main(argv) == 0
            lines[argv[0]] = capsys.readouterr().out
        return lines

    clean = run(str(d / "trace.jsonl"), d / "clean")
    skips = run(str(d / "skips.jsonl"), d / "skips")
    for name, line in skips.items():
        assert line.endswith(" trace_skipped=3\n"), name
        assert line.replace(" trace_skipped=3\n", " trace_skipped=0\n") == clean[name]
    files = sorted(p.relative_to(d / "clean") for p in (d / "clean").rglob("*") if p.is_file())
    assert len(files) == 7
    for f in files:
        assert (d / "skips" / f).read_bytes() == (d / "clean" / f).read_bytes(), f
