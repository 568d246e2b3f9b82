import csv
import json
from pathlib import Path

import pytest

from launderscan.cli import main

from conftest import DAY0


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
    rows = list(csv.reader(report.open()))
    assert rows[0] == ["window_start", "window_end", "ip", "isp", "domain_count", "request_count", "label"]
    assert len(rows) == 41


def test_detect_rerun_is_byte_identical(scenario_dir, tmp_path):
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(_detect_args(scenario_dir, ["--out", str(r1)])) == 0
    assert main(_detect_args(scenario_dir, ["--out", str(r2)])) == 0
    assert r1.read_bytes() == r2.read_bytes()


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
    "field, value", [("ts", True), ("status", False), ("proc", 5), ("method", 1), ("ua", 2), ("ref", 3)]
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
    rows = list(csv.reader((outdir / "profiles.csv").open()))
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
        for row in list(csv.reader((outdir / "machines.csv").open()))[1:]
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


def test_framedepth_cli(tmp_path):
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
    assert main(["framedepth", "--tainted", str(tmp_path / "nope.csv"), "--general", str(general),
                 "--out", str(out)]) == 2


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
    rows = list(csv.reader((outdir / "machines.csv").open()))[1:]
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
        ("detect", "--threshold", "0"),
        ("detect", "--min-ips", "0"),
        ("detect", "--cutoff", "0"),
        ("panelscan", "--lookback", "0"),
        ("synth", "--scale-divisor", "0"),
    ],
)
def test_bad_flag_value_exits_2_naming_the_flag(tiny_inputs, capsys, command, flag, value):
    d = tiny_inputs
    base = {
        "detect": ["--trace", d / "trace.jsonl", "--ipmap", d / "ipmap.csv",
                   "--ranking", d / "ranking.txt", "--malware", d / "malware.txt"],
        "panelscan": ["--trace", d / "trace.jsonl", "--out", d / "out"],
        "synth": ["--out", d / "synth"],
    }[command]
    assert main([command, *map(str, base), flag, value]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and flag in err and err.count("\n") == 1
