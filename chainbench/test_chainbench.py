"""Self-tests for the benchmark's own code.

    PYTHONPATH=src python3 -m pytest chainbench -q
"""

import copy
import csv
import json
from collections import Counter
from itertools import count
from pathlib import Path

import pytest

from chainbench import checks, run, tracer
from chainbench.tracer import Span, self_times
from launderscan import cli, detector, ingest


def test_self_times_subtract_children_once_and_clip_to_parent():
    spans = [
        Span("root", 0.0, 10.0, -1, "r"),
        Span("a", 1.0, 4.0, 0, "r"),
        Span("a.inner", 2.0, 3.0, 1, "r"),
        Span("b", 3.5, 6.0, 0, "r"),  # overlaps a: [1, 6) is covered once
        Span("c", 9.0, 12.0, 0, "r"),  # runs past root: only [9, 10) counts
        Span("leaf", 20.0, 20.5, -1, "s"),
    ]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 1.0, 2.5, 3.0, 0.5])


def test_tracer_records_nesting_runs_and_restores_wrapped_names():
    ticks = count()
    tr = tracer.Tracer(clock=lambda: float(next(ticks)))
    inner = tr.wrap(lambda x: x + 1, "inner")
    outer = tr.wrap(lambda x: inner(x) * 2, "outer")
    assert tr.call("run-a", "root", outer, 1) == 4
    spans = tr.spans()
    assert [(s.name, s.parent, s.run) for s in spans] == [
        ("root", -1, "run-a"), ("outer", 0, "run-a"), ("inner", 1, "run-a")]
    # clock ticks: root 0..5, outer 1..4, inner 2..3
    assert self_times(spans) == [2.0, 2.0, 1.0]

    before = (cli.load_trace, detector.normalize_domain, ingest.normalize_domain)
    with tracer.install(tracer.Tracer()):
        assert cli.load_trace is not before[0]
        assert detector.normalize_domain is not before[1]
    assert (cli.load_trace, detector.normalize_domain, ingest.normalize_domain) == before


def test_layer_metrics_residual_is_wall_minus_layers():
    spans = [
        Span("cli.detect", 0.0, 5.0, -1, "detect"),
        Span("ingest.load_trace", 0.5, 3.0, 0, "detect"),
        Span("detector.detect", 3.0, 4.5, 0, "detect"),
        Span("detector.index", 3.1, 4.0, 2, "detect"),
    ]
    m = tracer.layer_metrics(spans, Counter())
    assert m["cli.detect.wall_s"][0] == 5.0
    assert m["cli.detect.layers_s"][0] == pytest.approx(4.0)
    assert m["cli.detect.residual_s"][0] == pytest.approx(1.0)
    assert m["detector.index_s"][0] == pytest.approx(0.9)


# ---------------------------------------------------------------------------
# Output checks on real outputs, and on corrupted copies of them
# ---------------------------------------------------------------------------


def _chain(tmp: Path, synth_flags: list[str]) -> tuple[Path, dict]:
    inputs, out = tmp / "inputs", tmp / "out"
    assert cli.main(["synth", "--out", str(inputs), "--seed", "7", *synth_flags]) == 0
    run.write_alias_file(inputs)
    out.mkdir()
    for _, argv in run.chain_argvs(inputs, out):
        assert cli.main(argv) == 0
    return out, run.load_truth(inputs)


@pytest.fixture(scope="module")
def planted(tmp_path_factory):
    return _chain(tmp_path_factory.mktemp("planted"), ["--machines", "300"])


@pytest.fixture(scope="module")
def clean(tmp_path_factory):
    return _chain(tmp_path_factory.mktemp("clean"),
                  ["--machines", "60", "--days", "2", "--plants", "none"])


@pytest.mark.parametrize("subcommand", run.SUBCOMMANDS)
def test_checks_pass_real_outputs(planted, clean, subcommand):
    for out, truth in (planted, clean):
        assert checks.check_output(subcommand, out, truth) == []


def _report(out):
    return json.loads((out / "report.json").read_text())


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _findings(out):
    return [json.loads(line) for line in (out / "findings.jsonl").read_text().splitlines()]


def test_detect_check_rejects_a_missing_or_extra_pair(planted):
    out, truth = planted
    report = _report(out)
    dropped = copy.deepcopy(report)
    dets = dropped["reports"][0]["detections"]
    dets.pop()
    assert checks.check_detect(dropped, truth)
    extra = copy.deepcopy(report)
    extra["reports"][0]["detections"].append({"ip": "100.0.0.1", "isp": "hostco-00"})
    assert checks.check_detect(extra, truth)


def test_profile_check_rejects_a_stray_member_or_a_lost_spoof_flag(planted):
    out, truth = planted
    rows = _rows(out / "fp" / "profiles.csv")
    header = rows[0]
    stray = copy.deepcopy(rows)
    stray[1][header.index("first_member")] = "100.0.0.1|hostco-00"
    assert checks.check_profiles(stray, truth)
    hijack = {f"{ip}|{isp}" for ip, isp in truth["schemes"][checks.HIJACK_SCHEME]["pairs"]}
    unflagged = copy.deepcopy(rows)
    row = next(r for r in unflagged[1:] if r[header.index("first_member")] in hijack)
    row[header.index("flags")] = row[header.index("flags")].replace(checks.SPOOF_FLAG, "")
    assert checks.check_profiles(unflagged, truth)
    assert checks.check_profiles(rows[:1], truth)


def test_findings_check_rejects_unverified_or_stray_signals(planted, clean):
    out, truth = planted
    findings = _findings(out)
    unverified = copy.deepcopy(findings)
    next(f for f in unverified if f["type"] == "spoof_signal")["verified"] = False
    assert checks.check_findings(unverified, truth)
    stray = copy.deepcopy(findings)
    next(f for f in stray if f["type"] == "spoof_signal")["machine"] = "bg-00000"
    assert checks.check_findings(stray, truth)
    assert checks.check_findings([], truth)
    _, clean_truth = clean
    assert checks.check_findings(findings[:1], clean_truth)


def test_panel_check_rejects_a_late_hijack_machine_or_a_clean_miss(planted, clean):
    out, truth = planted
    ranking = (out / "panel" / "ranking.txt").read_text().splitlines()
    machines = _rows(out / "panel" / "machines.csv")
    n = len(truth["schemes"][checks.HIJACK_SCHEME]["machines"])
    demoted = ranking[:n - 1] + ranking[n:n + 1] + [ranking[n - 1]] + ranking[n + 1:]
    assert checks.check_panel(machines, demoted, truth)

    clean_out, clean_truth = clean
    rows = _rows(clean_out / "panel" / "machines.csv")
    ranked = (clean_out / "panel" / "ranking.txt").read_text().splitlines()
    missed = copy.deepcopy(rows)
    missed[1][missed[0].index("missing")] = "1"
    assert checks.check_panel(missed, ranked, clean_truth)


def test_output_digest_sees_a_changed_byte(planted, tmp_path):
    out, _ = planted
    for name in run.SUBCOMMANDS:
        assert checks.output_digest(name, out) == checks.output_digest(name, out)
    copy_dir = tmp_path / "copy"
    copy_dir.mkdir()
    data = (out / "report.json").read_bytes()
    (copy_dir / "report.json").write_bytes(data.replace(b"1", b"2", 1))
    assert checks.output_digest("detect", copy_dir) != checks.output_digest("detect", out)
