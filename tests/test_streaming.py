"""detect, fingerprint and rules fold the trace as it streams and keep only
what their outputs read.  Each is held to its record-based oracle
(``oracles.py``) through ``cli.main`` on generated traces, and detect and
fingerprint are held to a retained memory that does not grow with the trace
when its keys repeat."""

import contextlib
import csv
import io
import json
import tempfile
import tracemalloc
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from launderscan import cli
from launderscan.detector import DetectorConfig
from launderscan.ingest import MalwareProcessList, load_ip_map, load_ranked_domains, load_trace
from launderscan.model import DAY_MS, PublicSuffixSet

from conftest import DAY0
from oracles import detect_records, fingerprint_records, record_windows, rules_records

SUFFIX = PublicSuffixSet.builtin()
IPMAP = [f"10.0.{i}.0/24,isp{i % 3}" for i in range(6)]  # 10.0.6.1 and 10.0.7.1 have no ISP
IPS = [f"10.0.{i}.1" for i in range(8)]
DOMAINS = [f"d{i}.com" for i in range(6)]
# "a..com" and "zz.zulilycom" give records with no domain
HOSTS = [*DOMAINS, "www.d1.com", "x.d2.com", "a..com", "zz.zulilycom"]
PROCS = ["chrome.exe", "", "  ", "Adware_Helper.exe"]
MACHINES = ["m0", "m1", "m2", "m3"]


def _run(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        return cli.main([str(a) for a in argv]), err.getvalue()


def _write(path: Path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path


# Timestamps on a quarter-day grid, so that ties are common, plus a few ms,
# from half a day before DAY0 to four days after; a far line lands 40 days out.
_TS = st.one_of(
    st.builds(lambda q, ms: DAY0 + q * (DAY_MS // 4) + ms,
              st.integers(-2, 15), st.sampled_from((0, 0, 1, 999))),
    st.just(DAY0 + 40 * DAY_MS + 5),
)


def _http(ts, machine, proc, url, ip, ref=None):
    line = {"ts": ts, "machine": machine, "proc": proc, "url": url, "ip": ip}
    if ref is not None:
        line["ref"] = ref
    return json.dumps(line)


_DETECT_LINE = st.one_of(
    st.builds(_http, _TS, st.sampled_from(MACHINES), st.sampled_from(PROCS),
              st.builds("http://{}/p".format, st.sampled_from(HOSTS)), st.sampled_from(IPS)),
    st.just("not json"),
)
# no window; raw-ms ranges that start and end off midnight, one of them
# shorter than a day across a midnight; a day range
_WINDOW_ARGS = st.one_of(
    st.none(),
    st.builds(lambda a, b: f"{DAY0 + a}..{DAY0 + a + b}",
              st.integers(-DAY_MS, 3 * DAY_MS), st.integers(1, 3 * DAY_MS)),
    st.just(f"{DAY0 + DAY_MS // 2}..{DAY0 + DAY_MS + DAY_MS // 3}"),
    st.just("2018-03-01:2018-03-03"),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(_DETECT_LINE, max_size=120), _WINDOW_ARGS)
@example([_http(DAY0 + 5, m, "", f"http://{d}/", ip) for m in MACHINES[:2]
          for d in DOMAINS for ip in ("10.0.0.1", "10.0.1.1", "10.0.6.1")]
         + [_http(DAY0 + 40 * DAY_MS, "m1", "x", "http://a..com/", "10.0.7.1")], None)
def test_detect_equals_the_record_oracle(lines, window_arg):
    """Every window's report equals the one the time-ordered records give."""
    with tempfile.TemporaryDirectory() as d:
        d = Path(d)
        args = ["detect", "--trace", _write(d / "t.jsonl", lines),
                "--ipmap", _write(d / "ipmap.csv", IPMAP),
                "--ranking", _write(d / "ranking.txt", DOMAINS),
                "--malware", _write(d / "malware.txt", ["adware_helper.exe"]),
                "--threshold", 2, "--out", d / "report.json"]
        if window_arg:
            args += ["--window", window_arg]
        assert _run(args)[0] == 0
        got = json.loads((d / "report.json").read_text())["reports"]
    records = load_trace(lines, SUFFIX).http
    table, _ = load_ip_map(IPMAP)
    ranking, _ = load_ranked_domains(DOMAINS, SUFFIX)
    malware = MalwareProcessList(frozenset({"adware_helper.exe"}))
    cfg = DetectorConfig(flag_threshold=2)
    windows = record_windows(cli._window(window_arg), records)
    want = [detect_records(records, table, ranking, malware, cfg, w).to_json_dict() for w in windows]
    assert got == json.loads(json.dumps(want))


# URL pieces for the rules: each spelling of the spoof keys (split by a tab,
# escaped, '+' in a value), landing IPs that follow through or do not parse,
# and "ref" parameter values that agree, disagree or are escaped.
_QUERY_PIECES = st.sampled_from((
    "spoof_domain=d0.com", "spoof_domain=http://www.d1.com/x", "land_ip=10.0.0.1",
    "land_ip=10.0.1.1", "land_ip=1.2.3.04", "spoof%5Fdomain=d1.com", "spoof\t_domain=d0.com",
    "land\n_ip=10.0.0.1", "spoof_domain=d+0.com", "ref=d2.com", "ref=http://d3.com/",
    "r%65f=d4.com", "ref=a..com", "referrer=d5.com", "q=1", "%", "+",
))
_RULES_LINE = st.one_of(
    st.builds(
        lambda ts, m, pieces, ip, ref: _http(ts, m, "p", "http://ads.net/c?" + "&".join(pieces), ip, ref),
        _TS, st.sampled_from(MACHINES[:2]), st.lists(_QUERY_PIECES, max_size=4),
        st.sampled_from(IPS[:3]), st.sampled_from((None, "", "http://page1/", "http://page2/")),
    ),
    st.builds(lambda ts, m, host, ip: _http(ts, m, "p", f"http://{host}/", ip),
              _TS, st.sampled_from(MACHINES[:2]), st.sampled_from(("d0.com", "www.d1.com")),
              st.sampled_from(IPS[:2])),
)


@settings(max_examples=80, deadline=None)
@given(st.lists(_RULES_LINE, max_size=60), st.sampled_from(("ref", "referrer")),
       st.sampled_from((1, 2 * DAY_MS)))
def test_rules_equal_the_record_oracle(lines, param, horizon):
    """The findings equal the record loop's, in its order: by machine, then
    by time, ties in file order, then the referrer groups."""
    with tempfile.TemporaryDirectory() as d:
        d = Path(d)
        argv = ["rules", "--trace", _write(d / "t.jsonl", lines), "--referrer-param", param,
                "--horizon", horizon, "--out", d / "findings.jsonl"]
        assert _run(argv)[0] == 0
        got = (d / "findings.jsonl").read_text().splitlines()
    want = rules_records(load_trace(lines, SUFFIX).http, SUFFIX, horizon, param)
    assert got == [json.dumps(f, sort_keys=True) for f in want]


def _detection(ip, domains, isp):
    return {"ip": ip, "isp": isp, "domains": sorted(domains), "process_names": {"p": 1},
            "machine_ids": ["m0"], "request_count": 1, "label": "Unlabeled"}


_FP_LINE = st.builds(
    lambda ts, m, proc, host, ip, spoof: _http(
        ts, m, proc, f"http://{host}/" + ("?spoof_domain=d0.com&land_ip=1.2.3.4" if spoof else ""), ip),
    _TS, st.sampled_from(MACHINES), st.sampled_from(PROCS), st.sampled_from(HOSTS),
    st.sampled_from(IPS), st.booleans(),
)
_DETECTIONS = st.lists(
    st.builds(_detection, st.sampled_from(IPS + ["10.9.9.9"]),
              st.sets(st.sampled_from(DOMAINS), min_size=1), st.sampled_from(("isp0", "isp1"))),
    max_size=5,
)


@settings(max_examples=60, deadline=None)
@given(st.lists(_FP_LINE, min_size=1, max_size=80), _DETECTIONS, st.sampled_from((0.0, 0.5)))
def test_fingerprint_equals_the_record_oracle(lines, detections, agreement):
    """profiles.csv and jaccard.csv equal what each reported IP's records,
    picked out of the whole time-ordered trace, give."""
    report = {"reports": [{"window": [DAY0 - DAY_MS, DAY0 + 41 * DAY_MS], "detections": detections}]}
    with tempfile.TemporaryDirectory() as d:
        d = Path(d)
        argv = ["fingerprint", "--report", _write(d / "r.json", [json.dumps(report)]),
                "--trace", _write(d / "t.jsonl", lines), "--feature-agreement", agreement,
                "--out", d / "fp"]
        assert _run(argv)[0] == 0
        with open(d / "fp" / "profiles.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        jaccard = (d / "fp" / "jaccard.csv").read_text()
    want_rows, want_lines = fingerprint_records(
        load_trace(lines, SUFFIX).http, cli._detections_from_report(report), SUFFIX, agreement)
    assert rows == [[str(c) for c in row] for row in want_rows]
    assert jaccard == "\n".join(want_lines) + "\n"


# ---------------------------------------------------------------------------
# retained memory
# ---------------------------------------------------------------------------

FLAGGED_IP = "10.0.5.1"


def _repeated_traffic(n: int) -> list[str]:
    """n http lines within one day over the same machines, processes, IPs
    and domains, none of them to FLAGGED_IP, then ten lines to it."""
    lines = [_http(DAY0 + 1_000 * i, MACHINES[i % 4], PROCS[i % 3],
                   f"http://{DOMAINS[i % 6]}/page?id=12345&session=abcdef{i % 7}", IPS[i % 5])
             for i in range(n)]
    return lines + [_http(DAY0 + i, "m0", "p", "http://d0.com/", FLAGGED_IP) for i in range(10)]


def _peak(argv) -> int:
    """The traced-memory peak of one ``cli.main`` run, in bytes."""
    tracemalloc.start()
    try:
        assert _run(argv)[0] == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_retained_memory_does_not_grow_with_repeated_traffic(tmp_path):
    """From n to 2n lines of traffic over the same keys, detect's peak and
    fingerprint's (on a report whose one IP the traffic does not reach) grow
    at most 1.2x: neither keeps a record it does not read."""
    _write(tmp_path / "ipmap.csv", IPMAP)
    _write(tmp_path / "ranking.txt", DOMAINS)
    _write(tmp_path / "malware.txt", [])
    report = {"reports": [{"window": [DAY0, DAY0 + DAY_MS],
                           "detections": [_detection(FLAGGED_IP, DOMAINS, "isp2")]}]}
    _write(tmp_path / "report.json", [json.dumps(report)])
    n = 4_000
    peaks = {}
    for size in (n, 2 * n):
        trace = _write(tmp_path / f"t{size}.jsonl", _repeated_traffic(size))
        peaks[size] = (
            _peak(["detect", "--trace", trace, "--ipmap", tmp_path / "ipmap.csv",
                   "--ranking", tmp_path / "ranking.txt", "--malware", tmp_path / "malware.txt",
                   "--out", tmp_path / "out.json"]),
            _peak(["fingerprint", "--report", tmp_path / "report.json", "--trace", trace,
                   "--out", tmp_path / "fp"]),
        )
    for small, large in zip(peaks[n], peaks[2 * n]):
        assert large <= 1.2 * small, peaks
