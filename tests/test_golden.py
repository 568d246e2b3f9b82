"""Golden output digests: each subcommand's output files and stdout, run in
process through ``cli.main``, hash to the values in ``golden.json``.

Three scenarios: the seed-7 ``day-mixed`` synth (``--machines 1000``, the
benchmark's day), the 3-day seed-5 synth (``--machines 300``: several day
windows per IP), and a small hand-written trace whose odd lines (skipped,
oversized ints, deep nesting, long lines, escapes) reach every branch of the
loader.  The hand scenario also runs ``rules --envfp`` on a fingerprint with
one tampered function and ``framedepth --plotdata`` on a fixed pair of CSVs.
``day-mixed`` and ``hand`` run with the loader's orjson decode on and off,
and both must give the recorded digests; ``seed5-3day`` runs with it on
only, to keep the suite short.  A change that alters an output on purpose
re-records them with ``PYTHONPATH=src python tests/test_golden.py`` and names
each changed digest and the reason in CHANGES.md.
"""

import hashlib
import json
import re
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path
from typing import Callable, NamedTuple

import pytest

from launderscan import cli

GOLDEN = Path(__file__).with_name("golden.json")

T0 = 1_519_862_400_000 + 3_600_000  # 01:00 UTC on synth's first day


def _http(ts, machine, url, ip, **extra) -> str:
    return json.dumps({"ts": ts, "machine": machine, "url": url, "ip": ip, **extra})


def _pad_to(line: str, n: int) -> str:
    """``line`` (a JSON object) with a ``pad`` string that makes it ``n`` characters."""
    stub = line[:-1] + ', "pad": ""}'
    return stub[:-2] + "x" * (n - len(stub)) + '"}'


HAND_TRACE = b"\n".join(line if isinstance(line, bytes) else line.encode() for line in [
    # two high-value domains on two IPs of two ISPs: detect --threshold 2 flags both IPs
    _http(T0, "m1", "http://www.a.com/", "1.1.1.1", proc="evil.exe", status=200),
    _http(T0 + 1, "m1", "http://b.com/x", "1.1.1.1", proc="evil.exe", ua="UA/1"),
    _http(T0 + 2, "m2", "http://a.com/y", "2.2.2.2", proc="chrome.exe", method="GET"),
    _http(T0 + 3, "m2", "http://cdn.b.com/", "2.2.2.2", proc="chrome.exe"),
    # spoof signals: followed through, percent-escaped keys, '+', malformed
    _http(T0 + 10, "m1", "http://ads.c.com/q?spoof_domain=a.com&land_ip=2.2.2.2", "3.3.3.3"),
    _http(T0 + 20, "m1", "http://a.com/", "2.2.2.2"),
    _http(T0 + 30, "m2", "http://ads.c.com/q?spoof%5Fdomain=http%3A%2F%2Fb.com%2F&land%5Fip=1.1.1.1",
          "3.3.3.3"),
    _http(T0 + 40, "m2", "http://ads.c.com/q?spoof_domain=x+y.com&land_ip=1.1.1.1", "3.3.3.3"),
    _http(T0 + 50, "m3", "http://ads.c.com/q?spoof_domain=a.com&land_ip=999.1.1.1", "3.3.3.3"),
    _http(T0 + 60, "m3", "http://ads.c.com/q?spoof_domain=a.com&land_ip\t=1.1.1.1", "3.3.3.3"),
    # sibling ad calls of one page that name two referrers
    _http(T0 + 70, "m3", "http://ads.d.com/1?referrer=http://pub.com/", "4.4.4.4", ref="http://page.com/"),
    _http(T0 + 71, "m3", "http://ads.d.com/2?referrer=other.com", "4.4.4.4", ref="http://page.com/"),
    # impressions and page views, one visit missing
    json.dumps({"ts": T0 + 100, "machine": "m1", "kind": "impression", "attr_domain": "pub.com"}),
    json.dumps({"ts": T0 + 90, "machine": "m1", "kind": "pageview", "pub_domain": "www.pub.com"}),
    json.dumps({"ts": T0 + 110, "machine": "m2", "kind": "impression", "attr_domain": "hotmail.com",
                "account": "acct"}),
    json.dumps({"ts": T0 + 105, "machine": "m2", "kind": "pageview", "pub_domain": "live.com"}),
    json.dumps({"ts": T0 + 120, "machine": "m3", "kind": "impression", "attr_domain": "b.com"}),
    json.dumps({"ts": T0 + 130, "machine": "m3", "kind": "impression", "attr_domain": 5}),
    json.dumps({"ts": T0 + 140, "machine": "m3", "kind": "pageview", "pub_domain": "not a domain"}),
    json.dumps({"ts": T0 + 150, "machine": "m3", "kind": "banner"}),
    # ints past 64 bits: a status json keeps, a ts that is bad either way
    _http(T0 + 200, "m4", "http://a.com/", "1.1.1.1", status=2**64),
    _http(T0 + 201, "m4", "http://a.com/", "1.1.1.1", status=-2**63 - 1),
    _http(2**64, "m4", "http://a.com/", "1.1.1.1"),
    _http(T0 + 202, "m4", "http://a.com/", "1.1.1.1", status=200.0),
    _http(T0 + 203, "m4", "http://a.com/", "1.1.1.1", status=True),
    # nesting: 600 deep inside a good line, and deeper than json decodes
    _http(T0 + 210, "m4", "http://b.com/", "1.1.1.1", x=json.loads("[" * 600 + "]" * 600)),
    "[" * 2_000 + "]" * 2_000,
    _http(T0 + 211, "m4", "http://b.com/", "1.1.1.1")[:-1] + ', "x": ' + "[" * 2_000 + "]" * 2_000 + "}",
    # lines of 1,024 and 1,025 characters
    _pad_to(_http(T0 + 220, "m4", "http://a.com/", "1.1.1.1"), 1_024),
    _pad_to(_http(T0 + 221, "m4", "http://b.com/", "1.1.1.1"), 1_025),
    # lines no record comes from
    "",
    "   ",
    "not json",
    "null",
    "[1, 2]",
    '{"ts": NaN, "machine": "m4", "url": "http://a.com/", "ip": "1.1.1.1"}',
    '{"ts": 1e400, "machine": "m4", "url": "http://a.com/", "ip": "1.1.1.1"}',
    "\ufeff" + _http(T0 + 230, "m4", "http://a.com/", "1.1.1.1"),
    '{"ts": 1, "ts": %d, "machine": "m4", "url": "http://a.com/", "ip": "1.1.1.1"}' % (T0 + 240),
    '{"ts": %d, "machine": "m\\udcff", "url": "http://a.com/", "ip": "1.1.1.1"}' % (T0 + 250),
    b'{"ts": 1519866000251, "machine": "m\xff", "url": "http://a.com/", "ip": "1.1.1.1"}',
    _http(T0 + 260, "", "http://a.com/", "1.1.1.1"),
    _http(T0 + 261, "m4", "nohost", "1.1.1.1"),
    _http(T0 + 262, "m4", "http://a.com/", "1.1.1.256"),
    _http(T0 + 263, "m4", "http://a.com/", "1.1.1.1", proc=7),
]) + b"\n"

HAND_TABLES = {
    "ipmap.csv": "1.1.1.0/24,isp-a\n2.2.2.0/24,isp-b\n3.3.3.0/24,isp-c\n",
    "ranking.txt": "a.com\nb.com\n",
    "malware.txt": "evil.exe\n",
    "aliases.csv": "outlook.com,live.com,hotmail.com\n",
    # encodeURI is tampered; the other two are native, one spaced out
    "envfp.json": json.dumps({
        "escape": "function escape() { [native code] }",
        "encodeURI": "function(n) { return privateEncode(n, wrapper['encodeURI']); }",
        "encodeURIComponent": "function encodeURIComponent ( ) {\n  [ native  code ]\n}",
    }),
    # a header, a comment, a blank line, a skipped depth and a negative one
    "tainted.csv": "url,max_depth\n# crawl 1\nhttp://t0/,2\nhttp://t1/,3\n\nhttp://t2/,11\n"
                   "http://t3/,x\nhttp://t4/,5\nhttp://t5/,-1\nhttp://t6/,4\n",
    "general.csv": "http://g0/,1\nhttp://g1/,1\nhttp://g2/,2\nhttp://g3/,0\nhttp://a,b/,1\n",
}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(argv: list[str], inputs: Path) -> str:
    """The digest of one ``cli.main`` run's exit code, stdout without
    ``elapsed_s`` and stderr, with the inputs' directory named ``<inputs>``."""
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = cli.main(argv)
    stdout = re.sub(r"elapsed_s=\S+", "", out.getvalue())
    text = f"{rc}\n{stdout}\n{err.getvalue()}".replace(str(inputs), "<inputs>")
    return _digest(text.encode())


def digest_map(inputs: Path, work: Path, flags: dict[str, tuple[str, ...]],
               fixed_files: bool = False) -> dict[str, str]:
    """Every case's digests: ``<case>`` for the run, ``<case>/<file>`` for
    each file it writes.  ``flags`` adds flags to a subcommand's cases;
    ``fixed_files`` adds the cases that read ``HAND_TABLES``' envfp and
    frame-depth files."""
    trace = str(inputs / "trace.jsonl")
    tables = ["--ipmap", str(inputs / "ipmap.csv"), "--ranking", str(inputs / "ranking.txt"),
              "--malware", str(inputs / "malware.txt"), *flags.get("detect", ())]
    panel = ["--trace", trace, *flags.get("panelscan", ())]
    report = work / "detect" / "report.json"
    cases = {
        "detect": ["detect", "--trace", trace, *tables, "--out", str(report)],
        "detect-csv": ["detect", "--trace", trace, *tables, "--format", "csv",
                       "--out", str(work / "detect-csv" / "report.csv")],
        "fingerprint": ["fingerprint", "--report", str(report), "--trace", trace,
                        "--out", str(work / "fingerprint")],
        "fingerprint-0.5": ["fingerprint", "--report", str(report), "--trace", trace,
                            "--feature-agreement", "0.5", "--out", str(work / "fingerprint-0.5")],
        "rules": ["rules", "--trace", trace, "--out", str(work / "rules" / "findings.jsonl")],
        "rules-strict": ["rules", "--strict", "--trace", trace,
                         "--out", str(work / "rules-strict" / "findings.jsonl")],
        "panelscan": ["panelscan", *panel, "--out", str(work / "panelscan")],
        "panelscan-alias": ["panelscan", *panel, "--alias", str(inputs / "aliases.csv"),
                            "--out", str(work / "panelscan-alias")],
    }
    if fixed_files:
        cases["rules-envfp"] = ["rules", "--trace", trace, "--envfp", str(inputs / "envfp.json"),
                                "--out", str(work / "rules-envfp" / "findings.jsonl")]
        cases["framedepth"] = ["framedepth", "--tainted", str(inputs / "tainted.csv"),
                               "--general", str(inputs / "general.csv"),
                               "--out", str(work / "framedepth" / "compare.json"),
                               "--plotdata", str(work / "framedepth" / "plot.txt")]
    digests = {}
    for case, argv in cases.items():
        digests[case] = _run(argv, inputs)
        case_dir = work / case
        for path in sorted(case_dir.rglob("*")) if case_dir.exists() else ():
            if path.is_file():
                digests[f"{case}/{path.relative_to(case_dir).as_posix()}"] = _digest(path.read_bytes())
    return digests


def synth_inputs(out: Path, *argv: str) -> Path:
    """A synth scenario (seed 7, ``--machines 1000`` unless ``argv`` says
    otherwise) and synthgen's alias groups."""
    from launderscan.synthgen import ALIAS_GROUP_LINES

    with redirect_stdout(StringIO()):
        assert cli.main(["synth", "--out", str(out), "--seed", "7", "--machines", "1000", *argv]) == 0
    (out / "aliases.csv").write_text("".join(line + "\n" for line in ALIAS_GROUP_LINES), "utf-8")
    return out


def hand_inputs(out: Path) -> Path:
    out.mkdir(parents=True, exist_ok=True)
    (out / "trace.jsonl").write_bytes(HAND_TRACE)
    for name, text in HAND_TABLES.items():
        (out / name).write_text(text, "utf-8")
    return out


class Scenario(NamedTuple):
    make: Callable[[Path], Path]  # writes the inputs into a directory
    flags: dict[str, tuple[str, ...]]
    decoders: tuple[str, ...] = ("orjson", "json")
    fixed_files: bool = False


SCENARIOS = {
    "day-mixed": Scenario(synth_inputs, {}),
    "hand": Scenario(hand_inputs, {"detect": ("--threshold", "2"), "panelscan": ("--min-ads", "1")},
                     fixed_files=True),
    "seed5-3day": Scenario(lambda out: synth_inputs(out, "--seed", "5", "--machines", "300", "--days", "3"),
                           {}, decoders=("orjson",)),
}


@pytest.fixture(scope="module")
def inputs_of(tmp_path_factory):
    """A scenario's inputs by name, each made once per module."""
    made: dict[str, Path] = {}

    def get(name: str) -> Path:
        if name not in made:
            made[name] = SCENARIOS[name].make(tmp_path_factory.mktemp(name))
        return made[name]
    return get


@pytest.mark.parametrize("name, decoder", [
    pytest.param(name, decoder, id=f"{name}-{decoder}")
    for name, s in SCENARIOS.items() for decoder in s.decoders
])
def test_outputs_match_golden_digests(name, decoder, inputs_of, tmp_path, monkeypatch):
    if decoder == "orjson":
        pytest.importorskip("orjson")
    else:
        monkeypatch.setitem(sys.modules, "orjson", None)  # its import now fails
    scenario = SCENARIOS[name]
    got = digest_map(inputs_of(name), tmp_path, scenario.flags, scenario.fixed_files)
    want = json.loads(GOLDEN.read_text("utf-8"))[name]
    assert got == want, "new digests:\n" + json.dumps(got, indent=1, sort_keys=True)


def record() -> dict[str, dict[str, str]]:
    """Every scenario's digest map, as ``golden.json`` holds them."""
    with tempfile.TemporaryDirectory() as d:
        root = Path(d)
        return {name: digest_map(s.make(root / name / "inputs"), root / name / "work", s.flags, s.fixed_files)
                for name, s in SCENARIOS.items()}


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n", "utf-8")
    print(f"wrote {GOLDEN}", file=sys.stderr)
