"""Generative no-traceback test of the CLI.

Hypothesis mutates trace fields, reference-table lines and flag values of a
small ``synth`` scenario, swaps detect's report or rules' ``--envfp`` file
for an odd JSON document, and runs every subcommand through ``cli.main`` in
the test process.  Every run must end in one of the documented exit codes;
any other exception fails the test with its traceback.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from launderscan import cli
from launderscan.ingest import load_trace
from launderscan.model import BUILTIN_SUFFIXES, DAY_MS, PublicSuffixSet
from launderscan.synthgen import EPOCH_MS

from conftest import parsed_count

EXIT_CODES = {0, 2, 3, 4}
SAMPLE_STRIDE = 100  # every 100th line of the 43,605-line synth trace
TABLES = ("ipmap.csv", "ranking.txt", "malware.txt", "aliases.csv", "suffixes.txt", "depth.csv")
DELETE = object()  # a trace edit that removes the field

TRACE_FIELDS = ("ts", "machine", "kind", "url", "ip", "proc", "ref", "ua", "method", "status",
                "attr_domain", "pub_domain", "account")
ODD_VALUES = (
    DELETE, None, True, 0, -1, 2**64, 1.5, "", " ", [], {"a": 1}, "x" * 300, "\udcff",
    "impression", "pageview", "1.2.3.04", "1.1.1.²", "١.1.1.1", "a.com", "a..com",
    "http://a..com/", "http://user@[::1]:80/", "http://x.tld/ad?spoof_domain=a.com&land_ip=1.2.3.04",
    "http://x.tld/ad?spoof_domain=&land_ip=1.1.1.1", "http://x.tld/?referrer=http%3A%2F%2Fb.com",
    "http://[bad/p?x=1", "http://a\uff03b/?spoof_domain=a.com&land_ip=1.1.1.1",
)
# "\udcff" is written as the byte 0xff, which is not UTF-8
ODD_LINES = ("", "{", "[]", "null", '{"ts": 1, "machine": "m", "kind": "x"}', "\udcff",
             "[" * 5000, '{"ts": 1e400, "machine": "m"}', '{"ts": ' + "9" * 5000 + "}")
TABLE_JUNK = ("", "#", ",", "a.com", "a.com,", ".", "1.2.3.0/24", "001.2.3.0/24,x",
              "100.0.0.0/8,x", "10.0.0.0/33,x", "10.0.0.1/8,x", "bad domain", "a.com,b.com",
              "١.com", "x" * 300, "\udcff", "u,-1", "u,1001", "u," + "9" * 5000, "u,²")

DAY = EPOCH_MS // DAY_MS * DAY_MS
# documents that stand in for detect's report or serve as rules' --envfp
# file; None keeps the report detect wrote and passes no --envfp
ODD_DOCUMENTS = (
    None,
    "[" * 200_000 + "]" * 200_000,  # nested past the JSON decoder's recursion limit
    "[]",
    json.dumps({"reports": [{"window": [DAY, DAY + DAY_MS], "detections": [{"ip": "1.2.3.4"}]}]}),
    json.dumps({"escape": "function escape() { [native code] }"}),
)
WINDOWS = ("garbage", "2018-13-45", f"{DAY}..{DAY + DAY_MS}",
           f"{DAY - DAY_MS // 2}..{DAY + 2 * DAY_MS}", "0..1", "0..316310400000")
FLAGS = {
    "detect": {"--threshold": ("20", "2", "0"), "--cutoff": ("2000", "5", "0"),
               "--min-ips": ("2", "1", "0"), "--min-isps": ("2", "1", "-1"), "--window": WINDOWS},
    "fingerprint": {"--feature-agreement": ("0", "0.5", "1.5", "nan")},
    "rules": {"--horizon": ("60000", "1", "0"), "--referrer-param": ("referrer", "")},
    "panelscan": {"--lookback": (str(DAY_MS), "1", "0"), "--min-ads": ("0", "5", "-3"),
                  "--top": ("10", "0", "-1"), "--window": WINDOWS},
    "synth": {"--seed": ("0", "-1"), "--machines": ("2", "-5"), "--days": ("1", "2", "0"),
              "--scale-divisor": ("100", "0")},
}


def _write(path: Path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8",
                    errors="surrogateescape")


def _run(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli.main([str(a) for a in argv])
        except SystemExit as exc:  # argparse rejects a value of the wrong type
            return exc.code


def _files(root: Path) -> dict:
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """A sample of a small five-scheme synth trace, its reference tables, and
    detect's report over the whole trace."""
    root = tmp_path_factory.mktemp("generative")
    assert _run(["synth", "--out", root, "--machines", "20"]) == 0
    assert _run(["detect", "--trace", root / "trace.jsonl", "--ipmap", root / "ipmap.csv",
                 "--ranking", root / "ranking.txt", "--malware", root / "malware.txt",
                 "--out", root / "report.json"]) == 0
    with open(root / "trace.jsonl", encoding="utf-8") as fh:
        trace = [line.rstrip("\n") for i, line in enumerate(fh) if i % SAMPLE_STRIDE == 0]
    tables = {name: (root / name).read_text("utf-8").splitlines()
              for name in TABLES if (root / name).exists()}
    tables["suffixes.txt"] = list(BUILTIN_SUFFIXES)
    tables["depth.csv"] = ["url,max_depth", "http://a.com/,0", "http://b.com/,3"]
    return {"trace": trace, "tables": tables, "report": root / "report.json"}


def _mutated_trace(trace, field_edits, line_edits):
    lines = list(trace)
    for at, field, value in field_edits:
        obj = json.loads(lines[at % len(lines)])
        if value is DELETE:
            obj.pop(field, None)
        else:
            obj[field] = value
        lines[at % len(lines)] = json.dumps(obj)
    for at, junk in line_edits:
        lines.insert(at % (len(lines) + 1), junk)
    return lines


def _chain(inputs: Path, out: Path, flags: dict, strict: bool) -> dict:
    """Exit code per subcommand; each writes under ``out / <subcommand>``."""
    common = ["--suffixes", inputs / "suffixes.txt", *(["--strict"] if strict else [])]
    trace = inputs / "trace.jsonl"
    argvs = {
        "detect": ["detect", "--trace", trace, "--ipmap", inputs / "ipmap.csv",
                   "--ranking", inputs / "ranking.txt", "--malware", inputs / "malware.txt",
                   "--out", out / "detect" / "report.json"],
        "fingerprint": ["fingerprint", "--report", inputs / "report.json", "--trace", trace,
                        "--out", out / "fingerprint"],
        "rules": ["rules", "--trace", trace, "--out", out / "rules" / "findings.jsonl",
                  *(["--envfp", inputs / "envfp.json"] if (inputs / "envfp.json").exists() else [])],
        "panelscan": ["panelscan", "--trace", trace, "--alias", inputs / "aliases.csv",
                      "--out", out / "panelscan"],
    }
    return {name: _run([*argv, *common, *flags[name]]) for name, argv in argvs.items()}


def _flags(data, command) -> list:
    """No flag of ``command``, or one set to a drawn value."""
    flag = data.draw(st.sampled_from((None, *FLAGS[command])), label=command)
    if flag is None:
        return []
    return [flag, data.draw(st.sampled_from(FLAGS[command][flag]), label=flag)]


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_mutated_inputs_exit_with_a_documented_code(base, data):
    field_edits = data.draw(st.lists(st.tuples(
        st.integers(0, 10_000), st.sampled_from(TRACE_FIELDS), st.sampled_from(ODD_VALUES)),
        max_size=6), label="field_edits")
    line_edits = data.draw(st.lists(st.tuples(
        st.integers(0, 10_000), st.sampled_from(ODD_LINES)), max_size=3), label="line_edits")
    table_edits = data.draw(st.lists(st.tuples(
        st.sampled_from(TABLES), st.integers(0, 100), st.sampled_from(TABLE_JUNK)),
        max_size=4), label="table_edits")
    flags = {command: _flags(data, command) for command in FLAGS}
    report = data.draw(st.sampled_from(ODD_DOCUMENTS), label="report")
    envfp = data.draw(st.sampled_from(ODD_DOCUMENTS), label="envfp")

    with tempfile.TemporaryDirectory() as tmp:
        inputs = Path(tmp) / "in"
        inputs.mkdir()
        trace = _mutated_trace(base["trace"], field_edits, line_edits)
        _write(inputs / "trace.jsonl", trace)
        tables = {name: list(lines) for name, lines in base["tables"].items()}
        for name, at, junk in table_edits:
            tables[name].insert(at % (len(tables[name]) + 1), junk)
        for name, lines in tables.items():
            _write(inputs / name, lines)
        if report is None:
            (inputs / "report.json").write_bytes(base["report"].read_bytes())
        else:
            (inputs / "report.json").write_text(report, encoding="utf-8")
        if envfp is not None:
            (inputs / "envfp.json").write_text(envfp, encoding="utf-8")

        lenient = _chain(inputs, Path(tmp) / "lenient", flags, strict=False)
        strict = _chain(inputs, Path(tmp) / "strict", flags, strict=True)
        depth = inputs / "depth.csv"
        framedepth = _run(["framedepth", "--tainted", depth, "--general", depth,
                           "--out", Path(tmp) / "depth.json", "--plotdata", Path(tmp) / "plot.txt"])
        synth = _run(["synth", "--out", Path(tmp) / "synth", "--plants", "none", "--machines", "2",
                      *flags["synth"]])

        assert set(lenient.values()) | set(strict.values()) | {framedepth, synth} <= EXIT_CODES
        for name, code in strict.items():
            if code == 0:
                assert lenient[name] == 0, name
                assert (_files(Path(tmp) / "strict" / name)
                        == _files(Path(tmp) / "lenient" / name)), name

        with open(inputs / "trace.jsonl", encoding="utf-8", errors="surrogateescape") as fh:
            loaded = load_trace(fh, PublicSuffixSet.from_lines(tables["suffixes.txt"]))
        assert parsed_count(loaded) + len(loaded.skipped) == loaded.total_lines == len(trace)
