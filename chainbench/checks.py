"""Checks of each analysis output against the scenario's ground truth.

Every check returns a list of problems; an empty list means the output
passed.  ``truth`` is the parsed ``truth.json`` that ``launderscan synth``
writes next to the trace.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

HIJACK_SCHEME = "hyphbot"  # synthgen's hosts-hijack plant
SPOOF_FLAG = "SpoofQueryFields"


def _pairs(rows) -> set[tuple[str, str]]:
    return {(ip, isp) for ip, isp in rows}


def _hijack(truth: dict) -> dict | None:
    return truth["schemes"].get(HIJACK_SCHEME)


def check_detect(report: dict, truth: dict) -> list[str]:
    """detect flags exactly the planted (IP, ISP) pairs."""
    flagged = {(d["ip"], d["isp"]) for rep in report["reports"] for d in rep["detections"]}
    want = _pairs(truth["planted_pairs"])
    problems = []
    if want - flagged:
        problems.append(f"detect missed {len(want - flagged)} planted pairs, "
                        f"first {sorted(want - flagged)[0]}")
    if flagged - want:
        problems.append(f"detect flagged {len(flagged - want)} pairs that were not planted, "
                        f"first {sorted(flagged - want)[0]}")
    return problems


def check_profiles(rows: list[list[str]], truth: dict) -> list[str]:
    """Every profile's first member is a planted pair, and the hijack scheme's
    profiles carry the spoof-query flag."""
    header, body = rows[0], rows[1:]
    flags_col, member_col = header.index("flags"), header.index("first_member")
    planted = {f"{ip}|{isp}" for ip, isp in truth["planted_pairs"]}
    hijack = _hijack(truth)
    hijack_members = {f"{ip}|{isp}" for ip, isp in hijack["pairs"]} if hijack else set()
    problems = []
    if planted and not body:
        problems.append("fingerprint wrote no profiles for a scenario with plants")
    hijack_rows = 0
    for row in body:
        member = row[member_col]
        if member not in planted:
            problems.append(f"profile first member {member} is not a planted pair")
        if member in hijack_members:
            hijack_rows += 1
            if SPOOF_FLAG not in row[flags_col].split(";"):
                problems.append(f"hijack profile {member} lacks {SPOOF_FLAG}")
    if hijack and not hijack_rows:
        problems.append("no profile belongs to the hijack scheme")
    return problems


def check_findings(findings: list[dict], truth: dict) -> list[str]:
    """Every spoof finding is verified and on a planted machine; a scenario
    without plants gives no findings at all."""
    planted = set(truth["planted_machines"])
    if not planted:
        return [f"{len(findings)} findings on a scenario without plants"] if findings else []
    problems = []
    spoof = [f for f in findings if f["type"] == "spoof_signal"]
    unverified = sum(1 for f in spoof if f["verified"] is not True)
    if unverified:
        problems.append(f"{unverified} spoof findings are not verified")
    stray = sorted({f["machine"] for f in spoof} - planted)
    if stray:
        problems.append(f"spoof findings on {len(stray)} unplanted machines, first {stray[0]}")
    if _hijack(truth) and not spoof:
        problems.append("no spoof findings although the hijack scheme is planted")
    return problems


def check_panel(machine_rows: list[list[str]], ranking: list[str], truth: dict) -> list[str]:
    """Without plants no machine misses an impression (the alias file covers
    the sibling-attributed ads); with the hijack scheme planted, the ranking
    opens with its machines."""
    problems = []
    if not truth["planted_machines"]:
        header = machine_rows[0]
        col = header.index("missing")
        missing = [r[0] for r in machine_rows[1:] if int(r[col]) != 0]
        if missing:
            problems.append(f"{len(missing)} machines miss impressions on a scenario "
                            f"without plants, first {missing[0]}")
    hijack = _hijack(truth)
    if hijack:
        want = set(hijack["machines"])
        head = ranking[: len(want)]
        if set(head) != want:
            problems.append(f"ranking does not open with the {len(want)} {HIJACK_SCHEME} "
                            f"machines ({len(want - set(head))} of them missing from the top)")
    return problems


# ---------------------------------------------------------------------------
# File-level wrappers used by the benchmark
# ---------------------------------------------------------------------------


def _read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def check_output(subcommand: str, out: Path, truth: dict) -> list[str]:
    """Check the files one subcommand wrote under ``out`` (the layout that
    run.chain_argvs gives them)."""
    try:
        if subcommand == "detect":
            return check_detect(json.loads((out / "report.json").read_text("utf-8")), truth)
        if subcommand == "fingerprint":
            return check_profiles(_read_csv(out / "fp" / "profiles.csv"), truth)
        if subcommand == "rules":
            text = (out / "findings.jsonl").read_text("utf-8")
            return check_findings([json.loads(line) for line in text.splitlines()], truth)
        if subcommand == "panelscan":
            ranking = (out / "panel" / "ranking.txt").read_text("utf-8").splitlines()
            return check_panel(_read_csv(out / "panel" / "machines.csv"), ranking, truth)
    except (OSError, ValueError, KeyError, IndexError) as err:
        return [f"{subcommand} output unreadable: {type(err).__name__}: {err}"]
    raise ValueError(f"no check for subcommand {subcommand!r}")


OUTPUTS = {
    "detect": ("report.json",),
    "fingerprint": ("fp",),
    "rules": ("findings.jsonl",),
    "panelscan": ("panel",),
}


def output_digest(subcommand: str, out: Path) -> str:
    """sha256 over the names and bytes of every file the subcommand wrote."""
    sha = hashlib.sha256()
    for top in OUTPUTS[subcommand]:
        path = out / top
        files = sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path]
        for f in files:
            if not f.exists():
                continue
            sha.update(str(f.relative_to(out)).encode() + b"\0")
            sha.update(f.read_bytes())
    return sha.hexdigest()
