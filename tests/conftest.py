import json
from dataclasses import dataclass
from pathlib import Path

import pytest

from launderscan import cli
from launderscan import synthgen as sg
from launderscan.detector import WindowTallies
from launderscan.ingest import (
    AliasGroups,
    MalwareProcessList,
    RankedDomainList,
    load_alias_groups,
    load_ip_map,
    load_malware_list,
    load_ranked_domains,
)
from launderscan.ipattr import IpAttributionTable
from launderscan.model import DAY_MS, PublicSuffixSet

from oracles import Records, load_records

DAY0 = sg.EPOCH_MS
WINDOW = (DAY0, DAY0 + DAY_MS)
# Five-scheme scenario at desk scale: 320 background machines is the smallest
# population whose rotation schedule still visits every pool domain daily,
# keeping plant eligibility deterministic.
SMALL_SCENARIO = sg.Scenario(
    seed=11, background=sg.BackgroundSpec(machine_count=320), plants=sg.five_scheme_plants()
)


def parsed_count(result) -> int:
    """Records a ``Records`` holds, of every kind."""
    return len(result.http) + len(result.impressions) + len(result.pageviews)


def window_index(records, window=WINDOW):
    """detect's input for ``window``: the index of ``records``, in any order,
    as ``launderscan detect --window`` builds it from a trace's http records."""
    tallies = WindowTallies([window])
    for rec in records:
        tallies(*rec)
    return tallies.per_window([window])[0]


def clean_scenario(seed: int, background_machines: int) -> sg.Scenario:
    """One day of background traffic with no planted scheme."""
    return sg.Scenario(
        seed=seed,
        background=sg.BackgroundSpec(machine_count=background_machines),
        plants=(),
    )


def truth_from_json(obj: dict) -> sg.GroundTruth:
    """The ``GroundTruth`` whose ``to_json_dict()`` is ``obj``."""
    return sg.GroundTruth(
        record_labels={int(k): v for k, v in obj["record_labels"].items()},
        scheme_pairs={
            lab: frozenset((p[0], p[1]) for p in s["pairs"])
            for lab, s in obj["schemes"].items()
        },
        scheme_machines={lab: frozenset(s["machines"]) for lab, s in obj["schemes"].items()},
    )


def total_attributed(table) -> int:
    """Attributed impressions a ``MisattributionTable`` counts, summed over domains."""
    return sum(s.attributed for s in table.per_domain.values())


def u32_to_ip(v: int) -> str:
    """The dotted quad of a 32-bit value; ``ipattr.ip_to_u32`` inverts it."""
    return f"{(v >> 24) & 255}.{(v >> 16) & 255}.{(v >> 8) & 255}.{v & 255}"


@dataclass
class Corpus:
    lines: list[str]  # trace.jsonl's lines, which truth.record_labels indexes
    trace: Records
    truth: sg.GroundTruth
    table: IpAttributionTable
    ranking: RankedDomainList
    alias: AliasGroups
    malware: MalwareProcessList


def emitted_corpus(scenario: sg.Scenario, out: Path) -> Corpus:
    """Write ``scenario`` into ``out`` with ``emit_scenario_files`` and read
    its files back with the CLI's readers and loaders in strict mode, so a
    line the CLI would skip raises."""
    sg.emit_scenario_files(scenario, out)
    suffix = PublicSuffixSet.builtin()
    table, _ = load_ip_map(cli._read_table(out / "ipmap.csv"), strict=True)
    ranking, _ = load_ranked_domains(cli._read_table(out / "ranking.txt"), suffix, strict=True)
    return Corpus(
        lines=(out / "trace.jsonl").read_text("utf-8").splitlines(),
        trace=load_records(cli._read_lines(out / "trace.jsonl"), suffix, strict=True),
        truth=truth_from_json(json.loads((out / "truth.json").read_text("utf-8"))),
        table=table,
        ranking=ranking,
        alias=load_alias_groups(cli._read_table(out / "aliases.csv"), suffix),
        malware=load_malware_list(cli._read_table(out / "malware.txt")),
    )


@pytest.fixture(scope="session")
def small_corpus(tmp_path_factory):
    return emitted_corpus(SMALL_SCENARIO, tmp_path_factory.mktemp("small"))


@pytest.fixture(scope="session")
def clean_corpus(tmp_path_factory):
    scenario = clean_scenario(seed=5, background_machines=200)
    return emitted_corpus(scenario, tmp_path_factory.mktemp("clean"))
