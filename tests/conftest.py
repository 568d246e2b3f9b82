import pytest

from launderscan import synthgen as sg
from launderscan.ingest import MalwareProcessList
from launderscan.model import DAY_MS

DAY0 = sg.EPOCH_MS
WINDOW = (DAY0, DAY0 + DAY_MS)
# Five-scheme scenario at desk scale: 320 background machines is the smallest
# population whose rotation schedule still visits every pool domain daily,
# keeping plant eligibility deterministic.
SMALL_SCENARIO = sg.five_scheme_scenario(seed=11, divisor=100, background_machines=320)


def parsed_count(result) -> int:
    """Records a ``LoadResult`` holds, of every kind."""
    return len(result.http) + len(result.impressions) + len(result.pageviews)


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


@pytest.fixture(scope="session")
def small_corpus():
    return sg.generate(SMALL_SCENARIO)


@pytest.fixture(scope="session")
def small_malware(small_corpus):
    return MalwareProcessList(frozenset(small_corpus.malware_names))


@pytest.fixture(scope="session")
def clean_corpus():
    return sg.generate(clean_scenario(seed=5, background_machines=200))
