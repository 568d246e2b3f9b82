"""launderscan: detection toolkit for placement-laundering ad fraud.

Flags (IP, ISP) pairs that serve implausibly many high-reputation publisher
domains, fingerprints and compares the schemes behind them, ranks panel
machines by ad misattribution, and generates labeled synthetic traffic to
validate every detector end to end.
"""

from .detector import (
    DetectionReport,
    DetectorConfig,
    build_resolution_index,
    candidate_domains,
    detect,
    flag_pairs,
    label_detections,
)
from .fingerprint import (
    SchemeProfile,
    detect_repeat_cycle,
    extract_features,
    group_detections,
    jaccard,
    jaccard_matrix,
)
from .framedepth import DepthSample, compare, depth_histogram
from .ingest import (
    AliasGroups,
    MalwareProcessList,
    RankedDomainList,
    load_alias_groups,
    load_ip_map,
    load_malware_list,
    load_ranked_domains,
    load_trace,
    record_domain,
)
from .ipattr import IpAttributionTable
from .model import (
    DomainEvent,
    HttpRecord,
    NormalizedDomain,
    PublicSuffixSet,
    is_malformed_domain,
    normalize_domain,
)
from .panel import (
    SessionPolicy,
    attributed_ads,
    misattribution_table,
    publisher_visits,
    rank_machines,
)
from .synthgen import (
    Scenario,
    SchemeTemplate,
    emit_scenario_files,
    five_scheme_scenario,
    generate,
)
from .urlrules import (
    EnvFingerprint,
    SpoofSignal,
    check_spoof_query,
    classify_env,
    sibling_referrer_consistency,
    verify_spoof_followthrough,
)

__version__ = "0.1.0"
