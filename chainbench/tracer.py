"""Per-layer timing of launderscan from outside the program.

A Tracer wraps public functions so that each call records a span: its name,
start, end, the span open when it started (its parent) and the run id of the
subcommand it belongs to.  Spans stay in memory until the run ends.

install() puts the wrappers under the names the callers look up.  Several
modules import names directly (``from .ingest import load_trace``), so
wrapping the defining module alone would miss those calls.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import Counter, defaultdict
from typing import Callable, NamedTuple, Optional, Sequence


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index of the parent span, -1 for a root
    run: Optional[str]

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: Sequence[Span]) -> list[float]:
    """Each span's duration minus the part of its interval that its child
    spans cover (overlapping children are counted once, and clipped to the
    parent)."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        lo_run = hi_run = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if hi_run is None or lo > hi_run:
                if hi_run is not None:
                    covered += hi_run - lo_run
                lo_run, hi_run = lo, hi
            else:
                hi_run = max(hi_run, hi)
        if hi_run is not None:
            covered += hi_run - lo_run
        out.append(s.duration - covered)
    return out


class Tracer:
    """Records spans and counters for wrapped calls; single-threaded."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.run: Optional[str] = None
        self.counts: Counter = Counter()
        self._records: list[list] = []  # [name, start, end, parent, run]
        self._open: list[int] = []

    def wrap(self, fn, name: str, tally=None):
        """fn, recording a span per call; tally(tracer, args, result) runs
        after each call that returns."""
        records, open_, clock = self._records, self._open, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, open_[-1] if open_ else -1, self.run]
            open_.append(len(records))
            records.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                open_.pop()
            if tally is not None:
                tally(self, args, result)
            return result

        return traced

    def counter(self, fn, key: str):
        """fn, counting calls under ``key`` without recording spans."""
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def call(self, run: str, name: str, fn, *args):
        """Call fn(*args) as the root span of run ``run``."""
        self.run = run
        try:
            return self.wrap(fn, name)(*args)
        finally:
            self.run = None

    def spans(self) -> list[Span]:
        return [Span(*r) for r in self._records]


# ---------------------------------------------------------------------------
# Where to wrap
# ---------------------------------------------------------------------------


def _tally_load(t: Tracer, args, result):
    t.counts["ingest.lines"] += result.total_lines
    t.counts["ingest.skipped"] += len(result.skipped)


def _tally_index(t: Tracer, args, idx):
    in_window = idx.records_seen + idx.bad_domain_records
    t.counts["detector.in_window"] += in_window
    t.counts["detector.scanned"] += in_window + idx.skipped_out_of_window


def _tally_lookup(t: Tracer, args, result):
    t.counts["ipattr.ips"] += len(args[1])


def _tally_cycle(t: Tracer, args, result):
    t.counts["fingerprint.repeat_cycle_found"] += result is not None


def _tally_period(t: Tracer, args, result):
    t.counts["kernels.events"] += len(args[0])


def _tally_spoof(t: Tracer, args, result):
    t.counts[f"urlrules.spoof_signals.{t.run}"] += result is not None


def _tally_emit(t: Tracer, args, manifest):
    t.counts["synthgen.lines"] += manifest["files"]["trace.jsonl"]["lines"]
    t.counts["synthgen.bytes"] += manifest["files"]["trace.jsonl"]["bytes"]


@contextlib.contextmanager
def install(tracer: Tracer):
    """Wrap launderscan's layer entry points for the duration of the block."""
    from launderscan import (
        cli, detector, fingerprint, ingest, ipattr, kernels, panel, synthgen, urlrules,
    )

    spans = [
        (cli, "load_trace", "ingest.load_trace", _tally_load),
        (cli, "load_ip_map", "ingest.load_tables", None),
        (cli, "load_ranked_domains", "ingest.load_tables", None),
        (cli, "load_malware_list", "ingest.load_tables", None),
        (cli, "load_alias_groups", "ingest.load_tables", None),
        (cli, "detect", "detector.detect", None),
        (detector, "build_resolution_index", "detector.index", _tally_index),
        (detector, "candidate_domains", "detector.candidates", None),
        (detector, "flag_pairs", "detector.flag", None),
        (detector, "label_detections", "detector.label", None),
        (ipattr.IpAttributionTable, "lookup_batch", "ipattr.lookup_batch", _tally_lookup),
        (fingerprint, "extract_features", "fingerprint.extract_features", None),
        (fingerprint, "detect_repeat_cycle", "fingerprint.repeat_cycle", _tally_cycle),
        (fingerprint, "check_spoof_query", "urlrules.check_spoof_query", _tally_spoof),
        (fingerprint, "group_detections", "fingerprint.group", None),
        (fingerprint, "jaccard_matrix", "fingerprint.jaccard", None),
        (kernels, "find_repeat_period", "kernels.find_repeat_period", _tally_period),
        (urlrules, "check_spoof_query", "urlrules.check_spoof_query", _tally_spoof),
        (urlrules, "verify_spoof_followthrough", "urlrules.verify", None),
        (urlrules, "sibling_referrer_consistency", "urlrules.referrer", None),
        (panel, "attributed_ads", "panel.attributed_ads", None),
        (panel, "publisher_visits", "panel.publisher_visits", None),
        (panel, "misattribution_table", "panel.misattribution", None),
        (synthgen, "emit_scenario_files", "synthgen.emit", _tally_emit),
    ]
    # counted, not spanned: hundreds of thousands of calls per chain
    counted = [(mod, "normalize_domain", f"model.normalize_domain_calls.{caller}")
               for mod, caller in zip((ingest, detector, fingerprint, urlrules), CALLERS)]

    saved = []
    try:
        for owner, attr, name, tally in spans:
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, tracer.wrap(getattr(owner, attr), name, tally))
        for owner, attr, key in counted:
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, tracer.counter(getattr(owner, attr), key))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

SUBCOMMANDS = ("detect", "fingerprint", "rules", "panelscan")
CALLERS = ("ingest", "detector", "fingerprint", "urlrules")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: Sequence[Span], counts: Counter) -> dict[str, tuple[float, str]]:
    """Per-layer metrics (name -> (value, unit)) from one traced chain.

    Also returns ``cli.<subcommand>.layers_s``: the summed durations of the
    spans directly under each subcommand's root, so that layers_s plus
    residual_s can be compared with wall_s.
    """
    selfs = self_times(spans)
    total: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    self_total: dict[str, float] = defaultdict(float)
    rules_spoof_calls = 0
    for s, own in zip(spans, selfs):
        total[s.name] += s.duration
        calls[s.name] += 1
        self_total[s.name] += own
        if s.name == "urlrules.check_spoof_query" and s.run == "rules":
            rules_spoof_calls += 1

    m: dict[str, tuple[float, str]] = {}
    m["ingest.load_trace_s"] = (total["ingest.load_trace"], "s")
    m["ingest.load_trace_calls"] = (calls["ingest.load_trace"], "count")
    m["ingest.lines_per_s"] = (_ratio(counts["ingest.lines"], total["ingest.load_trace"]), "1/s")
    m["ingest.skipped"] = (counts["ingest.skipped"], "count")
    m["ingest.load_tables_s"] = (total["ingest.load_tables"], "s")
    per_caller = {c: counts[f"model.normalize_domain_calls.{c}"] for c in CALLERS}
    m["model.normalize_domain_calls"] = (sum(per_caller.values()), "count")
    for c in CALLERS:
        m[f"model.normalize_domain_calls.{c}"] = (per_caller[c], "count")
    m["detector.detect_s"] = (total["detector.detect"], "s")
    for layer in ("index", "candidates", "flag", "label"):
        m[f"detector.{layer}_s"] = (total[f"detector.{layer}"], "s")
    m["detector.windows"] = (calls["detector.detect"], "count")
    m["detector.window_hit_ratio"] = (
        _ratio(counts["detector.in_window"], counts["detector.scanned"]), "ratio")
    m["ipattr.lookup_batch_s"] = (total["ipattr.lookup_batch"], "s")
    m["ipattr.ips_looked_up"] = (counts["ipattr.ips"], "count")
    m["fingerprint.extract_features_self_s"] = (self_total["fingerprint.extract_features"], "s")
    m["fingerprint.repeat_cycle_s"] = (total["fingerprint.repeat_cycle"], "s")
    m["fingerprint.repeat_cycle_calls"] = (calls["fingerprint.repeat_cycle"], "count")
    m["fingerprint.repeat_cycle_found"] = (counts["fingerprint.repeat_cycle_found"], "count")
    m["fingerprint.group_s"] = (total["fingerprint.group"], "s")
    m["fingerprint.jaccard_s"] = (total["fingerprint.jaccard"], "s")
    m["kernels.find_repeat_period_s"] = (total["kernels.find_repeat_period"], "s")
    m["kernels.find_repeat_period_calls"] = (calls["kernels.find_repeat_period"], "count")
    m["kernels.events"] = (counts["kernels.events"], "count")
    m["urlrules.check_spoof_query_s"] = (total["urlrules.check_spoof_query"], "s")
    m["urlrules.check_spoof_query_calls"] = (calls["urlrules.check_spoof_query"], "count")
    m["urlrules.spoof_signal_ratio"] = (
        _ratio(counts["urlrules.spoof_signals.rules"], rules_spoof_calls), "ratio")
    for layer in ("verify", "referrer"):
        m[f"urlrules.{layer}_s"] = (total[f"urlrules.{layer}"], "s")
        m[f"urlrules.{layer}_calls"] = (calls[f"urlrules.{layer}"], "count")
    for layer in ("attributed_ads", "publisher_visits", "misattribution"):
        m[f"panel.{layer}_s"] = (total[f"panel.{layer}"], "s")
    m["panel.days"] = (calls["panel.attributed_ads"], "count")
    m["synthgen.emit_s"] = (total["synthgen.emit"], "s")
    m["synthgen.lines"] = (counts["synthgen.lines"], "count")
    m["synthgen.bytes"] = (counts["synthgen.bytes"], "B")

    layers: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent >= 0 and spans[s.parent].parent < 0:
            layers[s.parent] += s.duration
    for i, (s, own) in enumerate(zip(spans, selfs)):
        if s.parent < 0 and s.name.startswith("cli.") and s.run in SUBCOMMANDS:
            m[f"cli.{s.run}.wall_s"] = (s.duration, "s")
            m[f"cli.{s.run}.layers_s"] = (layers[i], "s")
            m[f"cli.{s.run}.residual_s"] = (own, "s")
    m["trace.spans"] = (len(spans), "count")
    return m
