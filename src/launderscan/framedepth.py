"""Maximum-iframe-depth distribution comparison between a suspect URL
population and a general one.  Depth convention: top document = 0, each
nested iframe adds one, so a URL with no iframe structure has depth 0.

No significance test is attached; the output is per-depth fractions and tail
dominance for the analyst.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .ingest import Skips

# The deepest iframe nesting a row may state.  A depth needs that many nested
# frames, and Chromium lets one page hold at most 1,000 frames, so a deeper
# row is a broken one.  The bound also caps the output: the comparison and
# plot data have one entry per depth up to the largest one loaded.
MAX_DEPTH = 1_000


@dataclass(frozen=True, slots=True)
class DepthSample:
    depths: tuple[int, ...]  # one per URL, in file order
    label: str


def load_depth_csv(lines: Iterable[str], label: str) -> tuple[DepthSample, Skips]:
    """CSV of url,max_depth; a header row is tolerated.  Only the depths are
    kept.  A depth above MAX_DEPTH is a "bad depth" skip."""
    depths: list[int] = []
    skip = Skips()
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.rsplit(",", 1)
        if len(parts) != 2:
            skip(line_no, "bad row")
            continue
        depth_s = parts[1].strip()
        digits = depth_s.removeprefix("-")
        # isdigit() alone passes '١' (int() reads it as 1) and '²' (int() fails)
        if not (digits.isascii() and digits.isdigit()):
            if line_no == 1 and depth_s.lower() in ("max_depth", "depth"):
                continue  # header
            skip(line_no, "bad depth")
            continue
        try:
            depth = int(depth_s)
        except ValueError:  # more digits than int() converts
            skip(line_no, "bad depth")
            continue
        if depth < 0:
            skip(line_no, "negative depth")
            continue
        if depth > MAX_DEPTH:
            skip(line_no, "bad depth")
            continue
        depths.append(depth)
    return DepthSample(depths=tuple(depths), label=label), skip


def depth_histogram(sample: DepthSample) -> dict[int, float]:
    """Fraction of URLs at each depth >= 1; only URLs that have iframe
    structure enter the denominator."""
    if not sample.depths:
        raise ValueError(f"sample {sample.label!r} is empty")
    depths = [d for d in sample.depths if d >= 1]
    if not depths:
        raise ValueError(f"sample {sample.label!r} has no records with iframe structure")
    n = len(depths)
    out: dict[int, float] = {}
    for d in depths:
        out[d] = out.get(d, 0.0) + 1.0
    return {d: c / n for d, c in sorted(out.items())}


@dataclass(frozen=True, slots=True)
class DepthComparison:
    label_a: str
    label_b: str
    fractions_a: dict[int, float]  # zero-excluded, over depths 1..max_depth
    fractions_b: dict[int, float]
    tail_dominance: tuple[tuple[int, float], ...]  # (k, P_a[depth>=k] - P_b[depth>=k])
    max_depth_a: int
    max_depth_b: int

    def to_json_dict(self) -> dict:
        return {
            "a": {
                "label": self.label_a,
                "max_depth": self.max_depth_a,
                "fractions": {str(k): v for k, v in self.fractions_a.items()},
            },
            "b": {
                "label": self.label_b,
                "max_depth": self.max_depth_b,
                "fractions": {str(k): v for k, v in self.fractions_b.items()},
            },
            "tail_dominance": [[k, v] for k, v in self.tail_dominance],
        }

    def plot_lines(self) -> list[str]:
        """Two-series bar data: depth, fraction_a, fraction_b."""
        top = max(self.max_depth_a, self.max_depth_b)
        lines = ["# depth fraction_a fraction_b"]
        for k in range(1, top + 1):
            lines.append(f"{k} {self.fractions_a.get(k, 0.0):.6f} {self.fractions_b.get(k, 0.0):.6f}")
        return lines


def _tail(fracs: dict[int, float], k: int) -> float:
    return sum(v for d, v in fracs.items() if d >= k)


def compare(tainted: DepthSample, general: DepthSample) -> DepthComparison:
    """Zero-excluded per-depth fractions for both samples plus the signed
    tail difference at every depth; negative values are reported as-is."""
    fa = depth_histogram(tainted)
    fb = depth_histogram(general)
    max_a = max(fa)
    max_b = max(fb)
    top = max(max_a, max_b)
    dominance = tuple((k, _tail(fa, k) - _tail(fb, k)) for k in range(1, top + 1))
    return DepthComparison(
        label_a=tainted.label,
        label_b=general.label,
        fractions_a=fa,
        fractions_b=fb,
        tail_dominance=dominance,
        max_depth_a=max_a,
        max_depth_b=max_b,
    )
