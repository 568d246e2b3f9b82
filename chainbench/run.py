#!/usr/bin/env python3
"""Analyst-chain benchmark for launderscan.

Builds one workload's inputs with ``launderscan synth``, then runs the
analyst chain detect -> fingerprint (on detect's report) -> rules ->
panelscan, each subcommand in a fresh ``python -m launderscan`` process, one
after another: a closed loop with one client.  Every output is checked
against the scenario's truth.json.

    python3 chainbench/run.py --workload day-mixed --seed 7 --seconds 45 --trace 0

--trace 0 prints the end-to-end metrics; --trace 1 makes a separate traced
run (one process calling cli.main for each subcommand) and prints the
per-layer metrics.  The last line of stdout is the result as JSON.  The
program under test is the ``src/`` tree of the checkout this file sits in.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".chainbench"
PINS = Path(__file__).resolve().parent / "pins.json"

sys.path.insert(0, str(ROOT))
from chainbench import checks, tracer  # noqa: E402

# launderscan synth flags per workload; README.md says why each was chosen.
WORKLOADS = {
    "day-mixed": ("--machines", "1000"),
    "clean-3day": ("--machines", "400", "--days", "3", "--plants", "none"),
    "hijack-dense": ("--machines", "300", "--scale-divisor", "25"),
}
SUBCOMMANDS = tracer.SUBCOMMANDS
SETUP_REPEATS = 3  # synth runs per timed run; setup_s is their median
MIN_CHAINS = 2  # chains per timed run, even past --seconds; also the rerun check
IMPORT_REPEATS = 3
# Not the CLI default (25): at these scenario sizes no machine reaches 25
# attributed ads, so the ranking and evidence code would go unmeasured.
MIN_ADS = "5"
ALIAS_FILE = "aliases.csv"


class Ops:
    """Operations attempted and failed: each synth and each subcommand run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, what: str, problems: list[str]):
        self.attempted += 1
        if problems:
            self.failed += 1
            for p in problems:
                print(f"FAILED {what}: {p}", file=sys.stderr)


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_process(args: list[str], log: Path) -> tuple[int, float, float]:
    """Run ``python <args>`` from the checkout root; return (exit code, wall
    seconds, peak RSS in MB of that process alone)."""
    with open(log, "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdout=fh, stderr=subprocess.STDOUT,
                                env=_env(), cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024


def _log_tail(log: Path) -> str:
    return log.read_text("utf-8", errors="replace")[-400:].strip()


def synth_argv(workload: str, seed: int, out: Path) -> list[str]:
    return ["synth", "--out", str(out), "--seed", str(seed), *WORKLOADS[workload]]


def chain_argvs(inputs: Path, out: Path) -> list[tuple[str, list[str]]]:
    trace = str(inputs / "trace.jsonl")
    return [
        ("detect", ["detect", "--trace", trace, "--ipmap", str(inputs / "ipmap.csv"),
                    "--ranking", str(inputs / "ranking.txt"),
                    "--malware", str(inputs / "malware.txt"), "--out", str(out / "report.json")]),
        ("fingerprint", ["fingerprint", "--report", str(out / "report.json"), "--trace", trace,
                         "--out", str(out / "fp")]),
        ("rules", ["rules", "--trace", trace, "--out", str(out / "findings.jsonl")]),
        ("panelscan", ["panelscan", "--trace", trace, "--alias", str(inputs / ALIAS_FILE),
                       "--min-ads", MIN_ADS, "--out", str(out / "panel")]),
    ]


def write_alias_file(inputs: Path):
    """synth writes no alias file, so write synthgen's alias groups."""
    from launderscan.synthgen import ALIAS_GROUP_LINES

    (inputs / ALIAS_FILE).write_text("".join(line + "\n" for line in ALIAS_GROUP_LINES), "utf-8")


def check_synth(workload: str, seed: int, inputs: Path, first_digest) -> tuple[list[str], str, int]:
    """Problems with synth's trace digest, and the digest and line count."""
    files = json.loads((inputs / "manifest.json").read_text("utf-8"))["files"]
    digest, lines = files["trace.jsonl"]["sha256"], files["trace.jsonl"]["lines"]
    problems = []
    pinned = json.loads(PINS.read_text("utf-8")).get(workload, {}).get(str(seed))
    if pinned and pinned != [digest, lines]:
        problems.append(f"trace digest {digest[:12]} ({lines} lines) differs from the pinned "
                        f"{pinned[0][:12]} ({pinned[1]} lines) for seed {seed}")
    if first_digest and digest != first_digest:
        problems.append("synth is not deterministic: trace digest changed between repeats")
    return problems, digest, lines


def load_truth(inputs: Path) -> dict:
    return json.loads((inputs / "truth.json").read_text("utf-8"))


def run_chain(inputs: Path, out: Path, truth: dict, ops: Ops, reference: dict | None):
    """One chain in fresh processes; returns ({subcommand: (wall, rss)},
    {subcommand: output digest})."""
    out.mkdir(parents=True)
    walls, digests = {}, {}
    for name, argv in chain_argvs(inputs, out):
        log = out / f"{name}.log"
        rc, wall, rss = run_process(["-m", "launderscan", *argv], log)
        walls[name] = (wall, rss)
        if rc != 0:
            ops.record(name, [f"exit {rc}: {_log_tail(log)}"])
            continue
        problems = checks.check_output(name, out, truth)
        digests[name] = checks.output_digest(name, out)
        if reference is not None and reference.get(name) != digests[name]:
            problems.append("output differs from the first chain's (not byte-identical)")
        ops.record(name, problems)
    return walls, digests


def environment() -> dict:
    """What a later change to the toolchain or optional deps would alter."""
    import numpy
    from launderscan import kernels

    git_sha = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        git_sha = git.stdout.strip() or None
    src_sha = hashlib.sha256()
    for f in sorted((SRC / "launderscan").rglob("*.py")):
        src_sha.update(f.relative_to(SRC).as_posix().encode() + b"\0" + f.read_bytes())
    return {
        "git_sha": git_sha,
        "src_sha256": src_sha.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "using_numba": bool(kernels.USING_NUMBA),
        "orjson_importable": importlib.util.find_spec("orjson") is not None,
    }


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# ---------------------------------------------------------------------------
# Timed run: end-to-end metrics
# ---------------------------------------------------------------------------


def timed_run(workload: str, seed: int, seconds: float, work: Path, ops: Ops) -> dict:
    inputs = work / "inputs"
    setup, digest, lines = [], None, 0
    for i in range(SETUP_REPEATS):
        log = work / f"synth-{i}.log"
        rc, wall, _ = run_process(["-m", "launderscan", *synth_argv(workload, seed, inputs)], log)
        setup.append(wall)
        if rc != 0:
            ops.record("synth", [f"exit {rc}: {_log_tail(log)}"])
            continue
        problems, got, lines = check_synth(workload, seed, inputs, digest)
        digest = digest or got
        ops.record("synth", problems)
    print(f"trace_lines={lines} trace_sha256={digest}")
    write_alias_file(inputs)
    truth = load_truth(inputs)

    chains = []
    reference = None
    t0 = time.perf_counter()
    # start another chain only if it should end within --seconds
    while (len(chains) < MIN_CHAINS
           or (time.perf_counter() - t0) * (len(chains) + 1) / len(chains) <= seconds):
        walls, digests = run_chain(inputs, work / f"chain-{len(chains)}", truth, ops, reference)
        if reference is None:
            reference = digests
        chains.append(walls)
        print(f"chain {len(chains)}: " + " ".join(f"{n}_s={walls[n][0]:.3f}" for n in SUBCOMMANDS))

    print(f"chains={len(chains)} setup_runs={len(setup)}")
    # Per-subcommand medians are printed but are not result metrics: on a
    # 2-core VM whose CPU speed drifts, their spread over seeds exceeds the
    # largest bound a metric may have (README.md, "Steadiness").
    for n in SUBCOMMANDS:
        print(f"{n}_s {statistics.median(c[n][0] for c in chains):.6g} s")
    chain_s = statistics.median(sum(c[n][0] for n in SUBCOMMANDS) for c in chains)
    return {
        "chain_s": (chain_s, "s"),
        "chain_lines_per_s": (lines / chain_s, "1/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (statistics.median(max(c[n][1] for n in SUBCOMMANDS) for c in chains), "MB"),
    }


# ---------------------------------------------------------------------------
# Traced run: per-layer metrics
# ---------------------------------------------------------------------------


def traced_run(workload: str, seed: int, work: Path, ops: Ops) -> dict:
    """synth, then the chain twice in this process: untraced, then traced.

    Both chains call cli.main in-process so that trace.overhead_s compares
    like with like; the fresh-process chain of the timed run also pays four
    interpreter starts (about 4 x cli.import_s).
    """
    from launderscan import cli

    inputs = work / "inputs"
    tr = tracer.Tracer()
    with open(work / "traced.log", "w", encoding="utf-8") as log:

        def chain(out: Path, truth: dict, call) -> tuple[float, dict]:
            out.mkdir()
            wall, problems = 0.0, {}
            for name, argv in chain_argvs(inputs, out):
                t0 = time.perf_counter()
                with contextlib.redirect_stdout(log):
                    rc = call(name, argv)
                wall += time.perf_counter() - t0
                problems[name] = [f"exit {rc}"] if rc else checks.check_output(name, out, truth)
            return wall, problems

        with tracer.install(tr), contextlib.redirect_stdout(log):
            rc = tr.call("synth", "cli.synth", cli.main, synth_argv(workload, seed, inputs))
        if rc != 0:
            ops.record("synth", [f"exit {rc}"])
            raise SystemExit("synth failed; no per-layer metrics")
        problems, digest, lines = check_synth(workload, seed, inputs, None)
        ops.record("synth", problems)
        print(f"trace_lines={lines} trace_sha256={digest}")
        write_alias_file(inputs)
        truth = load_truth(inputs)

        untraced_s, untraced_problems = chain(
            work / "untraced", truth, lambda name, argv: cli.main(argv))
        with tracer.install(tr):
            traced_s, traced_problems = chain(
                work / "traced", truth,
                lambda name, argv: tr.call(name, f"cli.{name}", cli.main, argv))

    spans = tr.spans()
    metrics = tracer.layer_metrics(spans, tr.counts)
    for name in SUBCOMMANDS:
        ops.record(f"untraced {name}", untraced_problems[name])
        problems = traced_problems[name]
        if checks.output_digest(name, work / "traced") != checks.output_digest(name, work / "untraced"):
            problems.append("traced output differs from the untraced chain's")
        wall = metrics[f"cli.{name}.wall_s"][0]
        layers = metrics.pop(f"cli.{name}.layers_s")[0]
        residual = metrics[f"cli.{name}.residual_s"][0]
        print(f"cli.{name}: wall {wall:.4f} s = layers {layers:.4f} s + residual {residual:.4f} s")
        if abs(layers + residual - wall) > 1e-6:
            problems.append("layer spans overlap: layers + residual != wall")
        ops.record(f"traced {name}", problems)

    imports = [run_process(["-c", "import launderscan.cli"], work / "import.log")
               for _ in range(IMPORT_REPEATS)]
    metrics["cli.import_s"] = (statistics.median(w for _, w, _ in imports), "s")
    metrics["trace.chain_s"] = (traced_s, "s")
    metrics["trace.untraced_chain_s"] = (untraced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")

    spans_file = WORK / f"spans-{workload}.csv"
    with open(spans_file, "w", encoding="utf-8") as fh:
        fh.write("name,start,end,parent,run\n")
        fh.writelines(f"{s.name},{s.start!r},{s.end!r},{s.parent},{s.run}\n" for s in spans)
    print(f"spans={len(spans)} written to {spans_file.relative_to(ROOT)}")
    return metrics


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=45.0,
                        help="start chains while they should end within this many seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "launderscan" / "__main__.py").is_file():
        print(f"error: no launderscan source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work = fresh_dir(WORK / f"{args.workload}-{args.seed}")
    ops = Ops()
    print(f"workload={args.workload} seed={args.seed} trace={args.trace}")
    print("environment " + json.dumps(environment(), sort_keys=True))
    try:
        if args.trace:
            metrics = traced_run(args.workload, args.seed, work, ops)
        else:
            metrics = timed_run(args.workload, args.seed, args.seconds, work, ops)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"failed_frac {ops.failed / ops.attempted:.6g} ratio "
          f"({ops.failed} of {ops.attempted} operations)")
    print(json.dumps({
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
