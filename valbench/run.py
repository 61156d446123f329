"""The valtree benchmark: one workload, untraced or traced, from a seed.

    python3 valbench/run.py --workload {suite,meet-deep,cli-mix} \\
        --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; it imports the library from ``src/``.
Load is a single closed-loop client in one process with no worker threads.
Every round runs in a fresh interpreter (``round.py``), so each round pays
cold caches exactly as a user's process does; timed rounds repeat the same op
list until about ``--seconds`` of rounds have run (at least two).  Times
are averaged over all rounds (wall time and throughput) or pooled over all
ops of all rounds (latency percentiles).  Set-up is also timed in extra
set-up-only processes.  A check round verifies every output outside its
timed region, and each timed op must match it.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates two
untraced and two traced rounds and prints the per-layer metrics.  Either way the
last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; a full report goes to
``.valbench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".valbench_work")
sys.path.insert(0, HERE)

import inputs  # noqa: E402

WORKLOADS = ("suite", "meet-deep", "cli-mix")
# input properties an optimisation may depend on, as {value: count} histograms
INPUT_PROPERTIES = ("levels", "alternations", "poly_terms", "poly_degree", "tree_nodes")
MIN_ROUNDS = 2
SETUP_PROBES = 2
CLI_PROBES = 5
# workloads whose check round runs the ops exactly as a timed round does
CHECK_IS_TIMED = ("meet-deep",)
TRACE_PAIRS = 2  # alternating untraced and traced rounds for trace.overhead_pct
BUDGET_S = 165  # the whole run must end well inside 180 s


class RoundFailed(RuntimeError):
    pass


def spawn_round(cfg: Dict, deadline: float) -> Dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RoundFailed("time budget used up before the round started")
    env = dict(os.environ, PYTHONPATH=SRC)
    t_spawn = time.monotonic()
    cfg = dict(cfg, workdir=WORKDIR, t_spawn=t_spawn)
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "round.py"), json.dumps(cfg)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env, cwd=ROOT,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RoundFailed(f"{cfg['mode']} round exceeded the time budget")
    if proc.returncode != 0 or not out.strip():
        raise RoundFailed(f"{cfg['mode']} round exited {proc.returncode}: {err[-2000:]}")
    result = json.loads(out.strip().splitlines()[-1])
    result["t_round"] = time.monotonic() - t_spawn
    return result


def median_time(argv: List[str], n: int) -> float:
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for _ in range(n):
        t0 = time.perf_counter()
        subprocess.run(argv, env=env, cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=60)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def quantile(values: List[float], q: int) -> float:
    """The q-th percentile (q in 1..99) by statistics.quantiles, inclusive."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def environment() -> Dict:
    try:
        # the ceiling keeps git from reporting a repository above the checkout
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    h = hashlib.sha1()
    pkg = os.path.join(SRC, "valtree")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + fh.read())
    return {
        "commit": commit,
        "src_sha1": h.hexdigest()[:12],
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
    }


def summarize(values: Dict) -> Dict:
    """A histogram {value: count} reduced to n, p50, p90 and max."""
    flat = sorted(float(k) for k, c in values.items() for _ in range(c))
    if not flat:
        return {"n": 0, "p50": 0.0, "p90": 0.0, "max": 0.0}
    return {"n": len(flat), "p50": quantile(flat, 50), "p90": quantile(flat, 90),
            "max": flat[-1]}


def count_failures(timed: List[Dict], checked: Dict) -> int:
    """Failed timed ops: reported by their round, flagged by the check round,
    or answered differently from the check round (compared by digest)."""
    reference = checked["digests"]
    wrong = set(checked["failed"])
    failed = 0
    for r in timed:
        bad = set(r["failed"]) | wrong
        bad |= {i for i, (d, ref) in enumerate(zip(r["digests"], reference)) if d != ref}
        failed += len(bad)
    return failed


# ---------------------------------------------------------------------------
# the two modes
# ---------------------------------------------------------------------------


def check_round(base: Dict, rounds: List[Dict], deadline: float) -> Dict:
    """The untimed round that verifies outputs; the criteria check themselves,
    so for ``suite`` the first timed round is the reference."""
    if base["workload"] == "suite":
        return rounds[0]
    return spawn_round(dict(base, mode="check"), deadline)


def untraced(args, deadline: float):
    base = {"workload": args.workload, "seed": args.seed}
    setups = [spawn_round(dict(base, mode="setup"), deadline)["setup_s"]
              for _ in range(SETUP_PROBES)]
    rounds: List[Dict] = []
    checked = None
    if args.workload in CHECK_IS_TIMED:
        # the check round runs the ops untraced in a fresh process, as any
        # timed round does, and checks them after its timed region
        checked = check_round(base, rounds, deadline)
        rounds.append(checked)
    elapsed = sum(r["t_round"] - r["check_s"] for r in rounds)
    # start another round while it would end nearer the target than not
    while len(rounds) < MIN_ROUNDS or elapsed + elapsed / len(rounds) / 2 < args.seconds:
        if rounds and time.monotonic() + 1.5 * max(r["t_round"] for r in rounds) > deadline:
            break
        rounds.append(spawn_round(dict(base, mode="round"), deadline))
        elapsed += rounds[-1]["t_round"]
    if checked is None:
        checked = check_round(base, rounds, deadline)
    setups += [r["setup_s"] for r in rounds]
    latencies = [x for r in rounds for x in r["latencies_s"]]
    n_ops = len(rounds[0]["latencies_s"])
    total_wall = sum(r["wall_s"] for r in rounds)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (total_wall / len(rounds), "s"),
        "ops_per_s": (n_ops * len(rounds) / total_wall, "1/s"),
        "latency_p50_ms": (1000 * quantile(latencies, 50), "ms"),
        "latency_p90_ms": (1000 * quantile(latencies, 90), "ms"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in rounds), "MB"),
    }
    notes = {
        "setup_s": f"median of {len(setups)} set-ups",
        "wall_s": f"mean of {len(rounds)} rounds of {n_ops} ops",
        "ops_per_s": f"over {len(rounds)} rounds",
        "latency_p50_ms": f"n={len(latencies)}",
        "latency_p90_ms": f"n={len(latencies)}",
        "peak_rss_mb": "largest child" if args.workload == "cli-mix" else "round process",
    }
    report = {"rounds": rounds, "check_round": checked, "setups": setups}
    return metrics, notes, rounds, checked, report


def traced(args, deadline: float):
    base = {"workload": args.workload, "seed": args.seed}
    # cli-mix traces its calls replayed in-process, so its untraced side is
    # the in-process replay of the check round, not the subprocess calls
    cli = args.workload == "cli-mix"
    plains, traceds = [], []
    for k in range(TRACE_PAIRS):
        plains.append(spawn_round(dict(base, mode="check" if cli else "round"), deadline))
        traceds.append(spawn_round(dict(base, mode="traced", index=k), deadline))
    plain, traced_round = plains[0], traceds[0]
    checked = plain if cli else check_round(base, [plain], deadline)
    metrics: Dict[str, tuple] = {}
    for name, m in traced_round["trace"].items():
        metrics[f"{name}.calls"] = (m["calls"], "count")
        metrics[f"{name}.self_s"] = (m["self_s"], "s")
        metrics[f"{name}.errors"] = (m["errors"], "count")
    cache = traced_round["cache"]
    metrics["cache.entries"] = (cache["entries"], "count")
    metrics["cache.hits"] = (cache["hits"], "count")
    metrics["cache.misses"] = (cache["misses"], "count")
    metrics["cache.hit_ratio"] = (cache["hit_ratio"], "ratio")

    report_in = traced_round["input"]
    levels = summarize(report_in.get("levels", {}))
    metrics["input.chain_levels_p50"] = (levels["p50"], "levels")
    metrics["input.chain_levels_max"] = (levels["max"], "levels")
    metrics["input.repeat_share"] = (report_in.get("repeat_share", 0.0), "ratio")
    metrics["input.poly_terms"] = (summarize(report_in.get("poly_terms", {}))["p50"], "terms")
    metrics["input.poly_degree"] = (summarize(report_in.get("poly_degree", {}))["p50"], "degree")
    metrics["input.tree_nodes"] = (summarize(report_in.get("tree_nodes", {}))["p50"], "nodes")

    for n in range(1, 16):
        value = plain["criterion_s"][n - 1] if args.workload == "suite" else 0.0
        metrics[f"suites.criterion_{n}_s"] = (value, "s")

    python = [sys.executable]
    interp = median_time(python + ["-c", "pass"], CLI_PROBES)
    imported = median_time(python + ["-c", "import valtree.cli"], CLI_PROBES)
    metrics["cli.interp_s"] = (interp, "s")
    metrics["cli.import_s"] = (imported - interp, "s")
    replay = [x for r in plains for x in r["latencies_s"]]
    metrics["cli.main_s"] = (statistics.median(replay) if cli else 0.0, "s")

    untraced_wall = statistics.median(r["wall_s"] for r in plains)
    traced_wall = statistics.median(r["wall_s"] for r in traceds)
    self_sum = sum(m["self_s"] for m in traced_round["trace"].values())
    metrics["trace.overhead_pct"] = (100 * (traced_wall / untraced_wall - 1), "%")
    metrics["trace.wall_s"] = (traced_round["wall_s"], "s")
    metrics["trace.self_sum_s"] = (self_sum, "s")

    buckets: Dict[str, List[float]] = {name: [] for name, _, _ in inputs.LEVEL_BUCKETS}
    for b, lat in zip(plain.get("buckets", []), plain["latencies_s"]):
        buckets[b].append(lat)
    for name, lats in buckets.items():
        value = 1000 * statistics.median(lats) if lats else 0.0
        metrics[f"scaling.latency_p50_ms.levels_{name}"] = (value, "ms")

    notes = {
        "trace.overhead_pct": f"median of {TRACE_PAIRS} traced against {TRACE_PAIRS} untraced rounds",
        "trace.self_sum_s": f"must not exceed trace.wall_s = {traced_round['wall_s']:.4f}",
    }
    timed = plains + traceds
    report = {"rounds": timed, "check_round": checked}
    return metrics, notes, timed, checked, report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "valtree", "__init__.py")):
        print(f"error: no valtree package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    os.makedirs(WORKDIR, exist_ok=True)
    deadline = time.monotonic() + BUDGET_S
    env = environment()
    try:
        mode = traced if args.trace else untraced
        metrics, notes, timed, checked, report = mode(args, deadline)
    except (RoundFailed, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(len(r["latencies_s"]) for r in timed)
    failed = count_failures(timed, checked)
    print(f"valbench {args.workload} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds:g}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print("load: 1 closed-loop client, 1 process, no worker threads; "
          "rounds in fresh interpreters")
    width = max(len(k) for k in metrics)
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<{width}} = {value:.6g} {unit}{note}")
    print(f"  {'error_rate':<{width}} = {failed / attempted:.6g}  "
          f"({failed} failed / {attempted} attempted)")
    for r in {id(r): r for r in timed + [checked]}.values():
        for line in r["errors"][:5]:
            print(f"  error: {line}")
    report_in = timed[-1]["input"]
    if report_in:
        parts = [f"{k} {summarize(report_in[k])}" for k in INPUT_PROPERTIES if k in report_in]
        print(f"inputs ({report_in['source']}): repeat_share={report_in['repeat_share']:.4g}; "
              + "; ".join(parts))
        report["input"] = report_in

    values = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    report.update(env=env, args=vars(args), attempted=attempted, failed=failed, metrics=values)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(WORKDIR, name), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print(f"report: .valbench_work/{name}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": values,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
