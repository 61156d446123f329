"""One round of a benchmark workload, run in a fresh interpreter.

``run.py`` starts this script once per round with a JSON config as its only
argument.  The round sets up (imports, input generation, temp files,
warm-up), runs the workload's fixed op list as a single closed-loop client,
optionally checks every output, and prints one JSON object on its last line.

Config keys: ``workload``, ``seed``, ``t_spawn`` (the parent's
``time.monotonic()`` just before it started this process), ``workdir``
(scratch space inside the checkout) and ``mode``: ``"setup"`` stops after
set-up, ``"round"`` runs the ops untraced, ``"check"`` runs them and then
verifies every output (``cli-mix`` replays its calls in-process there), and
``"traced"`` runs them under ``tracer.Tracer`` (with ``index``, which numbers
the traced rounds of a run in the spans file name).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from collections import Counter
from fractions import Fraction
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import inputs  # noqa: E402

SRC = os.path.join(os.path.dirname(HERE), "src")
MIRROR = {"LT": "GT", "GT": "LT", "EQ": "EQ", "INCOMPARABLE": "INCOMPARABLE"}


def cache_stats() -> Dict[str, float]:
    """Sum cache_info() over every cache object found in valtree.* modules."""
    seen = {}
    for name, module in list(sys.modules.items()):
        if name != "valtree" and not name.startswith("valtree."):
            continue
        for value in list(vars(module).values()):
            while value is not None and not hasattr(value, "cache_info"):
                value = getattr(value, "__wrapped__", None)
            if value is not None:
                seen[id(value)] = value
    hits = misses = entries = 0
    for obj in seen.values():
        info = obj.cache_info()
        hits, misses, entries = hits + info.hits, misses + info.misses, entries + info.currsize
    return {
        "entries": entries,
        "hits": hits,
        "misses": misses,
        "hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
    }


def clear_caches() -> None:
    for name, module in list(sys.modules.items()):
        if name == "valtree" or name.startswith("valtree."):
            for value in list(vars(module).values()):
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


def chain_levels(nu) -> int:
    """Canonical chain length of a program: its steps plus the Euclid walk
    of its weights (just the steps when a weight is infinite)."""
    w1, w2 = nu.weights
    if not (isinstance(w1, Fraction) and isinstance(w2, Fraction)):
        return len(nu.steps)
    return len(nu.steps) + len(inputs.euclid_centers(w1, w2))


def digest(payload) -> Optional[str]:
    if payload is None:
        return None
    return hashlib.sha1(json.dumps(payload, sort_keys=True).encode()).hexdigest()


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Suite:
    """The fifteen acceptance criteria at scale=1.0.

    One op is a whole pass over them, as ``valtree suite all`` runs it: with
    only fifteen criteria of very unequal length, per-criterion latencies
    are too few and too uneven to give a steady percentile.  Each criterion
    is timed as well, for the per-layer report.
    """

    def setup(self, seed: int, workdir: str) -> None:
        import valtree.suites as suites

        self.suites = suites
        self.seed = seed
        self.ops = ["all"]
        self.criterion_s: List[float] = []
        self.observed = {"levels": Counter(), "poly_terms": Counter(),
                         "poly_degree": Counter(), "tree_nodes": Counter()}
        self.evaluate_calls = 0
        self.evaluate_repeats = 0

    def run_op(self, _):
        results = []
        for criterion in self.suites.ALL_CRITERIA:
            t0 = time.perf_counter()
            r = criterion(self.seed, 1.0)
            self.criterion_s.append(time.perf_counter() - t0)
            results.append([r.criterion, r.passed, r.detail])
        results.sort(key=lambda r: r[1])  # failures first, for the error line
        return all(r[1] for r in results), results

    def observers(self):
        """Record the inputs the criteria hand to the layers (traced run only)."""
        seen_vals = set()
        seen_trees = set()
        obs = self.observed

        def on_evaluate(nu, phi, *rest):
            self.evaluate_calls += 1
            if nu in seen_vals:
                self.evaluate_repeats += 1
            else:
                seen_vals.add(nu)
                obs["levels"][chain_levels(nu)] += 1
            obs["poly_terms"][len(phi.terms)] += 1
            if phi.terms:
                obs["poly_degree"][max(r + s for r, s in phi.terms)] += 1

        def on_tree(tree):
            if tree not in seen_trees:  # by identity; the set keeps it alive
                seen_trees.add(tree)
                obs["tree_nodes"][len(tree.edges) + 1] += 1

        return {
            "valuation.eval.evaluate": on_evaluate,
            "tree.t_meet": lambda p, q, *rest: on_tree(p.tree),
            "tree.t_dpsi": lambda psi, p, q, *rest: on_tree(p.tree),
            "tree.tree_axiom_report": lambda tree, *rest: on_tree(tree),
        }

    def input_report(self) -> Dict:
        report = {k: dict(v) for k, v in self.observed.items()}
        calls = self.evaluate_calls
        report["repeat_share"] = self.evaluate_repeats / calls if calls else 0.0
        report["source"] = "arguments of evaluate and the tree functions, traced run"
        return report


class MeetDeep:
    """Pairs of valuations fresh to the process: parse, normalize, meet, compare."""

    def setup(self, seed: int, workdir: str) -> None:
        from valtree import jsonio, testkit, valuation

        self.J, self.V, self.T = jsonio, valuation, testkit
        self.ops = inputs.meet_pairs(seed)
        x, y = valuation.BivarPoly.var_x(), valuation.BivarPoly.var_y()
        self.probes = (x, y, x + y, x - y, x * y)

    def run_op(self, pair):
        J, V = self.J, self.V
        nu = V.normalize(J.valuation_from_json(pair["nu"]["doc"]))
        mu = V.normalize(J.valuation_from_json(pair["mu"]["doc"]))
        w = V.meet(nu, mu)
        word = V.compare(nu, mu).value
        return True, [J.canonical_to_json(V.canonicalize(w)), word]

    def check(self, outputs) -> Dict[int, str]:
        """Re-derive each answer with every cache emptied first.

        The swapped meet must give the same canonical JSON and the swapped
        compare the mirrored word; the word must agree with the canonical
        forms; the meet must lie below both inputs on probe polynomials by
        literal substitution (``evaluate_naive``); and each input's stream
        must follow the subtractive oracle once its prefix is used up.
        """
        clear_caches()
        bad = {}
        for i, (pair, out) in enumerate(zip(self.ops, outputs)):
            if out is None:
                continue
            try:
                why = self._check_pair(pair, out)
            except Exception as exc:  # a check that raises fails the op
                why = f"check raised {type(exc).__name__}: {str(exc)[:200]}"
            if why:
                bad[i] = why
        return bad

    def _check_pair(self, pair, out) -> Optional[str]:
        J, V = self.J, self.V
        canon, word = out
        nu = V.normalize(J.valuation_from_json(pair["nu"]["doc"]))
        mu = V.normalize(J.valuation_from_json(pair["mu"]["doc"]))
        if J.canonical_to_json(V.canonicalize(V.meet(mu, nu))) != canon:
            return "meet is not commutative"
        if V.compare(mu, nu).value != MIRROR.get(word):
            return "compare is not antisymmetric"
        c_nu = J.canonical_to_json(V.canonicalize(nu))
        c_mu = J.canonical_to_json(V.canonicalize(mu))
        want = ("EQ" if c_nu == c_mu else "LT" if canon == c_nu
                else "GT" if canon == c_mu else "INCOMPARABLE")
        if word != want:
            return f"compare says {word}, the canonical forms say {want}"
        w = V.from_canonical(J.canonical_from_json(canon))
        for phi in self.probes:
            low = min(V.evaluate_naive(nu, phi), V.evaluate_naive(mu, phi))
            if V.evaluate_naive(w, phi) > low:
                return f"meet is not a lower bound at {phi}"
        if not (self._stream_ok(nu, pair["nu"]) and self._stream_ok(mu, pair["mu"])):
            return "multiplicity stream disagrees with the subtractive oracle"
        return None

    def _stream_ok(self, val, info) -> bool:
        k = len(info["prefix"])
        w1, w2 = val.weights
        centers = inputs.euclid_centers(w1, w2)
        want = self.T.euclid_multiplicity_oracle(w1, w2)
        stream = self.V.multiplicity_stream(val)
        got = [next(stream) for _ in range(k + len(centers) + 1)][k:]
        terminal = got.pop()
        if [str(c) for c, _ in got] != centers or [m for _, m in got] != want:
            return False
        # the walk ends on the pair (g, g); g is its last multiplicity
        return terminal == (self.V.TERMINAL, want[-1] if want else w1)

    def input_report(self) -> Dict:
        levels = Counter()
        seen = set()
        repeats = 0
        for pair in self.ops:
            keys = [json.dumps(pair[s]["doc"], sort_keys=True) for s in ("nu", "mu")]
            repeats += any(k in seen for k in keys)
            seen.update(keys)
            for side in ("nu", "mu"):
                levels[pair[side]["levels"]] += 1
        chains = [pair[s]["chain"] for pair in self.ops for s in ("nu", "mu")]
        return {
            "levels": dict(levels),
            "alternations": dict(Counter(inputs.alternations(c) for c in chains)),
            "shared_prefix_share": sum(p["shared"] for p in self.ops) / len(self.ops),
            "repeat_share": repeats / len(self.ops),
            "poly_terms": {},
            "poly_degree": {},
            "tree_nodes": {},
            "source": "generated op list",
        }


class CliMix:
    """``python -m valtree`` calls, one fresh interpreter at a time."""

    def setup(self, seed: int, workdir: str) -> None:
        calls, files = inputs.cli_calls(seed)
        self.dir = tempfile.mkdtemp(prefix="cli-", dir=workdir)
        for name, doc in files.items():
            with open(os.path.join(self.dir, name), "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
        for call in calls:
            call["argv"] = [
                os.path.join(self.dir, a) if a in files else a for a in call["argv"]
            ]
        self.ops = calls
        self.env = dict(os.environ, PYTHONPATH=SRC)
        self.in_process = False
        # warm-up: byte-compile the package and pull it into the page cache
        self._spawn(["val", "mvalue", "--valuation", '{"weights": ["1", "2"]}'])

    def _spawn(self, argv):
        return subprocess.run(
            [sys.executable, "-m", "valtree", *argv],
            cwd=self.dir, env=self.env, capture_output=True, text=True, timeout=120,
        )

    def _replay(self, argv):
        from valtree import cli

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:  # argparse rejects the argv
                code = exc.code
        return code, out.getvalue()

    def run_op(self, call):
        if self.in_process:
            code, stdout = self._replay(call["argv"])
        else:
            proc = self._spawn(call["argv"])
            code, stdout = proc.returncode, proc.stdout
        return code == 0, [code, stdout]

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    def check(self, outputs) -> Dict[int, str]:
        """Exit code 0, JSON that re-parses to an equal object, and canonical
        forms that round-trip.  The parent compares these in-process outputs
        with the subprocess ones of the timed rounds."""
        from valtree import jsonio

        bad = {}
        for i, (call, out) in enumerate(zip(self.ops, outputs)):
            if out is None:
                continue
            code, stdout = out
            kind = call["kind"]
            if code != 0:
                bad[i] = f"exit code {code}"
                continue
            if "--json" not in call["argv"] and kind not in ("val inf", "val canon"):
                continue
            try:
                docs = [json.loads(line) for line in stdout.splitlines() if line]
                if not docs or any(json.loads(json.dumps(d)) != d for d in docs):
                    bad[i] = "JSON output does not re-parse to an equal object"
                elif kind in ("val inf", "val canon") and any(
                    jsonio.canonical_to_json(jsonio.canonical_from_json(d)) != d for d in docs
                ):
                    bad[i] = "canonical form does not round-trip"
            except ValueError as exc:  # unparsable JSON or a malformed form
                bad[i] = f"{type(exc).__name__}: {str(exc)[:200]}"
        return bad

    def input_report(self) -> Dict:
        out = {k: Counter() for k in ("levels", "poly_terms", "poly_degree", "tree_nodes")}
        for call in self.ops:
            for key, counter in out.items():
                counter.update(call[key])
        report = {k: dict(v) for k, v in out.items()}
        report["kinds"] = dict(Counter(c["kind"] for c in self.ops))
        report["repeat_share"] = 0.0  # every call is a fresh interpreter
        report["source"] = "generated op list"
        return report

    def cleanup(self) -> None:
        if hasattr(self, "dir"):
            shutil.rmtree(self.dir, ignore_errors=True)


WORKLOADS = {"suite": Suite, "meet-deep": MeetDeep, "cli-mix": CliMix}


# ---------------------------------------------------------------------------
# the round
# ---------------------------------------------------------------------------


def main() -> int:
    cfg = json.loads(sys.argv[1])
    wl = WORKLOADS[cfg["workload"]]()
    try:
        wl.setup(cfg["seed"], cfg["workdir"])
        if cfg["mode"] == "setup":
            result = {"setup_s": time.monotonic() - cfg["t_spawn"]}
        else:
            result = run_ops(wl, cfg)
    finally:
        if hasattr(wl, "cleanup"):
            wl.cleanup()
    print(json.dumps(result))
    return 0


def run_ops(wl, cfg) -> Dict:
    traced = cfg["mode"] == "traced"
    if isinstance(wl, CliMix):
        wl.in_process = cfg["mode"] in ("check", "traced")
    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer(getattr(wl, "observers", lambda: {})())
        tracer.install()
    setup_s = time.monotonic() - cfg["t_spawn"]
    latencies, outputs, failed, errors = [], [], set(), []
    start = time.perf_counter()
    for i, op in enumerate(wl.ops):
        t0 = time.perf_counter()
        try:
            ok, out = wl.run_op(op)
        except Exception as exc:  # RecursionError included: count it, go on
            ok, out = False, None
            errors.append(f"op {i}: {type(exc).__name__}: {str(exc)[:200]}")
        latencies.append(time.perf_counter() - t0)
        outputs.append(out)
        if not ok:
            failed.add(i)
            if out is not None:
                errors.append(f"op {i}: {str(out)[:200]}")
    wall_s = time.perf_counter() - start
    if hasattr(wl, "peak_rss_kb"):
        rss_kb = wl.peak_rss_kb()
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    caches = cache_stats()
    if tracer is not None:
        tracer.uninstall()
    check_start = time.perf_counter()
    if cfg["mode"] == "check":
        for i, why in wl.check(outputs).items():
            failed.add(i)
            errors.append(f"op {i}: {why}")
    check_s = time.perf_counter() - check_start
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "check_s": check_s,
        "latencies_s": latencies,
        "digests": [digest(out) for out in outputs],
        "failed": sorted(failed),
        "errors": errors[:20],
        "peak_rss_mb": rss_kb / 1024,
        "cache": caches,
        "input": wl.input_report() if (traced or not isinstance(wl, Suite)) else {},
    }
    if isinstance(wl, MeetDeep):
        result["buckets"] = [pair["bucket"] for pair in wl.ops]
    if isinstance(wl, Suite):
        result["criterion_s"] = wl.criterion_s
    if tracer is not None:
        result["trace"] = tracer.metrics()
        name = f"{cfg['workload']}-seed{cfg['seed']}-traced{cfg['index']}.spans.jsonl"
        tracer.write_spans(os.path.join(cfg["workdir"], name))
        result["spans_file"] = name
        result["spans_dropped"] = tracer.dropped
    return result


if __name__ == "__main__":
    sys.exit(main())
