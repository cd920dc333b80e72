#!/usr/bin/env python3
"""Decide-and-verify benchmark for ncvanish.

    python3 perfbench/run.py --workload {ideals,points,cli} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
`src/`.  The command starts one fresh interpreter per set-up probe and one
for the measured run, one after another, and waits for each.  The measured
run repeats whole rounds of its workload's cases, closed loop (each
operation starts when the previous one returns), for S seconds.

With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics; with --trace 1 the run alternates untraced rounds and
rounds under span wrappers (tracing.py) and reports per-layer metrics per
traced round, plus the tracing overhead per round.  Lines before the last one give
the operations attempted and failed per stream and the sha256 over the
certificate documents one round produced.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_PROBES = 4
CHILD_TIMEOUT_S = 170
# end-to-end figures are medians over blocks of whole rounds, each block
# holding at least this many operations per stream
BLOCK_OPS = 100
SINGLE_THREAD = {
    name: "1"
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
}

END_TO_END = [
    ("setup_s", "s"), ("decide_per_s", "1/s"), ("decide_p50_ms", "ms"), ("decide_p90_ms", "ms"),
    ("verify_per_s", "1/s"), ("verify_p50_ms", "ms"), ("verify_p90_ms", "ms"), ("peak_rss_mb", "MB"),
]
# span prefixes reported as <prefix>_calls and <prefix>_s
SPAN_METRICS = {
    "certify.rref_insert": ("calls", "s"), "certify.rref_reduce": ("s",),
    "certify.weak_basis": ("s",), "certify.engine": ("s",),
    "linalg.matmul": ("calls", "s"), "linalg.elementwise": ("s",),
    "linalg.rank_det_kernel": ("calls", "s"), "linalg.solve_span": ("s",),
    "evaluate.eval_poly": ("calls", "s"), "evaluate.eval_poly_vector": ("calls", "s"),
    "evaluate.classify_point": ("s",), "evaluate.from_json": ("s",), "evaluate.pi_test": ("s",),
    "poly.parse": ("calls", "s"), "poly.mul": ("calls", "s"),
    "lowrank.search": ("s",), "lowrank.rank_profile": ("s",),
    "factorization.factor": ("s",), "factorization.stable_assoc": ("s",),
    "factorization.detzero": ("s",),
    "serialize.encode": ("s",), "serialize.verify": ("s",), "serialize.io": ("s",),
    "cli.dispatch": ("s",),
}
WITNESS_KINDS = ("left_witness", "hom_witness", "span_witness")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("ideals", "points", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("main", "setup", "measure"), default="main",
                        help=argparse.SUPPRESS)
    parser.add_argument("--spawned", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.role == "main":
        return drive(args)
    return child(args)


# ---------------------------------------------------------------------------
# Parent: set-up probes, the measured run, the report
# ---------------------------------------------------------------------------


def spawn(args, role: str) -> dict:
    """Run one child interpreter to its end; its last stdout line is JSON."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--role", role, "--spawned", repr(time.monotonic())]
    env = dict(os.environ, **SINGLE_THREAD)
    proc = subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{role} child exited with {proc.returncode}")
    return json.loads(lines[-1])


def drive(args) -> int:
    if not os.path.isfile(os.path.join(SRC, "ncvanish", "__init__.py")):
        print(f"error: no ncvanish sources under {SRC}", file=sys.stderr)
        return 2
    try:
        setups = [spawn(args, "setup")["setup_s"] for _ in range(SETUP_PROBES)]
        run = spawn(args, "measure")
    except (RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(run["setup_s"])
    for error in run["errors"]:
        print(f"CHECK FAILED: {error}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}: {run['rounds']} rounds "
          f"({run['traced_rounds']} traced), setup samples "
          + " ".join(f"{s:.4f}" for s in setups))
    for stream in ("decide", "verify"):
        print(f"stream {stream}: attempted {run['attempted'][stream]} "
              f"failed {run['failed'][stream]}")
    print(f"corpus_sha256 {args.workload} {run['digest']}")
    if args.trace:
        metrics = run["per_layer"]
    else:
        values = dict(run["end_to_end"], setup_s=statistics.median(setups))
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    print(json.dumps({
        "correct": not run["errors"],
        "attempted": sum(run["attempted"].values()),
        "failed": sum(run["failed"].values()),
        "metrics": metrics,
    }))
    return 0


# ---------------------------------------------------------------------------
# Children
# ---------------------------------------------------------------------------


def load_workload(args):
    """Import ncvanish from this checkout and build the seeded inputs."""
    sys.path.insert(0, SRC)
    import ncvanish

    if os.path.dirname(os.path.abspath(ncvanish.__file__)) != os.path.join(SRC, "ncvanish"):
        raise RuntimeError(f"ncvanish imported from {ncvanish.__file__}, not {SRC}")
    import workloads

    return workloads.WORKLOADS[args.workload](args.seed, ROOT)


def child(args) -> int:
    workload = load_workload(args)
    if args.role == "setup":
        result = {"setup_s": time.monotonic() - args.spawned}
        workload.cleanup()
        print(json.dumps(result))
        return 0
    setup_s = time.monotonic() - args.spawned
    runner = Runner(workload)
    try:
        result = runner.measure(args.seconds, bool(args.trace))
    finally:
        workload.cleanup()
    result["setup_s"] = setup_s
    if args.trace:
        # the full span table, per traced round, for a reader of the trace
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        path = os.path.join(HERE, "out", f"trace-{args.workload}-{args.seed}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(result.pop("spans"), handle, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


class Runner:
    """Rounds of one workload's cases; latencies, counts and checks."""

    def __init__(self, workload) -> None:
        self.workload = workload
        # per round, per stream: the latency of every operation
        self.latency: List[Dict[str, List[float]]] = []
        self.attempted = {"decide": 0, "verify": 0}
        self.failed = {"decide": 0, "verify": 0}
        self.errors: List[str] = []
        self.reference: Optional[List[str]] = None

    def error(self, case, message: str) -> None:
        if len(self.errors) < 50:
            self.errors.append(f"{self.workload.name}/{case.label}: {message}")

    def round(self) -> float:
        """One pass over every case; returns the time spent in operations."""
        busy = 0.0
        texts = []
        latency: Dict[str, List[float]] = {"decide": [], "verify": []}
        self.latency.append(latency)
        for case in self.workload.cases:
            text = case.forged_text
            if case.decide is not None:
                self.attempted["decide"] += 1
                start = time.perf_counter()
                try:
                    value = case.decide()
                except Exception as exc:  # a crash is a failed operation, reported
                    self.failed["decide"] += 1
                    self.error(case, f"decide raised {exc!r}")
                    texts.append(None)
                    continue
                elapsed = time.perf_counter() - start
                busy += elapsed
                latency["decide"].append(elapsed)
                try:
                    text = case.document(value)
                except (OSError, RuntimeError) as exc:  # a failed command
                    self.failed["decide"] += 1
                    self.error(case, str(exc))
                    texts.append(None)
                    continue
            self.attempted["verify"] += 1
            start = time.perf_counter()
            try:
                ok = case.verify(text)
            except Exception as exc:  # a crash is a failed operation, reported
                ok = None
                self.error(case, f"verify raised {exc!r}")
            elapsed = time.perf_counter() - start
            busy += elapsed
            latency["verify"].append(elapsed)
            if case.forged_text is not None:
                if ok is not False:  # the forged document was not rejected
                    self.failed["verify"] += 1
            elif not ok:
                self.failed["verify"] += 1
                self.error(case, "the verifier rejected the document")
            texts.append(text)
        if self.reference is None:
            self.reference = texts
        elif texts != self.reference:
            changed = [c.label for c, a, b in zip(self.workload.cases, texts, self.reference) if a != b]
            self.error(self.workload.cases[0], f"documents changed between rounds: {changed[:5]}")
        return busy

    def rounds_for(self, seconds: float) -> List[float]:
        """Whole rounds until the time is up; at least one."""
        busy = []
        start = time.perf_counter()
        while not busy or time.perf_counter() - start < seconds:
            busy.append(self.round())
        return busy

    def measure(self, seconds: float, trace: bool) -> dict:
        untraced: List[float] = []
        traced: List[float] = []
        if trace:
            # untraced and traced rounds alternate, so the overhead estimate
            # compares rounds run in the same stretch of machine speed
            import tracing

            tracer = tracing.Tracer()
            start = time.perf_counter()
            while not traced or time.perf_counter() - start < seconds:
                untraced.append(self.round())
                tracer.install()
                try:
                    traced.append(self.round())
                finally:
                    tracer.uninstall()
        else:
            untraced = self.rounds_for(seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        self.check_reference()
        result = {
            "rounds": len(untraced) + len(traced),
            "traced_rounds": len(traced),
            "attempted": self.attempted,
            "failed": self.failed,
            "digest": self.digest(),
            "errors": self.errors,
        }
        if trace:
            result["per_layer"] = self.per_layer(tracer.stats, traced, untraced)
            result["spans"] = {name: {"calls": calls / len(traced), "self_s": self_s / len(traced),
                                      "total_s": total_s / len(traced)}
                               for name, (calls, self_s, total_s) in tracer.stats.items()}
        else:
            result["end_to_end"] = self.end_to_end(peak_rss_mb)
        return result

    # -- checks and reports ----------------------------------------------------

    def check_reference(self) -> None:
        """Independent checks and mutations on the first round's documents."""
        from workloads import mutate_document

        for case, text in zip(self.workload.cases, self.reference):
            if text is None:
                continue
            doc = json.loads(text)
            try:
                messages = case.check(doc)
            except (KeyError, TypeError, ValueError, IndexError) as exc:  # a malformed answer
                messages = [f"the check could not read the document: {exc!r}"]
            for message in messages:
                self.error(case, message)
            if case.forged_text is not None:
                continue
            mutant = mutate_document(doc)
            if mutant is not None and self.workload.accepts(mutant):
                self.error(case, "a one-field mutation of the document was accepted")

    def decided_texts(self) -> List[str]:
        return [t for c, t in zip(self.workload.cases, self.reference)
                if t is not None and c.forged_text is None]

    def digest(self) -> str:
        h = hashlib.sha256()
        for text in self.decided_texts():
            h.update(text.encode("utf-8"))
        return h.hexdigest()

    def blocks(self) -> List[Dict[str, List[float]]]:
        """Consecutive rounds merged until every stream has BLOCK_OPS
        latencies; a short tail joins the last block."""
        blocks: List[Dict[str, List[float]]] = []
        current: Dict[str, List[float]] = {"decide": [], "verify": []}
        for latency in self.latency:
            for stream, values in latency.items():
                current[stream].extend(values)
            if min(len(v) for v in current.values()) >= BLOCK_OPS:
                blocks.append(current)
                current = {"decide": [], "verify": []}
        if not blocks:
            return [current]
        for stream, values in current.items():
            blocks[-1][stream].extend(values)
        return blocks

    def end_to_end(self, peak_rss_mb: float) -> dict:
        """Throughput and latency quantiles per block, median over blocks."""
        per_block: Dict[str, List[float]] = {}
        for block in self.blocks():
            for stream, lat in block.items():
                per_block.setdefault(f"{stream}_per_s", []).append(len(lat) / sum(lat))
                per_block.setdefault(f"{stream}_p50_ms", []).append(1000 * statistics.median(lat))
                per_block.setdefault(f"{stream}_p90_ms", []).append(
                    1000 * statistics.quantiles(lat, n=10)[-1])
        out = {name: statistics.median(values) for name, values in per_block.items()}
        out["peak_rss_mb"] = peak_rss_mb
        return out

    def per_layer(self, stats: dict, traced: List[float], untraced: List[float]) -> dict:
        """Per round: span counts and self times, document sizes, overhead."""
        rounds = len(traced)
        out = {}
        for prefix, kinds in SPAN_METRICS.items():
            calls, self_s, _ = stats.get(prefix, (0, 0.0, 0.0))
            if "calls" in kinds:
                if calls % rounds:
                    self.errors.append(f"{prefix}: {calls} calls over {rounds} rounds")
                out[f"{prefix}_calls"] = {"value": calls // rounds, "unit": "count"}
            out[f"{prefix}_s"] = {"value": self_s / rounds, "unit": "s"}
        docs = [json.loads(t)["certificate"] for t in self.decided_texts()]
        witnesses = [c["point"] for c in docs if c["kind"] in WITNESS_KINDS]
        sizes = {
            "certify.witness_dim_max": max((p["n"] for p in witnesses), default=0),
            "certify.witness_entries": sum(p["d"] * p["n"] ** 2 for p in witnesses),
            "certify.witness_nonzeros": sum(e != "0" for p in witnesses for m in p["matrices"]
                                            for row in m for e in row),
            "serialize.cert_bytes": sum(len(t.encode("utf-8")) for t in self.decided_texts()),
        }
        for name, value in sizes.items():
            out[name] = {"value": value, "unit": "bytes" if name.endswith("bytes") else "count"}
        calls, _, _ = stats.get("lowrank.iterations", (0, 0.0, 0.0))
        out["lowrank.iterations"] = {"value": calls // rounds, "unit": "count"}
        out["trace.overhead_s"] = {
            "value": statistics.mean(traced) - statistics.mean(untraced), "unit": "s"}
        return out


if __name__ == "__main__":
    sys.exit(main())
