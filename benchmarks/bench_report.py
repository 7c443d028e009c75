"""Benchmark driver for the PBE engine's hot path.

The one engine benchmark driver (it subsumes the former
``bench_engine_micro.py`` pytest-benchmark file, now removed): the
approximation check, symbolic-constant inference (plus a heavier variant with
three symbolic integers that exercises the solver's propagation and
incremental re-solving), the full Section-2 motivating-example sketch
completion, a ``service_roundtrip`` workload that solves one problem over
the live HTTP service cold and then from the persistent result cache, and a
``corpus_throughput`` workload that bulk-ingests problems generated from the
committed sample corpus through ``POST /v1/batch`` cold and warm, and a
``fault_overhead`` workload that pins the cost of the dormant fault-injection
points left in the service hot paths (see ``repro.faults``), all without
requiring pytest-benchmark.  The numbers are written to a JSON report
(``BENCH_engine.json`` at the repository root by default).

The report accumulates labelled *snapshots* so a before/after trajectory can
be committed alongside the code that produced it::

    python benchmarks/bench_report.py --label before --out BENCH_engine.json
    ... change the engine ...
    python benchmarks/bench_report.py --label after --out BENCH_engine.json \
        --baseline BENCH_engine.json

When the report contains both a ``before`` and an ``after`` snapshot, a
``comparison`` section with per-workload speedups is recomputed on every run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

from repro.dsl import Concat, LET, NUM, Optional, RepeatRange, literal
from repro.sketch import parse_sketch
from repro.synthesis import (
    Examples,
    PLeaf,
    POp,
    SymInt,
    SynthesisConfig,
    Synthesizer,
    infeasible,
    infer_constants,
    initial_partial,
)

_POSITIVES = ["123456789.123", "123456789123456.12", "12345.1", "123456789123456"]
_NEGATIVES = ["1234567891234567", "123.1234", "1.12345", ".1234"]
_CONFIG = SynthesisConfig(hole_depth=2, timeout=15.0)

_APPROX_SKETCH = "Concat(Hole(<num>,<,>),Hole(RepeatRange(<num>,1,3),<,>))"
_FULL_SKETCH = (
    "Concat(Hole(RepeatRange(<num>,1,15)),"
    "Hole(Optional(Concat(<.>,RepeatRange(<num>,1,3)))))"
)


def _examples() -> Examples:
    return Examples(_POSITIVES, _NEGATIVES)


def _symbolic_partial() -> POp:
    return POp(
        "Concat",
        (
            POp("RepeatRange", (PLeaf(NUM),), (1, SymInt("k1"))),
            PLeaf(Optional(Concat(literal("."), RepeatRange(NUM, 1, 3)))),
        ),
    )


#: Heavy constant-inference workload: three symbolic integers in one regex, so
#: the Figure-14 enumeration interleaves blocking clauses over several κ and
#: the solver's decomposition/propagation do real work.
_HEAVY_POSITIVES = ["12-ab12", "12-abc1", "12-a123"]
_HEAVY_NEGATIVES = ["1-ab12", "12-123", "12-abcd"]
_HEAVY_CONFIG = SynthesisConfig(
    hole_depth=2, timeout=30.0, max_kappa=8, max_models_per_symbolic=8
)


def _heavy_symbolic_partial() -> POp:
    return POp(
        "Concat",
        (
            POp("Repeat", (PLeaf(NUM),), (SymInt("k1"),)),
            POp(
                "Concat",
                (
                    PLeaf(literal("-")),
                    POp(
                        "Concat",
                        (
                            POp("RepeatRange", (PLeaf(LET),), (1, SymInt("k2"))),
                            POp("RepeatAtLeast", (PLeaf(NUM),), (SymInt("k3"),)),
                        ),
                    ),
                ),
            ),
        ),
    )


def _time_workload(fn, repeats: int) -> dict:
    """Run ``fn`` (which returns per-iteration extras) ``repeats`` times."""
    times = []
    extras: dict = {}
    for _ in range(repeats):
        start = time.perf_counter()
        extras = fn() or {}
        times.append(time.perf_counter() - start)
    return {
        "seconds_min": min(times),
        "seconds_mean": statistics.fmean(times),
        "repeats": repeats,
        **extras,
    }


def bench_approximation_check(repeats: int, inner: int = 200) -> dict:
    """Approximation-based pruning check on the Figure-9 initial partial."""
    examples = _examples()
    partial = initial_partial(parse_sketch(_APPROX_SKETCH))

    def run():
        for _ in range(inner):
            assert infeasible(partial, examples, _CONFIG) is False
        return {"checks_per_iteration": inner}

    entry = _time_workload(run, repeats)
    entry["seconds_per_check"] = entry["seconds_min"] / inner
    return entry


def bench_constant_inference(repeats: int) -> dict:
    """Length-constraint encoding + symbolic-integer enumeration (Figure 14)."""
    examples = _examples()
    partial = _symbolic_partial()

    def run():
        candidates = infer_constants(partial, examples, _CONFIG)
        assert candidates
        return {"candidates": len(candidates)}

    return _time_workload(run, repeats)


def bench_constant_inference_heavy(repeats: int) -> dict:
    """Figure-14 enumeration with three symbolic integers (κ1, κ2, κ3)."""
    examples = Examples(_HEAVY_POSITIVES, _HEAVY_NEGATIVES)
    partial = _heavy_symbolic_partial()

    def run():
        candidates = infer_constants(partial, examples, _HEAVY_CONFIG)
        assert candidates
        return {"candidates": len(candidates), "symbolic_integers": 3}

    return _time_workload(run, repeats)


def bench_full_sketch_completion(repeats: int) -> dict:
    """Complete the Section-2 motivating-example sketch from scratch."""
    sketch = parse_sketch(_FULL_SKETCH)

    def run():
        result = Synthesizer(_CONFIG).synthesize(sketch, _examples())
        assert result.solved
        return {
            "expansions": result.expansions,
            "pruned": result.pruned,
            "eval_cache_hits": getattr(result, "eval_cache_hits", 0),
            "eval_cache_misses": getattr(result, "eval_cache_misses", 0),
            "approx_cache_hits": getattr(result, "approx_cache_hits", 0),
            "solver_propagations": getattr(result, "solver_propagations", 0),
            "solver_conflicts": getattr(result, "solver_conflicts", 0),
            "encode_cache_hits": getattr(result, "encode_cache_hits", 0),
        }

    entry = _time_workload(run, repeats)
    entry["expansions_per_sec"] = entry["expansions"] / entry["seconds_min"]
    return entry


#: Service-roundtrip problem: slow enough cold (~2 s of portfolio search for
#: three distinct regexes) that the cached second hit shows the full contrast.
_SERVICE_PROBLEM = {
    "description": "one or more letters followed by 3 digits",
    "positive": ["ab123", "x987"],
    "negative": ["123", "ab12", "ab1234"],
    "k": 3,
    "budget": 15.0,
}


def bench_service_roundtrip(repeats: int) -> dict:
    """HTTP solve → cache write-through → cached re-solve, over a live server.

    Starts the `repro.service` HTTP server on an ephemeral port with a fresh
    cache, issues one cold ``POST /v1/solve`` (full portfolio search), then
    ``repeats`` identical requests served from the persistent result cache.
    ``seconds_min`` is the cached-hit latency (the number to track);
    ``cache_speedup`` is cold / cached.
    """
    import tempfile

    from repro.api import Problem
    from repro.service import ServiceClient, ServiceConfig, start_server

    problem = Problem.from_dict(_SERVICE_PROBLEM)
    with tempfile.TemporaryDirectory() as tmp:
        config = ServiceConfig(
            port=0, workers=1, cache_backend="json", cache_path=tmp
        )
        server = start_server(config)
        try:
            host, port = server.server_address[:2]
            client = ServiceClient(f"http://{host}:{port}")
            start = time.perf_counter()
            cold = client.solve(problem)
            cold_seconds = time.perf_counter() - start
            assert cold.provenance == "engine", cold.provenance
            assert cold.solved
            cached_times = []
            for _ in range(max(repeats, 3)):
                start = time.perf_counter()
                hit = client.solve(problem)
                cached_times.append(time.perf_counter() - start)
                assert hit.provenance == "cache", hit.provenance
            cache_stats = client.stats()["cache"]
        finally:
            server.close()
    cached_min = min(cached_times)
    return {
        "seconds_min": cached_min,
        "seconds_mean": statistics.fmean(cached_times),
        "repeats": len(cached_times),
        "cold_seconds": cold_seconds,
        "cache_speedup": cold_seconds / cached_min,
        "cache_hits": cache_stats["hits"],
        "cache_misses": cache_stats["misses"],
        "solutions": len(cold.solutions),
    }


#: Sample-corpus patterns the engine cannot solve within the bench budget.
#: An always-unsolved item would re-run its full budget on the warm pass and
#: turn the throughput numbers into a measurement of the budget, so the
#: workload excludes them (and reports how many it excluded).
_CORPUS_UNSOLVED = {"^(left|right|center)$"}


def bench_corpus_throughput(repeats: int, entries: int = 14) -> dict:
    """Corpus bulk ingestion: generate → ``POST /v1/batch`` cold, then warm.

    Loads the first ``entries`` translatable patterns from the committed
    sample corpus, generates Problems from them (seeded, so the batch is
    identical run to run), ingests them through a live server with a fresh
    cache, then re-ingests the same problems as a second batch.  The warm
    pass should be dominated by cache hits; ``problems_per_sec_warm`` versus
    ``problems_per_sec_cold`` is the number to track.  ``repeats`` is
    ignored beyond the warm pass — a cold solve of the whole batch per
    repeat would swamp the suite.
    """
    import tempfile

    from repro.corpus import GeneratorConfig, generate_problems, load_corpus
    from repro.service import ServiceClient, ServiceConfig, start_server

    corpus = Path(__file__).parent.parent / "tests/fixtures/corpus/sample_corpus.ndjson"
    loaded = load_corpus(corpus, limit=entries)
    generated = generate_problems(
        loaded.entries, GeneratorConfig(seed=0, budget=15.0)
    )
    problems = [
        problem.to_dict()
        for problem in generated.problems
        if problem.description not in _CORPUS_UNSOLVED
    ]
    assert problems, "sample corpus produced no problems"

    def ingest(client: ServiceClient) -> tuple[float, dict]:
        start = time.perf_counter()
        receipt = client.submit_batch(problems)
        summary = client.wait_batch(receipt["batch_id"], timeout=300)
        return time.perf_counter() - start, summary

    with tempfile.TemporaryDirectory() as tmp:
        config = ServiceConfig(
            port=0, workers=2, cache_backend="json", cache_path=tmp
        )
        server = start_server(config)
        try:
            host, port = server.server_address[:2]
            client = ServiceClient(f"http://{host}:{port}")
            cold_seconds, cold_summary = ingest(client)
            warm_seconds, warm_summary = ingest(client)
        finally:
            server.close()
    assert cold_summary["counts"]["failed"] == 0, cold_summary
    assert warm_summary["counts"]["cached"] >= 1, warm_summary
    count = len(problems)
    return {
        "seconds_min": warm_seconds,
        "seconds_mean": warm_seconds,
        "repeats": 1,
        "problems": count,
        "corpus_entries": len(loaded.entries),
        "generator_skips": sum(generated.skipped.values()),
        "excluded_unsolved": len(generated.problems) - count,
        "cold_seconds": cold_seconds,
        "warm_seconds": warm_seconds,
        "problems_per_sec_cold": count / cold_seconds,
        "problems_per_sec_warm": count / warm_seconds,
        "cold_counts": cold_summary["counts"],
        "warm_counts": warm_summary["counts"],
    }


def bench_fault_overhead(repeats: int, inner: int = 100_000) -> dict:
    """Cost of the disabled fault points left compiled into the hot paths.

    The ``repro.faults`` points (``cache.read``, ``batch.persist``, ...) sit
    permanently in the service code; when no ``REPRO_FAULTS`` plan is armed
    they must be a single global load + ``None`` check.  This workload pins
    that down from both ends: ``seconds_per_call`` times the disabled
    ``fault_point`` in a tight loop, ``calls_per_cached_request`` counts how
    many points an in-process cached ``/v1/solve`` hit actually traverses
    (measured with an armed-but-silent ``seed=0`` plan, which counts calls
    without ever firing), and ``overhead_fraction`` is their product over the
    cached-hit latency — the share of the service's fastest request spent on
    dormant instrumentation.  CI asserts it stays under 1%.
    """
    import tempfile

    from repro.faults import configure, fault_point
    from repro.service import ServiceConfig, ServiceState

    configure(None)

    def run():
        for _ in range(inner):
            fault_point("cache.read")
        return {"calls_per_iteration": inner}

    entry = _time_workload(run, repeats)
    per_call = entry["seconds_min"] / inner

    body = json.dumps(_SERVICE_PROBLEM).encode()
    with tempfile.TemporaryDirectory() as tmp:
        state = ServiceState(
            ServiceConfig(workers=1, cache_backend="json", cache_path=tmp)
        )
        try:
            status, cold = state.handle_solve(body)
            assert status == 200 and cold["provenance"] == "engine", (status, cold)
            cached_times = []
            for _ in range(max(repeats, 3)):
                start = time.perf_counter()
                status, hit = state.handle_solve(body)
                cached_times.append(time.perf_counter() - start)
                assert status == 200 and hit["provenance"] == "cache", (status, hit)
            plan = configure("seed=0")  # armed but silent: counts traversals
            status, hit = state.handle_solve(body)
            assert status == 200 and hit["provenance"] == "cache", (status, hit)
            calls = sum(
                point["calls"] for point in plan.stats()["points"].values()
            )
            assert plan.total_fired() == 0
        finally:
            configure(None)
            state.close()
    cached_seconds = min(cached_times)
    entry.update(
        {
            "seconds_per_call": per_call,
            "calls_per_cached_request": calls,
            "cached_request_seconds": cached_seconds,
            "overhead_fraction": (calls * per_call) / cached_seconds,
        }
    )
    return entry


def run_snapshot(label: str, repeats: int) -> dict:
    workloads = {
        "approximation_check": bench_approximation_check(repeats),
        "constant_inference": bench_constant_inference(repeats),
        "constant_inference_heavy": bench_constant_inference_heavy(repeats),
        "full_sketch_completion": bench_full_sketch_completion(repeats),
        "service_roundtrip": bench_service_roundtrip(repeats),
        "corpus_throughput": bench_corpus_throughput(repeats),
        "fault_overhead": bench_fault_overhead(repeats),
    }
    return {
        "label": label,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "python": sys.version.split()[0],
        "workloads": workloads,
    }


def compare(snapshots: list[dict]) -> dict:
    """Per-workload before/after speedups, when both snapshots are present."""
    by_label = {snapshot["label"]: snapshot for snapshot in snapshots}
    if "before" not in by_label or "after" not in by_label:
        return {}
    comparison = {}
    before = by_label["before"]["workloads"]
    after = by_label["after"]["workloads"]
    for name in sorted(set(before) & set(after)):
        old, new = before[name]["seconds_min"], after[name]["seconds_min"]
        if new > 0:
            comparison[name] = {
                "before_seconds": old,
                "after_seconds": new,
                "speedup": old / new,
            }
    return comparison


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_engine.json", type=Path)
    parser.add_argument("--label", default="after")
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help="existing report whose snapshots (other labels) are kept",
    )
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)

    snapshots: list[dict] = []
    if args.baseline and args.baseline.exists():
        snapshots = [
            snapshot
            for snapshot in json.loads(args.baseline.read_text()).get("snapshots", [])
            if snapshot["label"] != args.label
        ]

    snapshot = run_snapshot(args.label, args.repeats)
    snapshots.append(snapshot)

    report = {
        "schema": 1,
        "source": "benchmarks/bench_report.py",
        "snapshots": snapshots,
        "comparison": compare(snapshots),
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")

    for name, entry in snapshot["workloads"].items():
        print(f"{name:40s} {entry['seconds_min']*1000:10.2f} ms/iter")
    for name, entry in report["comparison"].items():
        print(f"{name:40s} speedup {entry['speedup']:.2f}x")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
