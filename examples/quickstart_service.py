"""End-to-end service quickstart: submit a job, stream partial solutions,
then demonstrate a cache hit on resubmission.

Starts a `regel serve` instance in-process on an ephemeral port (so the
script is self-contained — against a real deployment, point ServiceClient
at its URL instead), then:

1. submits an async job (``POST /v1/jobs``) and polls it, printing each
   partial solution the moment the server discovers it,
2. re-submits the *identical* problem and shows it answered from the
   persistent result cache (``provenance: "cache"``, microseconds),
3. prints the service's cache/pool counters (``GET /v1/stats``).

Run with:  PYTHONPATH=src python examples/quickstart_service.py
"""

import tempfile
import time

from repro.api import Problem
from repro.service import ServiceClient, ServiceConfig, start_server


def main() -> None:
    cache_dir = tempfile.mkdtemp(prefix="regel-cache-")
    server = start_server(
        ServiceConfig(port=0, workers=2, cache_path=cache_dir)
    )
    host, port = server.server_address[:2]
    client = ServiceClient(f"http://{host}:{port}")
    print(f"service up at http://{host}:{port} (cache: {cache_dir})\n")

    problem = Problem(
        description="one or more letters followed by 3 digits",
        positive=["ab123", "x987"],
        negative=["123", "ab12", "ab1234"],
        k=3,
        budget=15.0,
    )

    # -- 1. async job, streamed partial solutions ---------------------------
    print("submitting job (async), streaming solutions as they arrive:")
    start = time.perf_counter()
    for solution in client.iter_solutions(problem):
        print(
            f"  [{time.perf_counter() - start:6.2f}s] {solution.regex}"
            f"  (size {solution.size}, sketch #{solution.sketch_index})"
        )
    report = client.last_job["report"]
    print(
        f"job {client.last_job['job_id'][:8]}… done in "
        f"{time.perf_counter() - start:.2f}s "
        f"(provenance: {report['provenance']})\n"
    )

    # -- 2. identical resubmission: served from the persistent cache --------
    print("resubmitting the identical problem:")
    start = time.perf_counter()
    cached = client.solve(problem)
    elapsed = time.perf_counter() - start
    print(
        f"  answered in {elapsed * 1000:.1f} ms, provenance: {cached.provenance}, "
        f"{len(cached.solutions)} solutions (cache key {cached.cache_key[:12]}…)\n"
    )

    # -- 3. the counters behind /v1/stats -----------------------------------
    stats = client.stats()
    cache = stats["cache"]
    pool = stats["pool"]
    print(
        f"cache: {cache['hits']} hits / {cache['misses']} misses "
        f"({cache['entries']} entries, backend {cache['backend']})"
    )
    print(f"pool:  {pool['completed']} jobs completed on {pool['workers']} workers")

    server.close()


if __name__ == "__main__":
    main()
