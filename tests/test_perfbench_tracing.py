"""Contract test: the traced benchmark's hooks still resolve against the program.

``perfbench/tracing.py`` wraps public entry points of each layer by name and
reads telemetry fields off every finished report.  A rename in the program
would otherwise only surface when someone runs the benchmark with
``--trace 1``.  :func:`tracing.install` patches classes for the rest of the
process, so the traced solve runs in a child interpreter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_CHILD = r"""
import json
import sys

sys.path.insert(0, "perfbench")
import tracing

tracer = tracing.Tracer()
tracing.install(tracer)

from repro.api import Problem, Session
from repro.synthesis.config import SynthesisConfig

session = Session(config=SynthesisConfig(max_expansions=20))
report = session.solve(Problem("3 digits", ["123", "456"], ["12", "abc"], k=1, budget=30.0))
raw = tracer.raw()
metrics = tracing.derive(raw)
print(json.dumps({"raw": raw, "metrics": metrics, "expansions": report.total_expansions}))
"""


def test_traced_solve_records_every_layer():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    done = subprocess.run(
        [sys.executable, "-c", _CHILD],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    out = json.loads(done.stdout.strip().splitlines()[-1])
    raw = out["raw"]
    for span in ("session.solve", "engine.step", "approx.infeasible", "membership.consistent"):
        assert raw.get(f"span.{span}.calls", 0) > 0, span
    # The per-report counters were taken (``_report_counters`` ran to the end).
    assert raw["engine.expansions"] == out["expansions"] > 0
    assert "solver.encode_cache_hits" in raw
    assert out["metrics"]["engine.expansions"] == out["expansions"]
