"""Golden-file tests for the wire format.

The fixtures under ``tests/fixtures/`` are committed renderings of the
`Problem`/`RunReport` JSON wire format:

* ``problem_v1.json`` / ``run_report_v1.json`` — the current schema.  The
  round-trip tests pin every field: if a field is renamed or dropped, these
  fail and the change is a conscious wire-format break, not an accident.
* ``run_report_v0_legacy.json`` — a report as an old client/server (pre
  cache-telemetry, pre service-provenance) would have written it.  The
  backward-compat test proves new code still reads it, with the new fields
  taking their documented defaults — so future telemetry fields must stay
  optional-with-default too.
* ``run_report_v1_retired_counters.json`` — ``run_report_v1.json`` as it was
  written while reports still carried the counters of the retired static
  pre-filter and compiled-membership evaluator (``static_prune_*``,
  ``dfa_*``).  It must still load, and reads back as the current fixture.
* ``batch_v1.json`` — a persisted :class:`~repro.service.BatchRecord` as the
  batch-ingestion endpoint writes it.  Records outlive server processes (that
  is their whole point), so the on-disk shape is a compatibility surface just
  like the HTTP wire format.
"""

import json
import pathlib

from repro.api import Problem, RunReport
from repro.dsl.parser import parse_regex

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def _load(name: str) -> dict:
    return json.loads((FIXTURES / name).read_text(encoding="utf-8"))


class TestProblemGolden:
    def test_round_trip_preserves_every_field(self):
        data = _load("problem_v1.json")
        problem = Problem.from_dict(data)
        assert problem.to_dict() == data

    def test_known_field_values(self):
        problem = Problem.from_dict(_load("problem_v1.json"))
        assert problem.k == 2
        assert problem.budget == 15.0
        assert problem.positive == ("AB-1234", "XY-0001")
        assert problem.variant.value == "regel"

    def test_cache_key_is_stable(self):
        # The canonical hash is part of the wire contract: it keys the
        # service's persistent cache, so it must never drift for a fixed
        # problem.  If this fails, either hashing changed (cache-busting —
        # update the fixture deliberately) or serialisation changed.
        problem = Problem.from_dict(_load("problem_v1.json"))
        report = _load("run_report_v1.json")
        assert problem.cache_key() == report["cache_key"]

    def test_unknown_fields_are_ignored(self):
        # Old servers must tolerate payloads from newer clients.
        data = _load("problem_v1.json")
        data["future_field"] = {"anything": 1}
        assert Problem.from_dict(data).k == 2


class TestRunReportGolden:
    def test_round_trip_preserves_every_field(self):
        data = _load("run_report_v1.json")
        report = RunReport.from_dict(data)
        assert report.to_dict() == data

    def test_solutions_parse_back_into_the_dsl(self):
        report = RunReport.from_dict(_load("run_report_v1.json"))
        for solution in report.solutions:
            assert parse_regex(solution.regex) is solution.ast()

    def test_telemetry_fields(self):
        report = RunReport.from_dict(_load("run_report_v1.json"))
        assert report.total_expansions == 430
        assert report.total_eval_cache_hits == 3000
        assert report.total_solver_propagations == 60
        assert report.provenance == "engine"


class TestBackwardCompat:
    def test_legacy_report_loads_with_defaults(self):
        report = RunReport.from_dict(_load("run_report_v0_legacy.json"))
        assert report.solved
        # Fields that post-date the legacy schema take their defaults.
        assert report.provenance == "engine"
        assert report.cache_key == ""
        sketch = report.sketches[0]
        assert sketch.eval_cache_hits == 0
        assert sketch.solver_propagations == 0
        assert sketch.encode_cache_hits == 0

    def test_report_with_retired_counters_loads_and_drops_them(self):
        # Reports cached or persisted before the counters were retired carry
        # extra sketch keys; from_dict ignores them and nothing re-emits them.
        old = _load("run_report_v1_retired_counters.json")
        assert "dfa_compiled" in old["sketches"][0]
        report = RunReport.from_dict(old)
        assert report.to_dict() == _load("run_report_v1.json")

    def test_legacy_report_round_trips_to_current_schema(self):
        report = RunReport.from_dict(_load("run_report_v0_legacy.json"))
        upgraded = RunReport.from_json(report.to_json())
        assert upgraded.solutions[0].regex == "Repeat(<num>,3)"
        assert upgraded.to_dict()["provenance"] == "engine"

    def test_current_report_fields_are_superset_of_legacy(self):
        # A field present in the legacy fixture must still exist today:
        # removing one silently breaks old readers.
        legacy = _load("run_report_v0_legacy.json")
        current = RunReport.from_dict(legacy).to_dict()
        assert set(legacy) <= set(current)
        assert set(legacy["sketches"][0]) <= set(current["sketches"][0])


class TestBatchRecordGolden:
    def test_round_trip_preserves_every_field(self):
        from repro.service.batch import BatchRecord

        data = _load("batch_v1.json")
        record = BatchRecord.load(FIXTURES / "batch_v1.json")
        assert record.to_dict() == data

    def test_known_field_values(self):
        from repro.service.batch import BatchRecord

        record = BatchRecord.load(FIXTURES / "batch_v1.json")
        assert record.batch_id == "9f1c2a3b4d5e6f708192a3b4c5d6e7f8"
        assert len(record) == 5
        assert record.status_of(0) == "solved"
        assert record.items[1]["regex"] == "Repeat(<num>,4)"
        assert record.items[3]["error"].startswith("line 4")
        counts = record.counts()
        assert counts == {
            "queued": 1,
            "solved": 1,
            "unsolved": 1,
            "failed": 1,
            "cached": 1,
        }
        assert not record.done  # item 4 is still queued

    def test_statuses_stay_known(self):
        # Every status in the fixture must remain a recognised lifecycle
        # state: renaming one orphans persisted records.
        from repro.service.batch import ITEM_STATUSES, BatchRecord

        record = BatchRecord.load(FIXTURES / "batch_v1.json")
        assert {item["status"] for item in record.items} <= set(ITEM_STATUSES)

    def test_loaded_record_resumes_stranded_items(self):
        # The queued item has no live claim after a load — exactly the
        # server-restart path — so a resume POST must re-ingest it.
        from repro.service.batch import BatchRecord

        record = BatchRecord.load(FIXTURES / "batch_v1.json")
        assert record.needs_reingest(4)
        assert not record.needs_reingest(0)
