"""End-to-end service tests: HTTP API, dedup, backpressure, chaos, resume.

Each test boots a real :class:`repro.service.SDEService` on an ephemeral
port inside a background thread (its own asyncio loop) and talks to it
over actual HTTP — the same path ``tools/loadgen.py`` and CI exercise.

Slow-job scenarios use ``flood:9`` (~2-3s of engine work), which leaves
a comfortable window to observe ``running``, coalesce duplicates, cancel
mid-flight, or drain with a checkpoint on disk.
"""

import http.client
import json
import threading
import time
from pathlib import Path

import asyncio

import pytest

from repro.api import make_workload, report_to_dict, run_scenario
from repro.service import SDEService, ServiceLimits

FAST_SPEC = {"workload": "flood", "size": 3, "algorithm": "sds", "seed": 7}
SLOW_SPEC = {"workload": "flood", "size": 9, "algorithm": "sds", "seed": 7}

#: deterministic report fields pinned across resume/retry (wall-clock and
#: harness bookkeeping excluded)
PINNED_FIELDS = (
    "total_states",
    "events_executed",
    "group_count",
    "instructions",
    "errors",
    "virtual_ms",
    "aborted",
)

TERMINAL = {"done", "failed", "timeout", "cancelled"}


class ServiceThread:
    """A live service on an ephemeral port, driven from the test thread."""

    def __init__(self, data_dir, limits=None):
        self.service = None
        self.loop = None
        self._ready = threading.Event()
        self._thread = threading.Thread(
            target=self._run, args=(data_dir, limits), daemon=True
        )
        self._thread.start()
        assert self._ready.wait(timeout=15), "service failed to boot"

    def _run(self, data_dir, limits):
        async def main():
            self.loop = asyncio.get_event_loop()
            self.service = SDEService(data_dir, port=0, limits=limits)
            await self.service.start()
            self._ready.set()
            await self.service.serve_forever()

        asyncio.run(main())

    def stop(self):
        future = asyncio.run_coroutine_threadsafe(
            self.service.shutdown(), self.loop
        )
        future.result(timeout=30)
        self._thread.join(timeout=30)

    # -- HTTP helpers --------------------------------------------------------

    def request(self, method, path, body=None, client_id="test"):
        conn = http.client.HTTPConnection(
            "127.0.0.1", self.service.port, timeout=30
        )
        try:
            conn.request(
                method,
                path,
                body=None if body is None else json.dumps(body),
                headers={"X-Client-Id": client_id},
            )
            response = conn.getresponse()
            raw = response.read()
        finally:
            conn.close()
        try:
            return response.status, json.loads(raw)
        except ValueError:
            return response.status, raw.decode("utf-8", "replace")

    def submit(self, spec, client_id="test"):
        return self.request("POST", "/v1/runs", spec, client_id)

    def wait_state(self, job_id, predicate, timeout=60):
        deadline = time.time() + timeout
        while time.time() < deadline:
            status, record = self.request("GET", f"/v1/runs/{job_id}")
            assert status == 200
            if predicate(record):
                return record
            time.sleep(0.05)
        raise AssertionError(f"job {job_id} never matched: {record}")

    def wait_terminal(self, job_id, timeout=60):
        return self.wait_state(
            job_id, lambda r: r["state"] in TERMINAL, timeout
        )


@pytest.fixture
def service(tmp_path):
    thread = ServiceThread(tmp_path / "data")
    yield thread
    thread.stop()


@pytest.fixture(scope="module")
def fast_reference():
    spec = FAST_SPEC
    report = run_scenario(
        make_workload(spec["workload"], spec["size"]), spec["algorithm"]
    )
    return report_to_dict(report)


class TestHappyPath:
    def test_submit_poll_report_trace(self, service, fast_reference):
        status, out = service.submit(FAST_SPEC)
        assert status == 202
        assert out["state"] == "queued"
        assert out["disposition"] == "fresh"
        assert not out["deduplicated"]
        job_id = out["id"]

        record = service.wait_terminal(job_id)
        assert record["state"] == "done"
        assert record["result"]["ok"] is True

        status, report = service.request("GET", f"/v1/runs/{job_id}/report")
        assert status == 200
        for field in PINNED_FIELDS:
            assert report[field] == fast_reference[field], field

        status, raw = service.request(
            "GET", f"/v1/runs/{job_id}/trace?follow=0"
        )
        assert status == 200
        lines = [line for line in raw.splitlines() if line.strip()]
        assert len(lines) > 10
        events = [json.loads(line) for line in lines]
        assert events[0]["ev"] == "run.start"
        assert events[-1]["ev"] == "run.end"

        status, health = service.request("GET", "/healthz")
        assert status == 200 and health["status"] == "ok"
        status, stats = service.request("GET", "/v1/stats")
        assert status == 200
        assert stats["jobs"]["done"] == 1
        assert stats["counters"]["service.submitted"] == 1

    def test_duplicate_submission_served_from_cache(self, service):
        status, first = service.submit(FAST_SPEC)
        assert status == 202
        service.wait_terminal(first["id"])

        status, second = service.submit(FAST_SPEC)
        assert status == 200
        assert second["deduplicated"] is True
        assert second["disposition"] == "cached"
        assert second["id"] == first["id"]

        _, stats = service.request("GET", "/v1/stats")
        assert stats["counters"]["service.dedup.cached"] == 1
        # only one job was ever executed
        assert stats["jobs"]["done"] == 1

    def test_inflight_duplicate_coalesces(self, service):
        status, first = service.submit(SLOW_SPEC)
        assert status == 202
        status, second = service.submit(SLOW_SPEC, client_id="other")
        assert status == 200
        assert second["deduplicated"] is True
        assert second["disposition"] == "coalesced"
        assert second["id"] == first["id"]
        _, stats = service.request("GET", "/v1/stats")
        assert stats["counters"]["service.dedup.coalesced"] == 1
        # the shared job is one job: cancel it and both callers see it end
        service.request("DELETE", f"/v1/runs/{first['id']}")
        record = service.wait_terminal(first["id"])
        assert record["state"] == "cancelled"


class TestRejections:
    def test_validation_errors_are_400(self, service):
        assert service.submit({"workload": "nope", "size": 3})[0] == 400
        assert service.submit({"workload": "flood"})[0] == 400
        assert (
            service.submit(
                {
                    "workload": "flood",
                    "size": 3,
                    "config": {"checkpoint_path": "/tmp/x"},
                }
            )[0]
            == 400
        )
        for retired in ("solver_optimize", "fuse_ops", "loop_reuse"):
            status, out = service.submit(
                {"workload": "flood", "size": 3, "config": {retired: False}}
            )
            assert status == 400 and "not submittable" in out["error"]
        status, out = service.request("POST", "/v1/runs", body=None)
        assert status == 400
        assert "JSON" in out["error"] or "object" in out["error"]

    def test_unknown_routes_and_methods(self, service):
        assert service.request("GET", "/v1/runs/zzzz")[0] == 404
        assert service.request("GET", "/nope")[0] == 404
        assert service.request("GET", "/v1/runs")[0] == 405
        status, _ = service.request("GET", "/v1/runs/zzzz/report")
        assert status == 404

    def test_report_of_unfinished_job_is_409(self, service):
        _, out = service.submit(SLOW_SPEC)
        status, detail = service.request(
            "GET", f"/v1/runs/{out['id']}/report"
        )
        assert status == 409
        assert detail["state"] in ("queued", "running")
        service.request("DELETE", f"/v1/runs/{out['id']}")
        service.wait_terminal(out["id"])


class TestBackpressure:
    def test_queue_full_and_client_cap_are_429(self, tmp_path):
        limits = ServiceLimits(max_queue=3, max_active=1, per_client=1)
        service = ServiceThread(tmp_path / "data", limits=limits)
        try:
            # occupy the single active slot with a slow run
            _, running = service.submit(SLOW_SPEC, client_id="a")
            service.wait_state(
                running["id"], lambda r: r["state"] == "running"
            )
            # queue two distinct specs from distinct clients (room remains)
            _, q1 = service.submit(dict(FAST_SPEC, seed=1), client_id="b")
            _, q2 = service.submit(dict(FAST_SPEC, seed=2), client_id="c")

            # client b already holds a live job: capped before queue limits
            status, out = service.submit(
                dict(FAST_SPEC, seed=4), client_id="b"
            )
            assert status == 429
            assert out["error"] == "client_cap"

            # a fresh client tops the queue off, the next one overflows it
            _, q3 = service.submit(dict(FAST_SPEC, seed=3), client_id="d")
            status, out = service.submit(
                dict(FAST_SPEC, seed=5), client_id="e"
            )
            assert status == 429
            assert out["error"] == "queue_full"
            assert out["retry_after_seconds"] > 0

            _, stats = service.request("GET", "/v1/stats")
            assert stats["counters"]["service.rejected.queue_full"] == 1
            assert stats["counters"]["service.rejected.client_cap"] == 1

            for record in (running, q1, q2, q3):
                service.request("DELETE", f"/v1/runs/{record['id']}")
            for record in (running, q1, q2, q3):
                service.wait_terminal(record["id"])
        finally:
            service.stop()


class TestCancellation:
    def test_cancel_queued_job(self, tmp_path):
        limits = ServiceLimits(max_active=1)
        service = ServiceThread(tmp_path / "data", limits=limits)
        try:
            _, running = service.submit(SLOW_SPEC)
            _, queued = service.submit(dict(FAST_SPEC, seed=9))
            status, out = service.request(
                "DELETE", f"/v1/runs/{queued['id']}"
            )
            assert status == 200
            record = service.wait_terminal(queued["id"])
            assert record["state"] == "cancelled"
            service.request("DELETE", f"/v1/runs/{running['id']}")
            service.wait_terminal(running["id"])
        finally:
            service.stop()

    def test_cancel_running_job(self, service):
        _, out = service.submit(SLOW_SPEC)
        service.wait_state(out["id"], lambda r: r["state"] == "running")
        status, _ = service.request("DELETE", f"/v1/runs/{out['id']}")
        assert status == 200
        record = service.wait_terminal(out["id"])
        assert record["state"] == "cancelled"
        # cancelling a terminal job is a no-op, not an error
        status, again = service.request("DELETE", f"/v1/runs/{out['id']}")
        assert status == 200
        assert again["state"] == "cancelled"

    def test_cancelled_jobs_never_enter_the_dedup_cache(self, service):
        _, out = service.submit(SLOW_SPEC)
        service.request("DELETE", f"/v1/runs/{out['id']}")
        service.wait_terminal(out["id"])
        status, fresh = service.submit(SLOW_SPEC)
        assert status == 202
        assert fresh["disposition"] == "fresh"
        assert fresh["id"] != out["id"]
        service.request("DELETE", f"/v1/runs/{fresh['id']}")
        service.wait_terminal(fresh["id"])


class TestChaos:
    def test_killed_worker_retries_to_equal_report(
        self, tmp_path, monkeypatch, fast_reference
    ):
        monkeypatch.setenv("SDE_CHAOS_KILL_WORKER", "1")
        service = ServiceThread(tmp_path / "data")
        try:
            _, out = service.submit(FAST_SPEC)
            record = service.wait_terminal(out["id"])
            assert record["state"] == "done"
            assert record["attempts"] >= 2
            assert record["retries"] >= 1
            status, report = service.request(
                "GET", f"/v1/runs/{out['id']}/report"
            )
            assert status == 200
            for field in PINNED_FIELDS:
                assert report[field] == fast_reference[field], field
            _, stats = service.request("GET", "/v1/stats")
            assert stats["counters"]["service.chaos.kills_planned"] >= 1
            assert stats["counters"]["service.retries"] >= 1
        finally:
            service.stop()


class TestExecuteJob:
    """The worker's attempt function, called directly (no subprocess)."""

    def _payload(self, job_dir, spec=FAST_SPEC):
        job_dir.mkdir()
        return {
            "spec": spec,
            "trace_path": str(job_dir / "trace.jsonl"),
            "report_path": str(job_dir / "report.json"),
            "checkpoint_path": str(job_dir / "checkpoint.sdeckpt"),
            "checkpoint_every": 25,
            "kill_after": None,
        }

    @pytest.mark.parametrize(
        "checkpoint",
        [b"SDECKPT\n[1]\nbody", b'SDECKPT\n{"version": 3}\nbody', b"garbage"],
        ids=["list-header", "older-version", "foreign"],
    )
    def test_unreadable_checkpoint_reruns_from_the_spec(
        self, tmp_path, fast_reference, checkpoint
    ):
        from repro.service.worker import execute_job

        payloads = [self._payload(tmp_path / name) for name in ("job", "clean")]
        Path(payloads[0]["checkpoint_path"]).write_bytes(checkpoint)
        result, fault_free = [execute_job(payload) for payload in payloads]
        assert result["ok"] is True
        assert result["resumed"] is False
        assert result == fault_free
        report, clean_report = [
            json.loads(Path(payload["report_path"]).read_text())
            for payload in payloads
        ]
        for field in PINNED_FIELDS:
            assert report[field] == fast_reference[field], field
        assert report["metrics"]["counters"] == clean_report["metrics"]["counters"]
