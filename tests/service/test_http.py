"""End-to-end tests of the reference HTTP front-end (stdlib client only)."""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.circuits import rc_grid, rlc_ladder
from repro.service import (
    PassivityService,
    report_from_jsonable,
    serve,
    system_to_jsonable,
)


@pytest.fixture()
def server_url():
    """A running service + HTTP server on an ephemeral port."""
    service = PassivityService(max_workers=2)
    server = serve(service, host="127.0.0.1", port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        yield f"http://{host}:{port}"
    finally:
        server.shutdown()
        server.server_close()
        service.close()


def _get(url: str):
    with urllib.request.urlopen(url, timeout=30.0) as response:
        return response.status, json.loads(response.read())


def _post(url: str, document: dict):
    request = urllib.request.Request(
        url, data=json.dumps(document).encode("utf-8"), method="POST"
    )
    with urllib.request.urlopen(request, timeout=30.0) as response:
        return response.status, json.loads(response.read())


def _delete(url: str):
    request = urllib.request.Request(url, method="DELETE")
    with urllib.request.urlopen(request, timeout=30.0) as response:
        return response.status, json.loads(response.read())


def _poll_result(base: str, job_id: str, deadline: float = 60.0):
    """Poll ``/jobs/<id>/result`` until 200 (the documented client loop)."""
    start = time.time()
    while time.time() - start < deadline:
        status, payload = _get(f"{base}/jobs/{job_id}/result")
        if status == 200:
            return payload
        assert status == 202, f"unexpected poll status {status}"
        time.sleep(0.02)
    raise AssertionError("job did not finish in time")


class TestHTTPContract:
    def test_submit_poll_result_stats(self, server_url):
        system = rlc_ladder(4).system
        status, payload = _post(
            f"{server_url}/jobs", {"system": system_to_jsonable(system)}
        )
        assert status == 202
        job_id = payload["job_id"]

        status, snapshot = _get(f"{server_url}/jobs/{job_id}")
        assert status == 200
        assert snapshot["job_id"] == job_id
        assert snapshot["state"] in ("queued", "running", "done")

        report = report_from_jsonable(_poll_result(server_url, job_id))
        assert report.is_passive
        assert report.diagnostics["engine"]["auto"] is True

        status, stats = _get(f"{server_url}/stats")
        assert status == 200
        assert stats["completed"] >= 1
        assert "factorizations" in stats["cache"]

    def test_sparse_system_over_the_wire(self, server_url):
        system = rc_grid(6, 6, sparse=True).system
        status, payload = _post(
            f"{server_url}/jobs",
            {"system": system_to_jsonable(system), "method": "sparse"},
        )
        assert status == 202
        report = report_from_jsonable(_poll_result(server_url, payload["job_id"]))
        assert report.is_passive
        assert report.method == "shh-sparse"

    def test_duplicate_submissions_deduplicate(self, server_url):
        document = {"system": system_to_jsonable(rlc_ladder(5).system)}
        ids = [_post(f"{server_url}/jobs", document)[1]["job_id"] for _ in range(4)]
        for job_id in ids:
            report = report_from_jsonable(_poll_result(server_url, job_id))
            assert report.is_passive
        _, stats = _get(f"{server_url}/stats")
        assert stats["submitted"] == 4
        assert stats["cache"]["by_kind"]["pencil_spectrum"]["factorizations"] <= 1

    def test_unknown_job_is_404(self, server_url):
        for tail in ("", "/result"):
            with pytest.raises(urllib.error.HTTPError) as caught:
                _get(f"{server_url}/jobs/job-missing{tail}")
            assert caught.value.code == 404
            body = json.loads(caught.value.read())
            assert body["error"] == "UnknownJobError"

    def test_malformed_submission_is_400(self, server_url):
        with pytest.raises(urllib.error.HTTPError) as caught:
            _post(f"{server_url}/jobs", {"system": {"kind": "mystery"}})
        assert caught.value.code == 400
        assert json.loads(caught.value.read())["error"] == "SerializationError"

    def test_unknown_method_is_400(self, server_url):
        document = {
            "system": system_to_jsonable(rlc_ladder(3).system),
            "method": "nope",
        }
        with pytest.raises(urllib.error.HTTPError) as caught:
            _post(f"{server_url}/jobs", document)
        assert caught.value.code == 400
        assert json.loads(caught.value.read())["error"] == "UnknownMethodError"

    def test_non_positive_timeout_is_400(self, server_url):
        for timeout in (-1, 0):
            document = {
                "system": system_to_jsonable(rlc_ladder(3).system),
                "timeout": timeout,
            }
            with pytest.raises(urllib.error.HTTPError) as caught:
                _post(f"{server_url}/jobs", document)
            assert caught.value.code == 400
            assert json.loads(caught.value.read())["error"] == "ValueError"

    def test_cancel_terminal_job_reports_false(self, server_url):
        _, payload = _post(
            f"{server_url}/jobs",
            {"system": system_to_jsonable(rlc_ladder(3).system)},
        )
        job_id = payload["job_id"]
        _poll_result(server_url, job_id)
        status, body = _delete(f"{server_url}/jobs/{job_id}")
        assert status == 200
        assert body["cancelled"] is False

    def test_healthz(self, server_url):
        status, body = _get(f"{server_url}/healthz")
        assert status == 200 and body["ok"] is True
