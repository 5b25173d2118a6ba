"""The HTTP front end rejects request bodies it must not read: oversize
ones with 413, malformed or negative ``Content-Length`` with 400."""

import http.client
import json

import pytest

from repro.serve import MiningService, Scheduler, ServeConfig
from repro.serve.service import MAX_BODY_BYTES


@pytest.fixture
def service(er_graph):
    scheduler = Scheduler(ServeConfig(slots=1), graphs={"G": er_graph})
    svc = MiningService(scheduler, port=0).start()
    try:
        yield svc
    finally:
        svc.close()


def _post(service, length, body=b"{}"):
    """POST /v1/query declaring ``length`` but sending only ``body``."""
    host, port = service.address
    conn = http.client.HTTPConnection(host, port, timeout=10)
    try:
        conn.putrequest("POST", "/v1/query")
        conn.putheader("Content-Type", "application/json")
        conn.putheader("Content-Length", length)
        conn.endheaders(body)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def test_oversize_body_is_413_without_reading_it(service):
    status, raw = _post(service, str(MAX_BODY_BYTES + 1))
    assert status == 413
    assert str(MAX_BODY_BYTES) in json.loads(raw)["error"]


@pytest.mark.parametrize("length", ["-5", "abc", "1.5"])
def test_malformed_length_is_400(service, length):
    status, raw = _post(service, length)
    assert status == 400
    assert "Content-Length" in json.loads(raw)["error"]


def test_service_keeps_serving_after_rejections(service):
    assert _post(service, "-1")[0] == 400
    assert _post(service, str(10 * MAX_BODY_BYTES))[0] == 413
    body = json.dumps({"family": "kcl", "k": 3, "dataset": "G"}).encode()
    status, raw = _post(service, str(len(body)), body)
    assert status == 200
    records = [json.loads(line) for line in raw.splitlines()]
    assert records[-1]["type"] == "billing"
