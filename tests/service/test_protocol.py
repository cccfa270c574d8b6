"""Wire-protocol round-trips and strict decode validation."""

import json

import pytest

from repro.errors import ProtocolError
from repro.service import protocol
from repro.service.protocol import (
    PROTOCOL_VERSION,
    ErrorResponse,
    HealthRequest,
    HealthResponse,
    JobArtifactsRequest,
    JobArtifactsResponse,
    JobCancelRequest,
    JobCancelResponse,
    JobListRequest,
    JobListResponse,
    JobResultRequest,
    JobResultResponse,
    JobStatusRequest,
    JobStatusResponse,
    PredictRequest,
    PredictResponse,
    SimulateRequest,
    SimulateResponse,
    StatsRequest,
    StatsResponse,
    StudySubmitRequest,
    decode_request,
    decode_response,
    encode,
)

REQUESTS = [
    PredictRequest(machine="pentium3-myrinet", px=2, py=3),
    PredictRequest(machine="opteron", px=1, py=1, deck="mini", iterations=4),
    SimulateRequest(machine="pentium3", px=2, py=2, seed=7, samples=3,
                    execution="replay", with_noise=False),
    StudySubmitRequest(spec="table1"),
    StudySubmitRequest(spec={"study": "table1", "params": {"max_pes": 4}},
                       smoke=True),
    JobStatusRequest(job_id="job-0001-abc"),
    JobResultRequest(job_id="job-0001-abc"),
    JobArtifactsRequest(job_id="job-0001-abc"),
    JobCancelRequest(job_id="job-0001-abc"),
    JobListRequest(),
    HealthRequest(),
    StatsRequest(),
]

RESPONSES = [
    PredictResponse(total_time=1.25, compute_time=1.0,
                    communication_time=0.25, hardware_name="SunUltra1",
                    application_name="sweep3d", source="memory"),
    SimulateResponse(machine="Pentium3-Myrinet", px=2, py=2,
                     elapsed_time=2.5, seed=7, iterations=12,
                     total_messages=96, total_bytes=1024.0,
                     compute_fraction=0.75, execution_tier="replay",
                     elapsed_samples=(2.5, 2.6), elapsed_mean=2.55,
                     elapsed_std=0.05, elapsed_ci95=0.07),
    JobStatusResponse(job_id="job-1", state="running", study="table1",
                      spec_hash="ff" * 32),
    JobListResponse(jobs=(("job-1", "done"), ("job-2", "queued"))),
    JobResultResponse(job_id="job-1", state="done",
                      result={"rows": [{"pes": 4}]}),
    JobArtifactsResponse(job_id="job-1", path="/tmp/x",
                         files=("manifest.json", "table1.json"),
                         manifest={"version": "1.0.0"}),
    JobCancelResponse(job_id="job-1", state="cancelled", cancelled=True),
    HealthResponse(version="1.0.0", studies=("table1", "table2"),
                   machines=("pentium3-myrinet",)),
    StatsResponse(uptime_s=3.5, requests={"predict": 2},
                  coalescer={"requests": 2}, lru={"hits": 1},
                  disk={"stores": 1}, jobs={"done": 1}),
    ErrorResponse(error="unknown job", status=404),
]


class TestRoundTrip:
    @pytest.mark.parametrize("message", REQUESTS,
                             ids=lambda m: type(m).__name__)
    def test_requests_survive_json(self, message):
        wire = json.loads(json.dumps(encode(message)))
        assert decode_request(wire) == message

    @pytest.mark.parametrize("message", RESPONSES,
                             ids=lambda m: type(m).__name__)
    def test_responses_survive_json(self, message):
        wire = json.loads(json.dumps(encode(message)))
        assert decode_response(wire) == message

    def test_envelope_carries_version_and_type(self):
        wire = encode(PredictRequest(machine="m", px=1, py=1))
        assert wire["v"] == PROTOCOL_VERSION
        assert wire["type"] == "predict"

    def test_tuples_are_arrays_on_the_wire(self):
        wire = encode(JobListResponse(jobs=(("a", "done"),)))
        assert wire["jobs"] == [["a", "done"]]


class TestValidation:
    def test_rejects_wrong_version(self):
        wire = encode(HealthRequest())
        wire["v"] = PROTOCOL_VERSION + 1
        with pytest.raises(ProtocolError, match="version"):
            decode_request(wire)

    def test_rejects_unknown_type(self):
        with pytest.raises(ProtocolError, match="unknown service request"):
            decode_request({"v": PROTOCOL_VERSION, "type": "teleport"})

    def test_rejects_unknown_field(self):
        wire = encode(PredictRequest(machine="m", px=1, py=1))
        wire["surprise"] = True
        with pytest.raises(ProtocolError, match="unexpected field"):
            decode_request(wire)

    def test_rejects_missing_required_field(self):
        wire = encode(PredictRequest(machine="m", px=1, py=1))
        del wire["machine"]
        with pytest.raises(ProtocolError, match="predict"):
            decode_request(wire)

    def test_rejects_non_object_payload(self):
        with pytest.raises(ProtocolError, match="JSON object"):
            decode_request([1, 2, 3])

    def test_request_and_response_registries_are_separate(self):
        with pytest.raises(ProtocolError):
            decode_request(encode(PredictResponse(
                total_time=1.0, compute_time=0.5, communication_time=0.5)))
