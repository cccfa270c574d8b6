"""``service``: the always-on prediction service under a closed loop.

A ``repro serve --cache-dir`` server runs in its own process.  The load
generator drives it over 2 keep-alive HTTP connections, each sending its
next request only when the previous reply arrived (closed loop), after a
priming pass that computes every geometry once.  A pass is one block of
80 requests on the 8 small pentium3 geometries (1x1 .. 4x2): 80 % repeat
``predict`` requests (memory-LRU hits) and 20 % ``simulate`` requests with
never-repeated noise seeds (computed, then written to the LRU and the disk
cache).  The seed fixes the block's request order and the noise seeds.  Correctness: every reply equals the direct ``api.predict`` /
``api.simulate`` result.
"""

from __future__ import annotations

import http.client
import json
import random
import signal
import subprocess
import threading
import time

from common import (
    Bench,
    Meter,
    Pass,
    child_command,
    child_env,
    cpu_seconds,
    diff_snapshots,
    median,
    percentile,
    read_stats,
)

import tracing

MACHINE = "pentium3-myrinet"
DECK = "validation"
ITERATIONS = 12
GEOMETRIES = [(px, py) for px in range(1, 5) for py in range(1, 3)]
#: Per block, every geometry is predicted 8 times and simulated twice
#: (80 requests, 20 % simulates), so a block's work does not depend on the
#: seed, which only shuffles the order.
PREDICTS_PER_GEOMETRY = 8
SIMULATES_PER_GEOMETRY = 2
CONNECTIONS = 2
#: LRU large enough that no predict entry is ever evicted by simulates.
LRU_SIZE = 1 << 20


class Server:
    """One server process, its address and (when traced) its span snapshots."""

    def __init__(self, bench: Bench, traced: bool):
        self.bench = bench
        self.traced = traced
        root = bench.tmpdir("service-")
        self.stats_path = root / "stats.json"
        self.snapshot_path = root / "snapshot.json"
        self.sequence = 0
        command = child_command(
            "cli", self.stats_path, "serve", "--port", "0",
            "--cache-dir", str(root / "cache"), "--lru-size", str(LRU_SIZE),
            "--workers", "2")
        self.process = subprocess.Popen(
            command, stdout=subprocess.PIPE, text=True,
            env=child_env(traced, PERFBENCH_SNAPSHOT=str(self.snapshot_path)))
        try:
            line = self.process.stdout.readline()
            if "listening on http://" not in line:
                raise RuntimeError(f"service did not start: {line!r}")
            self.port = int(line.rsplit(":", 1)[1])
        except BaseException:
            self.stop()
            raise

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)

    def snapshot(self) -> dict:
        """The server's span totals so far (traced servers only)."""
        self.sequence += 1
        self.process.send_signal(signal.SIGUSR1)
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            try:
                data = json.loads(self.snapshot_path.read_text())
                if data["seq"] == self.sequence:
                    return data
            except (OSError, ValueError):
                pass
            time.sleep(0.001)
        raise RuntimeError("service did not answer a snapshot request")

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.communicate(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.communicate()
        if self.stats_path.exists():
            read_stats(self.bench, self.stats_path, workload_process=True)


def call(connection, method: str, path: str, message=None):
    """One request on a keep-alive connection; returns the decoded reply
    (a service-reported error raises ``RuntimeError``)."""
    from repro.service.protocol import ErrorResponse, decode_response, encode
    body = None
    headers = {}
    if message is not None:
        body = json.dumps(encode(message)).encode("utf-8")
        headers["Content-Type"] = "application/json"
    connection.request(method, path, body=body, headers=headers)
    reply = decode_response(json.loads(connection.getresponse().read()))
    if isinstance(reply, ErrorResponse):
        raise RuntimeError(f"{reply.status}: {reply.error}")
    return reply


class Service:
    name = "service"

    def __init__(self, bench: Bench):
        self.bench = bench
        rng = random.Random(bench.seed)
        self.next_seed = rng.randrange(1, 2 ** 24) * 64
        self.block = [(kind, geometry) for geometry in GEOMETRIES
                      for kind in (["predict"] * PREDICTS_PER_GEOMETRY
                                   + ["simulate"] * SIMULATES_PER_GEOMETRY)]
        rng.shuffle(self.block)
        self.server: Server | None = None
        self.connections: list[http.client.HTTPConnection] = []
        self.replies = []

    # -- requests ------------------------------------------------------------

    def _predict(self, px: int, py: int):
        from repro.service.protocol import PredictRequest
        return PredictRequest(machine=MACHINE, px=px, py=py, deck=DECK,
                              iterations=ITERATIONS)

    def _simulate(self, px: int, py: int):
        from repro.service.protocol import SimulateRequest
        self.next_seed += 1
        return SimulateRequest(machine=MACHINE, px=px, py=py, deck=DECK,
                               iterations=ITERATIONS, with_noise=True,
                               seed=self.next_seed, execution="auto",
                               samples=0)

    def _start(self, traced: bool) -> tuple[float, float]:
        """Start a server, wait until healthy, prime it; returns the wall
        and CPU seconds (server plus client) this took."""
        start, cpu_start = time.perf_counter(), cpu_seconds()
        server = Server(self.bench, traced)
        try:
            connection = server.connect()
            deadline = time.monotonic() + 60
            while True:
                try:
                    call(connection, "GET", "/v1/health")
                    break
                except (OSError, http.client.HTTPException):
                    if time.monotonic() > deadline:
                        raise
                    connection.close()
                    time.sleep(0.01)
            for px, py in GEOMETRIES:
                call(connection, "POST", "/v1/predict", self._predict(px, py))
                call(connection, "POST", "/v1/simulate",
                     self._simulate(px, py))
            connection.close()
        except BaseException:
            server.stop()
            raise
        elapsed = (time.perf_counter() - start,
                   cpu_seconds(server.process.pid) - cpu_start)
        self.close()
        self.server = server
        self.connections = [server.connect() for _ in range(CONNECTIONS)]
        return elapsed

    def setup(self, repeats: int) -> list[tuple[float, float]]:
        return [self._start(traced=False) for _ in range(repeats)]

    # -- the closed loop -----------------------------------------------------

    def run_pass(self, traced: bool) -> Pass:
        if self.server.traced != traced:
            self._start(traced)
        server = self.server
        requests = [(kind, px, py, self._simulate(px, py) if kind == "simulate"
                     else self._predict(px, py))
                    for kind, (px, py) in self.block]
        if traced:
            before = (server.snapshot(),
                      call(self.connections[0], "GET", "/v1/stats"))
        cursor = iter(requests)
        lock = threading.Lock()
        replies = []
        errors = []

        def client(connection):
            while True:
                with lock:
                    item = next(cursor, None)
                if item is None:
                    return
                kind, px, py, message = item
                start = time.perf_counter()
                try:
                    reply = call(connection, "POST", f"/v1/{kind}", message)
                except Exception as exc:  # noqa: BLE001 — counted as failed
                    errors.append(f"{kind} {px}x{py}: {exc}")
                    continue
                latency = time.perf_counter() - start
                replies.append((kind, px, py, message, reply, latency))

        threads = [threading.Thread(target=client, args=(connection,))
                   for connection in self.connections]
        meter = Meter(server.process.pid)
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall, cpu = meter.stop()
        result = Pass(wall_s=wall, cpu_s=cpu, attempted=len(requests),
                      failed=len(errors), errors=errors)
        for kind, px, py, message, reply, latency in replies:
            result.samples.setdefault(kind, []).append(latency)
        self.replies += replies
        if traced:
            result.layers = self._layers(server, before, replies)
        return result

    def _layers(self, server: Server, before, replies) -> dict[str, float]:
        spans, stats = before
        after = server.snapshot()
        stats_after = call(self.connections[0], "GET", "/v1/stats")
        layers = tracing.layer_values(diff_snapshots(after, spans))
        latency = sum(reply[-1] for reply in replies)
        layers["service.wait_s"] = latency - layers["service.dispatch_s"]
        layers["service.lru_hits"] = stats_after.lru["hits"] - stats.lru["hits"]
        layers["service.lru_misses"] = (stats_after.lru["misses"]
                                        - stats.lru["misses"])
        batches = (stats_after.coalescer["batches"]
                   - stats.coalescer["batches"])
        coalesced = (stats_after.coalescer["requests"]
                     - stats.coalescer["requests"])
        layers["service.batches"] = batches
        layers["service.batch_size_mean"] = coalesced / batches if batches else 0.0
        return layers

    # -- results -------------------------------------------------------------

    def verify(self) -> tuple[int, list[str]]:
        """Compare every reply with the direct library call."""
        import repro.api as api
        failed, errors = 0, []
        predictions = {}
        for kind, px, py, message, reply, _ in self.replies:
            if kind == "predict":
                if (px, py) not in predictions:
                    direct = api.predict(MACHINE, px, py, deck=DECK,
                                         iterations=ITERATIONS)
                    predictions[px, py] = (direct.total_time,
                                           direct.compute_time,
                                           direct.communication_time)
                expected = predictions[px, py]
                got = (reply.total_time, reply.compute_time,
                       reply.communication_time)
            else:
                direct = api.simulate(MACHINE, px, py, deck=DECK,
                                      iterations=ITERATIONS,
                                      seed_offset=message.seed,
                                      execution="auto")
                expected = (direct.elapsed_time, direct.iterations,
                            direct.total_messages)
                got = (reply.elapsed_time, reply.iterations,
                       reply.total_messages)
            if got != expected:
                failed += 1
                errors.append(f"{kind} {px}x{py}: service {got} != "
                              f"direct {expected}")
        return failed, errors

    def summary(self, passes: list[Pass]) -> dict[str, tuple[float, str, int]]:
        predict = [value * 1e3 for item in passes
                   for value in item.samples.get("predict", [])]
        simulate = [value * 1e3 for item in passes
                    for value in item.samples.get("simulate", [])]
        requests = len(predict) + len(simulate)
        busy = sum(item.wall_s for item in passes)
        return {
            "service_predict_p50_ms": (median(predict), "ms", len(predict)),
            "service_predict_p99_ms": (percentile(predict, 99), "ms",
                                       len(predict)),
            "service_simulate_p50_ms": (median(simulate), "ms", len(simulate)),
            "service_simulate_p90_ms": (percentile(simulate, 90), "ms",
                                        len(simulate)),
            "service_rps": (requests / busy if busy else 0.0, "1/s", requests),
        }

    def close(self) -> None:
        for connection in self.connections:
            connection.close()
        self.connections = []
        if self.server is not None:
            self.server.stop()
            self.server = None
