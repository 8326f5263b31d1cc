"""End-to-end tests for the HTTP serving tier (in-process server)."""

from __future__ import annotations

import http.client
import json
import select
import socket
import statistics
import threading
import time

import numpy as np
import pytest

from repro.core.design import design_repair
from repro.core.repair import repair_dataset
from repro.data.dataset import FairnessDataset
from repro.exceptions import DataError
from repro.serve import BackgroundServer, RepairHTTPServer, RepairService
from repro.serve.client import (get_json, post_json, repair_payload,
                                repair_remote)
from repro.serve.server import MAX_BODY_BYTES


@pytest.fixture(scope="module")
def designed():
    rng = np.random.default_rng(7)
    n = 700
    u = rng.integers(0, 2, size=n)
    s = rng.integers(0, 2, size=n)
    features = rng.normal(size=(n, 2)) + s[:, None]
    research = FairnessDataset(features[:500], s[:500], u[:500])
    queries = FairnessDataset(features[500:], s[500:], u[500:])
    return design_repair(research, 16), queries


@pytest.fixture()
def server(designed):
    plan, _ = designed
    service = RepairService(plan)
    with BackgroundServer(service, max_batch=8) as bg:
        yield bg


class TestEndpoints:
    def test_healthz(self, server):
        health = get_json(server.url + "/healthz")
        assert health["status"] == "ok"
        assert health["uptime_s"] >= 0

    def test_stats_shape(self, designed, server):
        _, queries = designed
        repair_remote(server.url, queries, seed=1)
        stats = get_json(server.url + "/stats")
        assert stats["service"]["requests"] == 1
        assert stats["service"]["rows"] == len(queries)
        assert stats["batcher"]["flushes"] >= 1
        assert stats["latency"]["count"] == 1
        assert stats["latency"]["p50_ms"] > 0
        assert stats["latency"]["p99_ms"] >= stats["latency"]["p50_ms"]

    def test_unknown_path_404(self, server):
        with pytest.raises(DataError, match="404"):
            get_json(server.url + "/nope")
        with pytest.raises(DataError, match="404"):
            post_json(server.url + "/nope", {})


class TestRepairEndpoint:
    def test_seeded_response_bit_identical_to_offline(self, designed,
                                                      server):
        plan, queries = designed
        reference = repair_dataset(queries, plan,
                                   rng=np.random.default_rng(99)).features
        got = repair_remote(server.url, queries, seed=99)
        # Over-the-wire JSON floats round-trip via repr: exact equality.
        np.testing.assert_array_equal(got, reference)

    def test_concurrent_clients_all_bit_identical(self, designed, server):
        plan, queries = designed
        n_clients = 6
        chunk = len(queries) // n_clients
        outcomes = [None] * n_clients

        def client(i):
            rows = slice(i * chunk, (i + 1) * chunk)
            subset = FairnessDataset(queries.features[rows],
                                     queries.s[rows], queries.u[rows])
            reference = repair_dataset(
                subset, plan,
                rng=np.random.default_rng(1000 + i)).features
            got = repair_remote(server.url, subset, seed=1000 + i)
            outcomes[i] = np.array_equal(got, reference)

        threads = [threading.Thread(target=client, args=(i,))
                   for i in range(n_clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert outcomes == [True] * n_clients
        stats = get_json(server.url + "/stats")
        assert stats["service"]["requests"] == n_clients
        assert stats["service"]["errors"] == 0

    def test_unseeded_request_served(self, designed, server):
        _, queries = designed
        got = repair_remote(server.url, queries)
        assert got.shape == queries.features.shape
        assert np.all(np.isfinite(got))

    def test_validation_error_maps_to_400(self, designed, server):
        _, queries = designed
        payload = repair_payload(queries, seed=0)
        payload["features"] = [row[:1] for row in payload["features"]]
        with pytest.raises(DataError, match="400"):
            post_json(server.url + "/repair", payload)
        # The server survives the bad request.
        assert get_json(server.url + "/healthz")["status"] == "ok"

    def test_malformed_body_maps_to_400(self, server):
        with pytest.raises(DataError, match="400"):
            post_json(server.url + "/repair", {"features": "garbage"})

    def test_fractional_labels_map_to_400(self, designed, server):
        _, queries = designed
        payload = repair_payload(queries.take([0, 1]), seed=0)
        payload["s"], payload["u"] = [0.5, 0.99], [0.2, 1.7]
        with pytest.raises(DataError, match="400"):
            post_json(server.url + "/repair", payload)


def _raw_post(url: str, headers: bytes):
    """Send a bodiless ``POST /repair`` with ``headers`` on a raw socket
    and read until the server closes it; a server that hangs or keeps
    the connection open fails on the socket timeout instead."""
    host, port = url.removeprefix("http://").rsplit(":", 1)
    with socket.create_connection((host, int(port)), timeout=5.0) as sock:
        sock.sendall(b"POST /repair HTTP/1.1\r\nHost: test\r\n"
                     + headers + b"\r\n")
        received = b""
        while chunk := sock.recv(65536):
            received += chunk
    head, _, body = received.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    fields = {name.strip().lower(): value.strip() for name, _, value
              in (line.partition(":") for line in lines[1:])}
    return int(lines[0].split()[1]), fields, json.loads(body)


class TestBodyLimits:
    @pytest.mark.parametrize("headers", [
        b"Content-Length: -1\r\n",
        b"Content-Length: ten\r\n",
        b"Content-Length: 1_0\r\n",
        b"",
    ], ids=["negative", "non-integer", "underscored", "missing"])
    def test_bad_content_length_is_400_and_closes(self, server, headers):
        status, fields, body = _raw_post(server.url, headers)
        assert status == 400
        assert fields["connection"] == "close"
        assert "Content-Length" in body["error"]
        assert get_json(server.url + "/healthz")["status"] == "ok"

    @pytest.mark.parametrize("length", [MAX_BODY_BYTES + 1, 99999999999])
    def test_oversized_body_is_413_and_closes(self, server, length):
        status, fields, body = _raw_post(
            server.url, b"Content-Length: %d\r\n" % length)
        assert status == 413
        assert fields["connection"] == "close"
        assert str(MAX_BODY_BYTES) in body["error"]
        assert get_json(server.url + "/healthz")["status"] == "ok"


class TestTransport:
    def test_keepalive_client_is_not_held_by_nagle(self, designed, server):
        # The handler sends headers and body separately and stock
        # http.client delays its ACKs: without TCP_NODELAY on the
        # accepted socket, Nagle holds every body back until the
        # delayed ACK (~40 ms).
        plan, queries = designed
        subset = FairnessDataset(queries.features[:5], queries.s[:5],
                                 queries.u[:5])
        body = json.dumps(repair_payload(subset, seed=5)).encode("utf-8")
        reference = repair_dataset(subset, plan,
                                   rng=np.random.default_rng(5)).features
        host, port = server.url.removeprefix("http://").rsplit(":", 1)
        connection = http.client.HTTPConnection(host, int(port), timeout=10)
        seconds = []
        try:
            for _ in range(20):
                start = time.perf_counter()
                connection.request("POST", "/repair", body,
                                   {"Content-Type": "application/json"})
                response = connection.getresponse()
                answer = json.loads(response.read())
                seconds.append(time.perf_counter() - start)
                assert response.status == 200
                np.testing.assert_array_equal(answer["features"], reference)
        finally:
            connection.close()
        assert statistics.median(seconds) < 0.020

    def test_in_process_server_queues_a_connect_burst(self, designed):
        # Nothing accepts, so only the listen backlog holds the
        # handshakes: with socketserver's default of 5, six complete
        # and the rest wait a second for their SYN retransmit.
        plan, _ = designed
        server = RepairHTTPServer(RepairService(plan), ("127.0.0.1", 0))
        clients = [socket.socket() for _ in range(32)]
        try:
            for client in clients:
                client.setblocking(False)
                client.connect_ex(server.server_address[:2])
            pending = set(clients)
            deadline = time.monotonic() + 1.0
            while pending and (left := deadline - time.monotonic()) > 0:
                _, writable, _ = select.select([], list(pending), [], left)
                pending.difference_update(writable)
            connected = [client for client in clients
                         if client not in pending and client.getsockopt(
                             socket.SOL_SOCKET, socket.SO_ERROR) == 0]
            assert len(connected) == len(clients)
        finally:
            for client in clients:
                client.close()
            server.server_close()


class TestBatching:
    def test_requests_queued_behind_a_dispatch_share_the_next(self,
                                                              designed):
        plan, queries = designed
        service = RepairService(plan)
        repair_many = service.repair_many
        running, release = threading.Event(), threading.Event()
        dispatched = []

        def gated(requests):
            # The first dispatch holds the combining lock until the
            # other clients' requests are queued behind it.
            dispatched.append(len(requests))
            if len(dispatched) == 1:
                running.set()
                assert release.wait(timeout=10)
            return repair_many(requests)

        service.repair_many = gated
        n_clients = 5
        matches = [None] * n_clients
        with BackgroundServer(service, max_batch=64) as server:
            pending = server.server.batcher._pending

            def client(i):
                rows = slice(i * 20, (i + 1) * 20)
                subset = FairnessDataset(queries.features[rows],
                                         queries.s[rows], queries.u[rows])
                reference = repair_dataset(
                    subset, plan, rng=np.random.default_rng(i)).features
                got = repair_remote(server.url, subset, seed=i)
                matches[i] = np.array_equal(got, reference)

            threads = [threading.Thread(target=client, args=(i,),
                                        daemon=True)
                       for i in range(n_clients)]
            threads[0].start()
            assert running.wait(timeout=10)
            for thread in threads[1:]:
                thread.start()
            deadline = time.monotonic() + 10
            while len(pending) < n_clients - 1:
                assert time.monotonic() < deadline, "requests never queued"
                time.sleep(0.001)
            release.set()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
            stats = get_json(server.url + "/stats")
        assert matches == [True] * n_clients
        assert dispatched == [1, n_clients - 1]
        assert stats["batcher"]["items"] == n_clients
        assert stats["batcher"]["flushes"] == 2
        assert stats["batcher"]["max_batch_seen"] == n_clients - 1
