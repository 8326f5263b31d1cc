"""The ``repro serve`` HTTP tier: stdlib server, forked workers.

Stack, bottom-up: the parent creates a listening socket **once**
(:func:`listening_socket`) and loads the plan into a
:class:`~repro.serve.service.RepairService`; ``--workers N`` forks
``N`` processes that each run a :class:`ThreadingHTTPServer` *on the
inherited socket* (the kernel load-balances ``accept`` across them)
over the inherited service.  The plan archive is memory-mapped, so its
bytes are shared through the page cache rather than duplicated per
worker, and each worker builds the cells it serves.  Handler threads
funnel ``POST /repair`` bodies through a
:class:`~repro.serve.batcher.MicroBatcher`: a lone request is
dispatched at once in its own thread, and requests that queue behind a
running dispatch share the next one.

Accepted connections set ``TCP_NODELAY``, so a keep-alive client that
does not quick-ACK never sees the response body held back by Nagle's
algorithm.  A ``POST`` body is read only after its ``Content-Length``
checks out: a missing, malformed or negative length gets a 400 and one
over :data:`MAX_BODY_BYTES` a 413, both closing the connection.

Endpoints
---------
``POST /repair``
    Body ``{"features": [[...]], "s": [...], "u": [...], "seed": 7}``;
    response ``{"features": [[...]], "n_rows": ...}``.  Floats travel
    as their shortest round-trip ``repr``, so responses stay
    bit-identical to the offline ``repair_dataset`` path.
``GET /healthz``
    Liveness: ``{"status": "ok", "pid": ..., "uptime_s": ...}``.
``GET /stats``
    This worker's service / kernel / batcher counters and request
    latency percentiles (per-process — each forked worker accounts for
    the requests the kernel handed it).
"""

from __future__ import annotations

import json
import os
import signal
import socket
import threading
import time
from collections import deque
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from ..exceptions import ReproError
from .batcher import MicroBatcher
from .service import RepairRequest, RepairService

__all__ = ["LISTEN_BACKLOG", "MAX_BODY_BYTES", "RepairHTTPServer",
           "BackgroundServer", "listening_socket", "serve"]

#: Largest ``POST /repair`` body read, in bytes; a longer declared
#: ``Content-Length`` is refused with 413 before any of it is read.
MAX_BODY_BYTES = 64 << 20

#: Pending-connection queue of every listening socket, forked or
#: in-process; socketserver's default of 5 drops the SYNs of a burst
#: of clients connecting at once.
LISTEN_BACKLOG = 128


def listening_socket(host: str = "127.0.0.1", port: int = 0,
                     backlog: int = LISTEN_BACKLOG) -> socket.socket:
    """Create, bind and activate the shared listening socket.

    Done once in the parent before forking workers, so every worker
    accepts from the same queue.  ``port=0`` picks an ephemeral port
    (read it back with ``sock.getsockname()[1]``).
    """
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    sock.bind((host, port))
    sock.listen(backlog)
    return sock


class _RepairHandler(BaseHTTPRequestHandler):
    """Routes the three endpoints; all JSON in, all JSON out."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-serve"
    # Headers and body leave in two sends; without TCP_NODELAY a client
    # that delays its ACKs stalls the body for the delayed-ACK timer.
    disable_nagle_algorithm = True

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # request logging would swamp the benchmark loops

    def _send_json(self, status: int, payload: dict, *,
                   close: bool = False) -> None:
        self._send_body(status, json.dumps(payload).encode("utf-8"), close)

    def _send_body(self, status: int, body: bytes,
                   close: bool = False) -> None:
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if close:  # also makes the handler close the connection
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self) -> None:
        if self.path == "/healthz":
            self._send_json(200, {
                "status": "ok", "pid": os.getpid(),
                "uptime_s": time.monotonic() - self.server.started})
        elif self.path == "/stats":
            self._send_json(200, self.server.stats())
        else:
            self._send_json(404, {"error": f"unknown path {self.path}"})

    def do_POST(self) -> None:
        if self.path != "/repair":
            self._send_json(404, {"error": f"unknown path {self.path}"})
            return
        start = time.perf_counter()
        # The body is unread, so the stream cannot be resynchronised:
        # every refusal here closes the connection.
        raw = (self.headers.get("Content-Length") or "").strip()
        if not (raw.isascii() and raw.isdigit()):
            self._send_json(400, {"error": f"bad Content-Length {raw!r}"},
                            close=True)
            return
        length = int(raw)
        if length > MAX_BODY_BYTES:
            self._send_json(413, {"error": f"body of {length} bytes "
                                  f"exceeds {MAX_BODY_BYTES}"}, close=True)
            return
        try:
            payload = json.loads(self.rfile.read(length))
            request = RepairRequest.from_payload(payload)
        except (ValueError, ReproError) as exc:
            self._send_json(400, {"error": str(exc)})
            return
        try:
            repaired = self.server.batcher.submit(request)
        except ReproError as exc:
            self._send_json(400, {"error": str(exc)})
            return
        except Exception as exc:  # dispatch bug — fail loudly, stay up
            self._send_json(500, {"error": f"internal error: {exc}"})
            return
        body = json.dumps({"features": repaired.tolist(),
                           "n_rows": int(repaired.shape[0])}).encode("utf-8")
        # Recorded before the write: a client that holds its response
        # must find the request counted in /stats.
        self.server.record_latency(time.perf_counter() - start)
        self._send_body(200, body)


class RepairHTTPServer(ThreadingHTTPServer):
    """One worker's HTTP front over a :class:`RepairService`.

    Pass ``sock`` to adopt a pre-bound listening socket (the forked
    multi-worker path); without it the server binds ``server_address``
    itself (the in-process / test path).
    """

    daemon_threads = True
    request_queue_size = LISTEN_BACKLOG

    def __init__(self, service: RepairService, server_address=None, *,
                 sock: socket.socket | None = None, max_batch: int = 32,
                 latency_window: int = 8192) -> None:
        if sock is None and server_address is None:
            raise ValueError("need a server_address or a pre-bound sock")
        self.service = service
        self.batcher = MicroBatcher(service.repair_many,
                                    max_batch=max_batch)
        self.started = time.monotonic()
        self._latency_lock = threading.Lock()
        self._latencies: deque = deque(maxlen=latency_window)
        if sock is not None:
            super().__init__(sock.getsockname()[:2], _RepairHandler,
                             bind_and_activate=False)
            self.socket.close()  # replace the unused unbound socket
            self.socket = sock
            host, port = sock.getsockname()[:2]
            self.server_name = host
            self.server_port = port
        else:
            super().__init__(server_address, _RepairHandler)

    def record_latency(self, seconds: float) -> None:
        with self._latency_lock:
            self._latencies.append(seconds)

    def latency_percentiles(self) -> dict:
        """p50/p99/mean over the sliding latency window, in ms."""
        with self._latency_lock:
            window = sorted(self._latencies)
        if not window:
            return {"count": 0, "p50_ms": None, "p99_ms": None,
                    "mean_ms": None}
        rank = lambda q: window[min(len(window) - 1,  # noqa: E731
                                    int(q * len(window)))]
        return {"count": len(window),
                "p50_ms": rank(0.50) * 1e3,
                "p99_ms": rank(0.99) * 1e3,
                "mean_ms": sum(window) / len(window) * 1e3}

    def stats(self) -> dict:
        return {"pid": os.getpid(),
                "uptime_s": time.monotonic() - self.started,
                "service": self.service.stats(),
                "batcher": self.batcher.stats(),
                "latency": self.latency_percentiles()}


def _worker_loop(sock: socket.socket, service: RepairService,
                 max_batch: int) -> None:
    """A worker: its HTTP server over ``service`` on the shared socket."""
    server = RepairHTTPServer(service, sock=sock, max_batch=max_batch)
    try:
        server.serve_forever(poll_interval=0.1)
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()


def serve(plan_path, *, host: str = "127.0.0.1", port: int = 8321,
          workers: int = 1, mmap: bool = True,
          rounding: str = "stochastic", output: str = "sample",
          max_batch: int = 32, announce=print) -> None:
    """Run the repair service until interrupted (the CLI entry point).

    ``workers=1`` serves in-process; ``workers>1`` forks that many
    processes sharing one listening socket and the service the parent
    built over the (by default memory-mapped) plan archive.  The plan
    is loaded and the options checked before the address is announced,
    so a server that cannot start raises instead.
    """
    from .._validation import check_positive_int

    check_positive_int(workers, name="workers")
    check_positive_int(max_batch, name="max_batch")
    sock = listening_socket(host, port)
    try:
        service = RepairService.from_path(plan_path, mmap=mmap,
                                          rounding=rounding, output=output)
    except BaseException:
        sock.close()
        raise
    bound = sock.getsockname()
    if announce is not None:
        announce(f"repro serve: http://{bound[0]}:{bound[1]} "
                 f"({workers} worker{'s' if workers != 1 else ''}, "
                 f"plan={plan_path})")
    if workers == 1:
        try:
            _worker_loop(sock, service, max_batch)
        finally:
            sock.close()
        return
    import multiprocessing

    context = multiprocessing.get_context("fork")
    children = [context.Process(target=_worker_loop,
                                args=(sock, service, max_batch),
                                daemon=False)
                for _ in range(workers)]
    # SIGTERM takes Ctrl-C's path, in the parent and in the workers that
    # inherit the handler, so the parent reaps its workers before it
    # exits instead of leaving them serving.
    previous = signal.signal(signal.SIGTERM, _interrupt)
    try:
        for child in children:
            child.start()
        sock.close()  # workers hold their inherited copies
        for child in children:
            child.join()
    except KeyboardInterrupt:
        pass
    finally:
        for child in children:
            if child.is_alive():
                child.terminate()
        for child in children:
            if child.pid is not None:
                child.join()
        signal.signal(signal.SIGTERM, previous)


def _interrupt(signum, frame) -> None:
    raise KeyboardInterrupt


class BackgroundServer:
    """An in-process server on an ephemeral port, for tests and
    benchmarks.

    ::

        with BackgroundServer(service) as bg:
            post_json(bg.url + "/repair", payload)
    """

    def __init__(self, service: RepairService, *, host: str = "127.0.0.1",
                 max_batch: int = 32) -> None:
        self.server = RepairHTTPServer(service, (host, 0),
                                       max_batch=max_batch)
        self._thread: threading.Thread | None = None

    @property
    def url(self) -> str:
        host, port = self.server.server_address[:2]
        return f"http://{host}:{port}"

    def __enter__(self) -> "BackgroundServer":
        self._thread = threading.Thread(
            target=self.server.serve_forever,
            kwargs={"poll_interval": 0.05}, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.server.shutdown()
        self.server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
