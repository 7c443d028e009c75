"""The stdlib HTTP server: routing shim over :class:`ServiceState`.

Endpoints (all JSON; see ``docs/api.md`` for the full reference):

========  ===================  ===========================================
method    path                 behaviour
========  ===================  ===========================================
POST      ``/v1/solve``        Problem in, RunReport out (synchronous)
POST      ``/v1/jobs``         Problem in, job record out (async submit)
POST      ``/v1/lint``         Problem (+ sketches) in, diagnostics out
POST      ``/v1/batch``        NDJSON of Problems in, batch record out
                               (``?batch=<id>&offset=<n>`` resumes)
GET       ``/v1/batch/{id}``   paginated per-item statuses
GET       ``/v1/jobs/{id}``    poll status + partial solutions
DELETE    ``/v1/jobs/{id}``    cooperative cancellation
GET       ``/v1/healthz``      liveness probe
GET       ``/v1/stats``        cache / pool / request counters
========  ===================  ===========================================

Built on :class:`http.server.ThreadingHTTPServer` (no third-party runtime
dependencies, like the rest of the package): each connection gets a request
thread, but synthesis itself always runs on the bounded worker pool — the
request thread only validates, enqueues, and (for ``/v1/solve``) waits, so
slow solves cannot exhaust unbounded threads doing engine work.
"""

from __future__ import annotations

import json
import re
import signal
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs

from repro.faults import InjectedFault, configure, fault_point
from repro.service.handlers import ServiceConfig, ServiceState
from repro.service.wire import MAX_BODY_BYTES, error_body

_JOB_PATH = re.compile(r"^/v1/jobs/(?P<job_id>[0-9a-f]{32})$")
_BATCH_PATH = re.compile(r"^/v1/batch/(?P<batch_id>[0-9a-f]{32})$")


def _int_param(params: Dict[str, list], name: str, default: int) -> int:
    """First occurrence of an integer query parameter (raises ValueError)."""
    values = params.get(name)
    if not values:
        return default
    return int(values[0])


class RegelHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying the shared :class:`ServiceState`."""

    daemon_threads = True

    def __init__(self, address: Tuple[str, int], state: ServiceState):
        super().__init__(address, RegelRequestHandler)
        self.state = state

    def close(self) -> None:
        """Stop accepting, then shut the pool and cache down gracefully."""
        self.shutdown()
        self.server_close()
        self.state.close()


class RegelRequestHandler(BaseHTTPRequestHandler):
    server_version = "regel-service/1"
    protocol_version = "HTTP/1.1"

    @property
    def state(self) -> ServiceState:
        return self.server.state  # type: ignore[attr-defined]

    def log_message(self, format: str, *args: Any) -> None:
        if self.state.config.log_requests:
            super().log_message(format, *args)

    # -- plumbing ------------------------------------------------------------

    def _send(self, status: int, payload: Dict[str, Any]) -> None:
        # Chaos hook: an injected ``server.response`` fault drops the
        # connection before any byte of the response is written — the shape
        # of a server dying mid-reply.  Clients see a reset and retry.
        fault_point("server.response")
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if status == 429:
            self.send_header("Retry-After", "1")
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self) -> Optional[bytes]:
        """The request body, or None after answering 413 for oversize ones."""
        length = int(self.headers.get("Content-Length") or 0)
        if length > MAX_BODY_BYTES:
            # The unread body would desync HTTP/1.1 keep-alive (the next
            # request parse would start mid-body), so drop the connection.
            self.close_connection = True
            self._send(
                413,
                error_body(
                    "body_too_large",
                    f"request body exceeds {MAX_BODY_BYTES} bytes",
                ),
            )
            return None
        return self.rfile.read(length)

    def _dispatch(self, method: str) -> None:
        state = self.state
        path, _, raw_query = self.path.partition("?")
        try:
            params = parse_qs(raw_query)
        except ValueError:
            params = {}
        try:
            if method == "GET" and path == "/v1/healthz":
                self._send(*state.handle_healthz())
            elif method == "GET" and path == "/v1/stats":
                self._send(*state.handle_stats())
            elif method == "POST" and path == "/v1/solve":
                body = self._read_body()
                if body is not None:
                    self._send(*state.handle_solve(body))
            elif method == "POST" and path == "/v1/jobs":
                body = self._read_body()
                if body is not None:
                    self._send(*state.handle_submit(body))
            elif method == "POST" and path == "/v1/lint":
                body = self._read_body()
                if body is not None:
                    self._send(*state.handle_lint(body))
            elif method == "POST" and path == "/v1/batch":
                body = self._read_body()
                if body is not None:
                    batch_id = (params.get("batch") or [None])[0]
                    try:
                        offset = _int_param(params, "offset", 0)
                    except ValueError:
                        self._send(
                            400, error_body("bad_offset", "offset must be an integer")
                        )
                        return
                    self._send(*state.handle_batch_submit(body, batch_id, offset))
            elif (batch_match := _BATCH_PATH.match(path)) and method == "GET":
                try:
                    offset = _int_param(params, "offset", 0)
                    limit = _int_param(params, "limit", 100)
                except ValueError:
                    self._send(
                        400,
                        error_body("bad_offset", "offset and limit must be integers"),
                    )
                    return
                self._send(
                    *state.handle_batch_get(batch_match.group("batch_id"), offset, limit)
                )
            elif (job_match := _JOB_PATH.match(path)) and method == "GET":
                self._send(*state.handle_job_get(job_match.group("job_id")))
            elif job_match and method == "DELETE":
                self._send(*state.handle_job_cancel(job_match.group("job_id")))
            else:
                self._send(
                    404, error_body("not_found", f"{method} {path} is not a route")
                )
        except BrokenPipeError:  # client went away mid-response
            pass
        except InjectedFault:
            # A ``server.response`` fault: simulate the crash by hanging up
            # without answering (a 500 here would defeat the simulation).
            self.close_connection = True
        except Exception as exc:  # never leak a traceback page
            try:
                self._send(500, error_body("internal", f"{type(exc).__name__}: {exc}"))
            except Exception:
                pass

    def do_GET(self) -> None:
        self._dispatch("GET")

    def do_POST(self) -> None:
        self._dispatch("POST")

    def do_DELETE(self) -> None:
        self._dispatch("DELETE")


def start_server(
    config: ServiceConfig, state: Optional[ServiceState] = None
) -> RegelHTTPServer:
    """Bind and start serving on a daemon thread; returns the live server.

    ``config.port = 0`` binds an ephemeral port — read the real one from
    ``server.server_address`` (what the tests and benchmark do).  Call
    ``server.close()`` for a graceful shutdown.
    """
    state = state if state is not None else ServiceState(config)
    server = RegelHTTPServer((config.host, config.port), state)
    thread = threading.Thread(
        target=server.serve_forever, name="regel-http", daemon=True
    )
    thread.start()
    return server


def serve(config: ServiceConfig) -> int:
    """Blocking entry point behind ``regel serve``.

    Both SIGINT (Ctrl-C) and SIGTERM (what a process supervisor sends on
    stop) shut down gracefully: queued and in-flight jobs are cancelled,
    workers joined, and the cache closed.
    """
    if config.faults is not None:
        # --faults beats REPRO_FAULTS: an explicit flag is the operator
        # saying "this run, this schedule".
        configure(config.faults)
    state = ServiceState(config)
    server = RegelHTTPServer((config.host, config.port), state)
    host, port = server.server_address[:2]

    def _on_sigterm(signum, frame):
        raise KeyboardInterrupt

    try:
        previous_sigterm = signal.signal(signal.SIGTERM, _on_sigterm)
    except ValueError:  # not on the main thread: SIGINT handling only
        previous_sigterm = None
    print(
        f"regel service listening on http://{host}:{port} "
        f"({config.workers} workers, "
        f"cache={state.cache.stats()['backend']})",
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down...", flush=True)
    finally:
        if previous_sigterm is not None:
            signal.signal(signal.SIGTERM, previous_sigterm)
        server.server_close()
        state.close()
    return 0
