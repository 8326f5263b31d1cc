"""Repair-as-a-service: a long-lived serving tier for Algorithm 2.

Algorithm 1 (plan design) is the expensive offline step; Algorithm 2
(plan application) is cheap enough to answer online.  This package
keeps a designed plan warm behind an HTTP interface:

- :class:`~repro.serve.service.RepairService` — the engine: a loaded
  (usually memory-mapped) plan and a batched ``repair_many`` that runs
  the offline ``repair_dataset`` loop on a micro-batch, so its
  responses are bit-identical to that path.
- :class:`~repro.serve.batcher.MicroBatcher` — the request-combining
  primitive: a lone request is dispatched at once, and only requests
  that queue behind a running dispatch are merged.
- :func:`~repro.serve.server.serve` /
  :class:`~repro.serve.server.BackgroundServer` — the stdlib HTTP
  front (``repro serve`` CLI, and the in-process variant for tests).
- :mod:`~repro.serve.client` — a ``urllib`` client for the endpoints.

Deliberately **not** imported from the top-level :mod:`repro` package:
offline users shouldn't pay for ``http.server`` imports.
"""

from .batcher import MicroBatcher
from .client import get_json, post_json, repair_payload, repair_remote
from .server import (BackgroundServer, RepairHTTPServer, listening_socket,
                     serve)
from .service import RepairRequest, RepairService

__all__ = [
    "BackgroundServer",
    "MicroBatcher",
    "RepairHTTPServer",
    "RepairRequest",
    "RepairService",
    "get_json",
    "listening_socket",
    "post_json",
    "repair_payload",
    "repair_remote",
    "serve",
]
