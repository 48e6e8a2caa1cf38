"""FederationRepository: every tenant, one scan loop, one lifecycle.

The repository is the service's domain layer.  Route handlers stay
thin — decode the request, call one repository method, serialize the
result — while the repository owns:

* the **tenant registry**: isolated :class:`~repro.service.tenancy.Tenant`
  federations keyed by id;
* the **shared scan loop**: a single
  :class:`~repro.runtime.executor.EventLoopThread` every tenant's
  executor borrows, so N tenants cost one event loop thread instead
  of N;
* the **lifecycle**: admission (a closed repository refuses new
  queries), in-flight draining, and the idempotent close chain that
  releases each tenant's runtime and finally the loop itself.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, List, Optional

from ..errors import ServiceClosedError, ServiceError, UnknownTenantError
from ..runtime import EventLoopThread
from .serialization import payload_to_query, rows_to_json, stats_to_dict
from .tenancy import Tenant, TenantConfig


class FederationRepository:
    """Owns the tenants, the shared scan loop, and graceful shutdown."""

    def __init__(self, drain_timeout: float = 10.0) -> None:
        self.loop = EventLoopThread()
        self.drain_timeout = drain_timeout
        self._tenants: Dict[str, Tenant] = {}
        self._lock = threading.Lock()
        self._drained = threading.Condition(self._lock)
        self._inflight = 0
        self._closed = False
        self.started_at = time.time()

    # ------------------------------------------------------------------
    # tenant registry
    # ------------------------------------------------------------------
    def add_tenant(self, config: TenantConfig) -> Tenant:
        """Build one tenant's federation and register it.

        Async-mode tenants multiplex their agent scans on the
        repository's shared loop; the repository (not the tenant)
        closes that loop.
        """
        with self._lock:
            if self._closed:
                raise ServiceClosedError("the repository is closed")
            if config.name in self._tenants:
                raise ServiceError(f"tenant {config.name!r} already exists")
        tenant = Tenant.build(config, loop=self.loop)
        with self._lock:
            if self._closed:  # closed while building: release immediately
                tenant.close()
                raise ServiceClosedError("the repository is closed")
            self._tenants[config.name] = tenant
        return tenant

    def tenant(self, tenant_id: str) -> Tenant:
        with self._lock:
            try:
                return self._tenants[tenant_id]
            except KeyError:
                raise UnknownTenantError(tenant_id) from None

    def tenant_ids(self) -> List[str]:
        with self._lock:
            return sorted(self._tenants)

    @property
    def closed(self) -> bool:
        return self._closed

    # ------------------------------------------------------------------
    # admission + drain accounting
    # ------------------------------------------------------------------
    def _enter(self) -> None:
        with self._lock:
            if self._closed:
                raise ServiceClosedError(
                    "the service is shutting down and no longer admits queries"
                )
            self._inflight += 1

    def _leave(self) -> None:
        with self._drained:
            self._inflight -= 1
            if self._inflight == 0:
                self._drained.notify_all()

    # ------------------------------------------------------------------
    # operations (one per endpoint)
    # ------------------------------------------------------------------
    def query(self, tenant_id: str, payload: Any) -> Dict[str, Any]:
        """Run one federated query for *tenant_id*; the full wire answer.

        The response carries the rows, the per-query autonomy
        accounting (which agents were scanned, how often, how long each
        runtime phase took) and any warnings the runtime drained —
        everything the CLI's ``--stats`` shows, as JSON.  Per-request
        stats are exact when the tenant runs one query at a time and
        approximate under concurrency (deltas of a shared counter set).
        """
        tenant = self.tenant(tenant_id)
        query, appendix_b = payload_to_query(payload)
        self._enter()
        try:
            started = time.perf_counter()
            rows, delta, warnings = tenant.query(query, appendix_b=appendix_b)
            elapsed_ms = (time.perf_counter() - started) * 1000.0
        finally:
            self._leave()
        response: Dict[str, Any] = {
            "tenant": tenant_id,
            "query": str(query),
            "evaluator": "appendix_b" if appendix_b else "bottom_up",
            "rows": rows_to_json(rows),
            "count": len(rows),
            "elapsed_ms": round(elapsed_ms, 3),
        }
        if delta is not None:
            response["stats"] = stats_to_dict(delta)
        if warnings:
            response["warnings"] = list(warnings)
        return response

    def stats(self, tenant_id: str) -> Dict[str, Any]:
        """Cumulative runtime stats + tenant summary for one tenant."""
        tenant = self.tenant(tenant_id)
        return {
            "tenant": tenant_id,
            "tenant_info": tenant.describe(),
            "stats": stats_to_dict(tenant.stats()),
        }

    def invalidate(self, tenant_id: str, payload: Any) -> Dict[str, Any]:
        """Drop cached extents for one tenant (optionally scoped)."""
        tenant = self.tenant(tenant_id)
        payload = payload or {}
        if not isinstance(payload, dict):
            raise ServiceError("cache/invalidate expects a JSON object body")
        dropped = tenant.invalidate(
            agent=payload.get("agent"),
            schema=payload.get("schema"),
            class_name=payload.get("class") or payload.get("class_name"),
        )
        return {"tenant": tenant_id, "dropped": dropped}

    def bump(self, tenant_id: str) -> Dict[str, Any]:
        """Advance one tenant's cache generation (staleness fence)."""
        tenant = self.tenant(tenant_id)
        return {"tenant": tenant_id, "generation": tenant.bump_generation()}

    def health(self) -> Dict[str, Any]:
        """The ``/healthz`` document: liveness plus a tenant census."""
        with self._lock:
            tenants = dict(self._tenants)
            inflight = self._inflight
            closed = self._closed
        return {
            "status": "closing" if closed else "ok",
            "uptime_s": round(time.time() - self.started_at, 3),
            "inflight": inflight,
            "loop_alive": self.loop.alive,
            "tenants": {name: tenant.describe() for name, tenant in tenants.items()},
        }

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self, drain_timeout: Optional[float] = None) -> None:
        """Graceful shutdown: refuse, drain, release (idempotent).

        New queries are refused immediately (:class:`ServiceClosedError`),
        in-flight ones get up to *drain_timeout* seconds to finish, then
        every tenant's runtime is closed — flushing persistent extent
        stores — and finally the shared scan loop stops.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        deadline = time.monotonic() + (
            self.drain_timeout if drain_timeout is None else drain_timeout
        )
        with self._drained:
            while self._inflight > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not self._drained.wait(timeout=remaining):
                    break
        with self._lock:
            tenants = list(self._tenants.values())
        for tenant in tenants:
            tenant.close()
        self.loop.close()
