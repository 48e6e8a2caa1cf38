"""The asyncio names of the one execution core.

``async`` is a runtime mode, not a separate executor: the
:class:`~repro.runtime.executor.FederationExecutor` core is a coroutine
in every mode, and it awaits an
:class:`~repro.runtime.async_transport.AsyncAgentTransport`'s
``perform`` directly on its loop — an in-flight scan costs a timer,
not a thread, and an overdue one is cancelled, not abandoned.  This
module keeps the names that mode is imported by:
:class:`AsyncFederationExecutor` is the same class as
:class:`~repro.runtime.executor.FederationExecutor`, and
:class:`EventLoopThread` is the loop thread its synchronous API submits
to.
"""

from __future__ import annotations

from .executor import EventLoopThread, FederationExecutor

#: the one executor class, under the name the asyncio mode was built with
AsyncFederationExecutor = FederationExecutor

__all__ = ["AsyncFederationExecutor", "EventLoopThread"]
