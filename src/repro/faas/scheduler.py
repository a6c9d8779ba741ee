"""Load-balancer policies: choosing the worker node for an invocation."""

from __future__ import annotations

import hashlib
from typing import List, Optional

from repro.faas.invoker import Invoker
from repro.faas.records import InvocationRequest
from repro.faas.sandbox import limit_bytes


def home_index(tenant: str, function: str, n_nodes: int) -> int:
    """OpenWhisk's home-worker hash over (tenant, function)."""
    digest = hashlib.sha1(f"{tenant}/{function}".encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big") % n_nodes


class Scheduler:
    """Strategy interface for node selection."""

    def choose_node(
        self,
        request: InvocationRequest,
        memory_mb: float,
        invokers: List[Invoker],
        exclude: Optional[set] = None,
    ) -> Optional[Invoker]:
        raise NotImplementedError


class HomeWorkerScheduler(Scheduler):
    """OpenWhisk's native policy (§2.1).

    Requests go to the *home* worker (hash of tenant and function id)
    when it has an idle warm sandbox or room for a new one; otherwise
    the search proceeds round-robin from the home index; as a last
    resort the node with the most free memory is picked.
    """

    def choose_node(
        self,
        request: InvocationRequest,
        memory_mb: float,
        invokers: List[Invoker],
        exclude: Optional[set] = None,
    ) -> Optional[Invoker]:
        exclude = exclude or set()
        candidates = [inv for inv in invokers if inv.node_id not in exclude]
        if not candidates:
            return None
        start = home_index(request.tenant, request.function, len(candidates))
        ordered = candidates[start:] + candidates[:start]
        # First pass: a node with an idle warm sandbox (avoid cold start).
        for invoker in ordered:
            if invoker.idle_sandboxes(request.key):
                return invoker
        # Second pass: a node with room for a fresh sandbox.
        needed = limit_bytes(memory_mb)
        for invoker in ordered:
            if invoker.available_bytes >= needed:
                return invoker
        # Last resort: the node with the most free memory (its
        # ensure-capacity hook may still make room).
        return max(candidates, key=lambda inv: inv.available_bytes)
