"""Per-tenant usage metering and credit gating.

Every front-door submission carries a client id (the tenant).  The
accounts layer meters each tenant's admitted/shed operations and
simulated execution cost, and — when the config sets ``tenant_credits``
— debits a credit balance per admitted operation
(``credit_per_op + cost * credits_per_cost_second``).  A tenant whose
balance cannot cover the flat per-op debit is shed with the typed
:class:`~repro.exceptions.InsufficientCreditsError` before touching the
queue's admission check.

All per-tenant numbers are exported through the telemetry registry as
labelled series (``tenant_ops_total{tenant=...,outcome=...}``,
``tenant_cost_seconds_total{tenant=...}``,
``tenant_credits_remaining{tenant=...}``), so a JSONL export carries the
whole accounting ledger.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.exceptions import InsufficientCreditsError
from repro.serving.config import ServingConfig
from repro.telemetry import Telemetry


@dataclass
class TenantUsage:
    """One tenant's running ledger."""

    tenant: str
    admitted: int = 0
    shed: int = 0
    cost_seconds: float = 0.0
    replica_reads: int = 0
    #: remaining credit balance; None when credit gating is disabled
    credits: Optional[float] = None
    shed_by_reason: Dict[str, int] = field(default_factory=dict)

    @property
    def operations(self) -> int:
        return self.admitted + self.shed


class TenantAccounts:
    """Ledger of every tenant the front door has seen."""

    def __init__(
        self, config: ServingConfig, telemetry: Optional[Telemetry] = None
    ):
        self.config = config
        self.telemetry = telemetry or Telemetry()
        self._usage: Dict[str, TenantUsage] = {}

    # ------------------------------------------------------------------
    def usage(self, tenant: str) -> TenantUsage:
        entry = self._usage.get(tenant)
        if entry is None:
            entry = TenantUsage(tenant=tenant, credits=self.config.tenant_credits)
            self._usage[tenant] = entry
        return entry

    def tenants(self) -> Dict[str, TenantUsage]:
        return dict(self._usage)

    # ------------------------------------------------------------------
    def check_credits(self, tenant: str) -> None:
        """Raise the typed rejection when the tenant cannot afford an op."""
        entry = self.usage(tenant)
        if entry.credits is not None and entry.credits < self.config.credit_per_op:
            raise InsufficientCreditsError(tenant, entry.credits)

    def record_admitted(
        self, tenant: str, cost: float, replica_read: bool = False
    ) -> None:
        entry = self.usage(tenant)
        entry.admitted += 1
        entry.cost_seconds += cost
        if replica_read:
            entry.replica_reads += 1
        if entry.credits is not None:
            entry.credits -= (
                self.config.credit_per_op
                + cost * self.config.credits_per_cost_second
            )
            self.telemetry.gauge(
                "tenant_credits_remaining", "credit balance per tenant",
                tenant=tenant,
            ).set(entry.credits)
        self.telemetry.counter(
            "tenant_ops_total", "front-door operations per tenant",
            tenant=tenant, outcome="admitted",
        ).inc()
        self.telemetry.counter(
            "tenant_cost_seconds_total",
            "simulated execution cost attributed per tenant",
            tenant=tenant,
        ).inc(cost)

    def record_shed(self, tenant: str, reason: str) -> None:
        entry = self.usage(tenant)
        entry.shed += 1
        entry.shed_by_reason[reason] = entry.shed_by_reason.get(reason, 0) + 1
        self.telemetry.counter(
            "tenant_ops_total", tenant=tenant, outcome="shed",
        ).inc()

    # ------------------------------------------------------------------
    def totals(self) -> Dict[str, Dict[str, float]]:
        """JSON-able snapshot of the whole ledger (experiment output)."""
        return {
            tenant: {
                "admitted": entry.admitted,
                "shed": entry.shed,
                "cost_seconds": entry.cost_seconds,
                "replica_reads": entry.replica_reads,
                "credits": entry.credits,
            }
            for tenant, entry in sorted(self._usage.items())
        }
