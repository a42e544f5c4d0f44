"""Tenant registry: per-tenant byte quotas and bandwidth budgets.

One registry instance is shared by every daemon in the fleet (and
survives daemon restarts), so a tenant cannot dodge its quota by
spreading models over shards.  Two independent limits:

* **byte quota** — charged when a model is *created* (the daemon's
  persistent footprint is two version slots, so the charge is
  ``2 x model bytes``) and released when it is unregistered or
  migrated away from its charge.  Exceeding it raises
  :class:`~repro.errors.TenantQuotaExceeded`, which is permanent:
  retrying cannot help until capacity is freed.
* **bandwidth budget** — an integer token bucket (tokens are bytes)
  refilled at ``bandwidth_bps``.  A checkpoint is admitted whenever
  the bucket is positive and then debited its full size, so the bucket
  may go negative; that bounds the *average* rate for any checkpoint
  size without ever deadlocking a model larger than the burst.  A
  rejected dump raises :class:`~repro.errors.AdmissionReject` with a
  deterministic ``retry_after_ns`` telling the client exactly when the
  bucket goes positive again.

All arithmetic is integer nanoseconds/bytes — no float drift, so two
runs of the same schedule make bit-identical admit/reject decisions.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.errors import AdmissionReject, ReproError, TenantQuotaExceeded

_NS_PER_S = 1_000_000_000


class _Tenant:
    __slots__ = ("name", "byte_quota", "bandwidth_bps", "burst_bytes",
                 "charged_bytes", "tokens", "last_refill_ns")

    def __init__(self, name: str, byte_quota: Optional[int],
                 bandwidth_bps: Optional[int],
                 burst_bytes: Optional[int]) -> None:
        self.name = name
        self.byte_quota = byte_quota
        self.bandwidth_bps = bandwidth_bps
        # Default burst: one second of budget, so the first dump of a
        # reasonably sized model is always admitted immediately.
        self.burst_bytes = (burst_bytes if burst_bytes is not None
                            else (bandwidth_bps or 0))
        self.charged_bytes = 0
        self.tokens = self.burst_bytes
        self.last_refill_ns = 0


class TenantRegistry:
    """Fleet-wide tenant table with byte + bandwidth accounting."""

    def __init__(self, obs=None) -> None:
        self._tenants: Dict[str, _Tenant] = {}
        # (tenant, model) -> charged bytes, so release is exact even if
        # the quota changed between create and unregister.
        self._charges: Dict[Tuple[str, str], int] = {}
        self.obs = obs

    # -- registration -----------------------------------------------------

    def register_tenant(self, name: str, byte_quota: Optional[int] = None,
                        bandwidth_bps: Optional[int] = None,
                        burst_bytes: Optional[int] = None) -> None:
        """Declare (or re-declare) a tenant and its limits.

        Re-declaring keeps the current charges and bucket level but
        applies the new limits; ``None`` means unlimited.
        """
        existing = self._tenants.get(name)
        if existing is None:
            self._tenants[name] = _Tenant(
                name, byte_quota, bandwidth_bps, burst_bytes)
            return
        existing.byte_quota = byte_quota
        existing.bandwidth_bps = bandwidth_bps
        if burst_bytes is not None:
            existing.burst_bytes = burst_bytes
            existing.tokens = min(existing.tokens, burst_bytes)
        elif bandwidth_bps is not None and existing.burst_bytes == 0:
            existing.burst_bytes = bandwidth_bps
            existing.tokens = bandwidth_bps

    def _tenant(self, name: str) -> _Tenant:
        tenant = self._tenants.get(name)
        if tenant is None:
            # Unknown tenants are admitted unlimited: quotas are opt-in,
            # and the single-daemon legacy path never names a tenant.
            tenant = _Tenant(name, None, None, None)
            self._tenants[name] = tenant
        return tenant

    def known(self, name: str) -> bool:
        return name in self._tenants

    # -- byte quota -------------------------------------------------------

    def charge_bytes(self, tenant_name: str, model: str,
                     nbytes: int) -> None:
        """Charge a model's persistent footprint against the quota."""
        key = (tenant_name, model)
        if key in self._charges:
            raise ReproError(
                f"double charge for {tenant_name}/{model}")
        tenant = self._tenant(tenant_name)
        if (tenant.byte_quota is not None
                and tenant.charged_bytes + nbytes > tenant.byte_quota):
            self._count(f"fleet.quota.rejects.{tenant_name}")
            raise TenantQuotaExceeded(
                f"tenant {tenant_name!r}: {model} needs {nbytes} B but "
                f"only {tenant.byte_quota - tenant.charged_bytes} of "
                f"{tenant.byte_quota} B quota remain")
        tenant.charged_bytes += nbytes
        self._charges[key] = nbytes

    def release_bytes(self, tenant_name: str, model: str) -> int:
        """Release a model's charge (unregister / migration source)."""
        nbytes = self._charges.pop((tenant_name, model), 0)
        if nbytes:
            self._tenant(tenant_name).charged_bytes -= nbytes
        return nbytes

    def charged(self, tenant_name: str) -> int:
        tenant = self._tenants.get(tenant_name)
        return tenant.charged_bytes if tenant else 0

    # -- bandwidth budget -------------------------------------------------

    def reserve_bandwidth(self, tenant_name: str, nbytes: int,
                          now_ns: int) -> None:
        """Debit *nbytes* from the token bucket or reject with a hint."""
        tenant = self._tenant(tenant_name)
        bps = tenant.bandwidth_bps
        if not bps:
            return
        elapsed = now_ns - tenant.last_refill_ns
        if elapsed > 0:
            refill = elapsed * bps // _NS_PER_S
            tenant.tokens = min(tenant.burst_bytes, tenant.tokens + refill)
            tenant.last_refill_ns = now_ns
        if tenant.tokens <= 0:
            # Exact integer time until the bucket is positive again.
            deficit = 1 - tenant.tokens
            retry_after = (deficit * _NS_PER_S + bps - 1) // bps
            self._count(f"fleet.bandwidth.rejects.{tenant_name}")
            raise AdmissionReject(
                f"tenant {tenant_name!r} over bandwidth budget "
                f"({bps} B/s), retry in {retry_after} ns",
                retry_after_ns=retry_after)
        tenant.tokens -= nbytes

    # -- introspection ----------------------------------------------------

    def snapshot(self) -> Dict[str, Dict[str, Optional[int]]]:
        return {
            name: {
                "byte_quota": t.byte_quota,
                "charged_bytes": t.charged_bytes,
                "bandwidth_bps": t.bandwidth_bps,
                "tokens": t.tokens,
            }
            for name, t in sorted(self._tenants.items())
        }

    def _count(self, name: str) -> None:
        if self.obs is not None:
            self.obs.metrics.counter(name).inc()

    def __repr__(self) -> str:
        return f"<TenantRegistry tenants={len(self._tenants)}>"
