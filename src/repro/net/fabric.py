"""The InfiniBand fabric: a non-blocking switch with per-port links.

The paper's testbed uses one Mellanox MSB7800 100 Gbps switch; such a
switch is non-blocking, so contention only arises on the endpoint links.
Each attached port therefore gets a directional TX/RX channel pair at the
wire's effective data rate, and a path between two ports is simply
``[src.tx, dst.rx]`` plus a propagation latency.

100 Gbps EDR carries ~12.1 GB/s of payload after 64b/66b encoding and
transport headers; the link runs at 11.75 GB/s effective.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.errors import LinkDown, NetworkError
from repro.sim import Environment, SharedChannel
from repro.units import gbytes, usecs

#: Effective EDR payload rate of one link direction.
WIRE_EFFECTIVE_BPS = gbytes(11.75)


class Port:
    """An endpoint attachment: one TX and one RX channel.

    ``up`` is the link state the fault injector toggles: a flapped link
    refuses *new* paths (operations posted while it is down fail with
    :class:`LinkDown`); in-flight transfers are modelled as already
    committed to the wire and complete normally.
    """

    def __init__(self, env: Environment, name: str,
                 link_bw_bps: float) -> None:
        self.name = name
        self.tx = SharedChannel(env, link_bw_bps, f"{name}.tx")
        self.rx = SharedChannel(env, link_bw_bps, f"{name}.rx")
        self.up = True

    def __repr__(self) -> str:
        state = "up" if self.up else "DOWN"
        return f"<Port {self.name} {state}>"


class Fabric:
    """A single switch domain connecting every attached port."""

    def __init__(self, env: Environment, name: str = "ib0",
                 link_bw_bps: float = WIRE_EFFECTIVE_BPS,
                 latency_ns: int = usecs(1.0)) -> None:
        self.env = env
        self.name = name
        self.link_bw_bps = link_bw_bps
        self.latency_ns = latency_ns
        self._ports: Dict[str, Port] = {}

    def attach(self, endpoint_name: str) -> Port:
        """Create a port for *endpoint_name*; names must be unique."""
        if endpoint_name in self._ports:
            raise NetworkError(
                f"port name {endpoint_name!r} already attached to {self.name}")
        port = Port(self.env, f"{self.name}.{endpoint_name}",
                    self.link_bw_bps)
        self._ports[endpoint_name] = port
        return port

    def port(self, endpoint_name: str) -> Port:
        """Look up an attached port by endpoint name."""
        try:
            return self._ports[endpoint_name]
        except KeyError:
            raise NetworkError(
                f"no port named {endpoint_name!r} on fabric {self.name}"
            ) from None

    def path(self, src: Port, dst: Port) -> Tuple[List[SharedChannel], int]:
        """Channels and latency for a transfer from *src* to *dst*.

        Loopback (same port) stays inside the node and skips the wire.
        """
        if src is dst:
            return [], 0
        for port in (src, dst):
            if not port.up:
                raise LinkDown(f"link {port.name} is down")
        return [src.tx, dst.rx], self.latency_ns

    def set_link(self, endpoint_name: str, up: bool) -> None:
        """Administratively (or faultily) bring a port down or back up."""
        self.port(endpoint_name).up = up

    def __repr__(self) -> str:
        return f"<Fabric {self.name} ports={sorted(self._ports)}>"
