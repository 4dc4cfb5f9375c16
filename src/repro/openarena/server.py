"""An OpenArena-like first-person-shooter server (Section VI-B).

OpenArena is a Quake III-engine game: UDP transport, a fixed server
frame loop, and a default update frequency of 20 snapshots per second
to every connected client.  The model reproduces the traffic shape and
the memory behaviour that matter for migration: per-frame game-state
writes dirty a set of pages proportional to the player count, and every
frame sends one snapshot datagram per client.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..des import Environment
from ..net import Endpoint
from ..oskern import SimProcess
from ..oskern.node import Host

__all__ = ["GameServerConfig", "OpenArenaServer"]

DEFAULT_PORT = 27960


@dataclass(frozen=True)
class GameServerConfig:
    """Quake III-flavoured server parameters."""

    port: int = DEFAULT_PORT
    #: sv_fps-equivalent: snapshots per second (Quake III default: 20).
    update_hz: float = 20.0
    #: Snapshot datagram payload (entity states, ~hundreds of bytes).
    snapshot_bytes: int = 420
    #: Total server memory footprint in pages (~20 MiB).
    memory_pages: int = 5000
    #: Pages of game state written per frame, base + per-client.
    dirty_pages_base: int = 280
    dirty_pages_per_client: int = 15
    #: CPU demand: base + per-client (fraction of one core).
    cpu_base: float = 0.05
    cpu_per_client: float = 0.012
    #: Game-state writes are spread over this many sub-ticks per frame
    #: (input processing, physics, AI all mutate state between
    #: snapshots), so the freeze-phase dirty set is roughly one frame's
    #: worth regardless of where the freeze lands in the frame cycle.
    work_subticks: int = 8


class OpenArenaServer:
    """The migratable game-server process."""

    def __init__(
        self,
        host: Host,
        config: Optional[GameServerConfig] = None,
        name: str = "oa_ded",
    ) -> None:
        self.host = host
        self.env: Environment = host.env
        self.config = config or GameServerConfig()
        self.proc: SimProcess = host.kernel.spawn_process(name)
        self._game_state = self.proc.address_space.mmap(
            self.config.memory_pages, tag="game-state"
        )
        self.socket = host.stack.udp_socket(self.proc)
        self.socket.bind(self.config.port, ip=host.public_ip)
        #: client endpoint -> join time.
        self.clients: dict[Endpoint, float] = {}
        self.frames = 0
        self.inputs_processed = 0
        self._pending_inputs: list = []
        self._started = False

    @property
    def frame_interval(self) -> float:
        return 1.0 / self.config.update_hz

    def start(self) -> None:
        """Launch the receive and frame loops."""
        if self._started:
            raise RuntimeError("server already started")
        self._started = True
        self.env.process(self._receive_loop(), name="oa-recv")
        self.env.process(self._frame_loop(), name="oa-frame")

    # -- network input -----------------------------------------------------------
    def _receive_loop(self):
        while True:
            yield from self.proc.check_frozen()
            skb = yield self.socket.recv()
            kind = skb.payload[0] if isinstance(skb.payload, tuple) else skb.payload
            if kind == "connect":
                self._on_connect(skb.src)
            elif kind == "disconnect":
                self.clients.pop(skb.src, None)
                self._update_cpu_demand()
            else:
                self._pending_inputs.append((skb.src, skb.payload))

    def _on_connect(self, src: Endpoint) -> None:
        if src not in self.clients:
            self.clients[src] = self.env.now
            self._update_cpu_demand()
        self.socket.sendto(("connect-ack",), 64, src)

    def _update_cpu_demand(self) -> None:
        cfg = self.config
        demand = cfg.cpu_base + cfg.cpu_per_client * len(self.clients)
        # The process may have migrated: charge the current kernel.
        self.proc.kernel.cpu.set_demand(self.proc, demand)

    # -- the real-time loop --------------------------------------------------------
    def _frame_loop(self):
        cfg = self.config
        subticks = max(1, cfg.work_subticks)
        tick = 0
        while True:
            # Mutate game state continuously across the frame.
            for _ in range(subticks):
                yield from self.proc.check_frozen()
                yield self.env.timeout(self.frame_interval / subticks)
                yield from self.proc.check_frozen()
                tick += 1
                ndirty = min(
                    (cfg.dirty_pages_base + cfg.dirty_pages_per_client * len(self.clients))
                    // subticks,
                    self._game_state.npages,
                )
                offset = (tick * ndirty) % max(1, self._game_state.npages - ndirty)
                self.proc.address_space.write_range(
                    self._game_state, count=ndirty, offset=offset
                )
            self.frames += 1
            self.inputs_processed += len(self._pending_inputs)
            self._pending_inputs.clear()
            # Snapshot every client at the frame boundary.
            # The third element is the send timestamp — clients use it
            # for the dve.client.latency histogram; older consumers only
            # look at payload[0]/payload[1], so the extension is benign.
            for client in list(self.clients):
                self.socket.sendto(
                    ("snapshot", self.frames, self.env.now),
                    cfg.snapshot_bytes,
                    client,
                )

    @property
    def n_clients(self) -> int:
        return len(self.clients)
