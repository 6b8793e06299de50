"""Base node lifecycle.

A node is identified by an integer *address* assigned by the network at
registration time, distinct from its overlay *identifier* (the position in
the hashed id space, see :mod:`repro.core.identifiers`).  Addresses model
"the machine" (IP/port); ids model "the overlay position".
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.sim.network import Network

__all__ = ["BaseNode"]


class BaseNode:
    """Lifecycle shared by all protocol nodes.

    The network hands a delivered message to its destination's
    ``on_message(msg)``, which only message-driven nodes define;
    cycle-driven ones are stepped by their protocol's cycle loop.
    """

    __slots__ = ("address", "alive", "network", "joined_at")

    def __init__(self, address: int) -> None:
        self.address = address
        self.alive = False
        self.network: Optional["Network"] = None
        #: Simulated time of the most recent (re)join; used by the paper's
        #: "hit ratio 10 seconds after join" measurement rule.
        self.joined_at: float = 0.0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Bring the node online.  Idempotent."""
        self.alive = True
        if self.network is not None:
            self.joined_at = self.network.engine.now

    def stop(self) -> None:
        """Take the node offline (crash or graceful leave).  Idempotent.

        Protocol state is *not* cleared by default; subclasses model
        crash-with-amnesia by overriding and resetting their tables.
        """
        self.alive = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "up" if self.alive else "down"
        return f"<{type(self).__name__} addr={self.address} {state}>"
