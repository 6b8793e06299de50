"""Unstructured gossip substrate.

- :mod:`repro.gossip.view` — node descriptors and bounded partial views
  with age-based freshness (the common currency of all gossip protocols).
- :mod:`repro.gossip.peer_sampling` — Newscast-style peer sampling service
  (the paper's choice; "any implementation can be used").
- :mod:`repro.gossip.cyclon` — Cyclon shuffle variant, for comparison and
  robustness experiments.

The T-Man routing-table exchange the protocol runs on top of these is
:meth:`repro.core.node.VitisNode.tman_step`.
"""

from repro.gossip.view import Descriptor, PartialView
from repro.gossip.peer_sampling import PeerSamplingService
from repro.gossip.cyclon import CyclonService

__all__ = [
    "CyclonService",
    "Descriptor",
    "PartialView",
    "PeerSamplingService",
]
