"""The circular identifier space shared by node ids and topic ids.

The paper assigns both node ids and topic ids from the same identifier
space via a globally known uniform hash (they use SHA-1; any uniform hash
has the same behaviour).  We use a 64-bit space and ``blake2b`` with an
8-byte digest — deterministic across runs and processes, unlike Python's
built-in salted ``hash``.

:meth:`IdSpace.distance` is the circular (bidirectional) distance, used
to decide which node is *closest* to a topic id (rendezvous selection,
greedy routing, gateway comparison, Alg. 5 lines 8–9).

Ring order (successor = minimal clockwise distance ``(b - a) % size``)
is read off a sorted ring index in ``core/node.py``.
"""

from __future__ import annotations

import hashlib

__all__ = ["IdSpace", "DEFAULT_BITS"]

DEFAULT_BITS = 64


class IdSpace:
    """A ``2**bits`` circular identifier space with a uniform hash.

    Instances are cheap and stateless; a single instance is shared by an
    entire simulation so every component agrees on the geometry.
    """

    __slots__ = ("bits", "size", "half", "_hash_cache", "_node_ids", "_topic_ids")

    def __init__(self, bits: int = DEFAULT_BITS) -> None:
        if not 8 <= bits <= 160:
            raise ValueError("bits must be in [8, 160]")
        self.bits = bits
        self.size = 1 << bits
        #: Half the ring — the hinge of the bidirectional distance; hot
        #: loops hoist ``size``/``half`` into locals and inline the
        #: distance arithmetic instead of calling :meth:`distance`.
        self.half = self.size >> 1
        # Interning caches.  Hashing is pure (same key → same id forever)
        # and the key population is bounded by nodes + topics, so the
        # caches never need invalidation; unhashable keys fall through
        # uncached.
        self._hash_cache: dict = {}
        self._node_ids: dict = {}
        self._topic_ids: dict = {}

    # ------------------------------------------------------------------
    # Hashing
    # ------------------------------------------------------------------
    def hash_key(self, key) -> int:
        """Uniformly hash an arbitrary key (topic name, address, …) into
        the space.  Deterministic across processes."""
        try:
            cached = self._hash_cache.get(key)
        except TypeError:  # unhashable key: compute without interning
            data = repr(key).encode("utf-8")
            digest = hashlib.blake2b(data, digest_size=20).digest()
            return int.from_bytes(digest, "big") % self.size
        if cached is None:
            data = repr(key).encode("utf-8")
            digest = hashlib.blake2b(data, digest_size=20).digest()
            cached = int.from_bytes(digest, "big") % self.size
            self._hash_cache[key] = cached
        return cached

    def node_id(self, address: int) -> int:
        """The overlay id of the node at ``address``."""
        cached = self._node_ids.get(address)
        if cached is None:
            cached = self.hash_key(("node", address))
            self._node_ids[address] = cached
        return cached

    def topic_id(self, topic) -> int:
        """The overlay id of a topic — the paper's ``hash(t)``."""
        try:
            cached = self._topic_ids.get(topic)
        except TypeError:
            return self.hash_key(("topic", topic))
        if cached is None:
            cached = self.hash_key(("topic", topic))
            self._topic_ids[topic] = cached
        return cached

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------
    def distance(self, a: int, b: int) -> int:
        """Circular distance: ``min(|a-b|, size - |a-b|)``."""
        d = (a - b) % self.size
        return d if d <= self.half else self.size - d

