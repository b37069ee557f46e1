"""Routing policy: ring lookup, health failover, work stealing.

The :class:`Router` is the one deterministic decision procedure both
cluster front-ends share -- the live threaded
:class:`~repro.cluster.frontend.ClusterFrontend` and the virtual-time
:func:`~repro.cluster.driver.replay_cluster_trace` -- so a trace
replayed with the same seeds produces *identical shard assignments*
in either mode.  Given the same key, the same ring membership, the
same blocked set, and the same queue depths, :meth:`Router.route`
always returns the same decision.

Decision order, per request:

1. **affinity** -- the consistent-hash ring maps the request's shape
   signature to its *home* shard (same shapes, same warm PlanCache);
2. **failover** -- if the home shard is blocked (open circuit
   breaker, refused half-open probe), walk the ring's failover chain
   to the next unblocked shard;
3. **stealing** -- if the chosen shard's queue depth exceeds the
   least-loaded routable shard's by at least ``steal_threshold``,
   send the request there instead: affinity is worth one cache hit,
   not unbounded queueing delay behind a skewed key (the work-centric
   Stream-K argument applied to requests instead of tiles).

Shard lifecycle is owned here too: ``ACTIVE`` shards are on the ring;
``DRAINING`` / ``EJECTED`` / ``DEAD`` shards are off it (new traffic
remaps minimally to ring successors) but keep their identity so they
can :meth:`rejoin`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Optional, Sequence

from repro.cluster.hashring import HashRing

__all__ = ["ShardState", "RouteDecision", "Router", "signature_key"]


def signature_key(gemm, precision=None) -> str:
    """The routing key of one GEMM: its shape signature, dtype-qualified.

    Everything planning cares about per problem -- ``m x n x k``, the
    transpose flags, and (when given) the storage ``precision`` -- and
    nothing it does not (alpha/beta only touch the epilogue), mirroring
    :func:`repro.core.problem.batch_signature` at single-GEMM
    granularity so equal-signature requests share a shard and batch
    into repeating cache keys.  Tiling decisions are dtype-aware
    (strategy pools and occupancy shift at half-width storage), so an
    fp16 request must not share a cache key with an fp32 request of
    the same shape; ``precision=None`` keeps the historical fp32 key
    unchanged, so existing ring placements are undisturbed.
    """
    key = f"{gemm.m}x{gemm.n}x{gemm.k}"
    if gemm.trans_a or gemm.trans_b:
        key += f"/{'t' if gemm.trans_a else 'n'}{'t' if gemm.trans_b else 'n'}"
    if precision is not None:
        from repro.core.precision import Precision

        key += f"@{Precision.coerce(precision).value}"
    return key


class ShardState(str, Enum):
    """Lifecycle of one shard, as routing sees it."""

    ACTIVE = "active"  # on the ring, taking traffic
    DRAINING = "draining"  # off the ring, finishing queued work
    EJECTED = "ejected"  # off the ring by operator decision
    DEAD = "dead"  # off the ring after a crash/kill


@dataclass(frozen=True)
class RouteDecision:
    """Where one request went, and why."""

    shard: int  # final destination
    home: int  # the ring's affinity answer
    stolen: bool = False  # rerouted by queue-depth skew
    failover: bool = False  # home was blocked; walked the chain


class Router:
    """Deterministic shard selection over a consistent-hash ring.

    Not thread-safe on its own -- the live front-end serializes calls
    under its submission lock, the replay driver is single-threaded.
    """

    def __init__(
        self,
        shards: int,
        *,
        vnodes: int = 64,
        steal_threshold: Optional[int] = None,
    ):
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self.steal_threshold = steal_threshold
        self._names = tuple(f"shard-{i}" for i in range(shards))
        self._states = {i: ShardState.ACTIVE for i in range(shards)}
        self._ring = HashRing(self._names, vnodes=vnodes)
        self.routed: dict[int, int] = {i: 0 for i in range(shards)}
        self.steals = 0
        self.failovers = 0

    # -- membership ---------------------------------------------------

    @property
    def shards(self) -> int:
        return len(self._names)

    def state(self, shard: int) -> ShardState:
        """The lifecycle state of one shard."""
        return self._states[shard]

    def states(self) -> dict[int, str]:
        """Shard id -> state value (JSON-compatible)."""
        return {i: s.value for i, s in self._states.items()}

    def active_shards(self) -> tuple[int, ...]:
        """Shard ids currently on the ring (taking new traffic)."""
        return tuple(
            i for i in range(self.shards) if self._states[i] is ShardState.ACTIVE
        )

    def _set_state(self, shard: int, state: ShardState) -> None:
        if shard not in self._states:
            raise KeyError(f"unknown shard {shard}")
        self._states[shard] = state
        name = self._names[shard]
        if state is ShardState.ACTIVE:
            self._ring.add_node(name)
        else:
            self._ring.remove_node(name)

    def drain(self, shard: int) -> None:
        """Stop routing new work to ``shard``; it finishes its queue."""
        self._set_state(shard, ShardState.DRAINING)

    def eject(self, shard: int) -> None:
        """Remove ``shard`` from service (operator decision)."""
        self._set_state(shard, ShardState.EJECTED)

    def mark_dead(self, shard: int) -> None:
        """Record ``shard`` as crashed; its keys remap to successors."""
        self._set_state(shard, ShardState.DEAD)

    def rejoin(self, shard: int) -> None:
        """Bring ``shard`` back onto the ring (only its keys remap back)."""
        self._set_state(shard, ShardState.ACTIVE)

    # -- routing ------------------------------------------------------

    def _id_of(self, name: str) -> int:
        return int(name.rsplit("-", 1)[1])

    def route(
        self,
        key: str,
        depths: Mapping[int, int],
        *,
        blocked: Sequence[int] = (),
    ) -> RouteDecision:
        """Pick the shard for ``key``.

        ``depths`` maps each shard id to its current queue depth (the
        stealing signal); ``blocked`` lists shards whose circuit
        breaker currently refuses traffic.  Raises :class:`LookupError`
        when no active, unblocked shard remains.

        Pure decision -- counters move only when the caller commits
        the decision with :meth:`record` (the live front-end may
        re-route when a half-open breaker refuses the probe, and a
        discarded decision must not count).
        """
        blocked_set = set(blocked)
        chain = [
            self._id_of(name)
            for name in self._ring.lookup_chain(key)
        ]
        if not chain:
            raise LookupError("no active shard on the ring")
        ring_home = chain[0]
        routable = [i for i in chain if i not in blocked_set]
        if not routable:
            raise LookupError("every active shard is blocked")
        home = routable[0]
        target = home
        stolen = False
        if self.steal_threshold is not None and len(routable) > 1:
            # Deterministic argmin: depth first, shard id as tie-break.
            lightest = min(routable, key=lambda i: (depths.get(i, 0), i))
            if (
                lightest != home
                and depths.get(home, 0) - depths.get(lightest, 0)
                >= self.steal_threshold
            ):
                target = lightest
                stolen = True
        return RouteDecision(
            shard=target,
            home=ring_home,
            stolen=stolen,
            failover=home != ring_home,
        )

    def record(self, decision: RouteDecision) -> None:
        """Commit one routing decision into the counters."""
        if decision.stolen:
            self.steals += 1
        if decision.failover:
            self.failovers += 1
        self.routed[decision.shard] += 1

    def snapshot(self) -> dict:
        """Routing state and counters (JSON-compatible)."""
        return {
            "shards": self.shards,
            "states": {str(i): s.value for i, s in self._states.items()},
            "active": list(self.active_shards()),
            "routed": {str(i): n for i, n in self.routed.items()},
            "steals": self.steals,
            "failovers": self.failovers,
            "steal_threshold": self.steal_threshold,
        }
