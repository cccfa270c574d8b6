"""Cluster topology: mapping ranks onto SMP nodes and links.

The validation systems of the paper are 2-way SMP clusters (Pentium-3 and
Opteron) plus a single 56-way shared-memory Altix node.  Messages between
ranks on the same node travel over a (fast) shared-memory "link"; messages
between nodes travel over the cluster interconnect.  The topology object
resolves which link a given rank pair uses and assigns ranks to nodes in the
same block fashion as the usual MPI process managers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import NetworkConfigError
from repro.simnet.link import LinkModel


@dataclass(frozen=True)
class ClusterTopology:
    """Node layout and link selection for a simulated cluster.

    Parameters
    ----------
    name:
        Cluster label.
    processors_per_node:
        Number of processors (MPI ranks) hosted by each SMP node.
    inter_node:
        Link model used between ranks on different nodes.
    intra_node:
        Link model used between ranks on the same node.  If ``None`` the
        inter-node link is used for every pair (single-link machine).
    max_nodes:
        Optional physical node-count limit; ``rank_limit`` derives from it.
    """

    name: str
    processors_per_node: int
    inter_node: LinkModel
    intra_node: LinkModel | None = None
    max_nodes: int | None = None

    def __post_init__(self) -> None:
        if self.processors_per_node < 1:
            raise NetworkConfigError("processors_per_node must be >= 1")
        if self.max_nodes is not None and self.max_nodes < 1:
            raise NetworkConfigError("max_nodes must be >= 1 when given")
        # Per-pair link resolution memo.  Link selection is a pure function
        # of the (frozen) topology, and the simulator resolves the same
        # neighbour pairs millions of times per run, so the lookup is cached.
        object.__setattr__(self, "_pair_cache", {})

    # ------------------------------------------------------------------

    @property
    def rank_limit(self) -> int | None:
        """Maximum number of ranks the physical machine can host (``None`` = unlimited)."""
        if self.max_nodes is None:
            return None
        return self.max_nodes * self.processors_per_node

    def node_of(self, rank: int) -> int:
        """SMP node index hosting ``rank`` (block assignment)."""
        if rank < 0:
            raise NetworkConfigError(f"invalid rank {rank}")
        return rank // self.processors_per_node

    def same_node(self, rank_a: int, rank_b: int) -> bool:
        """Whether two ranks share an SMP node."""
        return self.node_of(rank_a) == self.node_of(rank_b)

    def link_for(self, source: int, dest: int) -> LinkModel:
        """The link model governing messages from ``source`` to ``dest`` (memoised)."""
        key = (source, dest)
        cached = self._pair_cache.get(key)
        if cached is None:
            cached = self._pair_cache[key] = self._resolve_link(source, dest)
        return cached

    def _resolve_link(self, source: int, dest: int) -> LinkModel:
        if source == dest:
            # Self messages cost only the local copy; model them with the
            # intra-node link (or the inter-node link if none is defined).
            return self.intra_node or self.inter_node
        if self.intra_node is not None and self.same_node(source, dest):
            return self.intra_node
        return self.inter_node

    def validate_rank_count(self, nranks: int) -> None:
        """Raise :class:`NetworkConfigError` if the machine cannot host ``nranks``."""
        limit = self.rank_limit
        if limit is not None and nranks > limit:
            raise NetworkConfigError(
                f"{self.name} has only {limit} processors "
                f"({self.max_nodes} nodes x {self.processors_per_node}); "
                f"requested {nranks}")

    def describe(self) -> str:
        intra = self.intra_node.describe() if self.intra_node else "(inter-node link)"
        nodes = f", {self.max_nodes} nodes" if self.max_nodes else ""
        return (f"{self.name}: {self.processors_per_node} proc/node{nodes}; "
                f"inter={self.inter_node.describe()}; intra={intra}")


@dataclass
class LinkUsageStats:
    """Aggregate traffic statistics collected by the simulator (per topology)."""

    messages: int = 0
    bytes: float = 0.0
    intra_node_messages: int = 0
    inter_node_messages: int = 0
    by_tag: dict[int, int] = field(default_factory=dict)

    def record(self, topology: ClusterTopology, source: int, dest: int,
               nbytes: float, tag: int) -> None:
        """Record one message for reporting purposes."""
        self.messages += 1
        self.bytes += nbytes
        if topology.intra_node is not None and topology.same_node(source, dest):
            self.intra_node_messages += 1
        else:
            self.inter_node_messages += 1
        self.by_tag[tag] = self.by_tag.get(tag, 0) + 1
