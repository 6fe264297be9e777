"""Per-line reference twin of the RMC hardware prefetcher.

:class:`ScalarPrefetchRMC` issues one read packet per prefetched line,
each through its own pipe service. The production burst path must fetch
the same lines and produce the same issued/hit/wasted counters and the
same bytes.
"""

from __future__ import annotations

from repro.ht.packet import make_read_req
from repro.rmc.rmc import RMC
from repro.units import CACHE_LINE

__all__ = ["ScalarPrefetchRMC", "install_scalar_prefetch"]


class ScalarPrefetchRMC(RMC):
    """An :class:`RMC` whose prefetches go out one line per packet.

    The same callback-chain form as the production path, one line per
    step: each line is checked, reserved, decoded through the prefetch
    pipe and launched in turn, and the next candidate is examined only
    once the fabric admitted the previous one.
    """

    def _issue_prefetches(self, demand_addr: int) -> None:
        self._next_prefetch_run((demand_addr, 1))

    def _next_prefetch_run(self, issue: tuple) -> None:
        demand_addr, first = issue
        owner = self.amap.node_of(demand_addr)
        line_addr = demand_addr & ~(CACHE_LINE - 1)
        for d in range(first, self.config.prefetch_depth + 1):
            pf_addr = line_addr + d * CACHE_LINE
            if self.amap.node_of(pf_addr) != owner:
                return  # never cross the owner window
            if (
                pf_addr in self._prefetch_data
                or pf_addr in self._prefetch_inflight
            ):
                continue
            self._prefetch_inflight.add(pf_addr)
            self._pipe_service(
                self._prefetch_pipe, self.config.per_op_ns(),
                self._prefetch_run_decoded, (demand_addr, d, owner, pf_addr),
            )
            return

    def _prefetch_run_decoded(self, job: tuple) -> None:
        demand_addr, d, owner, pf_addr = job
        pf_request = make_read_req(
            self.node_id, owner, pf_addr, CACHE_LINE, self.tags.next()
        )
        self._launch_prefetch(
            pf_request, 1, self._next_prefetch_run, (demand_addr, d + 1)
        )


def install_scalar_prefetch(cluster):
    """Rebind every RMC of a built *cluster* to :class:`ScalarPrefetchRMC`."""
    for node in cluster.nodes.values():
        node.rmc.__class__ = ScalarPrefetchRMC
    return cluster
