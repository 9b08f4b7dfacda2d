"""The benchmark's workloads: seeded inputs, set-up, timed loop, fingerprint.

Every workload builds its inputs from the seed alone, before set-up
starts, and hands the program only those generated inputs. An "op" is
one event the workload schedules on a :class:`repro.sim.Simulator`;
its host latency is taken through the simulator's profiler hook. The
one exception is ``tree_sweep``, which has no simulator: there an op is
one ``compare_trees`` call of the Figure 4 comparison.

Why each workload exists is written down in ``perfbench/README.md``.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
import time
import traceback
from typing import Callable, Dict, List, Optional, Tuple

from repro.addressing.prefix import Prefix
from repro.bgmp.network import BgmpNetwork
from repro.bgp.network import BgpNetwork
from repro.experiments import fig4
from repro.masc.simulation import ClaimSimulation, SimulationConfig
from repro.sim.engine import Simulator
from repro.topology import generators
from repro.topology.domain import DomainKind

from speed import MAX_PASSES, PROBE_EVERY_S, SpeedProbe

#: The fixed AS graph. Seeds vary the schedule over the same graph, as
#: a deployment sees new traffic on the same internet.
TOPOLOGY_SEED = 1998
#: The G-RIB workloads run at the internet smoke scale.
DOMAINS = 800
GROUP_DOMAINS = 24
GROUPS_PER_DOMAIN = 24
INITIAL_MEMBERS = 2
REPAIR_EVERY = 25
#: internet_churn: churn ops per phase; each phase ends with one root
#: flap and one transit router fault.
PHASES = 1
CHURN_PER_PHASE = 400
#: membership_churn: churn ops in the timed loop.
MEMBERSHIP_OPS = 2000
#: masc_alloc: the Figure 2 claim-collide simulation.
MASC_TOPS = 5
MASC_CHILDREN = 50
MASC_DAYS = 100.0
#: tree_sweep: Figure 4 trials at one group size on the 3326-node graph.
SWEEP_NODES = 3326
SWEEP_GROUP_SIZE = 100
SWEEP_TRIALS = 60

COVERING_RANGE = Prefix(224 << 24, 4)


def group_prefix(domain_id: int) -> Prefix:
    """The /20 a group domain originates out of 224/4."""
    return Prefix((224 << 24) | (domain_id << 12), 20)


def static_migp(domain) -> str:
    """Every domain is an IGMP-only stub at this scale."""
    return "static"


def sha256_json(value) -> str:
    payload = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class OpTimer:
    """Simulator profiler hook that keeps each event's start and host
    seconds. With a :class:`speed.SpeedProbe`, it takes reference passes
    after an op once ``speed.PROBE_EVERY_S`` has passed since the last
    ones, outside every op's time: one per ``PROBE_EVERY_S`` elapsed, up
    to ``speed.MAX_PASSES``, so a long op is sampled as densely as a run
    of short ones."""

    def __init__(self, probe: Optional[SpeedProbe] = None) -> None:
        self.starts: List[float] = []
        self.seconds: List[float] = []
        self.probe = probe
        self._next_probe = time.perf_counter() + PROBE_EVERY_S

    def begin(self) -> float:
        return time.perf_counter()

    def record(self, event, token: float, queue_depth: int) -> None:
        now = time.perf_counter()
        self.starts.append(token)
        self.seconds.append(now - token)
        if self.probe is not None and now >= self._next_probe:
            elapsed = now - self._next_probe + PROBE_EVERY_S
            self.probe.sample(min(int(elapsed / PROBE_EVERY_S), MAX_PASSES))
            self._next_probe = time.perf_counter() + PROBE_EVERY_S


class Workload:
    """One seeded repetition: ``setup()``, then ``loop(timer)``.

    ``attempted`` and ``failed`` count the loop's ops; ``fingerprint()``
    digests every simulated result the loop produced, and ``counters()``
    returns the program's own deterministic counters for the loop.
    """

    name = ""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.attempted = 0
        self.failed = 0

    def setup(self) -> None:
        raise NotImplementedError

    def loop(self, timer: OpTimer) -> None:
        raise NotImplementedError

    def fingerprint(self) -> str:
        raise NotImplementedError

    def counters(self) -> Dict[str, int]:
        return {}


class GribWorkload(Workload):
    """The internet smoke shape: an 800-domain AS graph with 24x24 groups
    on the incremental BGP and BGMP engines and static MIGP everywhere.
    Subclasses add the timed loop's ops after the initial joins."""

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        rng = random.Random(f"{self.name}/{seed}")
        self._serial = 0
        self._active: List[Tuple[int, int, str]] = []
        self.groups = [
            (224 << 24) | (index << 12) | offset
            for index in range(1, 1 + GROUP_DOMAINS)
            for offset in range(GROUPS_PER_DOMAIN)
        ]
        self.initial_joins = [
            self._add_member(rng, group)
            for group in self.groups
            for _ in range(INITIAL_MEMBERS)
        ]
        self.ops = self.build_ops(rng)
        self.repairs: List[Tuple[int, int, int]] = []
        self.deliveries: List[int] = []
        self.phase_digests: List[Tuple[str, str]] = []

    # -- input generation ------------------------------------------------

    def _add_member(self, rng: random.Random, group: int) -> Tuple:
        self._serial += 1
        op = ("join", rng.randrange(DOMAINS), group, f"h{self._serial}")
        self._active.append(op[1:])
        return op

    def churn_op(self, rng: random.Random) -> Tuple:
        """45% join, 30% leave, 25% send, as in the repo's churn runs."""
        roll = rng.random()
        if roll < 0.45 or not self._active:
            return self._add_member(rng, rng.choice(self.groups))
        if roll < 0.75:
            domain, group, host = self._active.pop(
                rng.randrange(len(self._active))
            )
            return ("leave", domain, group, host)
        return ("send", rng.randrange(DOMAINS), rng.choice(self.groups))

    def churn_ops(self, rng: random.Random, count: int) -> List[Tuple]:
        ops: List[Tuple] = []
        for step in range(count):
            ops.append(self.churn_op(rng))
            if (step + 1) % REPAIR_EVERY == 0:
                ops.append(("repair",))
        return ops

    def build_ops(self, rng: random.Random) -> List[Tuple]:
        raise NotImplementedError

    # -- set-up -----------------------------------------------------------

    def setup(self) -> None:
        topology = generators.as_graph(
            random.Random(TOPOLOGY_SEED), node_count=DOMAINS
        )
        network = BgmpNetwork(
            topology,
            bgp=BgpNetwork(topology, incremental=True),
            migp_selector=static_migp,
            auto_unicast=False,
            incremental=True,
        )
        network.originate_group_range(topology.domains[0], COVERING_RANGE)
        for domain in topology.domains[1 : 1 + GROUP_DOMAINS]:
            network.originate_group_range(
                domain, group_prefix(domain.domain_id)
            )
        if not network.bgp.try_converge().converged:
            raise RuntimeError("initial BGP convergence ran out of rounds")
        self.topology = topology
        self.network = network
        for _kind, domain, group, host in self.initial_joins:
            network.join(topology.domains[domain].host(host), group)
        network.repair_trees()
        self._start = self._program_counters()

    # -- ops ----------------------------------------------------------------

    def _repair(self) -> bool:
        counters = self.network.repair_trees()
        self.repairs.append(
            (counters["migrations"], counters["rejoined"], counters["pruned"])
        )
        return True

    def _join(self, domain: int, group: int, host: str) -> bool:
        self.network.join(self.topology.domains[domain].host(host), group)
        return True

    def _leave(self, domain: int, group: int, host: str) -> bool:
        self.network.leave(self.topology.domains[domain].host(host), group)
        return True

    def _send(self, domain: int, group: int) -> bool:
        report = self.network.send(
            self.topology.domains[domain].host("src"), group
        )
        self.deliveries.append(report.total_deliveries)
        return True

    def _reconverge(self) -> bool:
        converged = self.network.bgp.try_converge().converged
        self._repair()
        return converged

    def _phase_end(self) -> None:
        self.phase_digests.append(
            (self.network.forwarding_digest(), self.network.bgp.rib_digest())
        )

    def _flap(self, domain_index: int) -> bool:
        """Withdraw and restore one group domain's root /20."""
        domain = self.topology.domains[domain_index]
        prefix = group_prefix(domain.domain_id)
        self.network.bgp.withdraw(domain.router(), prefix)
        converged = self._reconverge()
        self.network.originate_group_range(domain, prefix)
        converged = self._reconverge() and converged
        self._phase_end()
        return converged

    def _fault(self, domain_index: int) -> bool:
        """Crash and restore one transit domain's border router."""
        router = self.topology.domains[domain_index].router()
        self.network.bgp.fail_router(router)
        converged = self._reconverge()
        self.network.bgp.restore_router(router)
        converged = self._reconverge() and converged
        self._phase_end()
        return converged

    def _dispatch(self, kind: str, *args) -> None:
        handler: Callable[..., bool] = getattr(self, f"_{kind}")
        self.attempted += 1
        try:
            ok = handler(*args)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            ok = False
        if not ok:
            self.failed += 1

    def loop(self, timer: OpTimer) -> None:
        sim = Simulator()
        for index, op in enumerate(self.ops):
            sim.schedule_at(float(index), self._dispatch, *op, name=op[0])
        sim.set_profiler(timer)
        sim.run()

    # -- results ------------------------------------------------------------

    def _program_counters(self) -> Dict[str, int]:
        network = self.network
        routers = network.bgmp_routers()
        return {
            "bgp.updates_sent": network.bgp.updates_sent,
            "bgmp.grib_deltas": network.grib_deltas_seen,
            "bgmp.groups_invalidated": network.groups_invalidated,
            "bgmp.joins_sent": sum(r.joins_sent for r in routers),
            "bgmp.prunes_sent": sum(r.prunes_sent for r in routers),
        }

    def counters(self) -> Dict[str, int]:
        end = self._program_counters()
        out = {name: end[name] - self._start[name] for name in end}
        out["bgmp.state_entries"] = self.network.forwarding_state_size()
        return out

    def fingerprint(self) -> str:
        return sha256_json(
            {
                "forwarding_digest": self.network.forwarding_digest(),
                "rib_digest": self.network.bgp.rib_digest(),
                "repairs": self.repairs,
                "deliveries": self.deliveries,
                "phase_digests": self.phase_digests,
            }
        )


class InternetChurn(GribWorkload):
    """Membership churn between phases; each phase ends with a root /20
    flap and a transit router crash/restore. The G-RIB is written."""

    name = "internet_churn"

    def build_ops(self, rng: random.Random) -> List[Tuple]:
        # Flap and fault cost depend mostly on which domain is hit (0.6 s
        # to 4.6 s for one flap at this scale), so seed-drawn targets
        # would make the seed, not the program, set run_s. Phase p flaps
        # the group domain and faults the transit domain with the p-th
        # most neighbours; the seed draws the churn.
        topology = generators.as_graph(
            random.Random(TOPOLOGY_SEED), node_count=DOMAINS
        )
        domains = topology.domains

        def by_degree(indexes):
            return sorted(
                indexes,
                key=lambda index: (-topology.degree(domains[index]), index),
            )

        flapped = by_degree(range(1, 1 + GROUP_DOMAINS))
        faulted = by_degree(
            index
            for index in range(1 + GROUP_DOMAINS, DOMAINS)
            if domains[index].kind is not DomainKind.STUB
        )
        ops: List[Tuple] = []
        for phase in range(PHASES):
            ops.extend(self.churn_ops(rng, CHURN_PER_PHASE))
            ops.append(("flap", flapped[phase]))
            ops.append(("fault", faulted[phase]))
        return ops


class MembershipChurn(GribWorkload):
    """Join/leave/send only, with a repair every 25 ops. The G-RIB is
    only read."""

    name = "membership_churn"

    def build_ops(self, rng: random.Random) -> List[Tuple]:
        return self.churn_ops(rng, MEMBERSHIP_OPS)


class MascAlloc(Workload):
    """The Figure 2 claim-collide simulation at 5 tops x 50 children."""

    name = "masc_alloc"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.config = SimulationConfig(
            top_count=MASC_TOPS,
            children_per_top=MASC_CHILDREN,
            duration_days=MASC_DAYS,
            seed=seed,
        )
        self.result = None

    def setup(self) -> None:
        self.simulation = ClaimSimulation(self.config)

    def loop(self, timer: OpTimer) -> None:
        self.simulation.sim.set_profiler(timer)
        try:
            self.result = self.simulation.run()
        finally:
            self.attempted = len(timer.seconds)

    def counters(self) -> Dict[str, int]:
        return {
            "masc.claims_made": self.result.claims_made,
            "masc.doublings": self.result.doublings,
        }

    def fingerprint(self) -> str:
        result = self.result
        series = {
            name: [list(ts.times), list(ts.values)]
            for name, ts in (
                ("utilization", result.utilization),
                ("grib_mean", result.grib_mean),
                ("grib_max", result.grib_max),
            )
        }
        claims = {
            "requests_served": result.requests_served,
            "requests_failed": result.requests_failed,
            "claims_made": result.claims_made,
            "doublings": result.doublings,
            "consolidations": result.consolidations,
        }
        return sha256_json({"series": series, "claims": claims})


class TreeSweep(Workload):
    """Figure 4 path-length comparisons at one group size on the
    3326-node graph: ``run_figure4`` with a single x-position and many
    trials. The full sweep's ``compare_trees`` latencies span 10 ms to
    2 s by group size, too spread for a regression bound (README.md).
    The graph is built in set-up for every repetition: its BFS cache
    makes a warm pass faster, and users pay the cold cost."""

    name = "tree_sweep"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.config = fig4.Figure4Config(
            node_count=SWEEP_NODES,
            group_sizes=(SWEEP_GROUP_SIZE,),
            trials_per_size=SWEEP_TRIALS,
            seed=seed,
        )
        self.result: Optional[fig4.Figure4Result] = None

    def setup(self) -> None:
        self.topology = generators.as_graph(
            random.Random(TOPOLOGY_SEED), node_count=SWEEP_NODES
        )

    def _timed_compare(self, scenario):
        """One op: a ``compare_trees`` call, timed like a simulator
        event."""
        token = self.timer.begin()
        self.attempted += 1
        comparison = self._compare(scenario)
        self.timer.record(None, token, 0)
        return comparison

    def loop(self, timer: OpTimer) -> None:
        self.timer = timer
        self._compare = fig4.compare_trees
        fig4.compare_trees = self._timed_compare
        try:
            self.result = fig4.run_figure4(self.config, topology=self.topology)
        finally:
            fig4.compare_trees = self._compare

    def fingerprint(self) -> str:
        return hashlib.sha256(self.result.table().encode("utf-8")).hexdigest()


WORKLOADS: Dict[str, type] = {
    cls.name: cls
    for cls in (InternetChurn, MembershipChurn, MascAlloc, TreeSweep)
}
