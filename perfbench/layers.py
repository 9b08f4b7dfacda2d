"""Which program functions the traced pass wraps, and the per-layer metrics.

Each target is ``(span name, module, qualified name)``. The span name's
first dotted part is the layer (the ``repro`` package the function
lives in); several functions may share one span name, and their self
times and calls add up. Only layer-boundary functions are wrapped: the
calls a workload makes into a layer and the hot public helpers the
per-layer table names. Wrapping every small accessor would cost more
than the work it measures. Spans named ``bench.*`` wrap the benchmark's
own op handlers; they belong to no layer, so the program code they run
without a wrapped call in between is not counted as covered.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

_PREFIX_TRIE = (
    "covering_allocation", "overlapping", "insert", "remove",
    "allocations", "free_prefixes", "shortest_free_prefixes", "utilized",
)
_ALLOCATOR = (
    "candidates", "select", "claim", "claim_exact", "release", "is_free",
    "can_double", "double", "free_space",
)
_CLAIM_SOURCE = (
    "select_claim", "commit_claim", "grow_claim", "can_grow_claim",
    "release_claim", "renew_claim", "shrink_claim",
)


def _methods(name: str, module: str, cls: str, methods) -> List[Tuple]:
    return [(name, module, f"{cls}.{method}") for method in methods]


TARGETS: List[Tuple[str, str, str]] = [
    ("sim.run", "repro.sim.engine", "Simulator.run"),
    *_methods("sim.schedule", "repro.sim.engine", "Simulator",
              ("schedule", "schedule_at")),
    *_methods("addressing.lpm", "repro.addressing.trie", "LpmTrie",
              ("lookup", "covered")),
    *_methods("addressing.lpm_update", "repro.addressing.trie", "LpmTrie",
              ("insert", "remove")),
    *_methods("addressing.prefix_trie", "repro.addressing.trie",
              "PrefixTrie", _PREFIX_TRIE),
    *_methods("addressing.allocator", "repro.addressing.allocator",
              "PrefixAllocator", _ALLOCATOR),
    ("topology.build", "repro.topology.generators", "as_graph"),
    *_methods("topology.bfs", "repro.topology.network", "Topology",
              ("distance", "shortest_path", "shortest_path_tree")),
    ("bgp.converge", "repro.bgp.network", "BgpNetwork.try_converge"),
    ("bgp.decide", "repro.bgp.speaker", "BgpSpeaker.recompute"),
    ("bgp.rib_digest", "repro.bgp.network", "BgpNetwork.rib_digest"),
    *_methods("bgp.lookup", "repro.bgp.network", "BgpNetwork",
              ("root_domain_of", "group_next_hop")),
    *_methods("bgp.mutate", "repro.bgp.network", "BgpNetwork",
              ("originate", "originate_from_domain", "withdraw",
               "fail_router", "restore_router", "set_session_state")),
    ("bgmp.join", "repro.bgmp.network", "BgmpNetwork.join"),
    ("bgmp.leave", "repro.bgmp.network", "BgmpNetwork.leave"),
    ("bgmp.send", "repro.bgmp.network", "BgmpNetwork.send"),
    ("bgmp.repair", "repro.bgmp.network", "BgmpNetwork.repair_trees"),
    ("bgmp.grib_delta", "repro.bgmp.network", "BgmpNetwork.grib_deltas"),
    ("bgmp.digest", "repro.bgmp.network", "BgmpNetwork.forwarding_digest"),
    *_methods("bgmp.mutate", "repro.bgmp.network", "BgmpNetwork",
              ("originate_group_range", "forwarding_state_size")),
    ("masc.request", "repro.masc.maas", "MaasServer.request_block"),
    *_methods("masc.maas", "repro.masc.maas", "MaasServer",
              ("expire_blocks", "next_request_delay")),
    *_methods("masc.manager", "repro.masc.manager", "DomainSpaceManager",
              ("request_block", "release_block", "prefix_count")),
    ("masc.claim", "repro.masc.manager", "DomainSpaceManager.expand"),
    *_methods("masc.claim", "repro.masc.manager", "DomainSpaceManager",
              _CLAIM_SOURCE),
    *_methods("masc.claim", "repro.masc.manager", "RootClaimSource",
              _CLAIM_SOURCE),
    *_methods("masc.maintain", "repro.masc.manager", "DomainSpaceManager",
              ("maintain", "shed_excess", "maybe_proactive_expand")),
    *_methods("masc.event", "repro.masc.simulation", "ClaimSimulation",
              ("_request", "_expire", "_maintain", "_sample")),
    ("analysis.compare_trees", "repro.analysis.trees", "compare_trees"),
    ("analysis.scenario", "repro.analysis.trees", "GroupScenario.random"),
    # The benchmark's own op handlers: their self time is harness work,
    # so it is kept out of every layer and out of trace.coverage.
    ("bench.op", "workloads", "GribWorkload._dispatch"),
    ("bench.op", "workloads", "TreeSweep._timed_compare"),
]

SPAN_NAMES: List[str] = list(dict.fromkeys(name for name, _, _ in TARGETS))
LAYERS: Tuple[str, ...] = (
    "sim", "addressing", "topology", "bgp", "bgmp", "masc", "analysis",
)


class ResultCounters:
    """Counts taken from wrapped calls' return values."""

    def __init__(self) -> None:
        self.values: Dict[str, int] = {
            "sim.events": 0,
            "bgp.rounds": 0,
            "bgp.decide_useful": 0,
            "bgmp.repair_actions": 0,
            "masc.request_failed": 0,
        }

    def hooks(self) -> Dict[str, Any]:
        """Return-value hooks for :func:`tracer.install`, by qualname."""
        values = self.values

        def sim_run(executed: int) -> None:
            values["sim.events"] += executed

        def converge(result) -> None:
            values["bgp.rounds"] += result.rounds

        def recompute(changed: bool) -> None:
            values["bgp.decide_useful"] += 1 if changed else 0

        def repair(counters: Dict[str, int]) -> None:
            values["bgmp.repair_actions"] += sum(counters.values())

        def request(lease) -> None:
            values["masc.request_failed"] += 1 if lease is None else 0

        return {
            "Simulator.run": sim_run,
            "BgpNetwork.try_converge": converge,
            "BgpSpeaker.recompute": recompute,
            "BgmpNetwork.repair_trees": repair,
            "MaasServer.request_block": request,
        }


#: Per-layer metric -> (unit, better), in report order.
PER_LAYER: Dict[str, Tuple[str, str]] = {
    "sim.run_self_s": ("s", "lower"),
    "sim.events": ("count", "lower"),
    "addressing.lpm_s": ("s", "lower"),
    "addressing.lpm_calls": ("count", "lower"),
    "addressing.prefix_trie_s": ("s", "lower"),
    "addressing.prefix_trie_calls": ("count", "lower"),
    "topology.build_s": ("s", "lower"),
    "topology.bfs_s": ("s", "lower"),
    "topology.bfs_calls": ("count", "lower"),
    "bgp.converge_s": ("s", "lower"),
    "bgp.converge_calls": ("count", "lower"),
    "bgp.rounds": ("count", "lower"),
    "bgp.updates_sent": ("count", "lower"),
    "bgp.decide_s": ("s", "lower"),
    "bgp.decide_calls": ("count", "lower"),
    "bgp.decide_useful_ratio": ("ratio", "higher"),
    "bgp.rib_digest_s": ("s", "lower"),
    "bgmp.join_s": ("s", "lower"),
    "bgmp.join_calls": ("count", "lower"),
    "bgmp.leave_s": ("s", "lower"),
    "bgmp.leave_calls": ("count", "lower"),
    "bgmp.send_s": ("s", "lower"),
    "bgmp.send_calls": ("count", "lower"),
    "bgmp.repair_s": ("s", "lower"),
    "bgmp.repair_calls": ("count", "lower"),
    "bgmp.repair_actions": ("count", "lower"),
    "bgmp.repair_useful_ratio": ("ratio", "higher"),
    "bgmp.grib_delta_s": ("s", "lower"),
    "bgmp.grib_deltas": ("count", "lower"),
    "bgmp.digest_s": ("s", "lower"),
    "bgmp.state_entries": ("count", "lower"),
    "bgmp.joins_sent": ("count", "lower"),
    "bgmp.prunes_sent": ("count", "lower"),
    "masc.request_s": ("s", "lower"),
    "masc.claim_s": ("s", "lower"),
    "masc.claim_calls": ("count", "lower"),
    "masc.maintain_s": ("s", "lower"),
    "masc.maas_s": ("s", "lower"),
    "masc.claims_made": ("count", "lower"),
    "masc.doublings": ("count", "lower"),
    "masc.request_fail_ratio": ("ratio", "lower"),
    "analysis.compare_trees_s": ("s", "lower"),
    "analysis.compare_trees_calls": ("count", "lower"),
    **{f"{layer}.self_s": ("s", "lower") for layer in LAYERS},
    "trace.overhead_ratio": ("ratio", "lower"),
    "trace.coverage": ("ratio", "higher"),
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(
    setup: Dict[str, Tuple[float, int]],
    loop: Dict[str, Tuple[float, int]],
    counts: Dict[str, int],
    traced_run_s: float,
    untraced_run_s: float,
) -> Dict[str, float]:
    """The per-layer metrics of one traced repetition.

    ``loop`` holds (self seconds, calls) per span name over the timed
    loop, ``setup`` the same over set-up (only ``topology.build_s`` is
    a set-up figure). ``counts`` merges the loop's return-value counts
    with the workload's own program counters for the loop.
    """

    def seconds(name: str) -> float:
        return loop.get(name, (0.0, 0))[0]

    def calls(name: str) -> int:
        return loop.get(name, (0.0, 0))[1]

    out: Dict[str, float] = {
        "sim.run_self_s": seconds("sim.run"),
        "sim.events": counts.get("sim.events", 0),
        "addressing.lpm_s": seconds("addressing.lpm"),
        "addressing.lpm_calls": calls("addressing.lpm"),
        "addressing.prefix_trie_s": seconds("addressing.prefix_trie"),
        "addressing.prefix_trie_calls": calls("addressing.prefix_trie"),
        "topology.build_s": setup.get("topology.build", (0.0, 0))[0],
        "topology.bfs_s": seconds("topology.bfs"),
        "topology.bfs_calls": calls("topology.bfs"),
        "bgp.converge_s": seconds("bgp.converge"),
        "bgp.converge_calls": calls("bgp.converge"),
        "bgp.rounds": counts.get("bgp.rounds", 0),
        "bgp.updates_sent": counts.get("bgp.updates_sent", 0),
        "bgp.decide_s": seconds("bgp.decide"),
        "bgp.decide_calls": calls("bgp.decide"),
        "bgp.decide_useful_ratio": _ratio(
            counts.get("bgp.decide_useful", 0), calls("bgp.decide")
        ),
        "bgp.rib_digest_s": seconds("bgp.rib_digest"),
    }
    for op in ("join", "leave", "send", "repair"):
        out[f"bgmp.{op}_s"] = seconds(f"bgmp.{op}")
        out[f"bgmp.{op}_calls"] = calls(f"bgmp.{op}")
    out.update(
        {
            "bgmp.repair_actions": counts.get("bgmp.repair_actions", 0),
            "bgmp.repair_useful_ratio": _ratio(
                counts.get("bgmp.repair_actions", 0),
                counts.get("bgmp.groups_invalidated", 0),
            ),
            "bgmp.grib_delta_s": seconds("bgmp.grib_delta"),
            "bgmp.grib_deltas": counts.get("bgmp.grib_deltas", 0),
            "bgmp.digest_s": seconds("bgmp.digest"),
            "bgmp.state_entries": counts.get("bgmp.state_entries", 0),
            "bgmp.joins_sent": counts.get("bgmp.joins_sent", 0),
            "bgmp.prunes_sent": counts.get("bgmp.prunes_sent", 0),
            "masc.request_s": seconds("masc.request"),
            "masc.claim_s": seconds("masc.claim"),
            "masc.claim_calls": calls("masc.claim"),
            "masc.maintain_s": seconds("masc.maintain"),
            "masc.maas_s": seconds("masc.maas"),
            "masc.claims_made": counts.get("masc.claims_made", 0),
            "masc.doublings": counts.get("masc.doublings", 0),
            "masc.request_fail_ratio": _ratio(
                counts.get("masc.request_failed", 0),
                calls("masc.request"),
            ),
            "analysis.compare_trees_s": seconds("analysis.compare_trees"),
            "analysis.compare_trees_calls": calls("analysis.compare_trees"),
        }
    )
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, (self_s, _calls) in loop.items():
        layer = name.split(".", 1)[0]
        if layer in layer_self:
            layer_self[layer] += self_s
    for layer, self_s in layer_self.items():
        out[f"{layer}.self_s"] = self_s
    out["trace.overhead_ratio"] = _ratio(traced_run_s, untraced_run_s)
    out["trace.coverage"] = _ratio(sum(layer_self.values()), traced_run_s)
    return out
