"""Fig. 18: per-node PDR in the FIT IoT-LAB tree topology (simulated substitute)."""

from __future__ import annotations

from conftest import TESTBED_PACKETS, TESTBED_WARMUP

from repro.experiments.testbed import run_tree


def test_bench_fig18_tree_pdr(benchmark):
    def run():
        return {
            mac: run_tree(
                mac=mac, delta=10, packets_per_node=TESTBED_PACKETS,
                warmup=TESTBED_WARMUP, seed=1,
            )
            for mac in ("qma", "unslotted-csma")
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    for mac, result in results.items():
        benchmark.extra_info[f"overall_pdr_{mac}"] = round(result.overall_pdr, 3)
    qma = results["qma"]
    assert qma.packets_generated > 0
    assert set(qma.table("pdr_per_node")) == set(results["unslotted-csma"].table("pdr_per_node"))
    assert all(0.0 <= pdr <= 1.0 for pdr in qma.table("pdr_per_node").values())
    # On this reduced workload (60 packets per node after a 25 s warm-up) QMA
    # is still in its learning phase in the multi-hop tree, so only CSMA/CA's
    # level is asserted; the paper-scale comparison is still open (ROADMAP.md,
    # direction 3).
    assert qma.overall_pdr > 0.0
    assert results["unslotted-csma"].overall_pdr > 0.3
