"""Experiment harness: regenerates every table and figure of the paper.

===============  ===================================================
module           paper content
===============  ===================================================
``table1``       dataset statistics (Table 1)
``fig7``         edge-cut %, Hermes vs Metis after skew (Figure 7)
``fig8``         migrated vertices / changed relationships (Figure 8)
``fig9``         aggregate throughput, 1-hop & 2-hop (Figure 9)
``fig10``        throughput vs write rate (Figure 10)
``fig11``        edge-cut sensitivity to k (Figure 11)
``table2``       iterations to convergence per k (Table 2)
``memory``       auxiliary vs multilevel memory (Section 5.3 claim)
``ablations``    two-stage rule / epsilon extensions (Figure 2 et al.)
``baselines``    LDG/Fennel/JA-BE-JA bake-off + repartitioner lift
``spar``         one-hop replication (SPAR) vs partitioning trade-offs
``faults``       traversal coverage and migration retries under loss
``batching``     batched remote traversal vs the per-entry model
``concurrency``  event-queue scheduler: scaling, online migration
``elasticity``   server join, drain under traffic, crash recovery
``scale``        100 K / 1 M vertices on the CSR substrate (wall clock)
``serving``      front door: overload, hotspot replicas, staleness
``workload``     telemetry-fed gain vs plain Hermes (A/B)
===============  ===================================================

Each module exposes ``run(scale) -> result`` and ``render(result) -> str``;
those with acceptance gates add ``gate_failures(result) -> list``.
``repro.experiments.runner`` registers them all and is the one CLI
(``hermes-experiments``, or ``python -m repro.experiments``): it runs
them, writes a result as its ``BENCH_<name>.json`` (``--out``) and, with
``--check``, reproduces the committed file field for field.
"""

from repro.experiments.common import ClusterScale, GraphScale

__all__ = ["GraphScale", "ClusterScale"]
