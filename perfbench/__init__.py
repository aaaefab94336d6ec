"""The repository's benchmark: end-to-end metrics per workload, plus a
traced run that breaks host time down by layer.

Run from the repository root::

    python3 perfbench/run.py --workload fig6-sweep --seed 42 --seconds 45 --trace 0

``BENCHMARK.json`` at the root lists the workloads and metrics;
:mod:`perfbench.workloads` says why each workload exists and
:mod:`perfbench.ledger` holds the layer table.  Tests:
``python3 -m pytest perfbench``.
"""
