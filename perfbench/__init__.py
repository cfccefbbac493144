"""End-to-end benchmark of the wplzx CLI: decoding sweeps and normalize/verify.

Run ``python3 perfbench/run.py --help`` from the repository root; see
``perfbench/README.md`` for the workloads and metrics.
"""
