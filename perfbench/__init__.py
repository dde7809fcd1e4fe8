"""End-to-end and per-layer benchmark of the pqsketch package.

Run it with ``python3 perfbench/run.py --workload NAME --seed N --seconds S
--trace 0|1`` from the root of a source checkout; see ``perfbench/README.md``.
"""
