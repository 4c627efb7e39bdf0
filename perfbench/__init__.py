"""Benchmark for ecs-forge: certification end to end and per layer.

Run one workload with ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1``; see README.md in this directory.
"""
