"""Analyst-chain benchmark for launderscan; run it with ``python3 chainbench/run.py``."""
