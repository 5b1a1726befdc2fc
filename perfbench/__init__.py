"""End-to-end selection benchmark; run it with ``python3 perfbench/run.py``."""
