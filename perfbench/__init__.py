"""Seeded Monte Carlo benchmark of the gkbo library; run it with ``python3 perfbench/run.py``."""
