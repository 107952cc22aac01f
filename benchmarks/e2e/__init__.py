"""The pipeline benchmark: four Jean-Zay-shaped workloads through the
assembled stack, end-to-end numbers plus a per-layer ledger.  See
README.md; run with ``python3 benchmarks/e2e/run.py``."""
