"""OCTOPUS benchmark: three workloads, end-to-end metrics, a traced
per-layer run. Entry point: ``python3 perfbench/run.py`` (see README.md).
"""
