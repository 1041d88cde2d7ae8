"""The auth-stack benchmark: wire load and in-process rounds.

See ``perfbench/README.md`` for the workloads, the metrics and how
they interact; ``perfbench/run.py`` is the entry point.
"""
