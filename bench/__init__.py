"""The wire-path serving benchmark (``python bench/run.py``).

See ``bench/README.md`` for the workloads, metrics and layer map.
"""
