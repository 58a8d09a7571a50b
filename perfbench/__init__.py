"""Benchmark of the sixj package; see README.md and run.py."""
