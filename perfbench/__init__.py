"""Benchmark of the gulfclimate package: see README.md."""
