"""Benchmark for the T-Mark repository; see README.md."""
