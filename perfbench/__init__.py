"""Calibration benchmark for hestoncal: seeded workloads, output checks and
span tracing around the library's public functions (see README.md)."""
