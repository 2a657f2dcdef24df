"""Seeded end-to-end and per-layer benchmark for kgeng (see README.md)."""
