"""End-to-end and per-layer benchmark for subhop (see README.md)."""
