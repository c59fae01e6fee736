"""End-to-end and per-layer benchmark for ontosoc; see README.md."""
