"""Exact phase-grid arithmetic, weighted spider diagram rewriting with a
matrix-semantics oracle, and winding-aware surface-code decoding."""
