"""Steady-state throughput benchmark of the MMA/TRMMA pipeline (see README.md)."""
