"""End-to-end benchmark of the mapping pipeline (see run.py)."""
