"""End-to-end benchmark of the repro-bounds commands (see README.md)."""
