"""Repository benchmark: ``repro serve`` measured end to end (see README.md)."""
