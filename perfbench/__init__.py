"""Campaign benchmark for the fault-sneaking reproduction (see README.md)."""
