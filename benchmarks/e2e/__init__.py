"""The end-to-end wall-clock benchmark of record (see README.md)."""
