"""Worst-case optimal mean estimation for randomized data-collection processes."""

__version__ = "0.1.0"
