"""Transductive classification over persistence-selected Rips subcomplexes."""

__version__ = "0.1.0"
