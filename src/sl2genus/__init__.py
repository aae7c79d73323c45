"""Genus and slim-subgroup bound computations for subgroups of SL2(Z/p^nZ)."""

__version__ = "0.1.0"
