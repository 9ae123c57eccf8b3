"""Simulation toolkit for an atomic Faraday filter applied to OPO photon pairs."""

__version__ = "0.1.0"
