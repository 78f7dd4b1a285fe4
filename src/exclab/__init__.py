"""Simulator and exact-bounds toolkit for the quantum-classical exclusion game.
The API lives in the submodules (``exclab.qcore``, ``exclab.game``, ...)."""

__version__ = "0.1.0"
