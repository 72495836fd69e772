"""Continuous subgrid-source learning through differentiable explicit Runge-Kutta solvers."""

__version__ = "0.1.0"
