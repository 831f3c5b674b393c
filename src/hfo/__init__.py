"""Simulation and analysis toolkit for sampled-data feedback optimization of
linear time-invariant plants."""

__version__ = "0.1.0"
