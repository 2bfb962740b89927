"""Scaled underdamped Langevin Monte Carlo.

Samples strongly log-concave targets with an exact per-step Gaussian
kernel, optionally preconditioned so that the iteration count grows
linearly rather than quadratically with the target's condition number.
"""

__version__ = "0.1.0"
