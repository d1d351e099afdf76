"""Deterministic simulator for clustered federated learning with dataset
distillation, plus closed-form communication, convergence, and complexity
calculators."""

__version__ = "0.1.0"
