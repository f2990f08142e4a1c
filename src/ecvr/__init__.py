"""Error-compensated variance-reduced distributed optimization, simulated in-process."""

__version__ = "0.1.0"  # before the submodules: harness reports it

from . import algorithms, compressors, dataset, harness, problem, rng

__all__ = ["algorithms", "compressors", "dataset", "harness", "problem", "rng"]
