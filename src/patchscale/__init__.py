"""Patch detection and scaling-law analysis for signed trade flows.

The package root carries the end-to-end entry point and the error types;
the stages are modules of their own (trades, segmentation, patches, tails,
allometry, lognormal, synth, pipeline, cli).
"""

from .errors import DataError, NumericalError, PatchscaleError
from .pipeline import RunConfig, run_pipeline

__all__ = [
    "DataError",
    "NumericalError",
    "PatchscaleError",
    "RunConfig",
    "run_pipeline",
]

__version__ = "0.1.0"
