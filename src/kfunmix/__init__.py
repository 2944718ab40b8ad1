"""Streaming linear spectral unmixing in a truncated Fourier subspace.

The submodules are the API, e.g. ``from kfunmix.pipeline import run_experiment``."""
