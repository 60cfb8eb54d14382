"""Euclidean TSP workbench.

Uniform instance generation, distance-softmax heatmaps, a heatmap-guided
Monte-Carlo k-opt search, temperature tuning, and Gap/Score benchmarking.
Names are imported from their modules (``tsplab.geometry``, ``tsplab.mcts``,
...); the package root holds only ``__version__``.
"""

__version__ = "0.1.0"
