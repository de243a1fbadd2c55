"""Metric dimension of forests: exact algorithms, counting series, limit laws.

The package root imports no submodule, so `mdim series`, `mdim dist` and the
other commands that build no graph start without numpy.
"""

__version__ = "0.1.0"
