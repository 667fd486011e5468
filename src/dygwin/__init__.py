"""Window-based encoder-decoder engine for continuous-time dynamic graphs."""

__version__ = "0.1.0"
