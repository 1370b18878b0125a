"""Streaming fixed-point HOG feature extractor and its floating-point golden model."""

from .cordic import CordicConfig
