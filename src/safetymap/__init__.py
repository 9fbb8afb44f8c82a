"""Road safety feature mapping from streetview image sequences.

Pipeline pieces: road-network sampling (geo), dataset handling and synthetic
corridors (data), from-scratch neural network layers (nn), the frame-level
CNN classifier (cnn), the LSTM sequence classifier (lstm), evaluation
metrics (metrics), and a CLI front door (cli).
"""

__version__ = "0.1.0"

CLASS_NAMES = ("rs", "mcb", "cb")


class SchemaError(ValueError):
    """File content violates the documented schema."""
