"""Morphed-face detection with built-in visual explanations.

The package trains a small convolutional classifier on synthetic face
images (bona fide vs. morphed), explains its decisions with gradient and
class-evidence heatmaps, and scores it with presentation-attack metrics.
Everything is deterministic given a seed: data synthesis, initialization,
training order, dropout masks, and file encodings.

The modules are the API (`morphlens.autodiff`, `morphlens.model`,
`morphlens.explain`, ...); the package root holds only the version.
"""

__version__ = "0.1.0"
