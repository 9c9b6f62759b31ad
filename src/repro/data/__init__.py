"""Synthetic image-classification datasets (CIFAR-10 / ImageNet stand-ins).

The real datasets are unavailable offline; these generators (see
``docs/architecture.md``, "Experiments and benchmarks") produce
deterministic, learnable, *ill-conditioned* classification tasks that
exercise the same code paths and preserve the qualitative comparisons the
paper makes (K-FAC vs SGD convergence, inverse vs eigen stability,
update-frequency sensitivity).
"""

from repro.data.augment import random_crop, random_flip
from repro.data.loader import DataLoader, batch_iterator
from repro.data.synthetic import (
    SyntheticImageDataset,
    SyntheticSpec,
    cifar10_like,
    imagenet_like,
)

__all__ = [
    "SyntheticSpec",
    "SyntheticImageDataset",
    "cifar10_like",
    "imagenet_like",
    "DataLoader",
    "batch_iterator",
    "random_crop",
    "random_flip",
]
