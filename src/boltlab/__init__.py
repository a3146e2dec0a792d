"""boltlab: desk-scale quantum lightning, subspace money, and no-cloning bounds."""

__version__ = "0.1.0"
