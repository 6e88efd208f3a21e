"""torfan: exact and numeric workbench for toric quantum algebra."""

__version__ = "0.1.0"

# The monomial kernel is pure Python; perfbench/worker.py prints this on its info line.
KERNEL = "python"

__all__ = ["KERNEL", "__version__"]
