"""Shared exception types."""
from __future__ import annotations


class BudgetError(RuntimeError):
    """Raised when a computation would exceed a configured resource budget."""


class FitError(RuntimeError):
    """Raised when census data cannot be matched by a numerator of the
    permitted degree, or when a fitted series fails its certification."""
