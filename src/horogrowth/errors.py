"""Shared exception types."""
from __future__ import annotations


class BudgetError(RuntimeError):
    """Raised when a computation would exceed a configured resource budget."""


class FitError(RuntimeError):
    """Raised when a closed-form level series fails its certification
    against the stem table of the coset census."""
