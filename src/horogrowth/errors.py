"""Shared exception types."""
from __future__ import annotations


class BudgetError(RuntimeError):
    """Raised when a computation would exceed a configured resource budget."""

