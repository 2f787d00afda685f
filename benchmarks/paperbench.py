"""Shared helpers for the figure/table benchmarks."""

from __future__ import annotations

MS = 1e3
MBPS = 1e-6


def header(title: str) -> None:
    print(f"\n=== {title} ===")


def row(text: str) -> None:
    print(f"  {text}")
