"""Latency/width histograms and their dataflow score.

Every Gdf edge condenses the communication between two blocks into a
histogram: bin = path latency in clock cycles, height = number of bits
travelling at that latency.  The paper scores a histogram as

    score(h, k) = sum_i  bits_i / latency_i^k

where ``k`` controls how fast affinity decays with pipeline distance.
"""

from __future__ import annotations

from typing import Dict, Iterator, Tuple


class LatencyHistogram:
    """A sparse latency -> bits histogram."""

    __slots__ = ("bins",)

    def __init__(self, bins: Dict[int, float] = None):
        self.bins: Dict[int, float] = dict(bins) if bins else {}

    def add(self, latency: int, bits: float) -> None:
        if latency < 1:
            raise ValueError(f"latency must be >= 1, got {latency}")
        if bits < 0:
            raise ValueError(f"bits must be non-negative, got {bits}")
        if bits:
            self.bins[latency] = self.bins.get(latency, 0.0) + bits

    def merge(self, other: "LatencyHistogram") -> None:
        for latency, bits in other.bins.items():
            self.bins[latency] = self.bins.get(latency, 0.0) + bits

    def score(self, k: float = 1.0) -> float:
        """The paper's ``score(h, k)``: total bits damped by latency^k."""
        return sum(bits / (latency ** k)
                   for latency, bits in self.bins.items())

    @property
    def total_bits(self) -> float:
        return sum(self.bins.values())

    def is_empty(self) -> bool:
        return not self.bins

    def items(self) -> Iterator[Tuple[int, float]]:
        return iter(sorted(self.bins.items()))

    def copy(self) -> "LatencyHistogram":
        return LatencyHistogram(self.bins)

    def __eq__(self, other) -> bool:
        return (isinstance(other, LatencyHistogram)
                and self.bins == other.bins)

    def __repr__(self) -> str:
        inner = ", ".join(f"{lat}:{bits:g}" for lat, bits in self.items())
        return f"LatencyHistogram({{{inner}}})"
