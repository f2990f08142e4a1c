"""Deterministic random-stream splitting.

Every randomized component gets its own generator derived from a master seed
and a structured key, so independent runs are reproducible and algorithms
sharing a key (e.g. per-node example sampling) draw identical sequences.
``NodeDraws`` draws the numbers of each node's stream for many steps at once.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

# Stable purpose codes; new purposes must be appended, never renumbered.
_PURPOSES = {
    "sample": 0,
    "compress": 1,
    "compress_shift": 2,
    "coin": 3,
    "data": 4,
    "verify": 5,
}


def split_rng(master_seed: int, purpose: str, node: int = 0) -> np.random.Generator:
    """Return the generator for one (purpose, node) pair under a master seed."""
    try:
        code = _PURPOSES[purpose]
    except KeyError:
        raise ValueError(f"unknown rng purpose {purpose!r}") from None
    seq = np.random.SeedSequence(master_seed, spawn_key=(code, node))
    return np.random.default_rng(seq)


def node_streams(master_seed: int, purpose: str, n: int) -> list[np.random.Generator]:
    """One independent stream per node for the given purpose."""
    return [split_rng(master_seed, purpose, tau) for tau in range(n)]


# A NodeDraws block holds at most 2**17 numbers (1 MiB of doubles) and at most 64 steps.
_BLOCK_NUMBERS = 2**17
_BLOCK_STEPS = 64


def _uniforms(stream: np.random.Generator, out: np.ndarray) -> None:
    stream.random(out=out)


class NodeDraws:
    """Each step's (n, width) numbers, row tau drawn from ``streams[tau]`` ahead of use.

    ``fill(stream, out)`` writes a stream's next B steps, ``B = clamp(2**17 //
    (n width), 1, 64)``, into its (B, width) part ``out`` of one ``dtype`` block;
    by default uniforms on [0, 1). A numpy ``Generator`` gives the same numbers
    for one draw of B steps as for B draws of one, so row tau of each step is
    one draw of stream tau. A stream serves one width: a second would take its
    numbers in another order. ``draw`` returns a view, valid until the next draw.
    """

    def __init__(self, streams: Sequence[np.random.Generator], fill=_uniforms, dtype=np.float64):
        self._streams = list(streams)
        self._fill, self._dtype = fill, dtype
        self._block: Optional[np.ndarray] = None  # (n, B, width): stream tau's next B steps
        self._next = 0

    def draw(self, rows: int, width: int) -> np.ndarray:
        n = len(self._streams)
        if rows != n:
            raise ValueError(f"need one generator per row: {rows} rows, {n} generators")
        if self._block is None:
            steps = min(max(_BLOCK_NUMBERS // (n * width), 1), _BLOCK_STEPS)
            self._block = np.empty((n, steps, width), dtype=self._dtype)
            self._next = steps
        elif width != self._block.shape[2]:
            raise ValueError(
                f"a node stream serves one width: it draws {self._block.shape[2]}, asked for {width}"
            )
        if self._next == self._block.shape[1]:
            for stream, block in zip(self._streams, self._block):
                self._fill(stream, block)
            self._next = 0
        self._next += 1
        return self._block[:, self._next - 1]
