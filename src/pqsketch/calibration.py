"""Distribution calibration: recentering an arbitrary quantile onto the median.

A buffer that tracks medians can only answer w = 0.5. To answer an arbitrary
w, each incoming value is expanded into a short run of sentinel values plus
the value itself, chosen so that the median of the expanded stream sits at the
w-quantile of the original one:

* w > 0.5: prepend Z - 1 copies of +inf, Z geometric with p = 1 / (2w);
* w < 0.5: prepend Z - 1 copies of -inf, Z geometric with p = 1 / (2 - 2w);
* w = 0.5: the value passes through unchanged (Z is identically 1).

In expectation each value emits |2w - 1| sentinels, and the finite fraction of
the expanded stream converges to p, so the expansion never more than doubles
stream length. p stays in [1/2, 1] across all w in [0, 1].

Draws come in blocks of BLOCK from numpy's default generator: the inverse
CDF ``max(1, ceil(log1p(-U) / log1p(-p)))`` over uniforms U on [0, 1), where
the clamp catches U = 0. A block is ``bytes``, one byte per draw: p >= 1/2
and U has 53 bits, so 1 - U >= 2^-53, the ratio is at most 53 and Z <= 54.
At p = 1 a block is all ones and no generator is built.

One draw is ``next(cal.draws, 0) or cal._next_block()``: ``draws`` iterates
over the current block only, and as Z >= 1 its 0 means the block is spent;
``_next_block`` then installs the next block and returns its first draw.
"""
from __future__ import annotations

import math
from copy import deepcopy

import numpy as np

from .hashing import _MASK, check_seed
from .quantiles import NEG_INF, POS_INF, Value, check_value, check_weight

#: Draws per block.
BLOCK = 4096


class Calibrator:
    """Seeded expansion of finite values into sentinel-padded runs.

    :param w: target quantile weight in [0, 1].
    :param seed: int seed (``check_seed``) of the private geometric sampler;
        two calibrators with the same (w, seed) replay identical expansions.

    ``sentinel`` and ``p``, Z's success probability, follow the module
    docstring, and so do ``draws`` and ``_next_block``. The generator and the
    block iterator copy and pickle (protocol 2 or later) with their position,
    so a copy or a pickle draws on from where the original stands.
    """

    __slots__ = ("w", "sentinel", "p", "draws", "_seed", "_rng")

    def __init__(self, w: float, seed: int = 0) -> None:
        check_weight(w)
        check_seed(seed)
        self.w = w = float(w)
        if w > 0.5:
            self.sentinel: float | None = POS_INF
            self.p = 1.0 / (2.0 * w)
        elif w < 0.5:
            self.sentinel = NEG_INF
            self.p = 1.0 / (2.0 - 2.0 * w)
        else:
            self.sentinel = None
            self.p = 1.0
        self._seed = seed
        self._rng: np.random.Generator | None = None
        self.draws = iter(b"")

    def _next_block(self) -> int:
        """Install the next block as ``draws`` and return its first draw."""
        block = b"\x01" * BLOCK
        if self.p < 1.0:
            # The generator is built on the first block, not in __init__, so
            # a sketch that is built and never fed pays nothing for it.
            rng = self._rng
            if rng is None:
                rng = self._rng = np.random.default_rng(self._seed & _MASK)
            z = np.ceil(np.log1p(-rng.random(BLOCK)) / math.log1p(-self.p))
            block = np.maximum(z, 1.0).astype(np.uint8).tobytes()
        self.draws = draws = iter(block)
        return next(draws)

    def sample_geometric(self) -> int:
        """One draw: Z >= 1 with P(Z = z) = (1 - p)^(z-1) * p."""
        return next(self.draws, 0) or self._next_block()

    def calibrate(self, value: Value) -> list[Value]:
        """Expand one finite value into its sentinel-padded run.

        Sentinels come first, the finite value last, so a truncated stream
        never ends on a dangling prefix of a run. At p = 1 every Z is 1 and
        the run is the value alone.
        """
        check_value(value)
        return [self.sentinel] * (self.sample_geometric() - 1) + [value]

    def __copy__(self) -> Calibrator:
        # A copy that shared the generator would skip the blocks the original draws.
        return deepcopy(self)

    def __repr__(self) -> str:
        return f"Calibrator(w={self.w!r})"


#: The identity calibrator (w = 0.5). Its draws are all ones and it holds no
#: generator, so estimators share this one instance instead of building their own.
IDENTITY = Calibrator(0.5)
