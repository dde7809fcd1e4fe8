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
At p = 1 nothing is drawn: an identity calibrator holds no generator.
"""
from __future__ import annotations

import math
from itertools import chain, repeat
from operator import length_hint

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
    docstring. ``draws`` is the iterator of Z values; ``next(cal.draws)`` is one draw.
    A copy or a pickle draws on from where the original stands.
    """

    __slots__ = ("w", "sentinel", "p", "draws", "_log_q", "_seed", "_rng", "_block", "_current")

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
        if self.p < 1.0:
            # A draw divides by ln(1 - p).
            self._log_q = math.log1p(-self.p)
            self._begin(b"")
        else:
            self.draws = repeat(1)

    def _begin(self, unread: bytes) -> None:
        """Draw the bytes of unread first, then block after block."""
        self._block = unread
        self._current = first = iter(unread)
        self.draws = chain.from_iterable(chain((first,), iter(self._next_block, None)))

    def _next_block(self):
        # The generator is built on the first block, not in __init__, so a
        # sketch that is built and never fed pays nothing for it.
        rng = self._rng
        if rng is None:
            rng = self._rng = np.random.default_rng(self._seed & _MASK)
        z = np.ceil(np.log1p(-rng.random(BLOCK)) / self._log_q)
        self._block = block = np.maximum(z, 1.0).astype(np.uint8).tobytes()
        self._current = it = iter(block)
        return it

    def sample_geometric(self) -> int:
        """The next of ``draws``: one Z >= 1 with P(Z = z) = (1 - p)^(z-1) * p."""
        return next(self.draws)

    def calibrate(self, value: Value) -> list[Value]:
        """Expand one finite value into its sentinel-padded run.

        Sentinels come first, the finite value last, so a truncated stream
        never ends on a dangling prefix of a run.
        """
        check_value(value)
        sentinel = self.sentinel
        if sentinel is None:
            return [value]
        out: list[Value] = [sentinel] * (self.sample_geometric() - 1)
        out.append(value)
        return out

    def __reduce__(self):
        # The draw iterators cannot be copied, so a copy is rebuilt from the
        # generator's state and the unread rest of the current block. Even a
        # shallow copy gets a generator of its own. One that draws nothing
        # (p = 1, a sentinel side too where 2 - 2w rounds to 1) has no block.
        if self.p == 1.0:
            return (Calibrator, (self.w, self._seed))
        block = self._block
        unread = block[len(block) - length_hint(self._current):]
        state = None if self._rng is None else self._rng.bit_generator.state
        return (_resume, (self.w, self._seed, state, unread))

    def __repr__(self) -> str:
        return f"Calibrator(w={self.w!r})"


def _resume(w: float, seed: int, state: dict | None, unread: bytes) -> Calibrator:
    # The copy's generator is seeded and then moved to the original's state,
    # so a copy never reads OS entropy.
    cal = Calibrator(w, seed)
    if state is not None:
        cal._rng = np.random.default_rng(seed & _MASK)
        cal._rng.bit_generator.state = state
    cal._begin(unread)
    return cal


#: The identity calibrator (w = 0.5). It draws nothing and holds no state,
#: so estimators share this one instance instead of building their own.
IDENTITY = Calibrator(0.5)
