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

Draws come in blocks. The Z stream of a seed is, draw for draw,
``max(1, ceil(log(1 - U) / log1p(-p)))`` over the uniforms U of
``random.Random(seed).random()``. numpy's legacy ``RandomState`` runs the same
Mersenne Twister with the same 53-bit construction of U, so a ``RandomState``
started from ``random.Random(seed).getstate()`` computes BLOCK of those draws
at a time in numpy. ``np.log`` may differ from ``math.log`` in the last ulp,
which moves Z only when the ratio lies next to an integer; every draw whose
ratio is within a relative NEAR_INTEGER of one is redone with ``math``, so the
block equals the scalar stream by construction. A block is ``bytes``, one byte
per draw: p >= 1/2 and 1 - U >= 2^-53, so the ratio is at most
53 ln 2 / ln 2 = 53 and Z <= 54.
"""
from __future__ import annotations

import math
import random
from itertools import chain, repeat
from operator import length_hint

import numpy as np

from .quantiles import NEG_INF, POS_INF, Value, check_weight

#: Draws per block.
BLOCK = 4096
#: A ratio this close to an integer, relative to its size, is redone in math.
#: np.log is within a few ulp (about 2^-50) of math.log; this leaves room to spare.
NEAR_INTEGER = 2.0**-40


class Calibrator:
    """Seeded expansion of finite values into sentinel-padded runs.

    :param w: target quantile weight in [0, 1].
    :param seed: seed for the private geometric sampler; two calibrators with
        the same (w, seed) replay identical expansions.

    ``draws`` is the iterator of Z values; ``next(cal.draws)`` is one draw.
    A copy or a pickle draws on from where the original stands.
    """

    __slots__ = ("w", "sentinel", "draws", "_log_q", "_seed", "_rng", "_block", "_current")

    def __init__(self, w: float, seed: int = 0) -> None:
        check_weight(w)
        self.w = float(w)
        if self.w > 0.5:
            self.sentinel: float | None = POS_INF
        elif self.w < 0.5:
            self.sentinel = NEG_INF
        else:
            self.sentinel = None
        # Only p < 1 ever draws; an identity calibrator holds no generator
        # and its draws are all 1, so one instance (IDENTITY) serves every
        # user. A draw divides by ln(1 - p), so that is stored rather than p.
        self._seed = seed
        self._rng: np.random.RandomState | None = None
        p = self.p
        if p < 1.0:
            self._log_q = math.log1p(-p)
            self._begin(b"")
        else:
            self.draws = repeat(1)

    @property
    def p(self) -> float:
        """Success probability of Z: 1/(2w) above the median, 1/(2 - 2w) below, 1 at it."""
        w = self.w
        if w > 0.5:
            return 1.0 / (2.0 * w)
        if w < 0.5:
            return 1.0 / (2.0 - 2.0 * w)
        return 1.0

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
            key = random.Random(self._seed).getstate()[1]
            rng = self._rng = _mersenne(("MT19937", key[:-1], key[-1]))
        u = rng.random_sample(BLOCK)
        ratio = np.log(1.0 - u) / self._log_q
        z = np.ceil(ratio)
        for i in np.flatnonzero(np.abs(ratio - np.rint(ratio)) <= NEAR_INTEGER * ratio).tolist():
            z[i] = math.ceil(math.log(1.0 - float(u[i])) / self._log_q)
        self._block = block = np.maximum(z, 1.0).astype(np.uint8).tobytes()
        self._current = it = iter(block)
        return it

    def sample_geometric(self) -> int:
        """One draw Z >= 1 with P(Z = z) = (1 - p)^(z-1) * p.

        Inverse-CDF: ceil(ln(1 - U) / ln(1 - p)) with U uniform on [0, 1),
        clamped to >= 1 (U = 0 maps to 0). p = 1 draws nothing: identity
        calibrators hold no generator and always give 1.
        """
        return next(self.draws)

    def calibrate(self, value: Value) -> list[Value]:
        """Expand one finite value into its sentinel-padded run.

        Sentinels come first, the finite value last, so a truncated stream
        never ends on a dangling prefix of a run.
        """
        if not math.isfinite(value):
            raise ValueError(f"calibrated values must be finite, got {value!r}")
        sentinel = self.sentinel
        if sentinel is None:
            return [value]
        out: list[Value] = [sentinel] * (self.sample_geometric() - 1)
        out.append(value)
        return out

    def __reduce__(self):
        # The draw iterators cannot be copied, so a copy is rebuilt from the
        # generator's state and the unread rest of the current block. Even a
        # shallow copy gets a generator of its own.
        if self.sentinel is None:
            return (Calibrator, (self.w, self._seed))
        block = self._block
        unread = block[len(block) - length_hint(self._current):]
        state = None if self._rng is None else self._rng.get_state()
        return (_resume, (self.w, self._seed, state, unread))

    def __repr__(self) -> str:
        return f"Calibrator(w={self.w!r})"


def _mersenne(state: tuple) -> np.random.RandomState:
    """A generator at a legacy ("MT19937", key, pos, ...) state."""
    rng = np.random.RandomState(0)
    rng.set_state(state)
    return rng


def _resume(w: float, seed: int, state: tuple | None, unread: bytes) -> Calibrator:
    cal = Calibrator(w, seed)
    cal._rng = None if state is None else _mersenne(state)
    cal._begin(unread)
    return cal


#: The identity calibrator (w = 0.5). It draws nothing and holds no state,
#: so estimators share this one instance instead of building their own.
IDENTITY = Calibrator(0.5)
