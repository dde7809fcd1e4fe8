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
stream length. p stays in (0, 1/2 <= p <= 1] across all w in [0, 1].
"""
from __future__ import annotations

import math
import random

from .quantiles import NEG_INF, POS_INF, Value, check_weight


class Calibrator:
    """Seeded expansion of finite values into sentinel-padded runs.

    :param w: target quantile weight in [0, 1].
    :param seed: seed for the private geometric sampler; two calibrators with
        the same (w, seed) replay identical expansions.
    """

    __slots__ = ("w", "seed", "p", "sentinel", "_rng")

    def __init__(self, w: float, seed: int = 0) -> None:
        check_weight(w)
        self.w = float(w)
        self.seed = seed
        if self.w > 0.5:
            self.p = 1.0 / (2.0 * self.w)
            self.sentinel: float | None = POS_INF
        elif self.w < 0.5:
            self.p = 1.0 / (2.0 - 2.0 * self.w)
            self.sentinel = NEG_INF
        else:
            self.p = 1.0
            self.sentinel = None
        # Only p < 1 ever draws; an identity calibrator holds no generator,
        # which saves a Mersenne Twister (about 2.5 KB) per median cell.
        self._rng = random.Random(seed) if self.p < 1.0 else None

    @property
    def is_identity(self) -> bool:
        """True when values pass through without sentinels (w = 0.5)."""
        return self.sentinel is None

    def sample_geometric(self) -> int:
        """One draw Z >= 1 with P(Z = z) = (1 - p)^(z-1) * p.

        Inverse-CDF: ceil(ln U / ln(1 - p)) with U uniform on (0, 1], clamped
        to >= 1 (U = 1.0 maps to 0). p = 1 short-circuits without consuming
        randomness: identity calibrators hold no generator.
        """
        p = self.p
        if p >= 1.0:
            return 1
        u = 1.0 - self._rng.random()
        z = math.ceil(math.log(u) / math.log1p(-p))
        return z if z >= 1 else 1

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

    def __repr__(self) -> str:
        return f"Calibrator(w={self.w!r}, seed={self.seed!r})"
