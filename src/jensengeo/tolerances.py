"""Global tolerance scaling for certification checks.

The environment variable JG_TOLERANCE_SCALE (default 1.0) multiplies the
default tolerances of ``negative_type_check`` (whose verdict
``menger_embeddability`` returns) and ``exp_convexity_check`` and the CLI's
``identities`` and ``embed`` gates, so a stricter or looser run can be
requested without touching call sites. Input validation (``EIG_FLOOR`` and
the other validation tolerances), the kernel's mixture PSD check and its
order-1 gate (``DUAL_TOL_*``) are not scaled.
"""

from __future__ import annotations

import os

ENV_VAR = "JG_TOLERANCE_SCALE"


def tolerance_scale() -> float:
    raw = os.environ.get(ENV_VAR)
    if raw is None:
        return 1.0
    try:
        scale = float(raw)
    except ValueError as exc:
        raise ValueError(f"{ENV_VAR} must be a float, got {raw!r}") from exc
    if scale <= 0.0:
        raise ValueError(f"{ENV_VAR} must be positive, got {scale}")
    return scale
