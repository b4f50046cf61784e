"""Result container shared by the SDP and LP bound evaluations."""
from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Any


@dataclass
class BoundResult:
    """One evaluated bound.

    ``value`` is the raw program optimum; ``log_value`` is the bound in
    base-2 log domain (sign convention depends on the bound family:
    one-shot fidelity-style bounds report -log2(value), asymptotic
    rate-style bounds report +log2(value)).  A bound from a conic solve
    carries its ``iterations``, termination ``reason`` and the ``form`` it
    was solved in (``eq`` or ``lmi``); the LP bounds leave them None.
    """

    name: str
    value: float
    log_value: float
    status: str
    gap: float
    wall_time: float
    certificate: Any = None
    iterations: int | None = None
    reason: str | None = None
    form: str | None = None

    @classmethod
    def from_optimum(
        cls,
        name: str,
        value,
        status: str,
        gap,
        t0: float,
        *,
        log_sign: int,
        certificate=None,
        iterations: int | None = None,
        reason: str | None = None,
        form: str | None = None,
    ) -> BoundResult:
        """The result of a program that started at ``time.perf_counter() == t0``.

        ``log_sign`` is -1 for the one-shot and LP bounds and +1 for rates.
        A missing value or gap reads NaN, and so does ``log_value`` unless
        the value is positive and finite.
        """
        value = float("nan") if value is None else float(value)
        ok = value > 0.0 and math.isfinite(value)
        return cls(
            name=name,
            value=value,
            log_value=log_sign * math.log2(value) if ok else float("nan"),
            status=status,
            gap=float("nan") if gap is None else float(gap),
            wall_time=time.perf_counter() - t0,
            certificate=certificate,
            iterations=iterations,
            reason=reason,
            form=form,
        )

    def to_json_dict(self) -> dict:
        def _num(v: float) -> float | None:
            if v is None or (isinstance(v, float) and math.isnan(v)):
                return None
            return float(v)

        return {
            "name": self.name,
            "value": _num(self.value),
            "log_value": _num(self.log_value),
            "status": self.status,
            "gap": _num(self.gap),
            "wall_time": _num(self.wall_time),
            "iterations": self.iterations,
            "reason": self.reason,
            "form": self.form,
        }
