import math
import time

import pytest

from qcap.results import BoundResult

NAN = float("nan")


@pytest.mark.parametrize(
    "value, log_sign, log_value",
    [
        (0.25, -1, 2.0),  # one-shot and LP bounds: -log2
        (4.0, 1, 2.0),  # rates: +log2
        (4, -1, -2.0),
        (0.5, 1, -1.0),
        (None, -1, NAN),
        (0.0, 1, NAN),
        (-0.5, -1, NAN),
        (math.inf, 1, NAN),
        (NAN, -1, NAN),
    ],
)
def test_from_optimum_log_sign_and_missing_values(value, log_sign, log_value):
    t0 = time.perf_counter()
    res = BoundResult.from_optimum("b", value, "optimal", None, t0, log_sign=log_sign)
    if math.isnan(log_value):
        assert math.isnan(res.log_value)
    else:
        assert res.log_value == log_value
    if value is None:
        assert math.isnan(res.value)
    assert math.isnan(res.gap)
    assert res.wall_time >= 0.0 and res.certificate is None


def test_from_optimum_keeps_gap_status_and_certificate():
    cert = object()
    res = BoundResult.from_optimum("b", 2.0, "max_iter", 1e-9, 0.0, log_sign=1, certificate=cert)
    assert (res.name, res.value, res.log_value, res.status, res.gap) == ("b", 2.0, 1.0, "max_iter", 1e-9)
    assert res.certificate is cert
    assert res.to_json_dict()["gap"] == 1e-9


def test_solve_record_reaches_json():
    res = BoundResult.from_optimum(
        "g", 0.5, "optimal", 1e-9, 0.0, log_sign=-1, iterations=14, reason="converged", form="lmi"
    )
    payload = res.to_json_dict()
    assert (payload["iterations"], payload["reason"], payload["form"]) == (14, "converged", "lmi")
    lp = BoundResult.from_optimum("f", 0.5, "optimal", 0.0, 0.0, log_sign=-1).to_json_dict()
    assert (lp["iterations"], lp["reason"], lp["form"]) == (None, None, None)
