from __future__ import annotations

import random
import sys

import pytest
from hypothesis import assume, given, strategies as st

from fairdispatch.cli import _csv_text
from fairdispatch.demand import Request
from fairdispatch.errors import ContractError, InputError
from fairdispatch.matcher import Matching
from fairdispatch.metrics import (
    METRICS_COLUMNS,
    DriverHistory,
    EquityReport,
    PassengerHistory,
    WindowMetrics,
    equity_report,
    gini,
    update_driver_history,
    update_passenger_history,
)
from fairdispatch.network import GroupId

G00 = GroupId(0, 0)
G01 = GroupId(0, 1)


def matched(assigned: dict[int, frozenset[int]]) -> Matching:
    return Matching({v: 0 for v in assigned}, assigned, 0.0)


def test_gini_equal_values_zero():
    assert gini([0.7, 0.7, 0.7]) == 0.0


def test_gini_two_point():
    assert abs(gini([0.0, 1.0]) - 0.5) < 1e-15


@pytest.mark.parametrize("n", [2, 3, 5, 10, 37])
def test_gini_single_spike_closed_form(n):
    values = [0.0] * (n - 1) + [1.0]
    assert abs(gini(values) - (n - 1) / n) < 1e-12


def test_gini_edge_cases():
    assert gini([0.0, 0.0]) == 0.0
    with pytest.raises(InputError):
        gini([])
    with pytest.raises(InputError):
        gini([-0.1, 0.5])


@given(
    st.lists(st.floats(min_value=0.0, max_value=100.0, allow_nan=False), min_size=1, max_size=20),
    st.floats(min_value=0.01, max_value=1000.0, allow_nan=False),
)
def test_gini_scale_invariant(values, c):
    # The property holds for normal floats: a scaled subnormal can underflow to 0.
    scaled = [c * v for v in values]
    assume(all(v == 0.0 or v >= sys.float_info.min for v in values + scaled))
    assert abs(gini(values) - gini(scaled)) < 1e-12


def test_gini_of_a_subnormal():
    # Where scale invariance stops: 0.5 * 5e-324 underflows to 0.0, and gini([0.0, 0.0]) is 0.
    assert gini([0.0, 5e-324]) == 0.5


@given(st.lists(st.floats(min_value=0.0, max_value=10.0, allow_nan=False), min_size=1, max_size=12))
def test_gini_permutation_symmetric(values):
    shuffled = list(values)
    random.Random(0).shuffle(shuffled)
    assert gini(values) == gini(shuffled)


def test_passenger_history_update_counts():
    hist = PassengerHistory.empty()
    batch = [Request(0, 0, 1, 0.0, G00), Request(1, 0, 1, 0.0, G00)]
    hist = update_passenger_history(hist, batch, matched({7: frozenset({0})}))
    assert hist.rates == {G00: 0.5}
    assert hist.observed_groups() == (G00,)


def test_passenger_history_empty_batch_noop():
    hist = PassengerHistory({G00: 4}, {G00: 2})
    updated = update_passenger_history(hist, [], matched({1: frozenset()}))
    assert updated.requested == hist.requested
    assert updated.served == hist.served


def test_passenger_history_mean():
    hist = PassengerHistory({G00: 10, G01: 10}, {G00: 4, G01: 8})
    assert hist.mean_rate == pytest.approx(0.6)


def test_passenger_history_served_outside_batch_rejected():
    with pytest.raises(ContractError):
        update_passenger_history(PassengerHistory.empty(), [], matched({1: frozenset({9})}))


def test_passenger_history_invariant_checked():
    with pytest.raises(InputError):
        PassengerHistory({G00: 1}, {G00: 2})
    with pytest.raises(InputError):
        PassengerHistory({}, {G00: 1})


def test_passenger_update_commutes_with_batch_split():
    requests = [Request(i, 0, 1, 0.0, G00 if i % 2 else G01) for i in range(6)]
    srv = frozenset({0, 3})
    whole = update_passenger_history(
        PassengerHistory.empty(), requests, matched({1: srv})
    )
    first = update_passenger_history(
        PassengerHistory.empty(), requests[:3], matched({1: frozenset({0})})
    )
    second = update_passenger_history(first, requests[3:], matched({1: frozenset({3})}))
    assert second.requested == whole.requested
    assert second.served == whole.served


def test_passenger_mean_between_min_and_max():
    rng = random.Random(11)
    for _ in range(50):
        groups = {GroupId(0, d): rng.randint(1, 20) for d in range(rng.randint(1, 5))}
        hist = PassengerHistory(
            dict(groups), {g: rng.randint(0, n) for g, n in groups.items()}
        )
        rates = hist.rates.values()
        assert min(rates) <= hist.mean_rate <= max(rates)


def test_driver_history_updates():
    hist = DriverHistory.zeroed([0, 1])
    hist = update_driver_history(hist, {0: 0.0, 1: 2.0})
    assert hist.incomes == {0: 0.0, 1: 2.0}
    assert hist.scaled == {0: 0.0, 1: 1.0}
    assert hist.mean_scaled == 0.5


def test_driver_history_all_null_noop():
    hist = DriverHistory({0: 1.0, 1: 3.0})
    updated = update_driver_history(hist, {0: 0.0, 1: 0.0})
    assert updated.incomes == hist.incomes


def test_driver_history_all_zero():
    hist = DriverHistory.zeroed([0, 1, 2])
    assert hist.scaled == {0: 0.0, 1: 0.0, 2: 0.0}
    assert hist.mean_scaled == 0.0


def test_history_views_are_in_key_order_and_kept():
    hist = PassengerHistory({G01: 4, G00: 2, GroupId(1, 1): 0}, {G01: 1, G00: 2})
    assert list(hist.rates.items()) == [(G00, 1.0), (G01, 0.25)]
    assert hist.observed_groups() == (G00, G01)
    assert hist.rates is hist.rates
    drivers = DriverHistory({2: 3.0, 0: 6.0})
    assert list(drivers.scaled.items()) == [(0, 1.0), (2, 0.5)]
    assert drivers.scaled is drivers.scaled
    assert drivers.mean_scaled == 0.75


def test_driver_history_rejects_negative_income():
    with pytest.raises(InputError):
        DriverHistory({0: -1.0})


def test_equity_report_singleton_group():
    report = equity_report(PassengerHistory({G00: 10}, {G00: 7}))
    assert report.f_gini == 1.0
    assert report.min_value == 0.7
    assert report.variance == 0.0
    assert report.overall_service_rate == 0.7


def test_equity_report_two_groups_variance():
    report = equity_report(PassengerHistory({G00: 10, G01: 10}, {G00: 4, G01: 8}))
    assert report.variance == pytest.approx(0.04, abs=1e-12)
    assert report.min_value == pytest.approx(0.4)


def test_equity_report_equal_driver_incomes():
    report = equity_report(DriverHistory({0: 3.0, 1: 3.0}))
    assert report.f_gini == 1.0
    assert report.overall_service_rate is None


def test_equity_report_driver_min_is_raw():
    report = equity_report(DriverHistory({0: 2.0, 1: 8.0}))
    assert report.min_value == 2.0


def test_equity_report_of_empty_histories_is_vacuous():
    # before any demand equity is perfect and 0/0 service counts as 1
    assert equity_report(PassengerHistory.empty()) == EquityReport(1.0, 1.0, 0.0, 1.0)
    assert equity_report(PassengerHistory({G00: 0}, {})) == EquityReport(1.0, 1.0, 0.0, 1.0)
    assert equity_report(DriverHistory({})) == EquityReport(1.0, 0.0, 0.0, None)


def test_metrics_csv_golden():
    rows = [WindowMetrics(0, 1.0, 1.0, 1.0, 0.0, 1.0, 0.0, 0.0)]
    text = _csv_text(METRICS_COLUMNS, (row.as_row() for row in rows))
    assert text.splitlines()[0] == (
        "window_index,overall_service_rate,passenger_f_gini,passenger_min,"
        "passenger_var,driver_f_gini,driver_min_raw,driver_var"
    )
    assert text.splitlines()[1] == "0,1.0,1.0,1.0,0.0,1.0,0.0,0.0"
