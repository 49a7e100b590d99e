"""Trading policy: signal, decisions, and the full ledger trace."""

from datetime import date, timedelta

import pytest

from stockcast.errors import RunFailed, StockcastError
from stockcast.market_sim import (
    BUY_AT_CLOSE,
    DEFERRED_EXIT,
    LONG_OPEN_CLOSE,
    NONE,
    SHORT_OPEN_CLOSE,
    return_signal,
    run_simulation,
)

from conftest import make_bar

D = [date(2023, 1, 2) + timedelta(days=i) for i in range(12)]
#: initial_capital, profit_threshold and dip_threshold, the protocol's values.
CAPITAL, PROFIT, DIP = 1_000_000.0, 0.02, 0.02


class TestReturnSignal:
    def test_positive(self):
        assert return_signal(102.0, 100.0) == pytest.approx(0.02, abs=1e-15)

    def test_zero(self):
        assert return_signal(100.0, 100.0) == 0.0

    def test_negative(self):
        assert return_signal(98.0, 100.0) == pytest.approx(-0.02, abs=1e-15)

    def test_non_positive_open(self):
        with pytest.raises(StockcastError, match=r"^open price must be positive, got 0\.0$"):
            return_signal(100.0, 0.0)


def sim(days, initial_capital=CAPITAL, dip_threshold=DIP):
    """days: list of (open, close, pred). Returns the SimulationResult."""
    bars = [make_bar(D[i], open_=o, close=c) for i, (o, c, _) in enumerate(days)]
    predictions = [(D[i], p) for i, (_, _, p) in enumerate(days)]
    return run_simulation(predictions, bars, initial_capital, PROFIT, dip_threshold)


def actions(result):
    return [e.action for e in result.ledger]


#: A day that longs 98 -> 100 and, its open at least 2% below the predicted
#: 101, buys at the close: a carry entered at 100 with target 102.
DIP_BUY_AT_100 = (98.0, 100.0, 101.0)


class TestTradeDecision:
    def test_long_when_positive_no_dip(self):
        assert actions(sim([(100.0, 104.0, 101.0)])) == [LONG_OPEN_CLOSE]

    def test_short_when_negative(self):
        assert actions(sim([(100.0, 99.0, 99.0)])) == [SHORT_OPEN_CLOSE]

    def test_none_on_zero(self):
        assert actions(sim([(100.0, 101.0, 100.0)])) == [NONE]

    def test_dip_adds_buy_at_close(self):
        result = sim([(100.0, 104.0, 105.0), (104.0, 104.0, 104.0)])
        assert actions(result) == [LONG_OPEN_CLOSE, BUY_AT_CLOSE, DEFERRED_EXIT]
        assert result.ledger[1].entry_price == 104.0

    def test_holding_blocks_base_trade(self):
        # day 2: r = 0.05 and a dip, but 100 and 101 stay below the 102 target
        result = sim([DIP_BUY_AT_100, (100.0, 101.0, 105.0), (101.0, 101.0, 101.0)])
        assert actions(result) == [LONG_OPEN_CLOSE, BUY_AT_CLOSE, NONE, DEFERRED_EXIT]

    def test_exit_at_open_frees_cash(self):
        result = sim([DIP_BUY_AT_100, (103.0, 104.0, 105.06)])
        assert actions(result) == [LONG_OPEN_CLOSE, BUY_AT_CLOSE, DEFERRED_EXIT,
                                   LONG_OPEN_CLOSE]
        assert result.ledger[2].exit_price == 103.0

    def test_exit_at_close_ends_day(self):
        # day 2: open 101 < 102 <= close 103; r > 0 and a dip, but no trade follows
        result = sim([DIP_BUY_AT_100, (101.0, 103.0, 106.0), (103.0, 103.0, 103.0)])
        assert actions(result) == [LONG_OPEN_CLOSE, BUY_AT_CLOSE, DEFERRED_EXIT, NONE]
        assert result.ledger[2].exit_price == 103.0


class TestSingleDayFixtures:
    def test_long_day_gains_exactly_four_percent(self):
        result = sim([(100.0, 104.0, 103.0)])
        assert result.percent_gain == 4.0
        assert [e.action for e in result.ledger] == [LONG_OPEN_CLOSE]

    def test_short_day_gains_exactly_five_percent(self):
        result = sim([(100.0, 95.0, 98.0)])
        assert result.percent_gain == 5.0
        assert [e.action for e in result.ledger] == [SHORT_OPEN_CLOSE]

    def test_flat_predictions_no_trades(self):
        result = sim([(100.0, 104.0, 100.0), (104.0, 103.0, 104.0)])
        assert result.percent_gain == 0.0
        assert all(e.action == NONE for e in result.ledger)


class TestTenDayHandTrace:
    """Row-for-row comparison against a manually evolved ledger.

    Exercises: plain long, plain short, no-signal day, dip carry with
    hold, profit exit at the open (freeing a same-day long), a second
    carry, and forced liquidation at the final close.
    """

    DAYS = [
        (100.0, 102.0, 101.0),   # d0: long
        (100.0, 99.0, 99.0),     # d1: short
        (100.0, 101.0, 100.0),   # d2: none (r = 0)
        (100.0, 104.0, 105.0),   # d3: long + dip buy at close (carry 1)
        (105.0, 105.5, 106.0),   # d4: hold (target 106.08 unreached)
        (106.5, 107.0, 108.0),   # d5: exit at open, then long
        (107.0, 106.0, 105.0),   # d6: short
        (100.0, 98.0, 103.0),    # d7: long (loses) + dip buy (carry 2)
        (99.0, 99.5, 100.0),     # d8: hold (target 99.96 unreached)
        (98.5, 99.0, 98.0),      # d9: forced liquidation at final close
    ]

    def expected(self):
        rows = []
        cap = 1_000_000.0

        r0 = (101.0 - 100.0) / 100.0
        cap *= 102.0 / 100.0
        rows.append((D[0], r0, LONG_OPEN_CLOSE, 100.0, 102.0, cap))

        r1 = (99.0 - 100.0) / 100.0
        cap *= 2.0 - 99.0 / 100.0
        rows.append((D[1], r1, SHORT_OPEN_CLOSE, 100.0, 99.0, cap))

        rows.append((D[2], 0.0, NONE, None, None, cap))

        r3 = (105.0 - 100.0) / 100.0
        cap *= 104.0 / 100.0
        rows.append((D[3], r3, LONG_OPEN_CLOSE, 100.0, 104.0, cap))
        shares = cap / 104.0          # dip: open 100 <= 0.98 * 105
        rows.append((D[3], r3, BUY_AT_CLOSE, 104.0, None, cap))

        r4 = (106.0 - 105.0) / 105.0  # hold: 105 and 105.5 < 1.02 * 104
        rows.append((D[4], r4, NONE, None, None, cap))

        r5 = (108.0 - 106.5) / 106.5  # open 106.5 >= 106.08: exit at open
        cap = shares * 106.5
        rows.append((D[5], r5, DEFERRED_EXIT, 104.0, 106.5, cap))
        cap *= 107.0 / 106.5          # freed cash longs the same day
        rows.append((D[5], r5, LONG_OPEN_CLOSE, 106.5, 107.0, cap))

        r6 = (105.0 - 107.0) / 107.0
        cap *= 2.0 - 106.0 / 107.0
        rows.append((D[6], r6, SHORT_OPEN_CLOSE, 107.0, 106.0, cap))

        r7 = (103.0 - 100.0) / 100.0
        cap *= 98.0 / 100.0
        rows.append((D[7], r7, LONG_OPEN_CLOSE, 100.0, 98.0, cap))
        shares = cap / 98.0           # dip: open 100 <= 0.98 * 103 = 100.94
        rows.append((D[7], r7, BUY_AT_CLOSE, 98.0, None, cap))

        r8 = (100.0 - 99.0) / 99.0    # hold: 99 and 99.5 < 1.02 * 98
        rows.append((D[8], r8, NONE, None, None, cap))

        r9 = (98.0 - 98.5) / 98.5     # neither price reaches 99.96
        cap = shares * 99.0           # forced exit at final close
        rows.append((D[9], r9, DEFERRED_EXIT, 98.0, 99.0, cap))
        return rows, cap

    def test_row_for_row(self):
        expected_rows, expected_cap = self.expected()
        result = sim(self.DAYS)
        assert len(result.ledger) == len(expected_rows)
        for entry, (day, r, action, entry_price, exit_price, cap) in zip(
                result.ledger, expected_rows):
            assert entry.date == day
            assert entry.r == r
            assert entry.action == action
            assert entry.entry_price == entry_price
            assert entry.exit_price == exit_price
            assert entry.capital_after == cap
        assert result.final_capital == expected_cap
        assert result.percent_gain == 100.0 * (expected_cap - 1_000_000.0) / 1_000_000.0


class TestInvariants:
    def test_ledger_r_recomputable(self):
        result = sim(TestTenDayHandTrace.DAYS)
        by_date = {D[i]: day for i, day in enumerate(TestTenDayHandTrace.DAYS)}
        for entry in result.ledger:
            open_, _, pred = by_date[entry.date]
            assert entry.r == return_signal(pred, open_)

    def test_closed_form_compounding_with_dip_disabled(self):
        days = [(100.0, 103.0, 102.0), (103.0, 105.0, 104.0), (105.0, 106.0, 107.0)]
        result = sim(days, dip_threshold=None)
        cap = 1_000_000.0
        for open_, close, _ in days:
            cap = cap * (close / open_)
        assert result.final_capital == cap

    def test_deterministic(self):
        a = sim(TestTenDayHandTrace.DAYS)
        b = sim(TestTenDayHandTrace.DAYS)
        assert a == b

    def test_empty_period_gain_zero(self):
        result = run_simulation([], [], CAPITAL, PROFIT, DIP)
        assert result.percent_gain == 0.0 and result.ledger == ()

    def test_misaligned_dates(self):
        bars = [make_bar(D[0], open_=100, close=101)]
        with pytest.raises(RunFailed, match=f"^prediction and bar series misaligned at {D[1]}$"):
            run_simulation([(D[1], 100.0)], bars, CAPITAL, PROFIT, DIP)

    def test_length_mismatch(self):
        bars = [make_bar(D[0], open_=100, close=101)]
        with pytest.raises(RunFailed, match=f"^prediction and bar series misaligned at {D[1]}$"):
            run_simulation([(D[0], 100.0), (D[1], 101.0)], bars, CAPITAL, PROFIT, DIP)

    def test_no_carry_opened_on_final_day(self):
        # dip condition holds on the last day; position would be pointless
        result = sim([(100.0, 104.0, 105.0)])
        assert [e.action for e in result.ledger] == [LONG_OPEN_CLOSE]

    def test_capital_past_float_range_fails(self):
        # a 4% long day takes 1.79e308 past the largest float
        with pytest.raises(RunFailed, match=f"^capital on {D[0]} is inf, not a finite number: "
                                            r"lower initial_capital \(1\.79e\+308\)$"):
            sim([(100.0, 104.0, 103.0)], initial_capital=1.79e308)

    def test_percent_gain_past_float_range_fails(self):
        # 1.02e308 is a float, but 100 times its 2e306 gain is not
        with pytest.raises(RunFailed, match=f"^percent gain on {D[0]} is inf, not a finite "
                                            r"number: lower initial_capital \(1e\+308\)$"):
            sim([(100.0, 102.0, 101.0)], initial_capital=1e308)
