"""Rule-based trading simulation over predicted closes and true bars.

Codified policy (the prose rule it implements is ambiguous, so this is
the single normative statement):

* Daily signal r = (predicted close - true open) / true open.
* Base rule, requires free cash at the open: r > 0 buys at the open and
  sells at the close; r < 0 shorts at the open and covers at the close
  (symmetric accounting, fractional shares, no costs); r = 0 does
  nothing.
* Dip rule: if the open is at least ``dip_threshold`` below the
  predicted close (open <= (1-dip)*pred), all cash additionally buys at
  the close and is carried. At most one carry at a time; new dip
  signals while carrying are ignored, and no carry is opened on the
  final day.
* A carried position exits at the first subsequent open or close at or
  above (1+profit_threshold)*entry, checking the open before the close
  each day; anything still open is liquidated at the final close.
* While cash is tied up in a carry, base-rule day trades are skipped.
  A carry exit at the open frees cash for that same day's base trade; an
  exit at the close does not.

All trades deploy the full current capital. A capital or percent gain
past the float range stops the run (RunFailed) rather than reaching a
ledger as inf or nan.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import RunFailed, StockcastError

LONG_OPEN_CLOSE = "long_open_close"
SHORT_OPEN_CLOSE = "short_open_close"
BUY_AT_CLOSE = "buy_at_close"
DEFERRED_EXIT = "deferred_exit"
NONE = "none"


class LedgerEntry(NamedTuple):
    date: object
    r: float
    action: str
    entry_price: float | None
    exit_price: float | None
    capital_after: float


class SimulationResult(NamedTuple):
    ledger: tuple
    final_capital: float
    percent_gain: float


def return_signal(pred_close, true_open):
    """(predicted close - true open) / true open."""
    if true_open <= 0:
        raise StockcastError(f"open price must be positive, got {true_open}")
    return (pred_close - true_open) / true_open


def run_simulation(predictions, bars, initial_capital, profit_threshold, dip_threshold):
    """Run the policy day by day over aligned predictions and bars.

    Args:
        predictions: sequence of (date, predicted_close) pairs, one per
            bar, on the true price scale.
        bars: PriceBar sequence, same dates in the same order.
        initial_capital, profit_threshold, dip_threshold: the policy's
            values; dip_threshold=None turns the dip rule off.

    Returns:
        SimulationResult with a per-action ledger (hold and no-signal
        days appear as action "none").

    Raises:
        RunFailed: date mismatch between predictions and bars, or a
            capital or percent gain past the float range.
    """
    if len(predictions) != len(bars):
        unmatched = (predictions[len(bars)][0] if len(predictions) > len(bars)
                     else bars[len(predictions)].date)
        raise RunFailed(f"prediction and bar series misaligned at {unmatched}")
    for (pd, _), bar in zip(predictions, bars):
        if pd != bar.date:
            raise RunFailed(f"prediction and bar series misaligned at {pd}")

    capital = initial_capital
    carry = None  # (shares, entry price) of the position bought at a close
    ledger = []
    last_index = len(bars) - 1

    def book(action, entry_price=None, exit_price=None):
        """Ledger ``action`` on the current day at the current capital."""
        if not math.isfinite(capital):
            raise RunFailed(f"capital on {day} is {capital}, not a finite number: "
                            f"lower initial_capital ({initial_capital})")
        ledger.append(LedgerEntry(day, r, action, entry_price, exit_price, capital))

    for index, ((day, pred), bar) in enumerate(zip(predictions, bars)):
        r = return_signal(pred, bar.open)
        if carry is not None:
            shares, entry_price = carry
            target = (1.0 + profit_threshold) * entry_price
            at_open = bar.open >= target
            if not (at_open or bar.close >= target or index == last_index):
                book(NONE)
                continue
            exit_price = bar.open if at_open else bar.close
            capital = shares * exit_price
            book(DEFERRED_EXIT, entry_price, exit_price)
            carry = None
            if not at_open:
                continue  # cash freed at the close makes no trade that day
        if r > 0:
            capital = capital * (bar.close / bar.open)
            book(LONG_OPEN_CLOSE, bar.open, bar.close)
        elif r < 0:
            capital = capital * (2.0 - bar.close / bar.open)
            book(SHORT_OPEN_CLOSE, bar.open, bar.close)
        else:
            book(NONE)
        # a carry opened on the final day would liquidate at the same print
        if (dip_threshold is not None and index < last_index
                and bar.open <= (1.0 - dip_threshold) * pred):
            carry = (capital / bar.close, bar.close)
            book(BUY_AT_CLOSE, bar.close)

    percent_gain = 100.0 * (capital - initial_capital) / initial_capital
    if not math.isfinite(percent_gain):
        raise RunFailed(f"percent gain on {ledger[-1].date} is {percent_gain}, not a finite "
                        f"number: lower initial_capital ({initial_capital})")
    return SimulationResult(ledger=tuple(ledger), final_capital=capital,
                            percent_gain=percent_gain)


__all__ = [
    "LedgerEntry",
    "SimulationResult",
    "return_signal",
    "run_simulation",
    "LONG_OPEN_CLOSE",
    "SHORT_OPEN_CLOSE",
    "BUY_AT_CLOSE",
    "DEFERRED_EXIT",
    "NONE",
]
