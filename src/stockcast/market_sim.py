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

All trades deploy the full current capital.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import RunFailed, StockcastError

LONG_OPEN_CLOSE = "long_open_close"
SHORT_OPEN_CLOSE = "short_open_close"
BUY_AT_CLOSE = "buy_at_close"
DEFERRED_EXIT = "deferred_exit"
NONE = "none"


@dataclass(frozen=True)
class SimConfig:
    """Capital and the 2% entry/exit refinements.

    dip_threshold=None disables the carry mechanism entirely.
    """

    initial_capital: float = 1_000_000.0
    profit_threshold: float = 0.02
    dip_threshold: float | None = 0.02

    def __post_init__(self):
        if self.initial_capital <= 0:
            raise ValueError("initial_capital must be positive")
        if self.profit_threshold < 0:
            raise ValueError("profit_threshold must be >= 0")
        if self.dip_threshold is not None and self.dip_threshold < 0:
            raise ValueError("dip_threshold must be >= 0 or None")


@dataclass(frozen=True)
class Position:
    shares: float
    entry_price: float


@dataclass(frozen=True)
class LedgerEntry:
    date: object
    r: float
    action: str
    entry_price: float | None
    exit_price: float | None
    capital_after: float


@dataclass(frozen=True)
class SimulationResult:
    ledger: tuple
    final_capital: float
    percent_gain: float


def return_signal(pred_close, true_open):
    """(predicted close - true open) / true open."""
    if true_open <= 0:
        raise StockcastError(f"open price must be positive, got {true_open}")
    return (pred_close - true_open) / true_open


def _exit_target(position, cfg):
    return (1.0 + cfg.profit_threshold) * position.entry_price


def _dip_triggered(bar, pred_close, cfg):
    if cfg.dip_threshold is None:
        return False
    return bar.open <= (1.0 - cfg.dip_threshold) * pred_close


def trade_decision(r, bar, pred_close, cfg, open_position=None):
    """Action sequence for one day, in execution order.

    With a carried position: exit when today's open or close reaches the
    profit target (open checked first), else hold ("none"). With free
    cash: the base open->close trade by sign of r, plus "buy_at_close"
    when the dip rule fires.
    """
    actions = []
    if open_position is not None:
        target = _exit_target(open_position, cfg)
        if bar.open >= target:
            actions.append(DEFERRED_EXIT)
            # cash freed at the open; base/dip rules run below
        elif bar.close >= target:
            return (DEFERRED_EXIT,)
        else:
            return (NONE,)
    if r > 0:
        actions.append(LONG_OPEN_CLOSE)
    elif r < 0:
        actions.append(SHORT_OPEN_CLOSE)
    else:
        actions.append(NONE)
    if _dip_triggered(bar, pred_close, cfg):
        actions.append(BUY_AT_CLOSE)
    return tuple(actions)


def run_simulation(predictions, bars, cfg=None):
    """Run the policy day by day over aligned predictions and bars.

    Args:
        predictions: sequence of (date, predicted_close) pairs, one per
            bar, on the true price scale.
        bars: PriceBar sequence, same dates in the same order.
        cfg: SimConfig; defaults apply when omitted.

    Returns:
        SimulationResult with a per-action ledger (hold and no-signal
        days appear as action "none").

    Raises:
        RunFailed: date mismatch between predictions and bars.
    """
    cfg = cfg or SimConfig()
    predictions = list(predictions)
    bars = list(bars)
    if len(predictions) != len(bars):
        unmatched = (predictions[len(bars)][0] if len(predictions) > len(bars)
                     else bars[len(predictions)].date)
        raise RunFailed(f"prediction and bar series misaligned at {unmatched}")
    for (pd, _), bar in zip(predictions, bars):
        if pd != bar.date:
            raise RunFailed(f"prediction and bar series misaligned at {pd}")

    capital = cfg.initial_capital
    position = None
    ledger = []
    last_index = len(bars) - 1

    for index, ((day, pred), bar) in enumerate(zip(predictions, bars)):
        r = return_signal(pred, bar.open)
        actions = trade_decision(r, bar, pred, cfg, open_position=position)
        if position is not None and actions == (NONE,) and index == last_index:
            # end of period: forced liquidation at the final close
            actions = (DEFERRED_EXIT,)
        for action in actions:
            if action == DEFERRED_EXIT:
                exit_price = bar.open if bar.open >= _exit_target(position, cfg) else bar.close
                capital = position.shares * exit_price
                ledger.append(LedgerEntry(day, r, action, position.entry_price,
                                          exit_price, capital))
                position = None
            elif action == LONG_OPEN_CLOSE:
                capital = capital * (bar.close / bar.open)
                ledger.append(LedgerEntry(day, r, action, bar.open, bar.close, capital))
            elif action == SHORT_OPEN_CLOSE:
                capital = capital * (2.0 - bar.close / bar.open)
                ledger.append(LedgerEntry(day, r, action, bar.open, bar.close, capital))
            elif action == BUY_AT_CLOSE:
                if index == last_index:
                    continue  # would liquidate at the same print; skip
                position = Position(shares=capital / bar.close, entry_price=bar.close)
                ledger.append(LedgerEntry(day, r, action, bar.close, None, capital))
            else:
                ledger.append(LedgerEntry(day, r, NONE, None, None, capital))

    final_capital = capital
    percent_gain = 100.0 * (final_capital - cfg.initial_capital) / cfg.initial_capital
    return SimulationResult(
        ledger=tuple(ledger),
        final_capital=final_capital,
        percent_gain=percent_gain,
    )


__all__ = [
    "SimConfig",
    "Position",
    "LedgerEntry",
    "SimulationResult",
    "return_signal",
    "trade_decision",
    "run_simulation",
    "LONG_OPEN_CLOSE",
    "SHORT_OPEN_CLOSE",
    "BUY_AT_CLOSE",
    "DEFERRED_EXIT",
    "NONE",
]
