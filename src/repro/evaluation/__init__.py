"""Forecast evaluation metrics, reports, and backtesting (Section IV)."""

from .backtest import backtest
from .chaos import chaos_run, format_chaos_report
from .metrics import coverage, mean_weighted_quantile_loss, weighted_quantile_loss
from .report import evaluate_quantile_forecast, format_table

__all__ = [
    "weighted_quantile_loss",
    "mean_weighted_quantile_loss",
    "coverage",
    "evaluate_quantile_forecast",
    "format_table",
    "backtest",
    "chaos_run",
    "format_chaos_report",
]
