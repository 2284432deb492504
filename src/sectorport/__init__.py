"""Sector portfolio construction, Monte-Carlo frontiers, LSTM forecasting, backtesting."""

__version__ = "0.1.0"
