"""launderscan: detection toolkit for placement-laundering ad fraud.

Flags (IP, ISP) pairs that serve implausibly many high-reputation publisher
domains, fingerprints and compares the schemes behind them, ranks panel
machines by ad misattribution, and generates labeled synthetic traffic to
validate every detector end to end.
"""

__version__ = "0.1.0"
