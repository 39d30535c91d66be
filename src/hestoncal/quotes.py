"""Market quote containers, CSV ingestion, bid-ask style preprocessing,
synthetic ladder generation, and the bundled put-option dataset.

CSV schema: header ``maturity_years,strike,bid,ask,price,style`` with either
the price column or the bid/ask pair populated; comma delimiter, decimal
point, UTF-8.
"""

from __future__ import annotations

import csv
import importlib.resources
import logging
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .params import _check_finite_positive

log = logging.getLogger(__name__)

CSV_HEADER = ["maturity_years", "strike", "bid", "ask", "price", "style"]

GOOGLE_DATASET = "google_puts_2015-02-02.csv"
GOOGLE_S0 = 523.755
GOOGLE_R = 0.0015

# synthetic ladder: maturities with nested strike sets (5+9+13+17+21 quotes)
LADDER_MATURITIES = (1.0 / 6.0, 0.5, 0.75, 1.0, 2.0)
_K1 = [0.95, 0.975, 1.0, 1.025, 1.05]
_K2 = sorted(_K1 + [0.9, 0.925, 1.075, 1.1])
_K3 = sorted(_K2 + [0.85, 0.875, 1.125, 1.15])
_K4 = sorted(_K3 + [0.8, 0.825, 1.175, 1.2])
_K5 = sorted(_K4 + [0.75, 0.775, 1.225, 1.25])
LADDER_STRIKES = (_K1, _K2, _K3, _K4, _K5)


@dataclass(frozen=True)
class Quote:
    """One observed put option; price xor (bid, ask) must be present."""

    maturity: float
    strike: float
    style: str
    price: float | None = None
    bid: float | None = None
    ask: float | None = None

    def __post_init__(self):
        _check_finite_positive("maturity", self.maturity)
        _check_finite_positive("strike", self.strike)
        for name, value in (("bid", self.bid), ("ask", self.ask)):
            # negated, so that NaN is refused too
            if value is not None and not 0.0 <= value < math.inf:
                raise ValueError(f"{name} must be finite and nonnegative, got {value}")
        # a NaN price is allowed: it marks a quote that is yet to be priced
        if self.price is not None and math.isinf(self.price):
            raise ValueError(f"price must be finite or NaN, got {self.price}")
        if self.style not in ("american", "european"):
            raise ValueError(f"unknown style {self.style!r}")
        if self.price is None and (self.bid is None or self.ask is None):
            raise ValueError("quote needs either a price or a bid/ask pair")
        if self.bid is not None and self.ask is not None and self.bid > self.ask:
            raise ValueError(f"bid {self.bid} exceeds ask {self.ask}")

    @property
    def mid(self) -> float:
        if self.price is not None:
            return self.price
        return 0.5 * (self.bid + self.ask)


@dataclass(frozen=True)
class QuoteSet:
    """Immutable collection of quotes with shared market context."""

    quotes: tuple[Quote, ...]
    S0: float
    r: float

    def __post_init__(self):
        _check_finite_positive("spot", self.S0)
        if not math.isfinite(self.r):
            raise ValueError(f"r must be finite, got {self.r}")
        if not self.quotes:
            raise ValueError("quote set is empty")

    def __len__(self) -> int:
        return len(self.quotes)

    def __iter__(self):
        return iter(self.quotes)

    def maturities(self) -> list[float]:
        return sorted({q.maturity for q in self.quotes})

    def prices(self) -> np.ndarray:
        return np.array([q.mid for q in self.quotes])

    def with_quotes(self, quotes) -> "QuoteSet":
        return replace(self, quotes=tuple(quotes))

    def sorted(self) -> "QuoteSet":
        return self.with_quotes(sorted(self.quotes, key=lambda q: (q.maturity, q.strike)))


def preprocess_quotes(raw: QuoteSet) -> QuoteSet:
    """Bid-ask style filtering before calibration.

    1. Price as the bid-ask midpoint where no price is given.
    2. Zero-bid quotes are dropped.
    3. Per maturity, if two puts at consecutive listed strikes both have
       zero bids, every put with a lower strike is dropped too.
    """
    by_maturity: dict[float, list[Quote]] = {}
    for q in raw:
        by_maturity.setdefault(q.maturity, []).append(q)

    kept: list[Quote] = []
    for T in sorted(by_maturity):
        group = sorted(by_maturity[T], key=lambda q: q.strike)
        zero = [q.bid is not None and q.bid == 0.0 for q in group]
        cutoff = -1  # strikes at or below index cutoff are truncated
        for i in range(len(group) - 1):
            if zero[i] and zero[i + 1]:
                cutoff = max(cutoff, i + 1)
        for i, q in enumerate(group):
            if i <= cutoff or zero[i]:
                continue
            kept.append(q if q.price is not None else replace(q, price=q.mid))
    if not kept:
        raise ValueError("preprocessing removed every quote")
    dropped = len(raw.quotes) - len(kept)
    if dropped:
        log.info("preprocessing dropped %d of %d quotes", dropped, len(raw.quotes))
    return raw.with_quotes(kept).sorted()


def synthetic_layout(style: str) -> list[Quote]:
    """The 65-option maturity/strike ladder without prices (unit notional)."""
    quotes = []
    for T, strikes in zip(LADDER_MATURITIES, LADDER_STRIKES):
        for K in strikes:
            quotes.append(Quote(maturity=T, strike=K, style=style, price=math.nan))
    return quotes


def generate_synthetic(theta_ex, r: float, style: str, pricer) -> QuoteSet:
    """Price the full ladder at theta_ex through the supplied pricer.

    pricer(theta, quotes, S0, r) must return an array of model prices
    aligned with the quote list.
    """
    layout = synthetic_layout(style)
    prices = np.asarray(pricer(theta_ex, layout, 1.0, r), dtype=float)
    if prices.shape != (len(layout),):
        raise ValueError("pricer returned a mis-shaped price vector")
    quotes = [replace(q, price=float(p)) for q, p in zip(layout, prices)]
    return QuoteSet(quotes=tuple(quotes), S0=1.0, r=r).sorted()


# ---------------------------------------------------------------------------
# CSV input/output


def write_table(path, header, rows) -> None:
    """Write header and rows to the CSV file path.  A cell None is written
    empty, a str as it is, and anything else as repr(float(x)), which reads
    back bit for bit."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(["" if x is None else x if isinstance(x, str) else repr(float(x)) for x in row]
                         for row in rows)


def read_table(path, header, parse) -> list:
    """parse(cells) of every row below the header of the CSV file path,
    blank rows skipped.  A file without the exact header is refused, and a
    ValueError of parse is raised again as path:line: message."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        first = next(reader, None)
        if first is None:
            raise ValueError(f"{path}: empty file; want the CSV header {header}")
        if [h.strip() for h in first] != header:
            raise ValueError(f"{path}: unexpected CSV header {first!r}; want {header}")
        rows = []
        for row in reader:
            if any(cell.strip() for cell in row):
                try:
                    rows.append(parse(row))
                except ValueError as exc:
                    raise ValueError(f"{path}:{reader.line_num}: {exc}") from exc
    return rows


def _parse_optional(value: str) -> float | None:
    value = value.strip()
    return float(value) if value else None


def _parse_quote(row: list[str]) -> Quote:
    T, K, bid, ask, price, style = row
    return Quote(maturity=float(T), strike=float(K), bid=_parse_optional(bid), ask=_parse_optional(ask),
                 price=_parse_optional(price), style=style.strip().lower())


def read_quotes_csv(path, S0: float, r: float) -> QuoteSet:
    quotes = read_table(path, CSV_HEADER, _parse_quote)
    if not quotes:
        raise ValueError(f"{path}: no quote rows below the header")
    return QuoteSet(quotes=tuple(quotes), S0=S0, r=r)


def write_quotes_csv(quotes: QuoteSet, path) -> None:
    write_table(path, CSV_HEADER, ((q.maturity, q.strike, q.bid, q.ask, q.price, q.style) for q in quotes))


def load_google_quotes() -> QuoteSet:
    """Bundled 2015-02-02 American put dataset (401 quotes)."""
    resource = importlib.resources.files("hestoncal.data") / GOOGLE_DATASET
    with importlib.resources.as_file(resource) as path:
        return read_quotes_csv(path, S0=GOOGLE_S0, r=GOOGLE_R)
