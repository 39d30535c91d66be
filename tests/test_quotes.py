"""Quote schema, preprocessing, the synthetic ladder and CSV round-trips."""

import numpy as np
import pytest

from hestoncal.quotes import (
    CSV_HEADER,
    GOOGLE_R,
    GOOGLE_S0,
    LADDER_MATURITIES,
    LADDER_STRIKES,
    Quote,
    QuoteSet,
    generate_synthetic,
    load_google_quotes,
    preprocess_quotes,
    read_quotes_csv,
    read_table,
    synthetic_layout,
    write_quotes_csv,
    write_table,
)


def _qs(quotes, S0=100.0, r=0.02):
    return QuoteSet(quotes=tuple(quotes), S0=S0, r=r)


def test_quote_validation():
    with pytest.raises(ValueError):
        Quote(maturity=-1.0, strike=100.0, style="american", price=1.0)
    with pytest.raises(ValueError):
        Quote(maturity=1.0, strike=0.0, style="american", price=1.0)
    with pytest.raises(ValueError):
        Quote(maturity=1.0, strike=100.0, style="bermudan", price=1.0)
    with pytest.raises(ValueError):
        Quote(maturity=1.0, strike=100.0, style="american")  # no price, no bid/ask
    with pytest.raises(ValueError):
        Quote(maturity=1.0, strike=100.0, style="american", bid=2.0, ask=1.0)


@pytest.mark.parametrize("fields, named", [
    (dict(price=np.inf), "price must be finite or NaN"),
    (dict(price=-np.inf), "price must be finite or NaN"),
    (dict(bid=-0.1, ask=1.0), "bid must be finite and nonnegative"),
    (dict(bid=0.0, ask=-0.1), "ask must be finite and nonnegative"),
], ids=["inf_price", "minus_inf_price", "negative_bid", "negative_ask"])
def test_quote_refuses_an_infinite_price_or_a_negative_bid_or_ask(fields, named):
    """An infinite price prices nothing, and a negative bid or ask would give
    a negative mid; a NaN price (unpriced) and a zero bid still construct."""
    with pytest.raises(ValueError, match=named):
        Quote(maturity=1.0, strike=100.0, style="american", **fields)
    assert np.isnan(Quote(maturity=1.0, strike=100.0, style="american", price=np.nan).price)
    assert Quote(maturity=1.0, strike=100.0, style="american", bid=0.0, ask=0.2).mid == 0.1


@pytest.mark.parametrize("S0, r, named", [
    (np.nan, 0.02, "spot"), (np.inf, 0.02, "spot"),
    (100.0, np.nan, "r"), (100.0, np.inf, "r"), (100.0, -np.inf, "r"),
], ids=["nan_spot", "inf_spot", "nan_rate", "inf_rate", "minus_inf_rate"])
def test_quote_set_refuses_a_non_finite_spot_or_rate(S0, r, named):
    """--spot and --rate reach QuoteSet from the CLI unchecked."""
    quote = Quote(maturity=1.0, strike=100.0, style="american", price=1.0)
    with pytest.raises(ValueError, match=f"{named} must be finite"):
        _qs([quote], S0=S0, r=r)


def test_midpoint():
    q = Quote(maturity=1.0, strike=100.0, style="american", bid=2.0, ask=3.0)
    assert q.mid == pytest.approx(2.5)
    p = Quote(maturity=1.0, strike=100.0, style="american", price=4.0, bid=2.0, ask=3.0)
    assert p.mid == 4.0  # explicit price wins


def test_preprocess_fills_midpoints_and_drops_zero_bids():
    quotes = [
        Quote(maturity=1.0, strike=100.0, style="american", bid=2.0, ask=3.0),
        Quote(maturity=1.0, strike=90.0, style="american", bid=0.0, ask=1.0),
    ]
    out = preprocess_quotes(_qs(quotes))
    assert len(out) == 1
    assert out.quotes[0].strike == 100.0
    assert out.quotes[0].price == pytest.approx(2.5)


def test_preprocess_consecutive_zero_bid_truncation():
    # strikes 250, 260, 265, 270: zero bids at 260 and 265 are consecutive in
    # the listed ladder, so 250 is truncated too and only 270 survives.
    mk = lambda K, bid: Quote(
        maturity=0.5, strike=K, style="american", bid=bid, ask=bid + 0.5
    )
    quotes = [mk(250.0, 1.0), mk(260.0, 0.0), mk(265.0, 0.0), mk(270.0, 2.0)]
    out = preprocess_quotes(_qs(quotes))
    assert [q.strike for q in out] == [270.0]


def test_preprocess_is_per_maturity():
    mk = lambda T, K, bid: Quote(
        maturity=T, strike=K, style="american", bid=bid, ask=bid + 0.5
    )
    quotes = [
        mk(0.5, 90.0, 0.0),
        mk(0.5, 95.0, 0.0),
        mk(0.5, 100.0, 1.0),
        mk(1.0, 90.0, 2.0),  # the other maturity keeps its low strike
    ]
    out = preprocess_quotes(_qs(quotes))
    assert {(q.maturity, q.strike) for q in out} == {(0.5, 100.0), (1.0, 90.0)}


def test_preprocess_rejects_empty_result():
    q = Quote(maturity=1.0, strike=100.0, style="american", bid=0.0, ask=0.5)
    with pytest.raises(ValueError):
        preprocess_quotes(_qs([q]))


def test_ladder_has_65_nested_quotes():
    layout = synthetic_layout("american")
    assert len(layout) == 65
    assert len(LADDER_MATURITIES) == 5
    # strike sets are nested across maturities
    for a, b in zip(LADDER_STRIKES, LADDER_STRIKES[1:]):
        assert set(a) <= set(b)
    assert len(LADDER_STRIKES[0]) == 5 and len(LADDER_STRIKES[-1]) == 21


def test_generate_synthetic_aligns_prices():
    theta = np.array([0.7, -0.8, 0.3, 1.4, 0.3])

    def pricer(th, quotes, S0, r):
        return np.array([q.strike * q.maturity for q in quotes])

    qs = generate_synthetic(theta, 0.05, "american", pricer)
    assert len(qs) == 65 and qs.S0 == 1.0 and qs.r == 0.05
    for q in qs:
        assert q.price == pytest.approx(q.strike * q.maturity)


def test_csv_round_trip_is_bit_exact(tmp_path):
    quotes = [
        Quote(maturity=1.0 / 3.0, strike=100.1, style="american", bid=0.1, ask=0.3),
        Quote(maturity=0.7, strike=95.0, style="european", price=1.23456789012345e-3),
    ]
    qs = _qs(quotes)
    path = tmp_path / "q.csv"
    write_quotes_csv(qs, path)
    back = read_quotes_csv(path, S0=qs.S0, r=qs.r)
    for a, b in zip(qs, back):
        assert a.maturity == b.maturity
        assert a.strike == b.strike
        assert a.bid == b.bid and a.ask == b.ask and a.price == b.price
        assert a.style == b.style


@pytest.mark.parametrize("row, named", [
    ("nan,100.0,,,1.0", "maturity"),
    ("1.0,inf,,,1.0", "strike"),
    ("1.0,100.0,nan,2.0,", "bid"),
    ("1.0,100.0,1.0,inf,", "ask"),
], ids=["maturity", "strike", "bid", "ask"])
def test_csv_row_with_non_finite_value_is_refused(tmp_path, row, named):
    """A NaN or infinite maturity, strike, bid or ask in a CSV row fails the
    read, naming the field; a NaN price, the unpriced placeholder, reads."""
    path = tmp_path / "q.csv"
    path.write_text(f"{','.join(CSV_HEADER)}\n{row},american\n")
    with pytest.raises(ValueError, match=f"{named} must be finite"):
        read_quotes_csv(path, S0=100.0, r=0.02)
    path.write_text(f"{','.join(CSV_HEADER)}\n1.0,100.0,,,nan,american\n")
    assert np.isnan(read_quotes_csv(path, S0=100.0, r=0.02).quotes[0].price)


@pytest.mark.parametrize("row, message", [
    ("1.0,100.0,,,1.0", "not enough values to unpack"),
    ("1.0,abc,,,1.0,american", "could not convert string to float: 'abc'"),
    ("1.0,100.0,,,1.0,bermudan", "unknown style 'bermudan'"),
], ids=["five_fields", "strike_abc", "quote_refused"])
def test_csv_row_error_names_file_and_line(tmp_path, row, message):
    """A row that does not unpack, parse or make a Quote fails the read with
    the file and the row's line in front of the message."""
    path = tmp_path / "q.csv"
    path.write_text(f"{','.join(CSV_HEADER)}\n1.0,100.0,,,1.0,american\n{row}\n")
    with pytest.raises(ValueError, match=f"q.csv:3: {message}"):
        read_quotes_csv(path, S0=100.0, r=0.02)


def test_write_table_cell_rule(tmp_path):
    """None is an empty cell, a str is written as it is, and anything else
    as repr(float(x)), NaN included; read_table reads every cell back."""
    path = tmp_path / "t.csv"
    rows = [[None, "american", 0.1, np.float64(1.0 / 3.0), float("nan"), 2],
            [1e-300, "a,b", -0.0, np.inf, None, True]]
    write_table(path, ["a", "b", "c", "d", "e", "f"], rows)
    assert path.read_bytes() == (b"a,b,c,d,e,f\r\n"
                                 b",american,0.1,0.3333333333333333,nan,2.0\r\n"
                                 b'1e-300,"a,b",-0.0,inf,,1.0\r\n')
    back = read_table(path, ["a", "b", "c", "d", "e", "f"], list)
    assert back == [["", "american", "0.1", "0.3333333333333333", "nan", "2.0"],
                    ["1e-300", "a,b", "-0.0", "inf", "", "1.0"]]


def test_read_table_checks_the_header_skips_blank_rows_and_names_the_line(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b\n1,2\n\n , \n3,x\n")
    with pytest.raises(ValueError, match=r"t.csv: unexpected CSV header \['a', 'b'\]; want \['a', 'c'\]$"):
        read_table(path, ["a", "c"], list)
    with pytest.raises(ValueError, match="t.csv:5: could not convert string to float: 'x'$"):
        read_table(path, ["a", "b"], lambda row: [float(c) for c in row])
    path.write_text(" a , b \n1,2\n\n3,4\n")
    assert read_table(path, ["a", "b"], lambda row: [float(c) for c in row]) == [[1.0, 2.0], [3.0, 4.0]]


def test_empty_csv_is_refused_naming_the_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(ValueError, match="empty.csv: empty file"):
        read_quotes_csv(path, S0=100.0, r=0.02)


def test_header_only_csv_is_refused_naming_the_file(tmp_path):
    """A header and blank lines but no quote row: the file is named, not
    only the empty quote set."""
    path = tmp_path / "header.csv"
    path.write_text(f"{','.join(CSV_HEADER)}\n\n")
    with pytest.raises(ValueError, match="header.csv: no quote rows below the header"):
        read_quotes_csv(path, S0=100.0, r=0.02)


def test_csv_header_enforced(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("T,K,bid,ask,price,style\n1.0,100.0,,,1.0,american\n")
    with pytest.raises(ValueError):
        read_quotes_csv(path, S0=100.0, r=0.02)


def test_google_dataset_loads():
    qs = load_google_quotes()
    assert len(qs) == 401
    assert qs.S0 == GOOGLE_S0 == 523.755
    assert qs.r == GOOGLE_R == 0.0015
    assert all(q.style == "american" for q in qs)
    assert all(q.mid > 0 for q in qs)


def test_sorted_order_independence():
    mk = lambda T, K: Quote(maturity=T, strike=K, style="american", price=1.0)
    a = _qs([mk(1.0, 90.0), mk(0.5, 100.0), mk(0.5, 95.0)]).sorted()
    b = _qs([mk(0.5, 95.0), mk(1.0, 90.0), mk(0.5, 100.0)]).sorted()
    assert a == b
