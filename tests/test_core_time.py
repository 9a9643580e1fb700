from datetime import date, datetime, timezone

import pytest

from gulfclimate.core.timeutil import (
    UnparseableTimestamp,
    format_timestamp,
    midnight_utc,
    parse_utc,
)


def test_fixed_offset_converted():
    dt = parse_utc("2023-04-15T12:00:00+04:00")
    assert dt == datetime(2023, 4, 15, 8, 0, 0, tzinfo=timezone.utc)


def test_date_only_maps_to_midnight_utc():
    expected = datetime(2023, 4, 15, 0, 0, 0, tzinfo=timezone.utc)
    assert parse_utc("2023-04-15") == expected
    assert midnight_utc(date(2023, 4, 15)) == expected


def test_naive_input_reads_as_utc():
    expected = datetime(2023, 4, 15, 12, 0, 0, tzinfo=timezone.utc)
    assert parse_utc("2023-04-15T12:00:00") == expected


def test_z_suffix():
    assert parse_utc("2023-04-15T08:00:00Z") == datetime(
        2023, 4, 15, 8, tzinfo=timezone.utc
    )


def test_unparseable():
    with pytest.raises(UnparseableTimestamp):
        parse_utc("the ides of march")


def test_format_parse_round_trip():
    dt = datetime(2021, 6, 1, 13, 37, 42, tzinfo=timezone.utc)
    assert parse_utc(format_timestamp(dt)) == dt
    assert format_timestamp(dt) == "2021-06-01T13:37:42Z"
