"""Small shared utilities: validation, timing, RNG and statistics helpers."""

from repro.util.arrays import distinct
from repro.util.rng import make_rng
from repro.util.timing import Timer, median_time
from repro.util.validation import (
    check_1d,
    check_index_range,
    check_nonnegative,
    check_positive,
    check_sorted_within_rows,
)

__all__ = [
    "Timer",
    "check_1d",
    "check_index_range",
    "check_nonnegative",
    "check_positive",
    "check_sorted_within_rows",
    "distinct",
    "make_rng",
    "median_time",
]
