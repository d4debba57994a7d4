"""Command-line contract: every input ends in a documented exit code.

Invalid and extreme inputs must exit 0, 2 or 3 without an escaping
exception; a check that cannot examine anything must not pass.
"""

import shlex
import sys

import pytest

from qcenum import cli

# (argv, expected exit code)
CASES = [
    # counts beyond the interpreter's 4300-digit int -> str limit
    ("enumerate --q 2 --n 240 --zeros 1,3", 0),
    ("enumerate --q 2 --n 240 --zeros 1,3 --format json", 0),
    # there is no field with 6 elements
    ("subspaces --q 6 --n 4", 2),
    # a sampled shift check with no samples would pass vacuously
    ("verify --q 5 --n 3 --zeros 1,2 --samples 0", 2),
    # ... and an exhaustive one must still reject a count below 1
    ("verify --q 2 --n 4 --zeros 1 --samples -3", 2),
    ("verify --q 2 --n 4 --zeros 1 --samples 0", 2),
    ("enumerate --q 1 --n 4 --zeros 1", 2),
    ("subspaces --q 1 --n 4", 2),
    ("enumerate --q 2 --n 0 --zeros 1", 2),
    ("enumerate --q 2 --n 1 --zeros 1", 2),
    ("subspaces --q 2 --n 0", 2),
    ("indices --q 2 --n 4 --zeros ''", 2),
    ("enumerate --q 2 --n 4 --zeros 15", 2),
    ("indices --q 2 --n 4 --zeros 0", 2),
    ("enumerate --q 2 --n 4 --zeros 5", 2),  # coset {5, 10}
    ("enumerate --q 2 --n 4 --zeros 1,2", 2),  # 2 is in the coset of 1
    ("closed-form --family simplex --q 2", 2),
    ("closed-form --family simplex --q 2 --n 6 --u 3", 2),
    ("closed-form --family bch3-pary-twoprimes --p 3 --u 2", 2),
    ("verify --q 2 --n 4 --zeros 1 --cap 8", 2),
    # q^n = 64 is under the cap, but the walk has 2825^2, about 8.0M, tuples
    ("verify --q 2 --n 6 --zeros 1,3", 2),
    # byte-lane rows at odd q: 2^18 tuples of 8 lane bits exceed the walk
    # budget of 2^20 lane bits
    ("verify --q 5 --n 2 --zeros 1,2,3,4,7,8", 2),
    # --factored renders human output only
    ("enumerate --q 2 --n 6 --zeros 1,3 --factored --format csv", 2),
    ("enumerate --q 2 --n 6 --zeros 1,3 --factored --format json", 2),
    # q = 1000000007 * 1000000009 is no prime power, found without factoring q
    ("subspaces --q 1000000016000000063 --n 2", 2),
    ("enumerate --q 1000000016000000063 --n 2 --zeros 1", 2),
    ("subspaces --q 1000000007 --n 2", 0),
    # a cap raised above the default admits the field: q^n = 289
    ("verify --q 17 --n 2 --zeros 1 --cap 300", 0),
    # odd-q rows keep one digit per byte lane, which holds q <= 127 only
    ("verify --q 131 --n 2 --zeros 1 --cap 17161", 2),
]


@pytest.mark.parametrize("argv,expected", CASES, ids=[argv for argv, _ in CASES])
def test_exit_code_contract(capsys, argv, expected):
    digit_limit = getattr(sys, "get_int_max_str_digits", lambda: None)
    digits_before = digit_limit()
    code = cli.main(shlex.split(argv))
    out, err = capsys.readouterr()
    assert code in {0, 2, 3}
    assert code == expected, (out, err)
    assert "Traceback" not in out + err
    if code == 2:
        assert err.startswith(("error:", "usage:")), err
    assert digit_limit() == digits_before
