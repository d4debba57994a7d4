"""Command-line contract: every input ends in a documented exit code.

Invalid and extreme inputs must exit 0, 2 or 3 without an escaping
exception; a check that cannot examine anything must not pass.
"""

import shlex
import sys

import pytest

from qcenum import cli
from qcenum.oracle import ENV_CAP

# (argv, QCENUM_ORACLE_CAP value or None, expected exit code)
CASES = [
    # counts beyond the interpreter's 4300-digit int -> str limit
    ("enumerate --q 2 --n 240 --zeros 1,3", None, 0),
    ("enumerate --q 2 --n 240 --zeros 1,3 --format json", None, 0),
    # there is no field with 6 elements
    ("subspaces --q 6 --n 4", None, 2),
    # a sampled shift check with no samples would pass vacuously
    ("verify --q 5 --n 3 --zeros 1,2 --samples 0", None, 2),
    # ... and an exhaustive one must still reject a count below 1
    ("verify --q 2 --n 4 --zeros 1 --samples -3", None, 2),
    ("verify --q 2 --n 4 --zeros 1 --samples 0", None, 2),
    ("enumerate --q 1 --n 4 --zeros 1", None, 2),
    ("subspaces --q 1 --n 4", None, 2),
    ("enumerate --q 2 --n 0 --zeros 1", None, 2),
    ("enumerate --q 2 --n 1 --zeros 1", None, 2),
    ("subspaces --q 2 --n 0", None, 2),
    ("indices --q 2 --n 4 --zeros ''", None, 2),
    ("enumerate --q 2 --n 4 --zeros 15", None, 2),
    ("indices --q 2 --n 4 --zeros 0", None, 2),
    ("enumerate --q 2 --n 4 --zeros 5", None, 2),  # coset {5, 10}
    ("enumerate --q 2 --n 4 --zeros 1,2", None, 2),  # 2 is in the coset of 1
    ("closed-form --family simplex --q 2", None, 2),
    ("closed-form --family simplex --q 2 --n 6 --u 3", None, 2),
    ("closed-form --family bch3-pary-twoprimes --p 3 --u 2", None, 2),
    ("verify --q 2 --n 4 --zeros 1 --cap 8", None, 2),
    # q^n = 64 is under the cap, but the walk has 2825^2, about 8.0M, tuples
    ("verify --q 2 --n 6 --zeros 1,3", None, 2),
    # byte-lane rows at odd q: 2^18 tuples of 8 lane bits exceed the walk
    # budget of 2^20 lane bits
    ("verify --q 5 --n 2 --zeros 1,2,3,4,7,8", None, 2),
    # --factored renders human output only
    ("enumerate --q 2 --n 6 --zeros 1,3 --factored --format csv", None, 2),
    ("enumerate --q 2 --n 6 --zeros 1,3 --factored --format json", None, 2),
    # q = 1000000007 * 1000000009 is no prime power, found without factoring q
    ("subspaces --q 1000000016000000063 --n 2", None, 2),
    ("enumerate --q 1000000016000000063 --n 2 --zeros 1", None, 2),
    ("subspaces --q 1000000007 --n 2", None, 0),
    # a cap raised above the default admits the field: q^n = 289
    ("verify --q 17 --n 2 --zeros 1 --cap 300", None, 0),
    # odd-q rows keep one digit per byte lane, which holds q <= 127 only
    ("verify --q 131 --n 2 --zeros 1 --cap 17161", None, 2),
    ("verify --q 2 --n 4 --zeros 1", "abc", 2),
]


def _case_id(case) -> str:
    argv, env_cap, _ = case
    return argv if env_cap is None else f"{argv} [{ENV_CAP}={env_cap}]"


@pytest.mark.parametrize("argv,env_cap,expected", CASES, ids=map(_case_id, CASES))
def test_exit_code_contract(monkeypatch, capsys, argv, env_cap, expected):
    if env_cap is None:
        monkeypatch.delenv(ENV_CAP, raising=False)
    else:
        monkeypatch.setenv(ENV_CAP, env_cap)
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
