"""Byte-identity gate: fixed CLI runs must reproduce the checked-in files.

The golden files under ``tests/golden/`` hold exact outputs only: specs,
certificates and plan summaries at H = 10^4 and, in ``h1e6/``, at
H = 10^6, the correlation table and the lemma3 truncation.  Manifests
carry timestamps and float outputs depend on the BLAS build, so neither
is compared.  After an intended change of output, regenerate with
``run_cases`` into a scratch directory and copy the ``GOLDEN_FILES`` over.
"""

from fractions import Fraction
from pathlib import Path

import pytest

from rankpair import LevelFunction, WalshPolynomial
from rankpair import serialize as ser
from rankpair.cli import main

GOLDEN = Path(__file__).parent / "golden"
PLAN_FILES = ("spec_s.json", "spec_t.json", "cert_s.json", "cert_t.json", "plan.json")
POLY = '{"coefficients": {"0": "1/2", "1": "1/4"}}'
WALSH = WalshPolynomial.from_terms([
    ((0,), Fraction(1, 2)), ((1, 3), Fraction(-1, 3)), ((2,), Fraction(1, 5)),
    ((-4, 7), Fraction(1, 7)), ((9,), Fraction(-1, 11)), ((12, 13, 20), Fraction(1, 13)),
])


def run_cases(out: Path) -> None:
    """Write every golden output (and the inputs and manifests) under ``out``."""
    default, poly, lemma3 = out / "default", out / "poly", out / "lemma3"
    assert main(["--out-dir", str(default), "plan", "--horizon", "10000"]) == 0
    assert main(["--out-dir", str(out / "h1e6"), "plan", "--horizon", "1000000"]) == 0
    assert main(["--out-dir", str(poly), "plan", "--horizon", "10000",
                 "--poly", POLY, "--generic-cuts", "4"]) == 0
    f = default / "f.json"
    ser.write_json(f, ser.level_function_to_dict(LevelFunction.indicator(1)))
    assert main(["--out-dir", str(default), "correlate",
                 "--spec", str(default / "spec_s.json"), "--function", str(f),
                 "--n-min", "0", "--n-max", "2000"]) == 0
    lemma3.mkdir()
    w = lemma3 / "walsh.json"
    ser.write_json(w, ser.walsh_to_dict(WALSH))
    assert main(["--out-dir", str(lemma3), "lemma3",
                 "--function", str(w), "--delta", "1/5"]) == 0


GOLDEN_FILES = (
    [f"default/{name}" for name in PLAN_FILES]
    + [f"poly/{name}" for name in PLAN_FILES]
    + [f"h1e6/{name}" for name in PLAN_FILES]
    + ["default/correlations.tsv", "lemma3/truncation.json"]
)


@pytest.fixture(scope="module")
def regenerated(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden")
    run_cases(out)
    return out


@pytest.mark.parametrize("name", GOLDEN_FILES)
def test_output_is_byte_identical(regenerated, name):
    assert (regenerated / name).read_bytes() == (GOLDEN / name).read_bytes()
