from fractions import Fraction
from pathlib import Path

import os
import pytest

from rankpair import (
    CorrelationSequence,
    LevelFunction,
    PolynomialSpec,
    RankOneSpec,
    StageSpec,
    WalshPolynomial,
    generate_schedule,
    plan_pair,
)
from rankpair import serialize as ser
from rankpair.pairplan import ConstructionCertificate
from rankpair.schedule import IntervalSchedule


class TestFractions:
    def test_round_trip(self):
        for x in (Fraction(0), Fraction(-3, 7), Fraction(10 ** 12, 13)):
            assert ser.decode(Fraction, ser.encode(x)) == x


class TestRoundTrips:
    def test_spec(self, small_spec):
        assert ser.spec_from_dict(ser.spec_to_dict(small_spec)) == small_spec

    def test_level_function(self):
        f = LevelFunction.from_dict(2, {0: Fraction(1), 3: Fraction(-1, 2)})
        assert ser.level_function_from_dict(ser.level_function_to_dict(f)) == f

    def test_schedule(self):
        s = generate_schedule(5, 300)
        assert ser.schedule_from_dict(ser.schedule_to_dict(s)) == s

    def test_polynomial(self):
        p = PolynomialSpec.from_dict({0: Fraction(1, 2), 2: Fraction(1, 4)})
        assert ser.decode(PolynomialSpec, ser.encode(p)) == p

    def test_walsh(self):
        w = WalshPolynomial.from_terms(
            [((0, 2), Fraction(1, 2)), ((-1,), Fraction(-3, 4))]
        )
        assert ser.walsh_from_dict(ser.walsh_to_dict(w)) == w

    def test_certificate(self):
        result = plan_pair(generate_schedule(8, 300))
        d = ser.certificate_to_dict(result.cert_s)
        back = ser.certificate_from_dict(d)
        assert ser.certificate_to_dict(back) == d
        assert back.ok == result.cert_s.ok

    def test_correlation_table(self):
        seq = CorrelationSequence(
            entries={
                0: (Fraction(1), Fraction(1)),
                3: (Fraction(-1, 7), Fraction(2, 7)),
            },
            norm_sq=Fraction(1),
            subject="demo",
        )
        back = ser.correlation_table_from_tsv(ser.correlation_table_to_tsv(seq))
        assert back.entries == seq.entries
        assert back.norm_sq == seq.norm_sq
        assert back.subject == "demo"


CERT = {"subject": "S", "tracked": {"stage": 1, "coefficients": {"0": "1/1"}},
        "zero_intervals": [{"interval": [1], "checked": [1, 2]}]}


class TestDecode:
    @pytest.mark.parametrize("tp, value, message", [
        (RankOneSpec, {"stages": [{"cuts": 2, "spacers": ["1", "0"]}]},
         'stages[0].spacers[0]: expected an integer, got "1"'),
        (RankOneSpec, {"base_height": "1", "stages": []},
         'base_height: expected an integer, got "1"'),
        (RankOneSpec, {"stages": [{"cuts": 2.0, "spacers": [1, 0]}]},
         "stages[0].cuts: expected an integer, got 2.0"),
        (RankOneSpec, {"stages": [{"cuts": True, "spacers": [1, 0]}]},
         "stages[0].cuts: expected an integer, got true"),
        (RankOneSpec, [1, 2], "top level: expected an object, got an array of 2"),
        (RankOneSpec, {}, "stages: missing"),
        (RankOneSpec, {"stages": [], "depth": 3}, "depth: unknown key"),
        (WalshPolynomial, {"terms": [{"indices": 3, "coefficient": "1/2"}]},
         "terms[0].indices: expected an array, got 3"),
        (LevelFunction, {"stage": 1, "coefficients": {"0": 0.1}},
         "coefficients.0: expected a rational"),
        (LevelFunction, {"stage": 1, "coefficients": {"0": "1/0"}},
         "coefficients.0: expected a rational"),
        (LevelFunction, {"stage": 1, "coefficients": {"x": "1"}},
         "coefficients.x: key is not int"),
        (PolynomialSpec, {"coefficients": {"-1": "1/2"}},
         "top level: polynomial powers must be non-negative"),
        (IntervalSchedule, {"horizon": 5, "blocks": [{"i": [1, 5], "j": None}]},
         "blocks[0].j: expected an array, got null"),
        (ConstructionCertificate, CERT,
         "zero_intervals[0].interval: expected an array of 2, got an array of 1"),
    ])
    def test_mismatch_names_the_field(self, tp, value, message):
        with pytest.raises(ValueError) as exc:
            ser.decode(tp, value)
        assert str(exc.value).startswith(message)

    def test_defaults_integers_and_decimal_strings(self):
        assert ser.decode(RankOneSpec, {"stages": []}) == RankOneSpec(stages=())
        f = ser.decode(LevelFunction, {"stage": 2, "coefficients": {"0": 2, "1": "0.5", "3": "0"}})
        assert f == LevelFunction.from_dict(2, {0: Fraction(2), 1: Fraction(1, 2)})
        cert = ser.decode(ConstructionCertificate, {"subject": "S", "tracked": CERT["tracked"]})
        assert cert.zero_intervals == [] and cert.unverified_notes

    def test_objects_keep_the_file_key_order(self, small_spec):
        assert list(ser.encode(small_spec)) == ["base_height", "stages"]
        assert list(ser.encode(generate_schedule(5, 300))) == ["horizon", "blocks"]


class TestAtomicWrites:
    def test_write_and_replace(self, tmp_path):
        target = tmp_path / "out.json"
        ser.write_json(target, {"a": 1})
        ser.write_json(target, {"a": 2})
        assert ser.read_json(target) == {"a": 2}
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]

    def test_no_partial_file_on_failure(self, tmp_path):
        target = tmp_path / "out.json"
        with pytest.raises(TypeError):
            ser.write_json(target, object())
        assert list(tmp_path.iterdir()) == []


class TestManifest:
    def test_manifest_written(self, tmp_path):
        m = ser.RunManifest("demo", {"x": 1})
        m.outputs.append("a.json")
        m.finish(tmp_path / "manifest.json")
        d = ser.read_json(tmp_path / "manifest.json")
        assert d["command"] == "demo"
        assert d["arguments"] == {"x": 1}
        assert d["outputs"] == ["a.json"]
        assert d["started_at"] <= d["finished_at"]
