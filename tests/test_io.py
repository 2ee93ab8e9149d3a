"""JSON instance files: round-trips, exact string probabilities, errors."""

from fractions import Fraction

import pytest

import demandmatch as dm
from demandmatch.io import InstanceFormatError, loads_instance


INDEP_DOC = """
{
  "rewards": [[1.0, 2.0], [3.0, 0.0]],
  "capacities": [1, 2],
  "arrival": "adversarial",
  "demand": {
    "kind": "indep",
    "distributions": [{"0": "1/2", "2": "1/2"}, {"1": 1.0}]
  }
}
"""


class TestParsing:
    def test_indep_round_trip(self):
        inst = loads_instance(INDEP_DOC)
        assert inst.n == 2 and inst.m == 2
        assert inst.capacities == (1, 2)
        assert inst.arrival is dm.Arrival.ADVERSARIAL
        assert inst.demand.per_type[0].pmf == {0: Fraction(1, 2), 2: Fraction(1, 2)}

    def test_string_probabilities_parse_exactly(self):
        inst = loads_instance(
            """
            {"rewards": [[1.0]], "capacities": [1],
             "demand": {"kind": "indep", "distributions": [{"0": "0.25", "3": "0.75"}]}}
            """
        )
        dist = inst.demand.per_type[0]
        assert dist.probability(0) == Fraction(1, 4)
        assert dist.is_exact

    def test_correl_document(self):
        inst = loads_instance(
            """
            {"rewards": [[1.0, 5.0]], "capacities": [1], "arrival": "random",
             "demand": {"kind": "correl", "total": {"1": "0.9", "3": "0.1"},
                        "type_probs": ["1/2", "1/2"]}}
            """
        )
        assert isinstance(inst.demand, dm.CorrelDemandModel)
        assert inst.arrival is dm.Arrival.RANDOM_ORDER

    def test_horizon_document(self):
        inst = loads_instance(
            """
            {"rewards": [[1.0, 2.0]], "capacities": [1], "arrival": "random",
             "demand": {"kind": "horizon", "total": {"2": 1},
                        "probs": [[0.5, 0.5], [0.2, 0.3]]}}
            """
        )
        assert isinstance(inst.demand, dm.StochasticHorizonModel)
        assert inst.demand.no_query_mass(2) == pytest.approx(0.5)

    def test_default_arrival_is_adversarial(self):
        inst = loads_instance(
            """
            {"rewards": [[1.0]], "capacities": [1],
             "demand": {"kind": "indep", "distributions": [{"1": 1}]}}
            """
        )
        assert inst.arrival is dm.Arrival.ADVERSARIAL


class TestErrors:
    def test_syntax_error_carries_position(self):
        with pytest.raises(InstanceFormatError, match=r"line \d+"):
            loads_instance("{\n  broken\n}")

    def test_bad_pmf_mass_names_path(self):
        with pytest.raises(InstanceFormatError, match=r"distributions\[0\]"):
            loads_instance(
                """
                {"rewards": [[1.0]], "capacities": [1],
                 "demand": {"kind": "indep", "distributions": [{"0": 0.5, "1": 0.4}]}}
                """
            )

    def test_nan_probability_names_path(self):
        with pytest.raises(InstanceFormatError, match=r"distributions\[0\].*finite"):
            loads_instance(
                """
                {"rewards": [[1.0]], "capacities": [1],
                 "demand": {"kind": "indep", "distributions": [{"0": 0.5, "1": NaN}]}}
                """
            )

    @pytest.mark.parametrize("bad", ["NaN", "Infinity"])
    def test_non_finite_reward_names_cell(self, bad):
        with pytest.raises(InstanceFormatError, match=r"rewards\[0\]\[1\]"):
            loads_instance(
                """
                {"rewards": [[1.0, %s]], "capacities": [1],
                 "demand": {"kind": "indep", "distributions": [{"1": 1}, {"1": 1}]}}
                """
                % bad
            )

    def test_negative_reward_names_cell(self):
        with pytest.raises(InstanceFormatError, match=r"rewards\[0\]\[1\]"):
            loads_instance(
                """
                {"rewards": [[1.0, -2.0]], "capacities": [1],
                 "demand": {"kind": "indep", "distributions": [{"1": 1}, {"1": 1}]}}
                """
            )

    def test_bad_capacity(self):
        with pytest.raises(InstanceFormatError, match=r"capacities\[0\]"):
            loads_instance(
                """
                {"rewards": [[1.0]], "capacities": [0],
                 "demand": {"kind": "indep", "distributions": [{"1": 1}]}}
                """
            )

    def test_unknown_kind(self):
        with pytest.raises(InstanceFormatError, match="kind"):
            loads_instance(
                """
                {"rewards": [[1.0]], "capacities": [1],
                 "demand": {"kind": "poisson", "distributions": [{"1": 1}]}}
                """
            )

    def test_unknown_arrival(self):
        with pytest.raises(InstanceFormatError, match="arrival"):
            loads_instance(
                """
                {"rewards": [[1.0]], "capacities": [1], "arrival": "sorted",
                 "demand": {"kind": "indep", "distributions": [{"1": 1}]}}
                """
            )

    def test_dimension_mismatch_reported(self):
        with pytest.raises(InstanceFormatError, match="types"):
            loads_instance(
                """
                {"rewards": [[1.0, 2.0]], "capacities": [1],
                 "demand": {"kind": "indep", "distributions": [{"1": 1}]}}
                """
            )

    def test_horizon_row_sum_above_one(self):
        with pytest.raises(InstanceFormatError, match=r"probs"):
            loads_instance(
                """
                {"rewards": [[1.0, 1.0]], "capacities": [1],
                 "demand": {"kind": "horizon", "total": {"1": 1},
                            "probs": [[0.7, 0.7]]}}
                """
            )

    def test_missing_field(self):
        with pytest.raises(InstanceFormatError, match="capacities"):
            loads_instance('{"rewards": [[1.0]], "demand": {}}')


class TestFileLoading:
    def test_load_instance_from_disk(self, tmp_path):
        path = tmp_path / "instance.json"
        path.write_text(INDEP_DOC)
        inst = dm.load_instance(path)
        assert inst.n == 2

    def test_loaded_instance_feeds_the_pipeline(self, tmp_path):
        path = tmp_path / "instance.json"
        path.write_text(INDEP_DOC)
        inst = dm.load_instance(path)
        result = dm.build_truncated_lp(inst)
        assert result.solution.is_optimal
        off = dm.expected_offline(inst).value
        assert off <= result.solution.objective_value + 1e-9
