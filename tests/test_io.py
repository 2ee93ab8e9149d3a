"""JSON instance files: round-trips, exact string probabilities, errors."""

from fractions import Fraction

import pytest

import demandmatch as dm
from demandmatch.io import InstanceFormatError, loads_instance, parse_instance


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


def _doc(demand=None, **fields):
    """A valid one-resource, one-type document with ``demand`` and any
    top-level ``fields`` replaced."""
    doc = {"rewards": [[1.0]], "capacities": [1], "demand": _indep({"1": 1})}
    if demand is not None:
        doc["demand"] = demand
    return {**doc, **fields}


def _indep(pmf):
    return {"kind": "indep", "distributions": [pmf]}


def _correl(type_probs):
    return {"kind": "correl", "total": {"1": 1}, "type_probs": type_probs}


def _horizon(probs):
    return {"kind": "horizon", "total": {"1": 1}, "probs": probs}


PMF = "$.demand.distributions[0]"
#: (document, JSON path, start of the message) for each way a document is rejected
MALFORMED = [
    (_doc(_indep({"1": True})), f"{PMF}.1", "expected a probability, got True"),
    (_doc(_indep({"1": "abc"})), f"{PMF}.1", "cannot parse probability 'abc': "),
    (_doc(_indep({"1": "1/0"})), f"{PMF}.1", "cannot parse probability '1/0': "),
    (_doc(_indep({"1": None})), f"{PMF}.1", "expected a probability, got NoneType"),
    (_doc(_indep({})), PMF, "expected a nonempty {value: probability} object"),
    (_doc(_indep([1])), PMF, "expected a nonempty {value: probability} object"),
    (_doc(_indep({"x": 1})), PMF, "support value 'x' is not an integer"),
    (_doc(_indep({"-1": 1})), PMF, "support value -1 is negative"),
    ([], "$", "top level must be an object"),
    (_doc(rewards=[]), "$.rewards", "expected a nonempty list of rows"),
    (_doc(rewards=[[]]), "$.rewards[0]", "expected a nonempty list"),
    (_doc(capacities={}), "$.capacities", "expected a list"),
    (_doc([]), "$.demand", "expected an object"),
    (_doc({"kind": "indep", "distributions": []}), "$.demand.distributions", "expected a nonempty list of pmfs"),
    (_doc(_correl([])), "$.demand.type_probs", "expected a nonempty list"),
    (_doc(_correl([0.5, 0.4])), "$.demand.type_probs", "type_probs sums to 0.9, expected 1"),
    (_doc(_horizon([])), "$.demand.probs", "expected a nonempty list of rows"),
    (_doc(_horizon([[]])), "$.demand.probs[0]", "expected a nonempty list"),
    (_doc(_indep({"1": "1/2", "01": "1/2", "2": "1/2"})), PMF, "support value '01' repeats the value 1"),
]


class TestParsing:
    def test_indep_round_trip(self):
        inst = loads_instance(INDEP_DOC)
        assert inst.n == 2 and inst.m == 2
        assert inst.capacities == (1, 2)
        assert inst.arrival is dm.Arrival.ADVERSARIAL
        assert dict(inst.demand.per_type[0].items) == {0: Fraction(1, 2), 2: Fraction(1, 2)}

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

    def test_repeated_key_is_rejected_not_overwritten(self):
        with pytest.raises(InstanceFormatError, match=r"keys \['0', '1'\] repeats one of them"):
            loads_instance(
                """
                {"rewards": [[1.0]], "capacities": [1],
                 "demand": {"kind": "indep", "distributions": [{"0": 0.5, "1": 0.5, "1": 0.5}]}}
                """
            )

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

    @pytest.mark.parametrize("doc, path, message", MALFORMED)
    def test_every_rejection_names_its_path(self, doc, path, message):
        with pytest.raises(InstanceFormatError) as exc:
            parse_instance(doc)
        assert exc.value.path == path
        assert str(exc.value).startswith(f"{path}: {message}")


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
