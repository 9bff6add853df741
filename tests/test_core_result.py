"""Unit tests for MPPM result types."""

import pytest

from repro.core.result import (
    IterationRecord,
    MixPrediction,
    MPPMResultError,
    ProgramPrediction,
)
from repro.experiments import ExperimentConfig, ExperimentSetup
from repro.service.payloads import prediction_payload
from repro.workloads import WorkloadMix

#: ``MixPrediction.to_dict()`` payloads exactly as older releases wrote
#: them into result caches, with the solver that produced each under
#: ``"kernel"``: gamess + soplex on the 2-core Table 2 configuration #1
#: machine at 1/16 scale, 20,000-instruction traces, seed 0.
OLD_PAYLOADS = {
    "mppm:foa": {
        "converged": True,
        "history": [],
        "iterations": 25,
        "kernel": "batched",
        "machine_name": "config #1 (1/16 scale)",
        "predictor": "mppm:foa",
        "programs": [
            {
                "core": 0,
                "name": "gamess",
                "predicted_cpi": 4.963898658358501,
                "single_core_cpi": 4.560899999999977,
            },
            {
                "core": 1,
                "name": "soplex",
                "predicted_cpi": 2.7097910980858115,
                "single_core_cpi": 2.700666666666724,
            },
        ],
    },
    "detailed": {
        "converged": True,
        "history": [],
        "iterations": 0,
        "kernel": "chunked",
        "machine_name": "config #1 (1/16 scale)",
        "predictor": "detailed",
        "programs": [
            {
                "core": 0,
                "name": "gamess",
                "predicted_cpi": 4.708099999999975,
                "single_core_cpi": 4.560899999999974,
            },
            {
                "core": 1,
                "name": "soplex",
                "predicted_cpi": 2.7108888888889315,
                "single_core_cpi": 2.700666666666724,
            },
        ],
    },
}


def _program(name="bench", core=0, sc=1.0, mc=1.5):
    return ProgramPrediction(name=name, core=core, single_core_cpi=sc, predicted_cpi=mc)


class TestProgramPrediction:
    def test_slowdown_and_progress(self):
        program = _program(sc=1.0, mc=2.0)
        assert program.slowdown == pytest.approx(2.0)
        assert program.normalized_progress == pytest.approx(0.5)

    def test_cpis_must_be_positive(self):
        with pytest.raises(MPPMResultError):
            _program(sc=0.0)
        with pytest.raises(MPPMResultError):
            _program(mc=-1.0)


class TestMixPrediction:
    def test_stp_and_antt_follow_their_definitions(self):
        programs = (
            _program("a", 0, sc=1.0, mc=2.0),  # progress 0.5, slowdown 2.0
            _program("b", 1, sc=2.0, mc=2.0),  # progress 1.0, slowdown 1.0
        )
        prediction = MixPrediction(
            machine_name="m", programs=programs, iterations=5, converged=True
        )
        assert prediction.system_throughput == pytest.approx(1.5)
        assert prediction.average_normalized_turnaround_time == pytest.approx(1.5)
        assert prediction.slowdowns == pytest.approx([2.0, 1.0])
        assert prediction.predicted_cpis == pytest.approx([2.0, 2.0])
        assert prediction.num_programs == 2

    def test_program_lookup_and_by_core(self):
        programs = (_program("a", 0), _program("b", 1))
        prediction = MixPrediction(
            machine_name="m", programs=programs, iterations=1, converged=True
        )
        assert prediction.program("b").core == 1
        assert set(prediction.by_core()) == {0, 1}
        with pytest.raises(KeyError):
            prediction.program("zzz")

    def test_describe_mentions_programs_and_metrics(self):
        prediction = MixPrediction(
            machine_name="config #1",
            programs=(_program("gamess"),),
            iterations=3,
            converged=True,
        )
        text = prediction.describe()
        assert "gamess" in text and "STP" in text and "config #1" in text

    def test_empty_prediction_rejected(self):
        with pytest.raises(MPPMResultError):
            MixPrediction(machine_name="m", programs=(), iterations=0, converged=False)

    def test_history_records_are_carried(self):
        record = IterationRecord(
            iteration=1, window_cycles=100.0, slowdowns=(1.0,), instructions_executed=(10.0,)
        )
        prediction = MixPrediction(
            machine_name="m",
            programs=(_program(),),
            iterations=1,
            converged=False,
            history=(record,),
        )
        assert prediction.history[0].window_cycles == 100.0


class TestOldPayloads:
    @pytest.fixture(scope="class")
    def fresh(self):
        """Today's predictions for the mix the old payloads describe."""
        setup = ExperimentSetup(
            config=ExperimentConfig(num_instructions=20_000, interval_instructions=1_000)
        )
        machine = setup.machine(num_cores=2)
        mix = WorkloadMix(programs=("gamess", "soplex"))
        return {spec: setup.predict(mix, machine, spec) for spec in OLD_PAYLOADS}

    @pytest.mark.parametrize("spec", sorted(OLD_PAYLOADS))
    def test_old_payload_loads_into_the_same_prediction(self, spec, fresh):
        old = OLD_PAYLOADS[spec]
        loaded = MixPrediction.from_dict(old)
        assert loaded == fresh[spec]
        assert loaded.to_dict() == {key: value for key, value in old.items() if key != "kernel"}

    def test_serialised_forms_carry_no_kernel(self, fresh):
        for prediction in fresh.values():
            assert "kernel" not in prediction.to_dict()
            assert "kernel" not in prediction_payload(prediction)
            assert "kernel" not in prediction.describe()
