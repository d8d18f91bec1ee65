"""Tests for the unified pipeline API (repro.core.pipeline).

Every selection pipeline is reachable through one configuration
surface (:class:`PipelineConfig`) and returns an object satisfying
one protocol (:class:`PipelineResult`: ``.patterns`` / ``.stats`` /
``.trace``).  Each stage config is built from it by
:func:`repro.config.stage_config`.
"""

from dataclasses import fields

import pytest

from repro.catapult import CatapultConfig
from repro.config import stage_config
from repro.core import (
    PipelineConfig,
    PipelineResult,
    run_catapult,
    run_midas,
    run_selection,
    run_tattoo,
)
from repro.datasets import (
    NetworkConfig,
    generate_chemical_repository,
    generate_network,
)
from repro.errors import PipelineError
from repro.midas import Midas, MidasConfig
from repro.patterns import PatternBudget, ScoreWeights
from repro.tattoo import TattooConfig
from repro.tattoo.distributed import select_patterns_distributed

#: A non-default value for every run field PipelineConfig shares with
#: the stage configs.
NON_DEFAULT = {"seed": 9, "workers": 2, "use_cache": False,
               "trace": True, "weights": ScoreWeights(0.5, 2.0, 1.0),
               "max_embeddings": 7, "deadline_s": 5.0, "max_retries": 2}

#: One stage-specific option per stage config, set through options.
STAGE_OPTION = {CatapultConfig: ("walks_per_cluster", 7),
                TattooConfig: ("truss_threshold", 3),
                MidasConfig: ("drift_threshold", 0.5)}


def shared_fields(cls):
    return sorted({f.name for f in fields(cls)}
                  & {f.name for f in fields(PipelineConfig)})


@pytest.fixture(scope="module")
def repo():
    return generate_chemical_repository(10, seed=5)


@pytest.fixture(scope="module")
def network():
    return generate_network(NetworkConfig(nodes=80, cliques=3,
                                          petals=2, flowers=2), seed=4)


@pytest.fixture(scope="module")
def budget():
    return PatternBudget(4, min_size=3, max_size=6)


class TestPipelineConfig:
    def test_defaults_and_immutability(self):
        config = PipelineConfig()
        assert config.budget is None
        assert config.seed == 0
        assert config.use_cache is True
        assert config.trace is False
        with pytest.raises(Exception):
            config.seed = 3  # frozen dataclass

    def test_require_budget(self, budget):
        assert PipelineConfig(budget=budget).require_budget() is budget
        with pytest.raises(PipelineError):
            PipelineConfig().require_budget()

    def test_with_options_merges(self, budget):
        config = PipelineConfig(budget=budget,
                                options={"walks_per_cluster": 5})
        merged = config.with_options(samples_scale=2)
        assert merged.options == {"walks_per_cluster": 5,
                                  "samples_scale": 2}
        assert config.options == {"walks_per_cluster": 5}
        assert merged.budget is budget

    @pytest.mark.parametrize("impl,name", [
        (impl, name)
        for impl in (CatapultConfig, TattooConfig, MidasConfig)
        for name in shared_fields(impl)])
    def test_pipeline_options_reach_the_pipeline_config(self, budget,
                                                        impl, name):
        value = NON_DEFAULT[name]
        assert getattr(impl(), name) != value
        option, setting = STAGE_OPTION[impl]
        stage = stage_config(impl, PipelineConfig(
            budget=budget, options={option: setting}, **{name: value}))
        assert getattr(stage, name) == value
        assert getattr(stage, option) == setting

    def test_unknown_option_raises(self, budget):
        for options in ({"no_such_knob": 1}, {"seed": 2},
                        {"seed": 2, "workers": 3}):
            config = PipelineConfig(budget=budget, seed=1,
                                    options=options)
            for impl in (CatapultConfig, TattooConfig, MidasConfig):
                with pytest.raises(PipelineError):
                    stage_config(impl, config)


class TestUnifiedRunners:
    def test_run_catapult_satisfies_the_protocol(self, repo, budget):
        result = run_catapult(repo, PipelineConfig(budget=budget,
                                                   seed=1))
        assert isinstance(result, PipelineResult)
        assert len(result.patterns) > 0
        assert result.stats["pipeline"] == "catapult"
        assert result.stats["patterns"] == len(result.patterns)
        assert result.trace is None  # tracing off by default

    def test_run_tattoo_satisfies_the_protocol(self, network, budget):
        result = run_tattoo(network, PipelineConfig(budget=budget,
                                                    seed=1))
        assert isinstance(result, PipelineResult)
        assert result.stats["pipeline"] == "tattoo"
        assert result.trace is None

    def test_run_midas_returns_a_live_maintainer(self, repo, budget):
        midas = run_midas(repo, PipelineConfig(budget=budget, seed=2))
        assert isinstance(midas, Midas)
        assert isinstance(midas, PipelineResult)
        assert midas.stats["pipeline"] == "midas"
        assert midas.stats["batches"] == 0

    def test_run_selection_dispatches_on_data_shape(self, repo,
                                                    network, budget):
        config = PipelineConfig(budget=budget, seed=1)
        from_repo = run_selection(repo, config)
        assert from_repo.stats["pipeline"] == "catapult"
        from_net = run_selection(network, config)
        assert from_net.stats["pipeline"] == "tattoo"

    def test_config_trace_yields_a_trace_tree(self, repo, budget):
        config = PipelineConfig(budget=budget, seed=1, trace=True)
        result = run_catapult(repo, config)
        assert result.trace is not None
        assert result.trace["name"] == "catapult.pipeline"
        names = [c["name"] for c in result.trace["children"]]
        assert "catapult.cluster" in names
        assert "catapult.select" in names

    def test_distributed_result_satisfies_the_protocol(self, network,
                                                       budget):
        result = select_patterns_distributed(network, budget, parts=2,
                                             config=TattooConfig(
                                                 trace=True))
        assert isinstance(result, PipelineResult)
        assert result.stats["pipeline"] == "tattoo-distributed"
        workers = [c for c in result.trace["children"]
                   if c["name"] == "distributed.worker"]
        assert len(workers) == 2

