"""The run settings every selection pipeline shares, declared once.

:class:`RunConfig` holds the cross-pipeline fields (seed, workers,
caching, tracing, score weights, the embedding cap, deadline, and
retries).  :class:`repro.core.pipeline.PipelineConfig` extends it with
the display budget and a per-pipeline ``options`` mapping; the stage
configs (:class:`repro.catapult.CatapultConfig`,
:class:`repro.tattoo.TattooConfig`, :class:`repro.midas.MidasConfig`)
extend it with their own knobs.  :func:`stage_config` is the one
translation between the two.

This module imports nothing from the pipeline packages, so every one
of them can build on it without an import cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Optional, Type, TypeVar

from repro.errors import PipelineError
from repro.patterns.scoring import DEFAULT_WEIGHTS, ScoreWeights

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.pipeline import PipelineConfig


@dataclass(frozen=True)
class RunConfig:
    """Tunables shared by every selection pipeline.

    ``seed`` roots all randomness; ``workers`` fans hot stages over
    :func:`repro.perf.pmap` (``None`` reads ``REPRO_WORKERS``; results
    are identical at every count); ``use_cache`` toggles the shared VF2
    match cache; ``trace`` captures a :mod:`repro.obs` trace for the
    run even when ``REPRO_TRACE`` is unset; ``weights`` and
    ``max_embeddings`` parameterise the pattern-set score.
    ``deadline_s`` puts the run under a wall-clock budget: stages stop
    at loop boundaries once it expires and the result comes back
    ``degraded`` instead of raising.  ``max_retries`` is the per-item
    retry count failing pmap work items get before being skipped.
    """

    seed: int = 0
    workers: Optional[int] = None
    use_cache: bool = True
    trace: bool = False
    weights: ScoreWeights = DEFAULT_WEIGHTS
    max_embeddings: int = 30
    deadline_s: Optional[float] = None
    max_retries: int = 0


C = TypeVar("C", bound=RunConfig)


def stage_config(cls: Type[C], pipeline: PipelineConfig) -> C:
    """The stage config of type ``cls`` that ``pipeline`` describes.

    The shared run fields copy over 1:1; ``pipeline.options`` fills
    the stage's own fields.  An option that names a shared run field
    (set it on the :class:`PipelineConfig` itself) or a field ``cls``
    does not have raises :class:`repro.errors.PipelineError`.
    """
    shared = [f.name for f in fields(RunConfig)]
    own = {f.name for f in fields(cls)} - set(shared)
    invalid = sorted(set(pipeline.options) - own)
    if invalid:
        raise PipelineError(
            f"invalid {cls.__name__} option(s): {', '.join(invalid)} "
            f"(valid: {', '.join(sorted(own))}; shared run fields are "
            "set on the PipelineConfig itself)")
    return cls(**{name: getattr(pipeline, name) for name in shared},
               **pipeline.options)
