"""The run settings every selection pipeline shares, declared once.

:class:`RunConfig` holds the cross-pipeline fields (seed, workers,
tracing, score weights, the embedding cap, deadline, and retries).
:class:`repro.core.pipeline.PipelineConfig` extends it with the
display budget and a per-pipeline ``options`` mapping; the stage
configs (:class:`repro.catapult.CatapultConfig`,
:class:`repro.tattoo.TattooConfig`, :class:`repro.midas.MidasConfig`)
extend it with their own knobs.  :func:`stage_config` is the one
translation between the two.

This module imports nothing from the pipeline packages, so every one
of them can build on it without an import cycle.
"""

from __future__ import annotations

from collections import abc
from dataclasses import dataclass, fields
from enum import Enum
from functools import cache
from typing import (TYPE_CHECKING, Dict, Optional, Type, TypeVar, Union,
                    get_args, get_origin, get_type_hints)

from repro.errors import PipelineError
from repro.patterns.scoring import DEFAULT_WEIGHTS, ScoreWeights

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.pipeline import PipelineConfig


@dataclass(frozen=True)
class RunConfig:
    """Tunables shared by every selection pipeline.

    ``seed`` roots all randomness; ``workers`` fans hot stages over
    :func:`repro.perf.pmap` (``None`` reads ``REPRO_WORKERS``; results
    are identical at every count); ``trace`` captures a
    :mod:`repro.obs` trace of the run, private to the calling thread
    (spans record only inside such a capture); ``weights`` and
    ``max_embeddings`` parameterise the pattern-set score.
    ``deadline_s`` puts the run under a wall-clock budget: stages stop
    at loop boundaries once it expires and the result comes back
    ``degraded`` instead of raising.  ``max_retries`` is the per-item
    retry count failing pmap work items get before being skipped.
    """

    seed: int = 0
    workers: Optional[int] = None
    trace: bool = False
    weights: ScoreWeights = DEFAULT_WEIGHTS
    max_embeddings: int = 30
    deadline_s: Optional[float] = None
    max_retries: int = 0


C = TypeVar("C", bound=RunConfig)


@cache
def _field_types(cls: type) -> Dict[str, object]:
    """``cls``'s resolved field types, once per class: resolving them
    costs about ten times a whole :func:`stage_config` call, which
    MIDAS makes once per engine it builds."""
    return get_type_hints(cls)


def _conforms(value: object, hint: object) -> bool:
    """Whether ``value`` has the type a config field declares: an int
    passes as a float, a bool never as a number, an enum's value as
    its member; a shape other than a class, ``Optional`` or
    ``Sequence`` is not checked."""
    if isinstance(hint, type):
        if issubclass(hint, Enum):
            return value in list(hint)
        kinds = (int, float) if hint is float else hint
        return isinstance(value, kinds) and (
            hint is bool or not isinstance(value, bool))
    origin, args = get_origin(hint), get_args(hint)
    if origin is Union:
        return any(_conforms(value, arm) for arm in args)
    if origin is abc.Sequence:
        return isinstance(value, (list, tuple)) and all(
            _conforms(item, args[0]) for item in value)
    return True


def _type_name(hint: object) -> str:
    if isinstance(hint, type):
        return hint.__name__
    return str(hint).replace("typing.", "")


def stage_config(cls: Type[C], pipeline: PipelineConfig) -> C:
    """The stage config of type ``cls`` that ``pipeline`` describes.

    The shared run fields copy over 1:1; ``pipeline.options`` fills
    the stage's own fields.  An option that names a shared run field
    (set it on the :class:`PipelineConfig` itself) or a field ``cls``
    does not have, or any value of a type its field does not declare,
    raises :class:`repro.errors.PipelineError`.
    """
    shared = [f.name for f in fields(RunConfig)]
    own = {f.name for f in fields(cls)} - set(shared)
    invalid = sorted(set(pipeline.options) - own)
    if invalid:
        raise PipelineError(
            f"invalid {cls.__name__} option(s): {', '.join(invalid)} "
            f"(valid: {', '.join(sorted(own))}; shared run fields are "
            "set on the PipelineConfig itself)")
    values = {name: getattr(pipeline, name) for name in shared}
    values.update(pipeline.options)
    types = _field_types(cls)
    wrong = [f"{name}={value!r} (expected {_type_name(types[name])})"
             for name, value in values.items()
             if not _conforms(value, types[name])]
    if wrong:
        raise PipelineError(
            f"invalid {cls.__name__} value(s): {', '.join(wrong)}")
    return cls(**values)
