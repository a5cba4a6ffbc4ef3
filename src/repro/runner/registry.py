"""Uniform campaign registry: one descriptor per runnable campaign.

The six registered campaigns (isolation, montecarlo, ipc, inject,
decide, repair) share the runner recipe — a frozen spec dataclass, a
``run_*(spec, **runner)`` entry point whose ``runner`` options are
those of :func:`~repro.runner.executor.run_shards`, and a result class
with ``to_json()`` / ``from_json()`` / ``summary()``.  :data:`REGISTRY`
centralizes them behind :class:`CampaignEntry` so generic
infrastructure (the campaign service, the ``repro`` CLI's generated
flags) can drive *any* registered campaign from a ``(name,
params-dict)`` pair:

- :meth:`CampaignEntry.make_spec` builds the frozen spec from a plain
  JSON params dict (lists are coerced to tuples, unknown keys raise
  ``TypeError`` and values outside a field's declared choices or bounds
  raise ``ValueError`` — both are the service's 400 path);
- the entry's ``name`` is the campaign name ``run_shards`` keys its
  checkpoint store by
  (:meth:`~repro.runner.store.CheckpointStore.for_spec`), so service
  runs and direct CLI runs share checkpoints;
- :attr:`CampaignEntry.result_cls` is the result class whose
  ``to_json`` / ``from_json`` / ``summary`` round-trip the merged result
  across the HTTP boundary.

The spec dataclass is the only declaration of a campaign's parameters.
A field restricted to a fixed set of values declares it with
:func:`choice`, a size that must be at least 1 with :func:`at_least_one`;
the spec's ``__post_init__`` calls :func:`check_spec`, so a bad value
fails when the spec is built, never mid-run, and the CLI reads the same
metadata for its ``choices``.

All heavy imports stay inside the entry methods: importing this module
costs nothing beyond the runner package itself, so the CLI can list
campaign names without building netlists.
"""

from __future__ import annotations

import dataclasses
from dataclasses import asdict, dataclass
from importlib import import_module
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from repro.runner.store import config_hash


def choice(default: str, choices: Tuple[str, ...]) -> Any:
    """A spec field whose value must be one of ``choices``."""
    return dataclasses.field(default=default, metadata={"choices": choices})


def at_least_one(default: Any) -> Any:
    """A spec field whose value (a tuple: its length) must be >= 1."""
    return dataclasses.field(default=default, metadata={"at_least_one": True})


def check_spec(spec: Any) -> None:
    """Reject a value outside its :func:`choice` / :func:`at_least_one`."""
    for f in dataclasses.fields(spec):
        value = getattr(spec, f.name)
        name = f"{type(spec).__name__}.{f.name}"
        allowed = f.metadata.get("choices")
        if allowed is not None and value not in allowed:
            raise ValueError(
                f"{name} must be one of {allowed}, not {value!r}"
            )
        is_tuple = isinstance(value, tuple)
        size = len(value) if is_tuple else value
        if f.metadata.get("at_least_one") and size < 1:
            raise ValueError(
                f"{name} must be at least 1{' long' if is_tuple else ''}, "
                f"not {value!r}"
            )


@dataclass(frozen=True)
class CampaignEntry:
    """Everything generic code needs to drive one campaign by name.

    ``module`` / ``spec_name`` / ``run_name`` / ``result`` are resolved
    lazily so the registry itself imports nothing heavy; ``result`` is a
    ``"module:Class"`` path.  ``name`` is also the campaign name
    ``run_shards`` keys its checkpoint store by.
    """

    name: str
    module: str
    spec_name: str
    run_name: str
    result: str

    # -- lazy resolution ------------------------------------------------
    def _mod(self):
        return import_module(self.module)

    @property
    def spec_cls(self) -> type:
        """The frozen spec dataclass for this campaign."""
        return getattr(self._mod(), self.spec_name)

    @property
    def run(self) -> Callable[..., Any]:
        """The campaign's ``run_*(spec, **runner)`` entry point."""
        return getattr(self._mod(), self.run_name)

    @property
    def result_cls(self) -> type:
        """The merged result class (``to_json``/``from_json``/``summary``)."""
        module, name = self.result.split(":")
        return getattr(import_module(module), name)

    # -- spec ----------------------------------------------------------
    def make_spec(self, params: Optional[Mapping[str, Any]] = None):
        """Build the frozen spec from a plain JSON params dict.

        JSON has no tuple type, so lists become tuples (the frozen specs
        want hashable values).  Raises ``TypeError`` on unknown keys and
        ``ValueError`` on values outside a field's declared choices or
        bounds (the service maps both to HTTP 400).
        """
        cls = self.spec_cls
        known = {f.name for f in dataclasses.fields(cls)}
        out: Dict[str, Any] = {}
        for key, value in (params or {}).items():
            if key not in known:
                raise TypeError(
                    f"{cls.__name__} has no parameter {key!r}"
                )
            out[key] = tuple(value) if isinstance(value, list) else value
        return cls(**out)

    def canonical_params(self, spec: Any) -> Dict[str, Any]:
        """The spec as a JSON-clean dict with every default filled in."""
        return asdict(spec)

    def job_key(self, spec: Any) -> str:
        """The service's job id: campaign name + full canonical spec."""
        return config_hash(
            {"campaign": self.name, "spec": self.canonical_params(spec)}
        )


#: The registered campaigns, in CLI/choices order.
REGISTRY: Dict[str, CampaignEntry] = {
    "isolation": CampaignEntry(
        name="isolation",
        module="repro.runner.campaigns",
        spec_name="IsolationSpec",
        run_name="run_isolation",
        result="repro.rtl.experiment:IsolationStats",
    ),
    "montecarlo": CampaignEntry(
        name="montecarlo",
        module="repro.runner.campaigns",
        spec_name="MonteCarloSpec",
        run_name="run_montecarlo",
        result="repro.yieldmodel.montecarlo:MonteCarloResult",
    ),
    "ipc": CampaignEntry(
        name="ipc",
        module="repro.runner.campaigns",
        spec_name="IpcSweepSpec",
        run_name="run_ipc_sweep",
        result="repro.runner.campaigns:IpcSweepResult",
    ),
    "inject": CampaignEntry(
        name="inject",
        module="repro.inject.campaign",
        spec_name="InjectionSpec",
        run_name="run_injection",
        result="repro.inject.campaign:InjectionStats",
    ),
    "decide": CampaignEntry(
        name="decide",
        module="repro.decide.campaign",
        spec_name="DecideSpec",
        run_name="run_decide",
        result="repro.decide.campaign:DecideResult",
    ),
    "repair": CampaignEntry(
        name="repair",
        module="repro.repair.campaign",
        spec_name="RepairSpec",
        run_name="run_repair",
        result="repro.repair.campaign:RepairResult",
    ),
}


def get_campaign(name: str) -> CampaignEntry:
    """Look up a registered campaign; ``KeyError`` lists valid names."""
    try:
        return REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown campaign {name!r}; registered: "
            f"{', '.join(REGISTRY)}"
        ) from None
