"""Unified pipeline API: declarative specs in, cached artifacts out.

This package is the single front door to the reproduction's tool chain:

* :class:`RunSpec` — a frozen, declarative description of one end-to-end run
  (benchmark, input, budget, policy, machine config, MGT options) that
  normalizes into a stable content hash;
* :class:`Session` — the stage graph ``assemble -> profile -> select ->
  rewrite -> build_mgt -> trace -> time`` with typed artifacts, plus
  :meth:`Session.run_grid`, which runs a batch of specs as shared-artifact
  stages (one functional profile per benchmark, shared interned decode
  metadata) fanned out across a process pool;
* :class:`ArtifactStore` — the in-memory + on-disk content-addressed cache
  (keyed by spec hash, stage and ``repro.__version__``) that lets repeated
  runs skip redundant simulation entirely;
* a command-line interface, reachable as ``python -m repro`` (see
  :mod:`repro.api.cli`).

The legacy entry points — :func:`repro.prepare_minigraph_run` and
:class:`repro.experiments.ExperimentRunner` — are thin compatibility shims
over this API.

``docs/api.md`` documents the full contract, including the cache
invalidation semantics (stage-scoped key material, field-derived canonical
keys, version-based invalidation) and a recipe for running an ad-hoc
spec list as a one-axis grid.
"""

from .keys import canonical_key, content_hash
from .spec import STAGES, RunSpec, SpecError
from .store import ArtifactStore, CacheStats, StoreInfo, default_cache_dir
from .session import ProfileArtifact, RunArtifacts, Session, SessionStats

__all__ = [
    "ArtifactStore",
    "CacheStats",
    "ProfileArtifact",
    "RunArtifacts",
    "RunSpec",
    "STAGES",
    "Session",
    "SessionStats",
    "SpecError",
    "StoreInfo",
    "canonical_key",
    "content_hash",
    "default_cache_dir",
]
