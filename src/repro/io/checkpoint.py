"""Stage checkpointing for flow runs.

A killed flow run should resume instead of restarting: after each stage
the flow serializes its progress — the wiring committed so far (in the
routes text format), the global routing solution, and the
failure/coverage bookkeeping — into one JSON document.  Checkpoints are
written atomically (tmp file + rename) so a kill mid-write never leaves
a truncated checkpoint behind.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional

from repro.droute.route import NetRoute
from repro.groute.graph import GlobalRoute
from repro.io.textformat import dump_routes, load_routes

#: Stage progression markers (ordered).
STAGE_GLOBAL = "global"
STAGE_DETAILED = "detailed"
_STAGE_ORDER = (STAGE_GLOBAL, STAGE_DETAILED)

#: Schema tag distinguishing this document kind from any other JSON.
SCHEMA_NAME = "repro-checkpoint"
#: Version 2 added the engine-session payload (per-net records + dirty
#: state) and the explicit ``schema`` tag; version-1 checkpoints predate
#: the engine layer and cannot restore session state, so loading them
#: fails with a clear error instead of resuming with silently empty
#: records.
CHECKPOINT_VERSION = 2


class CheckpointError(ValueError):
    """Raised on a malformed or mismatched checkpoint."""


def stage_reached(checkpoint: Dict[str, object], stage: str) -> bool:
    """Has ``checkpoint`` completed ``stage`` (or a later one)?"""
    have = checkpoint.get("stage")
    if have not in _STAGE_ORDER or stage not in _STAGE_ORDER:
        return False
    return _STAGE_ORDER.index(have) >= _STAGE_ORDER.index(stage)


# ----------------------------------------------------------------------
# Global route (de)serialization
# ----------------------------------------------------------------------
def global_routes_to_data(
    routes: Dict[str, GlobalRoute]
) -> Dict[str, Dict[str, object]]:
    out: Dict[str, Dict[str, object]] = {}
    for name in sorted(routes):
        route = routes[name]
        edges = sorted(route.edges)
        out[name] = {
            "edges": [[list(a), list(b)] for a, b in edges],
            "extra_space": [route.extra_space.get(edge, 0.0) for edge in edges],
        }
    return out


def global_routes_from_data(
    data: Dict[str, Dict[str, object]]
) -> Dict[str, GlobalRoute]:
    routes: Dict[str, GlobalRoute] = {}
    for name, record in data.items():
        edges = [
            (tuple(a), tuple(b)) for a, b in record.get("edges", [])
        ]
        spaces = record.get("extra_space", [])
        extra = {
            edge: float(space)
            for edge, space in zip(edges, spaces)
            if float(space) != 0.0
        }
        routes[name] = GlobalRoute(name, set(edges), extra)
    return routes


# ----------------------------------------------------------------------
# Checkpoint document
# ----------------------------------------------------------------------
def build_checkpoint(
    stage: str,
    chip_name: str,
    seed: Optional[int],
    tile_size: int,
    routes: Dict[str, NetRoute],
    global_routes: Dict[str, GlobalRoute],
    local_nets: List[str],
    prerouted: List[str],
    detailed: Optional[Dict[str, object]] = None,
    session: Optional[Dict[str, object]] = None,
    detailed_partial: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """Build a v2 checkpoint document.

    ``session`` is the engine-session payload
    (:meth:`repro.engine.session.RoutingSession.session_state`): per-net
    record scalars plus the dirty set, so an ECO-capable resume restores
    exactly where the killed run stood.

    ``detailed_partial`` marks a round-granular mid-detailed-routing
    checkpoint (written by the detailed router after each completed
    partition round, at any worker count):
    ``{"rounds_done": k, "summary": ...}``.  The key
    is optional and absent from stage-boundary checkpoints, so the
    document stays a valid version-2 checkpoint either way — old readers
    simply resume from the global stage boundary.
    """
    return {
        "schema": SCHEMA_NAME,
        "version": CHECKPOINT_VERSION,
        "stage": stage,
        "chip": chip_name,
        "seed": seed,
        "tile_size": tile_size,
        "routes_text": dump_routes(routes, chip_name),
        "global": {
            "routes": global_routes_to_data(global_routes),
            "local_nets": sorted(local_nets),
            "prerouted": sorted(prerouted),
        },
        "detailed": detailed,
        "session": session,
        "detailed_partial": detailed_partial,
    }


def checkpoint_routes(checkpoint: Dict[str, object]) -> Dict[str, NetRoute]:
    """The committed wiring stored in ``checkpoint``."""
    return load_routes(str(checkpoint.get("routes_text", "")))


def save_checkpoint(path: str, checkpoint: Dict[str, object]) -> None:
    """Atomically write ``checkpoint`` to ``path``."""
    tmp_path = f"{path}.tmp"
    with open(tmp_path, "w") as handle:
        json.dump(checkpoint, handle)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp_path, path)


def load_checkpoint(
    path: str,
    chip_name: Optional[str] = None,
    seed: Optional[int] = None,
) -> Optional[Dict[str, object]]:
    """Load a checkpoint, validating chip/seed when given.

    Returns ``None`` when the file does not exist; raises
    :class:`CheckpointError` on version or identity mismatches (resuming
    another chip's checkpoint would silently corrupt the run).
    """
    if not os.path.exists(path):
        return None
    with open(path) as handle:
        try:
            checkpoint = json.load(handle)
        except json.JSONDecodeError as error:
            raise CheckpointError(f"corrupt checkpoint {path}: {error}") from error
    schema = checkpoint.get("schema")
    if schema is not None and schema != SCHEMA_NAME:
        raise CheckpointError(
            f"checkpoint {path} has schema {schema!r}, expected {SCHEMA_NAME!r}"
        )
    version = checkpoint.get("version")
    if version == 1:
        raise CheckpointError(
            f"checkpoint {path} has version 1 (pre-engine): it predates the "
            "routing-session layer and carries no per-net session state. "
            "Re-run the flow from scratch to produce a v2 checkpoint."
        )
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint {path} has version {version}, expected {CHECKPOINT_VERSION}"
        )
    if chip_name is not None and checkpoint.get("chip") != chip_name:
        raise CheckpointError(
            f"checkpoint {path} is for chip {checkpoint.get('chip')!r}, "
            f"not {chip_name!r}"
        )
    if seed is not None and checkpoint.get("seed") != seed:
        raise CheckpointError(
            f"checkpoint {path} was written with seed {checkpoint.get('seed')}, "
            f"not {seed}"
        )
    return checkpoint
