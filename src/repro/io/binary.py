"""Binary (npz) serialization of graphs and core graphs.

CSR arrays round-trip losslessly through ``numpy.savez_compressed``; core
graphs additionally persist their identification metadata (edge mask, hubs,
hub query values) so a CG built once can serve later processes — the
paper's "identified once ... used to evaluate all future queries" economics
across process boundaries.

Writes are atomic (temp file + rename) so a killed ``build --out`` never
leaves a truncated artifact; loads validate format version and required
keys and raise :class:`~repro.io.errors.CorruptGraphError` (a
``ValueError``) naming the file instead of surfacing a numpy/zipfile
traceback.

The array layout lives here once: ``graph_payload``/``graph_from`` and
``core_graph_payload``/``core_graph_from`` pack and unpack under a key
prefix, and ``open_npz`` is the checked reader. Graph and core-graph
files use the empty prefix; :mod:`repro.evolve.snapshot` stores both in
one archive under ``g_`` and ``cg_``.
"""

from __future__ import annotations

import zipfile
import zlib
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, Sequence, Union

import numpy as np

from repro.core.coregraph import CoreGraph, HubData
from repro.graph.csr import Graph
from repro.graph.validate import validate_graph
from repro.io.errors import CorruptGraphError
from repro.resilience.atomic import atomic_path
from repro.resilience.faults import fault_point

_GRAPH_FORMAT = 1
_CG_FORMAT = 1

PathLike = Union[str, Path]


def _npz_path(path: PathLike) -> Path:
    """Normalize to the ``.npz`` name ``numpy.savez`` would produce."""
    path = Path(path)
    return path if path.suffix == ".npz" else path.with_suffix(
        path.suffix + ".npz"
    )


def _require_keys(data, keys, path: Path, kind: str) -> None:
    missing = [k for k in keys if k not in data.files]
    if missing:
        raise CorruptGraphError(
            f"{kind} archive is missing required keys {missing}", path=path
        )


def _optional(data, key: str):
    return data[key] if key in data.files else None


@contextmanager
def open_npz(
    path: Path, kind: str, fmt: int, keys: Sequence[str] = ()
) -> Iterator[Any]:
    """Open a format-``fmt`` archive of this package for reading.

    A file (or, inside the block, a member) that does not decode, a
    missing ``format`` or ``keys`` entry, and another format version all
    raise :class:`CorruptGraphError` naming ``path``; a missing file
    stays ``FileNotFoundError``.
    """
    fault_point("io.load")
    try:
        data = np.load(path)
    except FileNotFoundError:
        raise
    except (zipfile.BadZipFile, OSError, ValueError, EOFError) as exc:
        raise CorruptGraphError(
            f"not a readable {kind} npz archive: {exc}", path=path
        ) from exc
    with data:
        try:
            _require_keys(data, ("format", *keys), path, kind)
            found = int(data["format"])
            if found != fmt:
                raise CorruptGraphError(
                    f"unsupported {kind} format {found}", path=path
                )
            yield data
        except (zipfile.BadZipFile, zlib.error, EOFError) as exc:
            # Members inflate lazily, on first access in the caller's block.
            raise CorruptGraphError(
                f"{kind} archive member does not decode: {exc}", path=path
            ) from exc


def graph_payload(g: Graph, prefix: str = "") -> Dict[str, Any]:
    """The npz entries of ``g``'s CSR arrays, keys starting ``prefix``."""
    payload = {f"{prefix}offsets": g.offsets, f"{prefix}dst": g.dst}
    if g.weights is not None:
        payload[f"{prefix}weights"] = g.weights
    return payload


def graph_from(data, path: Path, kind: str, prefix: str = "") -> Graph:
    """Inverse of :func:`graph_payload` over an open archive."""
    _require_keys(data, (f"{prefix}offsets", f"{prefix}dst"), path, kind)
    try:
        return Graph(
            data[f"{prefix}offsets"], data[f"{prefix}dst"],
            _optional(data, f"{prefix}weights"),
        )
    except ValueError as exc:
        raise CorruptGraphError(
            f"corrupt {kind} arrays: {exc}", path=path
        ) from exc


def core_graph_payload(cg: CoreGraph, prefix: str = "") -> Dict[str, Any]:
    """The npz entries of ``cg`` (graph, mask, hubs, hub query values and
    the optional study bookkeeping), keys starting ``prefix``."""
    payload = graph_payload(cg.graph, prefix)
    payload.update({
        f"{prefix}edge_mask": cg.edge_mask,
        f"{prefix}hubs": cg.hubs,
        f"{prefix}spec_name": np.array(cg.spec_name),
        f"{prefix}connectivity_edges": np.int64(cg.connectivity_edges),
        f"{prefix}source_num_edges": np.int64(cg.source_num_edges),
        f"{prefix}num_hub_data": np.int64(len(cg.hub_data)),
    })
    if cg.growth is not None:
        payload[f"{prefix}growth"] = cg.growth
    if cg.forward_selection_counts is not None:
        payload[f"{prefix}selection_counts"] = cg.forward_selection_counts
    for i, hd in enumerate(cg.hub_data):
        payload[f"{prefix}hub_{i}_id"] = np.int64(hd.hub)
        payload[f"{prefix}hub_{i}_forward"] = hd.forward
        payload[f"{prefix}hub_{i}_backward"] = hd.backward
    return payload


def core_graph_from(
    data, path: Path, kind: str, prefix: str = ""
) -> CoreGraph:
    """Inverse of :func:`core_graph_payload` over an open archive."""
    _require_keys(
        data,
        [prefix + k for k in (
            "edge_mask", "hubs", "spec_name", "connectivity_edges",
            "source_num_edges", "num_hub_data",
        )],
        path, kind,
    )
    graph = graph_from(data, path, kind, prefix)
    hub_keys = [
        (f"{prefix}hub_{i}_id", f"{prefix}hub_{i}_forward",
         f"{prefix}hub_{i}_backward")
        for i in range(int(data[f"{prefix}num_hub_data"]))
    ]
    _require_keys(
        data, [k for keys in hub_keys for k in keys], path, kind
    )
    return CoreGraph(
        graph=graph,
        edge_mask=data[f"{prefix}edge_mask"],
        spec_name=str(data[f"{prefix}spec_name"]),
        hubs=data[f"{prefix}hubs"],
        hub_data=[
            HubData(hub=int(data[h]), forward=data[f], backward=data[b])
            for h, f, b in hub_keys
        ],
        growth=_optional(data, f"{prefix}growth"),
        forward_selection_counts=_optional(
            data, f"{prefix}selection_counts"
        ),
        connectivity_edges=int(data[f"{prefix}connectivity_edges"]),
        source_num_edges=int(data[f"{prefix}source_num_edges"]),
    )


def _write_npz(path: PathLike, payload: Dict[str, Any]) -> Path:
    final = _npz_path(path)
    with atomic_path(final, suffix=".npz") as tmp:
        np.savez_compressed(tmp, **payload)
    return final


def save_graph(g: Graph, path: PathLike) -> Path:
    """Write ``g`` to ``path`` (npz, atomic). Returns the path written."""
    return _write_npz(
        path, {"format": np.int64(_GRAPH_FORMAT), **graph_payload(g)}
    )


def load_graph(path: PathLike, validate: bool = True) -> Graph:
    """Read a graph written by :func:`save_graph`."""
    path = Path(path)
    with open_npz(path, "graph", _GRAPH_FORMAT) as data:
        g = graph_from(data, path, "graph")
    if validate:
        report = validate_graph(g)
        if not report.ok:
            raise CorruptGraphError(
                f"corrupt graph file: {report.errors}", path=path
            )
    return g


def save_core_graph(cg: CoreGraph, path: PathLike) -> Path:
    """Write a :class:`CoreGraph` (graph + identification metadata, atomic)."""
    return _write_npz(
        path, {"format": np.int64(_CG_FORMAT), **core_graph_payload(cg)}
    )


def load_core_graph(path: PathLike) -> CoreGraph:
    """Read a core graph written by :func:`save_core_graph`."""
    path = Path(path)
    with open_npz(path, "core-graph", _CG_FORMAT) as data:
        return core_graph_from(data, path, "core-graph")
