"""Versioned model persistence: JSON structure + mmap-able arrays, one archive.

A fitted tree (or a whole fitted classifier) can be shipped to a serving
process without retraining:

* :func:`tree_to_dict` / :func:`tree_from_dict` — pure-JSON encoding of a
  :class:`~repro.core.tree.DecisionTree` (distributions inlined as lists;
  Python's ``repr``-based float serialisation makes the round trip
  bit-exact), also exposed as ``DecisionTree.to_dict`` / ``from_dict``;
* :func:`save_tree` / :func:`load_tree` — a single ``.zip`` archive holding
  ``model.json`` (structure, labels, metadata) plus the stacked
  class-distribution matrix, also exposed as ``DecisionTree.save`` /
  ``load``;
* :func:`save_model` / :func:`load_model` — the same archive for a fitted
  :class:`~repro.core.udt.UDTClassifier` / ``AveragingClassifier``,
  including constructor params (specs serialise declaratively) and the
  fitted sklearn-style attributes — and, since format version 2, for the
  bagged forests of :mod:`repro.ensemble` (``kind: "forest"``: one
  ``model.json`` holding every member tree plus its feature-column subset,
  all distribution vectors stacked into one shared matrix);
* :func:`model_from_payload` — rebuild a model from an already-parsed
  ``model.json`` payload plus its distribution matrix, however that matrix
  was obtained (mmap, npz, or a ``multiprocessing.shared_memory`` segment —
  the zero-copy attach path used by the serving worker pool).

Format history:

* **v1** — single trees (``kind: "decision_tree"``) and single-tree
  estimators (``kind: "estimator"``); arrays in compressed ``arrays.npz``.
* **v2** — adds forest archives (``kind: "forest"``).  The v1 layouts are
  unchanged, so v1 archives load bit-identically under v2 (golden-fixture
  tested in ``tests/property/test_persistence_roundtrip.py``).
* **v3** — replaces ``arrays.npz`` with ``arrays.bin``: the raw stacked
  float64 matrix stored *uncompressed* in the zip, its start page-aligned
  (4096 bytes) via local-header extra-field padding, and described by an
  ``arrays`` header in ``model.json`` (member name, dtype, shape, order).
  ``load_model`` memory-maps the member in place instead of decompressing a
  copy, and every tree node holds a row *view* into the shared matrix.
  Structure and JSON layout are otherwise identical to v2, so v3 round
  trips are bit-identical to v2; :func:`save_model` / :func:`save_tree`
  still emit v1/v2 on request (``format_version=``).

Whatever the archive version, loaded nodes reference rows of one shared
matrix (``model._shared_arrays``) — the v1/v2 path stacks the npz matrix in
memory, the v3 path maps the file — so per-model memory is O(matrix), not
O(matrix × nodes), and a serving parent can publish the matrix once to a
whole worker pool.

Every archive records ``format_version``; loading refuses versions newer
than :data:`FORMAT_VERSION` (:class:`~repro.exceptions.FormatVersionError`)
so old serving binaries fail loudly instead of silently misreading new
models.  Labels, categories and domains survive only for JSON-stable scalar
types (``str``/``int``/``float``/``bool``/``None``); anything else raises
:class:`~repro.exceptions.PersistenceError` at save time.
"""

from __future__ import annotations

import io
import json
import struct
import zipfile
from pathlib import Path
from typing import Hashable

import numpy as np

from repro.core.dataset import Attribute, AttributeKind
from repro.core.tree import DecisionTree, InternalNode, LeafNode, TreeNode
from repro.exceptions import FormatVersionError, PersistenceError

__all__ = [
    "FORMAT_VERSION",
    "tree_to_dict",
    "tree_from_dict",
    "save_tree",
    "load_tree",
    "save_model",
    "load_model",
    "model_from_payload",
    "read_model_metadata",
    "read_model_payload_bytes",
]

#: Current on-disk format version; bump on incompatible layout changes.
#: v1: single trees and single-tree estimators.  v2: adds ``kind: "forest"``
#: archives.  v3: mmap-able uncompressed ``arrays.bin`` replaces
#: ``arrays.npz`` (v1/v2 layouts keep loading bit-identically).
FORMAT_VERSION = 3

#: Name of the JSON member inside the archive.
_JSON_MEMBER = "model.json"

#: Name of the NPZ member inside v1/v2 archives.
_NPZ_MEMBER = "arrays.npz"

#: Name of the raw array-block member inside v3 archives.
_BIN_MEMBER = "arrays.bin"

#: Alignment (bytes) of the raw array block's file offset: one page, so the
#: mapped matrix shares clean page-cache pages across processes.
_ALIGN = 4096

#: Extra-field ID used for the alignment padding in the ``arrays.bin`` local
#: header (the "zipalign" technique: padding lives in the header's extra
#: field, so any zip reader still sees a perfectly ordinary stored member).
_PAD_EXTRA_ID = 0xD935

#: Node-dict keys whose values are class-distribution arrays.
_ARRAY_KEYS = ("distribution", "fallback", "training_distribution")

#: Internal marker set on restored leaf dicts whose stored distribution row
#: can be adopted verbatim by :meth:`LeafNode.restored` (already normalised,
#: no negative mass), skipping the constructor's renormalisation.
_VERBATIM_KEY = "_verbatim"


def _encode_scalar(value: Hashable, what: str):
    """Validate that a label/category survives the JSON round trip unchanged."""
    if isinstance(value, np.generic):
        value = value.item()
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    raise PersistenceError(
        f"{what} {value!r} of type {type(value).__name__} cannot be serialised; "
        "use str, int, float, bool or None"
    )


def _encode_array(value, raw: bool):
    """One distribution vector: float64 ndarray (archive path) or list (JSON)."""
    array = np.asarray(value, dtype=float)
    return array if raw else array.tolist()


def _node_to_dict(node: TreeNode, raw: bool = False) -> dict:
    """Encode one node; ``raw=True`` keeps ndarrays (archive writers extract
    them into the stacked matrix, so the list round trip is skipped)."""
    if isinstance(node, LeafNode):
        return {
            "type": "leaf",
            "distribution": _encode_array(node.distribution, raw),
            "training_weight": float(node.training_weight),
        }
    assert isinstance(node, InternalNode)
    encoded: dict = {
        "attribute_index": int(node.attribute_index),
        "training_weight": float(node.training_weight),
        "training_distribution": (
            _encode_array(node.training_distribution, raw)
            if node.training_distribution is not None
            else None
        ),
    }
    if node.is_numerical_test:
        assert node.left is not None and node.right is not None
        encoded.update(
            type="num",
            split_point=float(node.split_point),
            left=_node_to_dict(node.left, raw),
            right=_node_to_dict(node.right, raw),
        )
    else:
        # Branch order is preserved (list of pairs, insertion order): batch
        # classification sums leaf contributions in branch order, so keeping
        # it makes reloaded predict_proba bit-identical.
        encoded.update(
            type="cat",
            branches=[
                [_encode_scalar(category, "branch category"), _node_to_dict(child, raw)]
                for category, child in node.branches.items()
            ],
            fallback=(
                _encode_array(node.fallback, raw) if node.fallback is not None else None
            ),
        )
    return encoded


def _node_from_dict(data: dict) -> TreeNode:
    node_type = data["type"]
    if node_type == "leaf":
        distribution = data["distribution"]
        training_weight = data.get("training_weight", 0.0)
        if isinstance(distribution, np.ndarray):
            # Archive path: the distribution is a row view into the shared
            # matrix.  _restore_arrays precomputed (vectorised, whole matrix
            # at once) whether the stored bits can be adopted verbatim —
            # already normalised, no negative mass — in which case the
            # constructor's checks and renormalisation are skipped entirely
            # and the leaf keeps the zero-copy view.
            if data.get(_VERBATIM_KEY):
                return LeafNode.restored(distribution, float(training_weight))
            return LeafNode(distribution, training_weight=training_weight)
        distribution = np.asarray(distribution, dtype=float)
        leaf = LeafNode(distribution, training_weight=training_weight)
        # Saved archives hold already-normalised distributions, but the
        # constructor's safety renormalisation (dist / sum) is not
        # bit-idempotent when the stored sum is 0.999... instead of exactly
        # 1.0 — restore those recorded bits verbatim so reloaded
        # predict_proba is bit-identical to the model that was saved.
        # Hand-built payloads with raw counts or all-zero vectors keep the
        # constructor's normalisation / uniform fallback.
        if abs(float(distribution.sum()) - 1.0) <= 1e-9:
            leaf.distribution = distribution
        return leaf
    training_distribution = data.get("training_distribution")
    if training_distribution is not None:
        training_distribution = np.asarray(training_distribution, dtype=float)
    if node_type == "num":
        return InternalNode(
            data["attribute_index"],
            split_point=data["split_point"],
            left=_node_from_dict(data["left"]),
            right=_node_from_dict(data["right"]),
            training_weight=data.get("training_weight", 0.0),
            training_distribution=training_distribution,
        )
    if node_type == "cat":
        fallback = data.get("fallback")
        return InternalNode(
            data["attribute_index"],
            branches={
                category: _node_from_dict(child) for category, child in data["branches"]
            },
            fallback=np.asarray(fallback, dtype=float) if fallback is not None else None,
            training_weight=data.get("training_weight", 0.0),
            training_distribution=training_distribution,
        )
    raise PersistenceError(f"unknown node type {node_type!r}")


def _tree_dict(tree: DecisionTree, raw: bool) -> dict:
    from repro import __version__

    return {
        "format_version": FORMAT_VERSION,
        "repro_version": __version__,
        "kind": "decision_tree",
        "attributes": [
            {
                "name": attribute.name,
                "kind": attribute.kind.value,
                "domain": [_encode_scalar(v, "domain value") for v in attribute.domain],
            }
            for attribute in tree.attributes
        ],
        "class_labels": [_encode_scalar(v, "class label") for v in tree.class_labels],
        "root": _node_to_dict(tree.root, raw),
    }


def tree_to_dict(tree: DecisionTree) -> dict:
    """Fully JSON-able encoding of a decision tree (arrays inlined)."""
    return _tree_dict(tree, raw=False)


def _check_version(data: dict) -> None:
    from repro import __version__

    version = data.get("format_version")
    if not isinstance(version, int) or version < 1:
        raise PersistenceError(f"missing or invalid format_version: {version!r}")
    if version > FORMAT_VERSION:
        raise FormatVersionError(
            f"model archive uses format version {version}, but this library "
            f"(repro {__version__}) supports up to version {FORMAT_VERSION}; "
            f"upgrade the repro library to load it",
            archive_version=version,
            supported_version=FORMAT_VERSION,
        )


def _resolve_format_version(format_version) -> int:
    """Validate a requested save format version (``None`` = current)."""
    if format_version is None:
        return FORMAT_VERSION
    try:
        version = int(format_version)
    except (TypeError, ValueError):
        raise PersistenceError(f"invalid format_version: {format_version!r}") from None
    if not 1 <= version <= FORMAT_VERSION:
        raise PersistenceError(
            f"cannot save format version {version}; this library "
            f"writes versions 1..{FORMAT_VERSION}"
        )
    return version


def _attributes_from_payload(entries: list) -> list[Attribute]:
    """Rebuild :class:`Attribute` schema objects from their JSON encoding."""
    attributes = []
    for entry in entries:
        kind = AttributeKind(entry["kind"])
        if kind is AttributeKind.CATEGORICAL:
            attributes.append(Attribute.categorical(entry["name"], tuple(entry["domain"])))
        else:
            attributes.append(Attribute.numerical(entry["name"]))
    return attributes


def tree_from_dict(data: dict) -> DecisionTree:
    """Inverse of :func:`tree_to_dict`."""
    _check_version(data)
    return DecisionTree(
        root=_node_from_dict(data["root"]),
        attributes=_attributes_from_payload(data["attributes"]),
        class_labels=tuple(data["class_labels"]),
    )


# -- archive layer (JSON + array block in one zip) -----------------------------


def _extract_arrays(node: dict, arrays: list) -> None:
    """Move distribution vectors out of ``node`` (in place) into ``arrays``.

    Values under the :data:`_ARRAY_KEYS` keys are replaced by an integer row
    index into the stacked matrix; ``None`` values stay ``None``.
    """
    for key in _ARRAY_KEYS:
        value = node.get(key)
        if isinstance(value, (list, np.ndarray)):
            node[key] = {"npz": len(arrays)}
            arrays.append(value)
    if node["type"] == "num":
        _extract_arrays(node["left"], arrays)
        _extract_arrays(node["right"], arrays)
    elif node["type"] == "cat":
        for _, child in node["branches"]:
            _extract_arrays(child, arrays)


def _verbatim_rows(matrix: np.ndarray) -> np.ndarray:
    """Rows adoptable verbatim by :meth:`LeafNode.restored` (one vectorised
    pass instead of a per-leaf sum): already normalised, no negative mass
    beyond the constructor's -1e-12 tolerance."""
    if matrix.size == 0:
        return np.zeros(matrix.shape[0] if matrix.ndim else 0, dtype=bool)
    verbatim = np.abs(matrix.sum(axis=1) - 1.0) <= 1e-9
    if verbatim.any():
        verbatim &= ~(matrix < -1e-12).any(axis=1)
    return verbatim


def _restore_arrays(node: dict, matrix: np.ndarray, verbatim: np.ndarray) -> None:
    """Replace row references with zero-copy row *views* into ``matrix``.

    No ``.tolist()`` round trip: every restored vector is a slice of the one
    shared (read-only) matrix, whether that matrix came from the npz member
    (v1/v2), an mmap of ``arrays.bin`` (v3), or a shared-memory segment.
    """
    for key in _ARRAY_KEYS:
        value = node.get(key)
        if isinstance(value, dict):
            row = value["npz"]
            node[key] = matrix[row]
            if key == "distribution":
                node[_VERBATIM_KEY] = bool(verbatim[row])
    if node["type"] == "num":
        _restore_arrays(node["left"], matrix, verbatim)
        _restore_arrays(node["right"], matrix, verbatim)
    elif node["type"] == "cat":
        for _, child in node["branches"]:
            _restore_arrays(child, matrix, verbatim)


def _restore_payload_arrays(payload: dict, matrix: np.ndarray) -> None:
    """Rewire every tree in ``payload`` onto row views of ``matrix``."""
    verbatim = _verbatim_rows(matrix)
    if "tree" in payload:
        _restore_arrays(payload["tree"]["root"], matrix, verbatim)
    for member in payload.get("trees") or ():
        _restore_arrays(member["root"], matrix, verbatim)


def _write_aligned_bin(archive: zipfile.ZipFile, matrix: np.ndarray) -> None:
    """Append ``arrays.bin`` uncompressed with its data start page-aligned.

    Alignment uses the zipalign technique: the local file header grows a
    padding extra field so the *data* (not the header) starts on a 4096-byte
    boundary, which keeps ``np.memmap`` views page-clean and shareable.
    """
    data = np.ascontiguousarray(matrix, dtype="<f8").tobytes()
    info = zipfile.ZipInfo(_BIN_MEMBER)
    info.compress_type = zipfile.ZIP_STORED
    info.external_attr = 0o644 << 16
    name_length = len(_BIN_MEMBER.encode("utf-8"))
    data_start = archive.start_dir + 30 + name_length
    pad = (-data_start) % _ALIGN
    if 0 < pad < 4:
        # An extra field needs a 4-byte header of its own.
        pad += _ALIGN
    if pad:
        info.extra = struct.pack("<HH", _PAD_EXTRA_ID, pad - 4) + bytes(pad - 4)
    archive.writestr(info, data)
    if data and (archive.start_dir - len(data)) % _ALIGN:
        raise PersistenceError("internal error: arrays.bin data is not page-aligned")


def _write_archive(path, payload: dict, format_version: int) -> None:
    """Write ``payload`` as a zip of ``model.json`` + the array block.

    All class-distribution vectors share one length (``n_classes``), so they
    stack into a single float64 matrix — exact, compact, and loadable
    without parsing the JSON number grammar.  v1/v2 store the matrix as
    compressed ``arrays.npz``; v3 stores it raw and page-aligned
    (``arrays.bin``) so loaders mmap it instead of copying.
    """
    if format_version < 2 and payload.get("kind") == "forest":
        raise PersistenceError(
            "forest archives need format version >= 2; "
            f"requested version {format_version}"
        )
    arrays: list = []
    if "tree" in payload:
        _extract_arrays(payload["tree"]["root"], arrays)
    for member in payload.get("trees") or ():
        # Forest archives: every member tree's vectors share the same
        # n_classes length, so they all stack into the one matrix.
        _extract_arrays(member["root"], arrays)
    matrix = (
        np.asarray(arrays, dtype=np.float64) if arrays else np.zeros((0, 0), dtype=np.float64)
    )
    payload["format_version"] = format_version
    if format_version >= 3:
        payload["arrays"] = {
            "member": _BIN_MEMBER,
            "dtype": "<f8",
            "shape": [int(matrix.shape[0]), int(matrix.shape[1])],
            "order": "C",
            "align": _ALIGN,
        }
    else:
        payload.pop("arrays", None)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with zipfile.ZipFile(path, "w", compression=zipfile.ZIP_DEFLATED) as archive:
        archive.writestr(_JSON_MEMBER, json.dumps(payload, indent=1, sort_keys=True))
        if format_version >= 3:
            _write_aligned_bin(archive, matrix)
        else:
            npz_buffer = io.BytesIO()
            np.savez_compressed(npz_buffer, distributions=matrix)
            archive.writestr(_NPZ_MEMBER, npz_buffer.getvalue())


def _member_data_offset(path: Path, info: zipfile.ZipInfo) -> int:
    """File offset of a stored member's first data byte.

    Parses the member's local file header (which may carry a longer extra
    field than the central directory's copy — that is where the alignment
    padding lives), so the offset is exact for any zip writer.
    """
    with open(path, "rb") as stream:
        stream.seek(info.header_offset)
        header = stream.read(30)
    if len(header) != 30 or header[:4] != b"PK\x03\x04":
        raise PersistenceError(f"corrupt local file header for {info.filename!r}")
    name_length, extra_length = struct.unpack("<HH", header[26:30])
    return info.header_offset + 30 + name_length + extra_length


def _read_matrix(
    archive: zipfile.ZipFile, path: Path, payload: dict, mmap_arrays: bool
) -> np.ndarray:
    """The stacked distribution matrix, mapped in place when possible.

    v3 archives (an ``arrays`` header in ``model.json``) memory-map the
    uncompressed ``arrays.bin`` member directly from the archive file —
    zero decompression, zero copy, pages shared with every other process
    mapping the same file.  v1/v2 archives decompress ``arrays.npz`` into
    one in-memory matrix.  Either way the result is read-only: every tree
    node aliases rows of it.
    """
    header = payload.get("arrays")
    if header is not None:
        member = header.get("member", _BIN_MEMBER)
        dtype = np.dtype(header["dtype"])
        shape = tuple(int(n) for n in header["shape"])
        if len(shape) != 2:
            raise PersistenceError(f"invalid arrays shape {shape!r}")
        count = shape[0] * shape[1]
        info = archive.getinfo(member)
        if info.file_size != count * dtype.itemsize:
            raise PersistenceError(
                f"array block {member!r} holds {info.file_size} bytes, "
                f"header promises {count * dtype.itemsize}"
            )
        if count == 0:
            return np.zeros(shape, dtype=dtype)
        if mmap_arrays and info.compress_type == zipfile.ZIP_STORED:
            offset = _member_data_offset(path, info)
            return np.memmap(path, dtype=dtype, mode="r", offset=offset, shape=shape)
        matrix = np.frombuffer(archive.read(member), dtype=dtype).reshape(shape)
        return matrix
    with np.load(io.BytesIO(archive.read(_NPZ_MEMBER))) as npz:
        matrix = npz["distributions"]
    matrix.setflags(write=False)
    return matrix


def _read_archive(path, mmap_arrays: bool = True) -> tuple[dict, np.ndarray]:
    """Parse an archive into its payload (arrays restored as views) + matrix."""
    path = Path(path)
    try:
        with zipfile.ZipFile(path) as archive:
            payload = json.loads(archive.read(_JSON_MEMBER))
            # Version gate BEFORE touching the array member: a future (v4+)
            # archive must fail with FormatVersionError naming both versions,
            # never with a confusing missing-member error from a layout this
            # build does not know.
            _check_version(payload)
            matrix = _read_matrix(archive, path, payload, mmap_arrays)
    except (OSError, KeyError, ValueError, zipfile.BadZipFile) as exc:
        raise PersistenceError(f"cannot read model archive {str(path)!r}: {exc}") from exc
    _restore_payload_arrays(payload, matrix)
    return payload, matrix


def save_tree(tree: DecisionTree, path, *, format_version: int | None = None) -> None:
    """Serialise a bare decision tree to a versioned zip archive.

    ``format_version`` selects the on-disk layout (default: current,
    :data:`FORMAT_VERSION`); pass ``2`` to produce archives loadable by
    older deployments.
    """
    version = _resolve_format_version(format_version)
    payload = _tree_dict(tree, raw=True)
    payload["tree"] = {"root": payload.pop("root")}
    _write_archive(path, payload, version)


def load_tree(path, *, mmap_arrays: bool = True) -> DecisionTree:
    """Load a tree saved by :func:`save_tree` (or the tree of a saved model).

    Leaf distributions are read-only views into one shared matrix, kept on
    the tree as ``_shared_arrays`` (an ``np.memmap`` for v3 archives).
    """
    payload, matrix = _read_archive(path, mmap_arrays=mmap_arrays)
    payload["root"] = payload.pop("tree")["root"]
    tree = tree_from_dict(payload)
    tree._shared_arrays = matrix
    return tree


# -- fitted estimators --------------------------------------------------------


def _encode_param(name: str, value):
    """JSON encoding of one constructor parameter."""
    from repro.api.spec import ColumnSpec, spec_to_dict

    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    if isinstance(value, (ColumnSpec, dict, list, tuple)):
        return {"__spec__": spec_to_dict(value)}
    name_attr = getattr(value, "name", None)
    if isinstance(name_attr, str):
        # Strategy / measure instances reduce to their registry name.
        return name_attr
    raise PersistenceError(
        f"cannot serialise estimator parameter {name}={value!r}; "
        "use plain values, registry names, or declarative specs"
    )


def _decode_param(value):
    from repro.api.spec import spec_from_dict

    if isinstance(value, dict) and "__spec__" in value:
        return spec_from_dict(value["__spec__"])
    return value


def _estimator_payload(model, kind: str) -> dict:
    """The parts shared by single-tree and forest estimator archives."""
    from repro import __version__

    return {
        "format_version": FORMAT_VERSION,
        "repro_version": __version__,
        "kind": kind,
        "estimator_class": type(model).__name__,
        # Model lineage: when the snapshot was last (re)trained and how many
        # incremental partial_fit/refresh updates it carries — surfaced by
        # read_model_metadata and the serving GET /v1/models listing.
        "trained_at": getattr(model, "trained_at_", None),
        "update_generation": int(getattr(model, "update_generation_", 0) or 0),
        "params": {
            name: _encode_param(name, value)
            for name, value in model.get_params(deep=False).items()
        },
        "fitted": {
            "n_features_in": getattr(model, "n_features_in_", None),
            "feature_extents": [
                list(extent) if extent is not None else None
                for extent in getattr(model, "feature_extents_", None) or []
            ]
            or None,
        },
    }


def save_model(model, path, *, format_version: int | None = None) -> None:
    """Serialise a fitted classifier (params + fitted state + tree(s)).

    Single-tree estimators write ``kind: "estimator"`` archives; forests
    (anything fitted with a ``trees_`` list) write ``kind: "forest"``
    archives introduced by format version 2.  ``format_version`` selects
    the on-disk layout (default: current, :data:`FORMAT_VERSION`); pass
    ``2`` to produce archives loadable by older deployments.
    """
    version = _resolve_format_version(format_version)
    if getattr(model, "trees_", None):
        _save_forest(model, path, version)
        return
    tree = getattr(model, "tree_", None)
    if tree is None:
        raise PersistenceError("cannot save an unfitted model; call fit() first")
    tree_payload = _tree_dict(tree, raw=True)
    payload = _estimator_payload(model, "estimator")
    payload.update(
        tree={"root": tree_payload["root"]},
        attributes=tree_payload["attributes"],
        class_labels=tree_payload["class_labels"],
    )
    _write_archive(path, payload, version)


def _save_forest(model, path, format_version: int) -> None:
    """``kind: "forest"`` archive: every member tree plus its column subset."""
    feature_indices = getattr(model, "tree_feature_indices_", None)
    if feature_indices is None:
        feature_indices = [None] * len(model.trees_)
    payload = _estimator_payload(model, "forest")
    payload.update(
        attributes=[
            {
                "name": attribute.name,
                "kind": attribute.kind.value,
                "domain": [_encode_scalar(v, "domain value") for v in attribute.domain],
            }
            for attribute in model.attributes_
        ],
        class_labels=[
            _encode_scalar(v, "class label") for v in model._class_label_values
        ],
        trees=[
            {
                "root": _node_to_dict(tree.root, raw=True),
                "feature_indices": (
                    [int(i) for i in indices] if indices is not None else None
                ),
            }
            for tree, indices in zip(model.trees_, feature_indices)
        ],
    )
    _write_archive(path, payload, format_version)


def _estimator_classes() -> dict:
    from repro.core.averaging import AveragingClassifier
    from repro.core.udt import UDTClassifier
    from repro.ensemble import AveragingForestClassifier, UDTForestClassifier

    return {
        "UDTClassifier": UDTClassifier,
        "AveragingClassifier": AveragingClassifier,
        "UDTForestClassifier": UDTForestClassifier,
        "AveragingForestClassifier": AveragingForestClassifier,
    }


def read_model_metadata(path) -> dict:
    """Cheap metadata header of a saved archive, without loading the tree.

    Reads only the ``model.json`` member (the distribution matrix — npz or
    raw ``arrays.bin`` — stays untouched, and the node dictionaries are not
    converted back into tree objects), so a model registry can describe
    hundreds of archives without paying the full load cost.  For v3
    archives the returned ``arrays`` block mirrors the header that
    describes the mmap layout (member, dtype, shape); it is ``None`` for
    v1/v2.  Works for both estimator and bare-tree archives;
    estimator-only fields are ``None`` for trees.
    """
    path = Path(path)
    try:
        with zipfile.ZipFile(path) as archive:
            payload = json.loads(archive.read(_JSON_MEMBER))
    except (OSError, KeyError, ValueError, zipfile.BadZipFile) as exc:
        raise PersistenceError(f"cannot read model archive {str(path)!r}: {exc}") from exc
    _check_version(payload)
    params = payload.get("params") or {}
    attributes = payload.get("attributes") or []
    class_labels = payload.get("class_labels") or []
    kind = payload.get("kind")
    is_forest = kind == "forest"
    arrays_header = payload.get("arrays")
    return {
        "kind": kind,
        # Collapsed tree/forest axis for listings: every archive holds
        # either one tree ("decision_tree" and "estimator" kinds) or a
        # forest of them — derived from the JSON header alone.
        "model_kind": "forest" if is_forest else "tree",
        "n_trees": len(payload.get("trees") or ()) if is_forest else 1,
        "estimator_class": payload.get("estimator_class"),
        "format_version": payload["format_version"],
        "repro_version": payload.get("repro_version"),
        "n_features": len(attributes),
        "n_classes": len(class_labels),
        "class_labels": list(class_labels),
        "attributes": [
            {"name": entry.get("name"), "kind": entry.get("kind")} for entry in attributes
        ],
        "strategy": params.get("strategy"),
        # Lineage (None / 0 for archives written before streaming updates).
        "trained_at": payload.get("trained_at"),
        "update_generation": int(payload.get("update_generation") or 0),
        "arrays": (
            {
                "member": arrays_header.get("member"),
                "dtype": arrays_header.get("dtype"),
                "shape": list(arrays_header.get("shape") or ()),
            }
            if isinstance(arrays_header, dict)
            else None
        ),
    }


def read_model_payload_bytes(path) -> bytes:
    """Raw bytes of the archive's ``model.json`` member.

    The serving parent pairs these bytes with the model's shared matrix in
    one ``multiprocessing.shared_memory`` segment, so pool workers rebuild
    the model (:func:`model_from_payload`) without ever opening the archive.
    """
    try:
        with zipfile.ZipFile(Path(path)) as archive:
            return archive.read(_JSON_MEMBER)
    except (OSError, KeyError, ValueError, zipfile.BadZipFile) as exc:
        raise PersistenceError(f"cannot read model archive {str(path)!r}: {exc}") from exc


def _restore_fitted_arrays(model, payload: dict, attributes) -> None:
    """Apply the shared ``fitted`` block plus schema-derived attributes."""
    fitted = payload.get("fitted") or {}
    # Attribute names double as feature_names_in_, so name-keyed specs keep
    # resolving when the loaded model receives bare arrays.
    model.feature_names_in_ = [attribute.name for attribute in attributes]
    if fitted.get("n_features_in") is not None:
        model.n_features_in_ = fitted["n_features_in"]
    else:
        model.n_features_in_ = len(attributes)
    extents = fitted.get("feature_extents")
    if extents is not None:
        model.feature_extents_ = [
            tuple(extent) if extent is not None else None for extent in extents
        ]
    # Lineage survives the round trip; pre-streaming archives load as
    # generation 0 with no timestamp.
    model.trained_at_ = payload.get("trained_at")
    model.update_generation_ = int(payload.get("update_generation") or 0)


#: Parameters that archives written by earlier versions store but the
#: estimators no longer take (``engine`` chose between two construction paths
#: that built identical trees); dropped on load.
_RETIRED_PARAMS = frozenset({"engine"})


def _instantiate_estimator(payload: dict):
    classes = _estimator_classes()
    class_name = payload.get("estimator_class")
    estimator_class = classes.get(class_name)
    if estimator_class is None:
        raise PersistenceError(
            f"unknown estimator class {class_name!r}; expected one of {sorted(classes)}"
        )
    accepted = set(estimator_class._param_names())
    params = {}
    for name, value in payload["params"].items():
        if name in _RETIRED_PARAMS:
            continue
        if name not in accepted:
            raise PersistenceError(
                f"archive parameter {name!r} is not a parameter of {class_name}; "
                "the archive was written by an incompatible library"
            )
        params[name] = _decode_param(value)
    return estimator_class(**params)


def _load_forest(payload: dict):
    """Rebuild a fitted forest from a ``kind: "forest"`` archive."""
    model = _instantiate_estimator(payload)
    attributes = _attributes_from_payload(payload["attributes"])
    class_labels = tuple(payload["class_labels"])
    trees = []
    feature_indices = []
    for member in payload["trees"]:
        indices = member.get("feature_indices")
        # A member's schema is its column subset of the full schema, so the
        # archive stores only the indices, never duplicate attribute entries.
        member_attributes = (
            attributes if indices is None else [attributes[i] for i in indices]
        )
        trees.append(
            DecisionTree(
                root=_node_from_dict(member["root"]),
                attributes=member_attributes,
                class_labels=class_labels,
            )
        )
        feature_indices.append(list(indices) if indices is not None else None)
    model.trees_ = trees
    model.tree_feature_indices_ = feature_indices
    model.attributes_ = tuple(attributes)
    model._class_label_values = class_labels
    model.classes_ = np.asarray(class_labels)
    _restore_fitted_arrays(model, payload, attributes)
    return model


def _model_from_restored(payload: dict, matrix: np.ndarray, what: str):
    """Estimator from a payload whose arrays are already restored to views."""
    kind = payload.get("kind")
    if kind == "forest":
        model = _load_forest(payload)
    elif kind == "estimator":
        model = _instantiate_estimator(payload)
        model.tree_ = tree_from_dict(
            {
                "format_version": payload["format_version"],
                "attributes": payload["attributes"],
                "class_labels": payload["class_labels"],
                "root": payload["tree"]["root"],
            }
        )
        model.classes_ = np.asarray(model.tree_.class_labels)
        _restore_fitted_arrays(model, payload, model.tree_.attributes)
    else:
        raise PersistenceError(
            f"archive {what} holds {kind!r}, not an estimator; "
            "use load_tree() for bare trees"
        )
    # The one matrix every node views into.  Keeping it on the model both
    # anchors the mmap's lifetime explicitly and gives the serving layer the
    # exact block to publish over shared memory.
    model._shared_arrays = matrix
    return model


def load_model(path, *, mmap_arrays: bool = True):
    """Load a classifier saved by :func:`save_model`, ready to predict.

    Handles ``kind: "estimator"`` and ``kind: "forest"`` archives of every
    supported format version.  For v3 archives the distribution matrix is
    memory-mapped straight out of the zip (set ``mmap_arrays=False`` to
    force an in-memory copy, e.g. when the archive file is about to be
    deleted); for v1/v2 it is decompressed once.  In all cases tree nodes
    hold read-only row views into the single shared matrix, exposed as
    ``model._shared_arrays``.
    """
    payload, matrix = _read_archive(path, mmap_arrays=mmap_arrays)
    return _model_from_restored(payload, matrix, repr(str(path)))


def model_from_payload(payload: dict, matrix: np.ndarray):
    """Rebuild a model from a parsed ``model.json`` payload plus its matrix.

    The zero-copy attach path: ``payload`` is the archive's JSON (arrays
    still encoded as row references) and ``matrix`` is the stacked
    distribution matrix from *anywhere* — an mmap, a decompressed npz, or a
    view into a ``multiprocessing.shared_memory`` segment published by the
    serving parent.  Mutates ``payload`` in place (row references become
    views) and returns the fitted estimator with ``_shared_arrays`` set.
    """
    _check_version(payload)
    _restore_payload_arrays(payload, matrix)
    return _model_from_restored(payload, matrix, "payload")
