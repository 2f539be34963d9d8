"""JSON model checkpoints: the output activation and each block's kind
plus its named arrays with shape headers; the names carry the block's
order, inputs and sharing, and block 0's factors the model's variables.
Floats are written with Python's shortest round-trip repr (at most 17
significant digits), so a save/load cycle is bit exact. A malformed
document raises ValueError naming the field."""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .models import ChainBlock, ModelSpec

FORMAT_NAME = "cope-model"
FORMAT_VERSION = 5


def _field(obj, key, types, where):
    if not isinstance(obj, dict):
        raise ValueError(f"{where}: expected an object, got {type(obj).__name__}")
    if key not in obj:
        raise ValueError(f"{where}: missing field '{key}'")
    value = obj[key]
    # exact types: JSON true/false must not pass as numbers
    if type(value) not in types:
        raise ValueError(
            f"{where}: field '{key}' is {type(value).__name__}, "
            f"expected {' or '.join(t.__name__ for t in types)}"
        )
    return value


def _ints(obj, key, where):
    values = _field(obj, key, (list,), where)
    if any(type(v) is not int or v < 0 for v in values):
        raise ValueError(f"{where}: field '{key}' must list non-negative integers")
    return values


def _encode_array(arr) -> dict:
    arr = np.asarray(arr, dtype=np.float64)
    return {"shape": list(arr.shape), "data": [float(x) for x in arr.reshape(-1)]}


def _decode_array(obj, where: str) -> np.ndarray:
    shape = tuple(_ints(obj, "shape", where))
    data = _field(obj, "data", (list,), where)
    if any(type(x) not in (int, float) for x in data):
        raise ValueError(f"{where}: field 'data' must list numbers")
    if len(data) != math.prod(shape):
        raise ValueError(f"{where}: {len(data)} values do not fill shape {shape}")
    try:
        return np.asarray(data, dtype=np.float64).reshape(shape)
    except OverflowError as e:  # an integer too large for a float
        raise ValueError(f"{where}: {e}") from None


def _read_block(obj, where: str) -> ChainBlock:
    params = _field(obj, "params", (dict,), where)
    return ChainBlock(
        kind=_field(obj, "kind", (str,), where),
        params={
            name: _decode_array(arr, f"{where} parameter '{name}'")
            for name, arr in params.items()
        },
    )


def save_model(path, spec: ModelSpec) -> None:
    doc = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "output_activation": spec.output_activation,
        "blocks": [
            {
                "kind": blk.kind,
                "params": {n: _encode_array(a) for n, a in blk.params.items()},
            }
            for blk in spec.blocks
        ],
    }
    Path(path).write_text(json.dumps(doc, indent=1))


def load_model(path) -> ModelSpec:
    try:
        doc = json.loads(Path(path).read_text())
    except ValueError as e:  # undecodable bytes and over-long integers too
        raise ValueError(f"{path} is not valid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: expected an object, got {type(doc).__name__}")
    if doc.get("format") != FORMAT_NAME:
        raise ValueError(
            f"{path}: format {doc.get('format')!r} is not {FORMAT_NAME!r}"
        )
    if doc.get("version") != FORMAT_VERSION:
        raise ValueError(
            f"{path}: version {doc.get('version')!r} is not {FORMAT_VERSION}"
        )
    where = str(path)
    blocks = [
        _read_block(b, f"{where} block {i}")
        for i, b in enumerate(_field(doc, "blocks", (list,), where))
    ]
    activation = _field(doc, "output_activation", (str,), where)
    try:
        return ModelSpec(blocks, activation)
    except ValueError as e:
        raise ValueError(f"{where}: {e}") from None
