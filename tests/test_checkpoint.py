import copy
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cope.checkpoint import load_model, save_model
from cope.config import ExperimentConfig
from cope.models import init_chain, model_parameters, product_compose
from cope.rng import stream
from cope.training import train_regression


def _chain(seed=0, share=False, reconsume=True, var_dims=(3, 2)):
    return init_chain(
        stream(seed, "init"), var_dims, (2, 2), rank=3, hidden_dim=3, out_dim=2,
        kind="ncp", share_conditional=share, reconsume_conditional=reconsume,
        output_activation="tanh",
    )


def test_round_trip_bit_exact(tmp_path):
    spec = _chain()
    path = tmp_path / "m.json"
    save_model(path, spec)
    back = load_model(path)
    a, b = model_parameters(spec), model_parameters(back)
    assert a.keys() == b.keys()
    for name in a:
        np.testing.assert_array_equal(a[name], b[name], err_msg=name)
    z = [np.linspace(-1, 1, 3)[:, None], np.array([[0.3], [-0.7]])]
    np.testing.assert_array_equal(
        product_compose(spec, z), product_compose(back, z)
    )


@pytest.mark.parametrize(
    "share, reconsume, var_dims",
    [
        (True, True, (3, 2)), (False, False, (3, 2)), (False, True, (3,)),
        (True, True, (3, 2, 2)), (False, False, (3, 2, 2)),
    ],
)
def test_each_wiring_round_trips_from_its_names(tmp_path, share, reconsume, var_dims):
    # a block is stored as its kind and its arrays; the names carry its
    # inputs and its sharing, and block 0's factors the model's variables
    spec = _chain(share=share, reconsume=reconsume, var_dims=var_dims)
    path = tmp_path / "m.json"
    save_model(path, spec)
    doc = json.loads(path.read_text())
    assert doc["version"] == 5
    assert set(doc) == {"format", "version", "output_activation", "blocks"}
    assert all(set(blk) == {"kind", "params"} for blk in doc["blocks"])
    back = load_model(path)
    assert back.var_dims == spec.var_dims == var_dims
    assert [list(b.params) for b in back.blocks] == [list(b.params) for b in spec.blocks]
    a, b = model_parameters(spec), model_parameters(back)
    for name in a:
        assert a[name].tobytes() == b[name].tobytes(), name
    z = [np.linspace(-1, 1, 4 * d).reshape(d, 4) for d in var_dims]
    assert product_compose(spec, z).tobytes() == product_compose(back, z).tobytes()


def test_trained_model_saved_from_views_round_trips(tmp_path):
    # training leaves every array a view into Adam's flat vector
    spec = _chain(share=True)
    zs = [np.linspace(-1, 1, 12).reshape(3, 4), np.ones((2, 4))]
    targets = np.zeros((2, 4))
    result = train_regression(spec, zs, targets, ExperimentConfig(steps=3), tmp_path / "run")
    assert all(a.base is not None for a in model_parameters(spec).values())
    back = load_model(result.checkpoint_path)
    a, b = model_parameters(spec), model_parameters(back)
    assert a.keys() == b.keys()
    for name in a:
        assert a[name].tobytes() == b[name].tobytes(), name
    save_model(tmp_path / "again.json", back)
    assert (tmp_path / "again.json").read_bytes() == result.checkpoint_path.read_bytes()


def test_round_trip_restores_sharing(tmp_path):
    spec = _chain(share=True)
    path = tmp_path / "m.json"
    save_model(path, spec)
    back = load_model(path)
    for blk in back.blocks:
        assert "in1.v1" in blk.params and "in2.v1" not in blk.params
    z = [np.linspace(-1, 1, 12).reshape(3, 4), np.ones((2, 4))]
    np.testing.assert_array_equal(
        product_compose(spec, z), product_compose(back, z)
    )


def test_unshared_stays_unshared(tmp_path):
    spec = _chain(share=False)
    path = tmp_path / "m.json"
    save_model(path, spec)
    back = load_model(path)
    blk = back.blocks[0]
    assert "in2.v1" in blk.params
    assert blk.params["in2.v1"] is not blk.params["in1.v1"]


def test_parameter_names_are_stable():
    # Adam state, tape leaves and checkpoint entries all key on these names
    block = [
        "in1.v0", "in1.v1", "in2.v0", "state2", "off1", "off2", "seed1", "seed2",
        "head", "head_bias",
    ]
    assert list(model_parameters(_chain(share=True))) == [
        f"b{i}.{name}" for i in range(2) for name in block
    ]


def test_rejects_wrong_format_name(tmp_path):
    spec = _chain()
    path = tmp_path / "m.json"
    save_model(path, spec)
    doc = json.loads(path.read_text())
    doc["format"] = "something-else"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="format"):
        load_model(path)


def test_rejects_newer_version(tmp_path):
    spec = _chain()
    path = tmp_path / "m.json"
    save_model(path, spec)
    doc = json.loads(path.read_text())
    doc["version"] = 99
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="version"):
        load_model(path)


def test_rejects_version_1_document(tmp_path):
    # and version 2, whose models could center between blocks, version 3,
    # whose blocks also stored their wiring and sharing as fields, and
    # version 4, which also stored the model's input dims
    spec = _chain()
    path = tmp_path / "m.json"
    save_model(path, spec)
    doc = json.loads(path.read_text())
    v3_blocks = [
        {**blk, "consume_prev": i > 0, "consume_vars": [1] if i else [0, 1],
         "share_conditional": False}
        for i, blk in enumerate(doc["blocks"])
    ]
    for version, extra in (
        (1, {}), (2, {"centering": "batch_mean"}), (3, {"blocks": v3_blocks}),
        (4, {}),
    ):
        _write(path, {**doc, "var_dims": [3, 2], "version": version, **extra})
        with pytest.raises(ValueError, match=f"version {version} is not 5"):
            load_model(path)


def test_rejects_size_mismatch(tmp_path):
    spec = _chain()
    path = tmp_path / "m.json"
    save_model(path, spec)
    doc = json.loads(path.read_text())
    head = doc["blocks"][0]["params"]["head"]
    head["data"] = head["data"][:-1]
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="shape"):
        load_model(path)


def test_truncated_file_names_the_path(tmp_path):
    path = tmp_path / "m.json"
    save_model(path, _chain())
    path.write_text(path.read_text()[:100])
    with pytest.raises(ValueError, match="is not valid JSON") as err:
        load_model(path)
    assert str(err.value).startswith(str(path))


def test_undecodable_bytes_name_the_path(tmp_path):
    path = tmp_path / "m.json"
    save_model(path, _chain())
    path.write_bytes(b"\xff" + path.read_bytes())
    with pytest.raises(ValueError, match="is not valid JSON") as err:
        load_model(path)
    assert str(err.value).startswith(str(path))


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """A valid document of the shared ncp chain and a path to write variants to."""
    path = tmp_path_factory.mktemp("ckpt") / "m.json"
    save_model(path, _chain(share=True))
    return json.loads(path.read_text()), path


DELETE = object()


def _write(path, doc):
    # a new file each time: truncating one in place is slow on some filesystems
    path.unlink(missing_ok=True)
    path.write_text(json.dumps(doc))


def test_integer_too_large_for_a_float_names_the_parameter(saved):
    doc, path = saved
    doc = copy.deepcopy(doc)
    doc["blocks"][0]["params"]["head"]["data"][0] = 10**400
    _write(path, doc)
    with pytest.raises(ValueError, match=r"block 0 parameter 'head': ") as err:
        load_model(path)
    assert str(err.value).startswith(str(path))


@pytest.mark.parametrize(
    "where,value,match",
    [
        # block 0's factors say the model's variables, and are still checked
        (("blocks", 0, "params", "in1.v0"), DELETE,
         r"block 0: missing parameter\(s\) \['in1.v0'\]"),
        (("blocks", 0, "params", "in1.v0"), {"shape": [], "data": [1.0]},
         r"block 0: parameter 'in1.v0' has shape \(\), expected 2 dimension"),
        (("blocks",), {}, "field 'blocks' is dict, expected list"),
        (("blocks", 0), [], "block 0: expected an object, got list"),
        (("output_activation",), DELETE, "missing field 'output_activation'"),
        (("output_activation",), "spam", "unknown output_activation 'spam'"),
        (("blocks", 0, "kind"), "spam", "block 0: unknown block kind 'spam'"),
        (("blocks", 0, "kind"), 3, "field 'kind' is int, expected str"),
        (("blocks", 0, "params", "in1.v0"), {"shape": [3], "data": [1.0] * 3},
         r"block 0: parameter 'in1.v0' has shape \(3,\), expected 2 dimension"),
        (("blocks", 1, "params", "in1.v2"), {"shape": [2, 3], "data": [0] * 6},
         r"block 1 reads 3 input\(s\), expected 2 or 1$"),
        # a block 0 without its conditional factor reads one variable
        (("blocks", 0, "params", "in1.v1"), DELETE,
         r"block 1 reads 2 input\(s\), expected 1$"),
        (("blocks", 1, "params"), DELETE, "block 1: missing field 'params'"),
        (("blocks", 0, "params", "head"), DELETE, r"block 0: missing parameter\(s\) \['head'\]"),
        (("blocks", 0, "params", "state2"), DELETE, r"missing parameter\(s\) \['state2'\]"),
        (("blocks", 0, "params", "in3.v1"), {"shape": [2, 3], "data": [0] * 6},
         r"block 0: missing parameter\(s\) \[\], unexpected \['in3.v1'\]"),
        (("blocks", 0, "params", "head"), 1.5, "parameter 'head': expected an object"),
        (("blocks", 0, "params", "head", "data"), None,
         "parameter 'head': field 'data' is NoneType, expected list"),
        (("blocks", 0, "params", "head", "data", 4), "x", "field 'data' must list numbers"),
        (("blocks", 0, "params", "head", "data", 4), True, "field 'data' must list numbers"),
        (("blocks", 0, "params", "head", "shape"), DELETE, "missing field 'shape'"),
        (("blocks", 0, "params", "head", "shape"), [3, -3], "'shape' must list non-negative"),
        (("blocks", 0, "params", "head", "shape"), [9], r"'head' has shape \(9,\), expected 2"),
        (("blocks", 0, "params", "head", "shape"), [1, 9],
         r"'head' has shape \(1, 9\), expected \(1, 3\)"),
        (("blocks", 0, "params", "head", "shape"), [3, 4], "9 values do not fill shape"),
    ],
)
def test_malformed_document_names_the_field(saved, where, value, match):
    doc, path = saved
    doc = copy.deepcopy(doc)
    *parents, last = where
    node = doc
    for key in parents:
        node = node[key]
    if value is DELETE:
        del node[last]
    else:
        node[last] = value
    _write(path, doc)
    with pytest.raises(ValueError, match=match) as err:
        load_model(path)
    assert str(err.value).startswith(str(path))


_JUNK = st.sampled_from(
    [None, True, 0, -1, 2, 1.5, "x", "ncp", [], [0], [-1, 2], {},
     {"shape": [1], "data": [0.0]}]
)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_any_mutation_raises_value_error_or_loads(saved, data):
    doc, path = saved
    doc = copy.deepcopy(doc)
    node = doc
    while True:
        key = data.draw(st.sampled_from(list(node) if isinstance(node, dict)
                                        else range(len(node))))
        child = node[key]
        if not isinstance(child, (dict, list)) or not child or data.draw(st.booleans()):
            break
        node = child
    if data.draw(st.booleans()):
        del node[key]
    else:
        node[key] = data.draw(_JUNK)
    _write(path, doc)
    try:
        load_model(path)
    except ValueError:
        pass
