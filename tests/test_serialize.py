import dataclasses
import json
import os
import stat

import numpy as np
import pytest
from hypothesis import given, settings

from mtfr.certify import alt2_certificate, certify
from mtfr.errors import DimensionMismatch, GridTooLarge, MtfrError
from mtfr.gaussian import random_gaussian
from mtfr.grid import SampledField, sample
from mtfr.serialize import (
    canonical_json,
    certificate_from_obj,
    certificate_to_obj,
    complex_matrix_from_obj,
    complex_matrix_to_obj,
    gaussian_from_obj,
    gaussian_to_obj,
    matrix_from_obj,
    matrix_to_obj,
    read_field,
    sweep_to_csv,
    word_from_obj,
    word_to_obj,
    write_field,
)
from mtfr.symplectic import make_rotation, random_symplectic, factor_to_word

from conftest import gaussians, generator_words, haar_unitary


def test_canonical_json_is_valid_and_deterministic():
    obj = {"a": 1, "b": [0.1, 2.5e-17, -3.0], "c": {"nested": True, "s": 'q"uote'}}
    text1 = canonical_json(obj)
    text2 = canonical_json(obj)
    assert text1 == text2
    assert json.loads(text1) == obj


def test_canonical_json_17_digits():
    x = 0.1 + 0.2
    text = canonical_json({"x": x})
    assert json.loads(text)["x"] == x


def test_matrix_round_trip(rng):
    m = random_symplectic(2, 5, seed=4)
    obj = matrix_to_obj(m)
    back = matrix_from_obj(json.loads(canonical_json(obj)))
    np.testing.assert_array_equal(back, m.entries)


def test_complex_matrix_round_trip(rng):
    u = haar_unitary(3, rng)
    back = complex_matrix_from_obj(json.loads(canonical_json(complex_matrix_to_obj(u))))
    np.testing.assert_array_equal(back, u)


def test_word_round_trip():
    word = factor_to_word(random_symplectic(2, 6, seed=9))
    obj = json.loads(canonical_json(word_to_obj(word)))
    back = word_from_obj(2, obj)
    np.testing.assert_allclose(back.matrix(), word.matrix(), atol=1e-14)


# round trips compare values, not bytes: JSON reads "-0" back as the integer 0


@given(generator_words())
@settings(max_examples=50, deadline=None)
def test_word_round_trip_is_exact(word):
    back = word_from_obj(word.n, json.loads(canonical_json(word_to_obj(word))))
    assert len(back) == len(word)
    for a, b in zip(back.letters, word.letters):
        assert type(a) is type(b)
        name = dataclasses.fields(a)[0].name  # q, l or axes
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


@given(gaussians())
@settings(max_examples=50, deadline=None)
def test_gaussian_round_trip_is_exact(g):
    back = gaussian_from_obj(json.loads(canonical_json(gaussian_to_obj(g))))
    np.testing.assert_array_equal(back.m, g.m)
    np.testing.assert_array_equal(back.b, g.b)
    assert back.logamp == g.logamp


def test_gaussian_round_trip(rng):
    g = random_gaussian(2, rng)
    back = gaussian_from_obj(json.loads(canonical_json(gaussian_to_obj(g))))
    np.testing.assert_array_equal(back.m, g.m)
    np.testing.assert_array_equal(back.b, g.b)
    assert back.logamp == g.logamp


def test_certificate_objects(rng):
    u = (1.0 / np.sqrt(2.0)) * np.array([[1.0, 1j], [1j, 1.0]])
    cert = alt2_certificate(make_rotation(u))
    obj = json.loads(canonical_json(certificate_to_obj(cert)))
    assert obj["alternative"] == "II"
    assert obj["k"] == 1
    assert "P" in obj["intermediates"]
    cert1 = certify(make_rotation(1j * np.eye(2)))
    obj1 = json.loads(canonical_json(certificate_to_obj(cert1)))
    assert obj1["alternative"] == "I"
    assert "V1" in obj1


@pytest.mark.parametrize(
    "bold",
    [
        make_rotation(1j * np.eye(2)),
        make_rotation((1.0 / np.sqrt(2.0)) * np.array([[1.0, 1j], [1j, 1.0]])),
        random_symplectic(4, 6, seed=11),
    ],
    ids=["alt1", "alt2", "alt2-d2-random"],
)
def test_certificate_round_trip_bytes(bold):
    obj = json.loads(canonical_json(certificate_to_obj(certify(bold))))
    # the reference is the parsed object re-rendered: JSON reads "-0" as the integer 0
    text = canonical_json(obj)
    back = certificate_from_obj(obj)
    assert canonical_json(certificate_to_obj(back)) == text


@pytest.mark.parametrize(
    "obj",
    [
        {"alternative": "II", "d": 1},
        {"alternative": "III", "d": 1, "intermediates": {}},
        [1, 2],
        "certificate",
    ],
)
def test_certificate_from_obj_malformed(obj):
    with pytest.raises(MtfrError):
        certificate_from_obj(obj)


GAUSSIAN_1 = {"n": 1, "M_re": [[1.0]], "M_im": [[0.0]], "b_re": [0.0], "b_im": [0.0],
              "logamp": 0.0}


@pytest.mark.parametrize(
    "decode, obj",
    [
        (matrix_from_obj, [1, 2]),
        (matrix_from_obj, {"n": 1}),
        (matrix_from_obj, {"rows": [[1.0, "x"], [0.0, 1.0]]}),
        (matrix_from_obj, {"rows": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]}),
        (matrix_from_obj, {"rows": [[float("nan"), 0.0], [0.0, 1.0]]}),
        (matrix_from_obj, {"rows": [[1.0, 0.0], [0.0, float("-inf")]]}),
        (gaussian_from_obj, [1, 2]),
        (gaussian_from_obj, {"M_re": 1}),
        (gaussian_from_obj, {**GAUSSIAN_1, "M_re": [[-1.0]]}),  # Re M not positive definite
        (gaussian_from_obj, {**GAUSSIAN_1, "b_re": [0.0, 0.0], "b_im": [0.0, 0.0]}),
        (gaussian_from_obj, {**GAUSSIAN_1, "M_im": [[0.0, 1.0]]}),
        (gaussian_from_obj, {**GAUSSIAN_1, "b_im": [float("nan")]}),
        (gaussian_from_obj, {**GAUSSIAN_1, "M_im": [[float("inf")]]}),
        (gaussian_from_obj, {**GAUSSIAN_1, "logamp": float("inf")}),
        (gaussian_from_obj, {**GAUSSIAN_1, "logamp": "x"}),
    ],
)
def test_decode_malformed_or_non_finite(decode, obj):
    with pytest.raises(MtfrError):
        decode(obj)


def test_field_binary_round_trip(tmp_path, rng):
    g = random_gaussian(2, rng)
    f = sample(g, (16, 32), (8.0, 16.0))
    path = tmp_path / "field.bin"
    write_field(f, path)
    back = read_field(path)
    np.testing.assert_array_equal(back.values, f.values)
    assert back.extents == f.extents
    header = path.read_bytes()[:4]
    assert header == b"MTFR"
    assert [p.name for p in tmp_path.iterdir()] == ["field.bin"]  # no temp file left
    umask = os.umask(0)
    os.umask(umask)
    assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask


def test_field_binary_is_checked_before_use(tmp_path, rng):
    path = tmp_path / "field.bin"
    write_field(sample(random_gaussian(1, rng), (16,), (8.0,)), path)
    data = path.read_bytes()
    bad = tmp_path / "bad.bin"
    for cut in (data[:-8], data + b"\0" * 16, data[:10], b"XXXX" + data[4:]):
        bad.write_bytes(cut)
        with pytest.raises(DimensionMismatch):
            read_field(bad)
    # 2^27 points per axis in the header: refused without allocating
    bad.write_bytes(data[:12] + (2**27).to_bytes(8, "little") + data[20:])
    with pytest.raises(GridTooLarge):
        read_field(bad)


def test_sweep_csv():
    from mtfr.checks import UPReport

    rep = UPReport(
        condition="beurling",
        parameters={},
        sweep=((1.0, 2.0), (2.0, 5.0)),
        ratios=(2.5,),
        verdict="divergent-looking",
        rule="r",
    )
    text = sweep_to_csv(rep)
    lines = text.strip().split("\n")
    assert lines[0] == "R,value,ratio"
    assert lines[1].startswith("1,2,")
    assert lines[2].split(",")[2] == "2.5"
