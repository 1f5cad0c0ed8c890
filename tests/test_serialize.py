import dataclasses
import functools
import json
import os
import stat
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from mtfr.symplectic import (
    factor_to_word,
    make_chirp,
    make_dilation,
    make_rotation,
    pre_iwasawa,
    random_symplectic,
)

from conftest import gaussians, generator_words, haar_orthogonal, haar_unitary


def reference_fmt_float(x):
    if np.isnan(x) or np.isinf(x):
        raise ValueError("JSON output cannot carry NaN or infinity")
    return format(float(x), ".17g")


def reference_render(obj, out):
    """Reference for `canonical_json`: the plain isinstance chain, one call per value."""
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(reference_fmt_float(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=False))
    elif isinstance(obj, dict):
        out.append("{")
        for i, (key, val) in enumerate(obj.items()):
            if i:
                out.append(",")
            reference_render(str(key), out)
            out.append(":")
            reference_render(val, out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, val in enumerate(obj):
            if i:
                out.append(",")
            reference_render(val, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj)}")


_finite_floats = st.floats(allow_nan=False, allow_infinity=False)
_json_leaves = st.one_of(
    _finite_floats,
    st.sampled_from([-0.0, 5e-324, -5e-324, 1.7976931348623157e308, 0.1 + 0.2]),
    _finite_floats.map(np.float64),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.integers(),
    st.booleans(),
    st.none(),
    st.text(),
    st.sampled_from(['"', "\\", 'a"b\\c"', ""]),
    st.lists(_finite_floats),  # a row of plain floats
)
_json_values = st.recursive(
    _json_leaves,
    lambda inner: st.one_of(
        st.lists(inner),
        st.lists(inner).map(tuple),
        st.dictionaries(st.one_of(st.text(), st.integers()), inner),
    ),
    max_leaves=25,
)


@given(_json_values)
@settings(max_examples=100, deadline=None)
def test_canonical_json_matches_reference_renderer(obj):
    out = []
    reference_render(obj, out)
    assert canonical_json(obj).encode() == ("".join(out) + "\n").encode()


@given(st.text(), st.text())
@settings(max_examples=200, deadline=None)
def test_canonical_json_strings_are_json(key, text):
    obj = {key: [text]}
    assert json.loads(canonical_json(obj)) == obj
    if not any(ord(c) < 0x20 for c in key + text):
        # without a control character, only the backslash and the quote are escaped
        def quote(s):
            return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'

        assert canonical_json(obj) == "{" + quote(key) + ":[" + quote(text) + "]}\n"


def test_canonical_json_escapes_control_characters():
    assert canonical_json({"w": ["a\nb\x00\x1f"]}) == '{"w":["a\\nb\\u0000\\u001f"]}\n'


@pytest.mark.parametrize(
    "obj",
    [float("nan"), [1.0, float("inf")], {"x": [0.5, -float("inf")]},
     [np.float64("nan")], (True, np.float64("-inf"))],
)
def test_canonical_json_rejects_non_finite(obj):
    with pytest.raises(ValueError):
        canonical_json(obj)


_row_floats = st.one_of(
    _finite_floats,
    st.sampled_from([-0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308]),
)
_non_finite = st.sampled_from([float("nan"), float("inf"), -float("inf")])


@given(st.lists(_row_floats), st.booleans())
@settings(max_examples=200, deadline=None)
def test_float_row_is_each_number_at_17_digits(row, as_tuple):
    obj = tuple(row) if as_tuple else row
    assert canonical_json(obj) == "[" + ",".join(format(x, ".17g") for x in row) + "]\n"


@given(st.lists(_row_floats), _non_finite, st.data())
@settings(max_examples=100, deadline=None)
def test_non_finite_anywhere_in_a_row_is_refused(row, bad, data):
    row.insert(data.draw(st.integers(0, len(row))), bad)
    for obj in (row, tuple(row), bad, {"rows": [row]}):
        with pytest.raises(ValueError, match="^JSON output cannot carry NaN or infinity$"):
            canonical_json(obj)


def _number_rows(obj):
    """Every list in obj whose entries are all numbers, Fourier axes aside."""
    if isinstance(obj, dict):
        return [row for key, val in obj.items() if key != "axes" for row in _number_rows(val)]
    if isinstance(obj, list):
        if obj and all(isinstance(v, (int, float, np.number)) and type(v) is not bool for v in obj):
            return [obj]
        return [row for val in obj for row in _number_rows(val)]
    return []


@given(generator_words(), gaussians())
@settings(max_examples=50, deadline=None)
def test_objects_carry_plain_floats(word, g):
    m = random_symplectic(2, 5, seed=4).entries
    objs = [
        matrix_to_obj(m),
        complex_matrix_to_obj(m[:2, :2] + 1j * m[2:, :2]),
        word_to_obj(word),
        gaussian_to_obj(g),
    ]
    rows = [row for obj in objs for row in _number_rows(obj)]
    assert rows
    # only plain floats, so every row takes the writer's one-call path
    assert all(type(v) is float for row in rows for v in row)
    # the same floats that converting each entry of each row gives
    assert matrix_to_obj(m)["rows"] == [list(map(float, r)) for r in m]
    assert gaussian_to_obj(g)["M_im"] == [list(map(float, r)) for r in g.m.imag]


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
    obj = matrix_to_obj(m.entries)
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


@pytest.mark.parametrize("axes", [[2], [0, 2], [-1]])
def test_word_axes_must_lie_in_range(axes):
    with pytest.raises(DimensionMismatch):
        word_from_obj(2, [{"kind": "pfourier", "axes": axes}])


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


def _assert_same_values(a, b):
    """Recursive equality of certificate data: dataclasses by field, tuples by item."""
    if dataclasses.is_dataclass(a):
        assert type(a) is type(b)
        for field in dataclasses.fields(a):
            _assert_same_values(getattr(a, field.name), getattr(b, field.name))
    elif isinstance(a, tuple):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            _assert_same_values(x, y)
    else:
        np.testing.assert_array_equal(a, b)


def _random_certificate(d, alternative, seed):
    """An honest certificate of a random matrix of the given alternative."""
    rng = np.random.default_rng(seed)
    word_m = random_symplectic(2 * d, 4, seed=seed)
    if alternative == "II":
        bold = word_m @ make_rotation(haar_unitary(2 * d, rng))
    else:
        # the chirp and dilation of a random matrix over R_U with U^t U diagonal
        pre = pre_iwasawa(word_m)
        phases = np.exp(1j * rng.uniform(np.pi / 4, 3 * np.pi / 4, size=2 * d))
        u = haar_orthogonal(2 * d, rng) * phases
        bold = make_chirp(pre.q) @ make_dilation(pre.l) @ make_rotation(u)
    cert = certify(bold)
    assert cert.alternative == alternative
    return cert


@given(
    d=st.integers(1, 3),
    alternative=st.sampled_from(["I", "II"]),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=60, deadline=None)
def test_certificate_round_trip_is_exact(d, alternative, seed):
    cert = _random_certificate(d, alternative, seed)
    back = certificate_from_obj(json.loads(canonical_json(certificate_to_obj(cert))))
    _assert_same_values(back, cert)


@functools.lru_cache(maxsize=None)
def _certificate_text(d, alternative, seed):
    return canonical_json(certificate_to_obj(_random_certificate(d, alternative, seed)))


def _number_paths(obj, path=()):
    """Key paths to the number leaves of a certificate object, except the
    informational "n" of a matrix and omega_condition."""
    if isinstance(obj, dict):
        for key, val in obj.items():
            if key == "omega_condition" or (key == "n" and ("rows" in obj or "re" in obj)):
                continue
            yield from _number_paths(val, (*path, key))
    elif isinstance(obj, list):
        for i, val in enumerate(obj):
            yield from _number_paths(val, (*path, i))
    elif type(obj) in (int, float):
        yield path


@given(
    d=st.integers(1, 3),
    alternative=st.sampled_from(["I", "II"]),
    seed=st.integers(0, 2),
    data=st.data(),
)
@settings(max_examples=300, deadline=None)
def test_single_leaf_corruption_is_refused(d, alternative, seed, data):
    # one number of an honest certificate replaced by a non-number or an
    # integer beyond the float range: refused with MtfrError, never another error
    obj = json.loads(_certificate_text(d, alternative, seed))
    path = data.draw(st.sampled_from(list(_number_paths(obj))), label="path")
    inner = obj
    for key in path[:-1]:
        inner = inner[key]
    leaf = inner[path[-1]]
    inner[path[-1]] = data.draw(
        st.sampled_from([str(leaf), True, None, [leaf], 10**400]), label="value"
    )
    with pytest.raises(MtfrError):
        certificate_from_obj(obj)


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


def _rows(m):
    return {"n": 1, "rows": np.asarray(m, dtype=float).tolist()}


def _edited_certificate(alternative, keys, value):
    """An honest d = 1 certificate of R_U with the block at keys set to value."""
    if alternative == "I":
        u = 1j * np.eye(2)
    else:
        u = np.array([[1.0, 1j], [1j, 1.0]]) / np.sqrt(2.0)
    obj = json.loads(canonical_json(certificate_to_obj(certify(make_rotation(u)))))
    assert obj["alternative"] == alternative and obj["d"] == 1
    inner = obj
    for key in keys[:-1]:
        inner = inner[key]
    inner[keys[-1]] = value
    return obj


@pytest.mark.parametrize(
    "alternative, keys, value, match",
    [
        ("I", ("W",), _rows(np.eye(3)), "W has shape"),
        ("I", ("V1",), {"n": 1, "re": [[1, 0], [0, 1]], "im": [[0, 0], [0, 0]]},
         "V1 has shape"),
        ("I", ("V2",), {"n": 1, "re": [], "im": []}, "V2 has shape"),
        ("I", ("intermediates", "pre_iwasawa", "Q"), _rows(np.eye(3)), "Q has shape"),
        ("I", ("intermediates", "pre_iwasawa", "L"), _rows([[1]]), "L has shape"),
        ("I", ("intermediates", "pre_iwasawa", "U"), {"n": 1, "re": [[1]], "im": [[0]]},
         "U has shape"),
        ("I", ("intermediates", "bold_matrix"), _rows(np.eye(2)), "bold_matrix has shape"),
        ("II", ("k",), 0, "1 <= k <= d"),
        ("II", ("k",), 2, "1 <= k <= d"),
        ("II", ("intermediates", "Gamma1"), [1.0, 1.0], "Gamma1 has shape"),
        ("II", ("Omega",), _rows(np.eye(3)), "Omega has shape"),
        ("II", ("Omega",), _rows(np.zeros((2, 2))), "Omega is singular"),
        ("II", ("intermediates", "P"), _rows(np.eye(4)), "P has shape"),
        ("II", ("intermediates", "W1"), _rows(np.eye(2)), "W1 has shape"),
        ("II", ("intermediates", "W2"), _rows(np.eye(2)), "W2 has shape"),
        ("II", ("intermediates", "Pi"), _rows([[1]]), "Pi has shape"),
    ],
)
def test_certificate_blocks_checked_against_d(alternative, keys, value, match):
    with pytest.raises(MtfrError, match=match):
        certificate_from_obj(_edited_certificate(alternative, keys, value))


def _phase(theta):
    return {"n": 1, "re": [[np.cos(theta)]], "im": [[np.sin(theta)]]}


@pytest.mark.parametrize(
    "alternative, keys, value, match",
    [
        # the pre-Iwasawa factors of both alternatives must reproduce bold_matrix
        ("I", ("intermediates", "pre_iwasawa", "L"), _rows(np.diag([5.0, 0.2])),
         "pre_iwasawa is off bold_matrix"),
        ("II", ("intermediates", "pre_iwasawa", "L"), _rows(np.diag([5.0, 0.2])),
         "pre_iwasawa is off bold_matrix"),
        ("I", ("intermediates", "pre_iwasawa", "Q"), _rows([[0.0, 1.0], [1.0, 0.0]]),
         "pre_iwasawa is off bold_matrix"),
        ("II", ("intermediates", "pre_iwasawa", "U"),
         {"n": 1, "re": [[1.0, 0.0], [0.0, 1.0]], "im": [[0.0, 0.0], [0.0, 0.0]]},
         "pre_iwasawa is off bold_matrix"),
        # Alternative I: V1, V2 unitary and W diag(V1, V2) = U
        ("I", ("V1",), _phase(0.7), r"W diag\(V1, V2\) = U reconstruction residual"),
        ("I", ("V2",), _phase(-0.4), r"W diag\(V1, V2\) = U reconstruction residual"),
        ("I", ("W",), _rows([[0.0, 1.0], [1.0, 0.0]]),
         r"W diag\(V1, V2\) = U reconstruction residual"),
        ("I", ("V1",), {"n": 1, "re": [[2.0]], "im": [[0.0]]}, "V1: unitarity defect"),
        # Alternative II: Pi is the block permutation, and the intermediates
        # rebuild Omega = L Im(tau U) diag(W1, W2) diag(Gamma1, I) Pi and
        # Re(tau U) = Im(tau U) P
        ("II", ("intermediates", "P"), _rows([[123.0, 1.0], [1.0, 0.0]]),
         r"Im\(tau U\) P = Re\(tau U\) reconstruction residual"),
        ("II", ("intermediates", "W1"), _rows([[-1.0]]), "Pi is off Omega"),
        ("II", ("intermediates", "Gamma1"), [2.0], "Pi is off Omega"),
        ("II", ("tau",), {"re": 0.0, "im": 1.0}, "Pi is off Omega"),
        ("II", ("intermediates", "Pi"), _rows(np.eye(2)), "Pi is not the block permutation"),
    ],
    ids=["alt1-l", "alt2-l", "alt1-q", "alt2-u", "alt1-v1", "alt1-v2", "alt1-w",
         "alt1-v1-not-unitary", "alt2-p", "alt2-w1", "alt2-gamma1", "alt2-tau", "alt2-pi"],
)
def test_certificate_factors_checked_against_bold(alternative, keys, value, match):
    with pytest.raises(MtfrError, match=match):
        certificate_from_obj(_edited_certificate(alternative, keys, value))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_certificate_words_follow_the_chirp_sign(d):
    # a +P22 label needs +P22 in word_B's chirp letter, and a word_A letter
    # off its factors is refused as well
    obj = json.loads(_certificate_text(d, "II", 0))
    obj["intermediates"]["chirp_sign"] = "+P22"
    with pytest.raises(MtfrError, match="word_B is not the word"):
        certificate_from_obj(obj)
    chirp = obj["word_B"][2]
    assert chirp["kind"] == "chirp"
    chirp["q"] = (-np.array(chirp["q"])).tolist()
    assert certificate_from_obj(obj).alt2.chirp_sign == "+P22"
    p11 = next(letter for letter in obj["word_A"] if letter["kind"] == "chirp")
    p11["q"][0][0] += 0.5
    with pytest.raises(MtfrError, match="word_A is not the word"):
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


def test_field_binary_round_trip_is_bit_exact(tmp_path, rng):
    values = rng.standard_normal((8, 16)) + 0j
    values.imag[::2] = -0.0
    values[0, 0] = complex(-0.0, -0.0)
    field = SampledField(values, (8.0, 4.0))
    path = tmp_path / "field.bin"
    write_field(field, path)
    assert read_field(path).values.tobytes() == field.values.tobytes()


def test_field_binary_peak_memory(tmp_path, rng):
    shape = (512, 512)
    field = SampledField(
        rng.standard_normal(shape) + 1j * rng.standard_normal(shape), (8.0, 8.0)
    )
    path = tmp_path / "field.bin"
    tracemalloc.start()
    try:
        write_field(field, path)
        write_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        back = read_field(path)
        read_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the write sends the values themselves; the read lands the payload in
    # the field's own array (its finiteness scan adds one bool per value)
    assert write_peak <= 0.1 * field.values.nbytes
    assert read_peak <= 1.1 * back.values.nbytes


def test_read_field_holds_one_copy(tmp_path, rng):
    shape = (256, 256)
    field = SampledField(
        rng.standard_normal(shape) + 1j * rng.standard_normal(shape), (16.0, 16.0)
    )
    path = tmp_path / "field.bin"
    write_field(field, path)
    tracemalloc.start()
    try:
        back = read_field(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the values, plus the finiteness scan's one bool per value
    assert peak <= 1.1 * 16 * back.values.size
    assert back.values.tobytes() == field.values.tobytes()
    assert back.values.flags.owndata and not back.values.flags.writeable


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
