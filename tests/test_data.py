import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from lmbart.benchmark import FriedmanSpec
from lmbart.data import (CLASSIFICATION, REGRESSION, DataError, Dataset,
                         ScalingInfo, is_finite_real, is_int, load_csv, load_features,
                         parse_cell, read_csv, split_dictionary, standardize, train_test_split)
from lmbart.runs import predict_stored
from lmbart.sampler import Hyperparams
from lmbart.data import write_csv as write_table


def write_csv(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadCsv:
    def test_basic_parse(self, tmp_path):
        path = write_csv(tmp_path, "a,b,y\n1,2,3\n4,5,6\n7,8,9\n")
        d = load_csv(path, "y", REGRESSION)
        assert d.n == 3 and d.p == 2
        assert d.feature_names == ["a", "b"]
        assert_array_equal(d.response, [3.0, 6.0, 9.0])
        assert_array_equal(d.features[:, 0], [1.0, 4.0, 7.0])

    def test_empty_cell_names_location(self, tmp_path):
        path = write_csv(tmp_path, "a,b,y\n1,2,3\n4,,6\n")
        with pytest.raises(DataError, match=r"row 3, column 'b': empty cell"):
            load_csv(path, "y", REGRESSION)

    def test_classification_rejects_non_binary(self, tmp_path):
        path = write_csv(tmp_path, "a,y\n1,0\n2,1\n3,2\n")
        with pytest.raises(DataError, match=r"response not in \{0,1\}"):
            load_csv(path, "y", CLASSIFICATION)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot open"):
            load_csv(tmp_path / "nope.csv", "y", REGRESSION)

    def test_missing_target(self, tmp_path):
        path = write_csv(tmp_path, "a,b\n1,2\n3,4\n")
        with pytest.raises(DataError, match="target column 'y' not found"):
            load_csv(path, "y", REGRESSION)

    def test_non_numeric_cell(self, tmp_path):
        path = write_csv(tmp_path, "a,y\n1,2\nfoo,4\n")
        with pytest.raises(DataError, match=r"row 3, column 'a'"):
            load_csv(path, "y", REGRESSION)

    @pytest.mark.parametrize("header, repeated", [("a,a,y", "a"), ("a,y,y", "y"),
                                                  (" a ,y,a", "a")])
    def test_a_column_named_twice_is_refused(self, tmp_path, header, repeated):
        # the second name would read the first column's values
        path = write_csv(tmp_path, f"{header}\n1,2,3\n4,5,6\n7,8,9\n")
        with pytest.raises(DataError) as info:
            load_csv(path, "y", REGRESSION)
        assert str(info.value) == f"{path}: row 1 (header) names column {repeated!r} twice"

    def test_features_of_a_header_that_names_a_column_twice_are_refused(self, tmp_path):
        # a model trained on such a header would read x1's values as its second feature
        path = write_csv(tmp_path, "x1,x1,x3,y\n1,2,3,4\n5,6,7,8\n")
        with pytest.raises(DataError) as info:
            load_features(path, ["x1", "x1", "x3"], "y")
        assert str(info.value) == f"{path}: row 1 (header) names column 'x1' twice"

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_non_finite_cell_names_location(self, tmp_path, cell):
        path = write_csv(tmp_path, f"a,y\n1,2\n3,{cell}\n")
        with pytest.raises(DataError, match=rf"row 3, column 'y': non-finite value '{cell}'"):
            load_csv(path, "y", REGRESSION)


class TestWriteCsv:
    EDGES = [-0.0, 5e-324, 1e16, 1e-5, 0.1, 1 / 3, -1.7976931348623157e308]

    def test_floats_read_back_bit_for_bit(self, tmp_path):
        # the edge values, then finite float64s drawn as random bit patterns
        bits = np.random.default_rng(0).integers(0, 2**64, size=2000, dtype=np.uint64)
        drawn = bits.view(np.float64)
        values = np.concatenate([self.EDGES, drawn[np.isfinite(drawn)]])[:, None]
        path = tmp_path / "floats.csv"
        write_table(path, ["v"], values)
        header, records = read_csv(path)
        back = np.array([[parse_cell(path, row, col, cell) for col, cell in zip(header, cells)]
                         for row, cells in records])
        assert header == ["v"]
        assert back.tobytes() == values.tobytes()
        # each float is written in its shortest round-trip form, repr(float(v))
        assert path.read_text(encoding="utf-8").splitlines()[1:] == [
            repr(float(v)) for v in values[:, 0]]

    def test_ints_and_strs_are_written_by_str(self, tmp_path):
        path = tmp_path / "cells.csv"
        write_table(path, ["scenario", "count", "value"],
                    [["n=60,p=5", 2, 2.0], ["a", np.int64(3), np.float64(0.5)]])
        assert path.read_bytes() == b'scenario,count,value\r\n"n=60,p=5",2,2.0\r\na,3,0.5\r\n'


class TestStandardize:
    def test_simple_column(self):
        d = Dataset(np.array([[1.0], [2.0], [3.0]]), np.zeros(3), ["a"], REGRESSION)
        scaled, info = standardize(d, scale_response=False)
        assert_allclose(scaled.features[:, 0], [-1.0, 0.0, 1.0])
        assert info.feature_centers[0] == 2.0
        assert info.feature_scales[0] == 1.0

    def test_response_minmax_map(self):
        d = Dataset(np.array([[1.0], [2.0]]), np.array([0.0, 10.0]), ["a"], REGRESSION)
        scaled, info = standardize(d, scale_response=True)
        assert_allclose(scaled.response, [-0.5, 0.5])
        assert info.response_center == 5.0
        assert info.response_scale == 10.0

    def test_constant_column_degenerate(self):
        # Constant columns are recorded with scale 1 and center equal to the
        # constant; they stay constant after the map and round-trip exactly.
        X = np.array([[4.0, 1.0], [4.0, 2.0], [4.0, 3.0]])
        d = Dataset(X, np.zeros(3), ["a", "b"], REGRESSION)
        scaled, info = standardize(d, scale_response=False)
        assert info.feature_scales[0] == 1.0
        assert info.feature_centers[0] == 4.0
        assert np.ptp(scaled.features[:, 0]) == 0.0
        back_X = scaled.features * info.feature_scales + info.feature_centers
        assert_allclose(back_X, X, rtol=0, atol=0)

    def test_no_response_scaling_for_classification(self):
        d = Dataset(np.array([[0.0], [1.0]]), np.array([0.0, 1.0]), ["a"],
                    CLASSIFICATION)
        scaled, info = standardize(d, scale_response=True)
        assert not info.response_scaled
        assert_array_equal(scaled.response, d.response)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(2, 40), st.integers(1, 6), st.integers(0, 10_000))
    def test_round_trip(self, n, p, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(0.0, rng.uniform(0.1, 50.0), size=(n, p))
        y = rng.normal(3.0, 10.0, size=n)
        if rng.uniform() < 0.3:
            X[:, 0] = 7.7  # force a constant column
        d = Dataset(X, y, [f"c{j}" for j in range(p)], REGRESSION)
        scaled, info = standardize(d)
        back_X = scaled.features * info.feature_scales + info.feature_centers
        back_y = info.invert_response(scaled.response)
        assert_allclose(back_X, X, rtol=1e-12, atol=1e-12)
        assert_allclose(back_y, y, rtol=1e-12, atol=1e-12)

    def test_scaling_info_round_trips_through_json(self):
        info = ScalingInfo(np.array([1.0, 2.0]), np.array([3.0, 4.0]),
                           5.0, 6.0, True)
        loaded = ScalingInfo.from_dict(json.loads(json.dumps(info.to_dict())))
        assert_array_equal(loaded.feature_centers, info.feature_centers)
        assert_array_equal(loaded.feature_scales, info.feature_scales)
        assert loaded.response_scale == 6.0 and loaded.response_scaled


    @pytest.mark.parametrize("field, value", [
        ("feature_centers", [1.0, np.nan]), ("feature_centers", [np.inf, 2.0]),
        ("feature_scales", [3.0, np.nan]), ("feature_scales", [-np.inf, 4.0]),
        ("response_center", np.nan), ("response_center", -np.inf),
        ("response_scale", np.nan), ("response_scale", np.inf),
    ])
    def test_a_non_finite_center_or_scale_is_refused_by_name(self, field, value):
        # NaN > 0 is False, so a positivity check alone lets a NaN scale through
        fields = dict(feature_centers=[1.0, 2.0], feature_scales=[3.0, 4.0],
                      response_center=5.0, response_scale=6.0, response_scaled=True)
        fields[field] = value
        with pytest.raises(DataError, match=f"^{field} must be finite"):
            ScalingInfo(**fields)
        with pytest.raises(DataError, match=f"^{field} must be finite"):
            ScalingInfo.from_dict(json.loads(json.dumps(fields)))

    def test_a_non_positive_scale_is_refused(self):
        for centers, scales, response_scale in (([0.0], [0.0], 1.0), ([0.0], [1.0], -2.0)):
            with pytest.raises(DataError, match="scales must be positive"):
                ScalingInfo(np.array(centers), np.array(scales), 0.0, response_scale, True)


class TestSplitDictionary:
    def test_dedup_and_sort(self):
        d = Dataset(np.array([[-1.0], [0.0], [1.0], [0.0]]), np.zeros(4),
                    ["a"], REGRESSION)
        sd = split_dictionary(d)
        assert_array_equal(sd.values[0], [-1.0, 0.0, 1.0])

    def test_constant_column_single_value(self):
        d = Dataset(np.array([[4.0], [4.0]]), np.zeros(2), ["a"], REGRESSION)
        sd = split_dictionary(d)
        assert_array_equal(sd.values[0], [4.0])
        assert not sd.splittable()[0]

    def test_splittable_mask_is_built_once_and_read_only(self):
        d = Dataset(np.array([[4.0, 1.0], [4.0, 2.0]]), np.zeros(2), ["a", "b"], REGRESSION)
        sd = split_dictionary(d)
        assert sd.splittable() is sd.splittable()
        assert sd.splittable().tolist() == [False, True]
        with pytest.raises(ValueError, match="read-only"):
            sd.splittable()[0] = True

    def test_features_independent(self):
        d = Dataset(np.array([[1.0, 5.0], [2.0, 5.0], [1.0, 6.0]]), np.zeros(3),
                    ["a", "b"], REGRESSION)
        sd = split_dictionary(d)
        assert_array_equal(sd.values[0], [1.0, 2.0])
        assert_array_equal(sd.values[1], [5.0, 6.0])

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 50), st.integers(0, 10_000))
    def test_exactly_the_distinct_values(self, n, seed):
        rng = np.random.default_rng(seed)
        col = rng.integers(-3, 4, size=n).astype(float)  # force ties
        d = Dataset(col[:, None], np.zeros(n), ["a"], REGRESSION)
        sd = split_dictionary(d)
        brute = sorted(set(col.tolist()))
        assert sd.values[0].tolist() == brute


class TestTrainTestSplit:
    def test_sizes(self):
        d = Dataset(np.arange(20.0).reshape(10, 2), np.arange(10.0), ["a", "b"],
                    REGRESSION)
        train, test = train_test_split(d, 0.2, seed=1)
        assert train.n == 8 and test.n == 2

    def test_same_seed_same_partition(self):
        d = Dataset(np.arange(40.0).reshape(20, 2), np.arange(20.0), ["a", "b"],
                    REGRESSION)
        a = train_test_split(d, 0.25, seed=42)
        b = train_test_split(d, 0.25, seed=42)
        assert_array_equal(a[0].response, b[0].response)
        assert_array_equal(a[1].response, b[1].response)

    def test_different_seeds_partition_laws(self):
        d = Dataset(np.arange(60.0).reshape(30, 2), np.arange(30.0), ["a", "b"],
                    REGRESSION)
        a = train_test_split(d, 0.3, seed=1)
        b = train_test_split(d, 0.3, seed=2)
        assert set(a[1].response) != set(b[1].response)
        for train, test in (a, b):
            ids = sorted(train.response.tolist() + test.response.tolist())
            assert ids == sorted(d.response.tolist())

    def test_disjoint_exhaustive_many_seeds(self):
        n = 37
        d = Dataset(np.arange(2.0 * n).reshape(n, 2), np.arange(float(n)),
                    ["a", "b"], REGRESSION)
        for seed in range(1000):
            train, test = train_test_split(d, 0.2, seed=seed)
            train_ids = set(train.response.tolist())
            test_ids = set(test.response.tolist())
            assert not train_ids & test_ids
            assert len(train_ids) + len(test_ids) == n

    def test_bad_fraction(self):
        d = Dataset(np.arange(8.0).reshape(4, 2), np.arange(4.0), ["a", "b"],
                    REGRESSION)
        with pytest.raises(DataError):
            train_test_split(d, 1.2, seed=0)


class TestDatasetInvariants:
    def test_rejects_tiny(self):
        with pytest.raises(DataError):
            Dataset(np.array([[1.0]]), np.array([1.0]), ["a"], REGRESSION)

    def test_rejects_nan(self):
        with pytest.raises(DataError):
            Dataset(np.array([[1.0], [np.nan]]), np.zeros(2), ["a"], REGRESSION)

    def test_rejects_non_binary_classification(self):
        with pytest.raises(DataError, match=r"not in \{0,1\}"):
            Dataset(np.array([[1.0], [2.0]]), np.array([0.0, 2.0]), ["a"],
                    CLASSIFICATION)


class TestTypeRule:
    @pytest.mark.parametrize("value, integer, real", [
        (3, True, True), (np.int64(3), True, True), (np.uint8(3), True, True),
        (0.5, False, True), (np.float64(0.5), False, True), (np.float32(0.5), False, True),
        (True, False, False), (np.True_, False, False), ("3", False, False), (None, False, False),
        (float("nan"), False, False), (np.float32("inf"), False, False),
        # an int past the float range would overflow math.isfinite
        (10**400, True, False),
    ])
    def test_integers_and_finite_reals(self, value, integer, real):
        assert is_int(value) is integer
        assert is_finite_real(value) is real

    def test_a_numpy_scalar_is_accepted_wherever_a_python_number_is(self):
        assert Hyperparams(m=np.int64(3), nu=np.float64(2.5)) == Hyperparams(m=3, nu=2.5)
        assert FriedmanSpec(n=np.int64(60), noise_sd=np.float32(0.5)).label == "n=60,p=5"
        scaling = {"feature_centers": [np.float64(0.0)] * 2, "feature_scales": [1.0, 1.0],
                   "response_center": np.float64(0.0), "response_scale": np.int64(1),
                   "response_scaled": False}
        assert ScalingInfo.from_dict(scaling).to_dict() == ScalingInfo.identity(2).to_dict()

        def stump(feature, threshold, mu):
            return {"kind": "internal", "feature": feature, "threshold": threshold,
                    "left": {"kind": "leaf", "mu": mu}, "right": {"kind": "leaf", "mu": 1.0}}

        X = np.array([[-1.0, 2.0], [0.5, 1.0], [0.0, -3.0]])
        python = predict_stored([[stump(0, 0.0, 0.5)]], REGRESSION, ScalingInfo.identity(2), X)
        numpy = predict_stored([[stump(np.int64(0), np.float64(0.0), np.float64(0.5))]],
                               REGRESSION, ScalingInfo.identity(2), X)
        assert np.array_equal(numpy.draws, python.draws)
