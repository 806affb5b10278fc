"""Dataset container, CSV round-trips, and the synthetic generator."""

from __future__ import annotations

import random
import re

import numpy as np
import pytest

from leakbench.data import (
    Dataset,
    ORIGINAL,
    RowOrigin,
    SYNTHETIC,
    SynthConfig,
    TIME_SPAN_SECONDS,
    TRANSACTION_SCHEMA,
    expand_features,
    generate_synthetic,
    load_csv,
    save_csv,
)

from conftest import make_dataset


# ---------------------------------------------------------------------------
# container validation
# ---------------------------------------------------------------------------


def test_dataset_rejects_bad_labels() -> None:
    with pytest.raises(ValueError, match="label at row 2 is not 0 or 1"):
        make_dataset([[0.0], [1.0], [2.0]], [0, 1, 7])


def test_dataset_rejects_shape_mismatches() -> None:
    with pytest.raises(ValueError, match="labels length"):
        Dataset(np.zeros((3, 2)), np.zeros(2, dtype=np.int64), ("a", "b"))
    with pytest.raises(ValueError, match="feature_names length"):
        Dataset(np.zeros((3, 2)), np.zeros(3, dtype=np.int64), ("a",))
    with pytest.raises(ValueError, match="time length"):
        Dataset(np.zeros((3, 2)), np.zeros(3, dtype=np.int64), ("a", "b"), time=np.zeros(4))
    with pytest.raises(ValueError, match="2-d"):
        Dataset(np.zeros(3), np.zeros(3, dtype=np.int64), ("a",))
    short = RowOrigin.originals(2)
    with pytest.raises(ValueError, match="row origin length"):
        Dataset(np.zeros((3, 2)), np.zeros(3, dtype=np.int64), ("a", "b"), origin=short)


def test_dataset_take_carries_everything() -> None:
    ds = make_dataset([[1.0], [2.0], [3.0]], [0, 1, 0], time=[5.0, 6.0, 7.0])
    sub = ds.take(np.array([2, 0]))
    np.testing.assert_array_equal(sub.features[:, 0], [3.0, 1.0])
    np.testing.assert_array_equal(sub.labels, [0, 0])
    np.testing.assert_array_equal(sub.time, [7.0, 5.0])
    np.testing.assert_array_equal(sub.origin.parent_a, [2, 0])


def test_select_columns() -> None:
    ds = make_dataset(np.arange(12.0).reshape(3, 4), [0, 1, 0])
    sub = ds.select_columns(["V3", "V1"])
    assert sub.feature_names == ("V3", "V1")
    np.testing.assert_array_equal(sub.features, ds.features[:, [2, 0]])
    with pytest.raises(ValueError, match="unknown feature columns: V9"):
        ds.select_columns(["V1", "V9"])


def test_row_origin_defaults_to_originals() -> None:
    ds = make_dataset([[0.0], [1.0]], [0, 1])
    assert (ds.origin.kind == ORIGINAL).all()
    np.testing.assert_array_equal(ds.origin.parent_a, [0, 1])
    np.testing.assert_array_equal(ds.origin.parent_b, [-1, -1])


def test_row_origin_concat_and_synthetic() -> None:
    a = RowOrigin.originals(2)
    b = RowOrigin.synthetic([0, 1], [1, 0], [0.5, 0.25])
    both = RowOrigin.concat(a, b)
    assert len(both) == 4
    np.testing.assert_array_equal(both.kind, [ORIGINAL, ORIGINAL, SYNTHETIC, SYNTHETIC])
    np.testing.assert_array_equal(both.delta, [0.0, 0.0, 0.5, 0.25])


ORIGIN_DTYPES = {"kind": np.uint8, "parent_a": np.int64, "parent_b": np.int64, "delta": np.float64}


def assert_origin_arrays(origin: RowOrigin, n: int) -> None:
    for name, dtype in ORIGIN_DTYPES.items():
        value = getattr(origin, name)
        assert value.dtype == dtype, name
        assert value.shape == (n,) and value.flags.c_contiguous, name


def test_row_origin_fields_keep_dtype_and_length() -> None:
    from_lists = RowOrigin([0, 1, 1], [4, 5, 6], [-1, 2, 3], [0, 0.5, 0.25])
    from_arrays = RowOrigin(
        np.array([0, 1, 1], dtype=np.int64),
        np.array([4, 5, 6], dtype=np.int32),
        np.array([-1.0, 2.0, 3.0]),
        np.array([0.0, 0.5, 0.25], dtype=np.float32),
    )
    strided = RowOrigin(
        kind=np.zeros(6, dtype=np.uint8)[::2],
        parent_a=np.arange(6)[::2],
        parent_b=np.full(6, -1)[::2],
        delta=np.zeros(6)[::2],
    )
    for origin in (from_lists, from_arrays, strided):
        assert_origin_arrays(origin, 3)
    for name in ORIGIN_DTYPES:
        np.testing.assert_array_equal(getattr(from_lists, name), getattr(from_arrays, name))
    assert_origin_arrays(RowOrigin.originals(4), 4)
    synthetic = RowOrigin.synthetic([1, 2], np.array([3, 4], dtype=np.int32), [0.5, 1])
    assert_origin_arrays(synthetic, 2)
    np.testing.assert_array_equal(synthetic.kind, [SYNTHETIC, SYNTHETIC])

    idx = np.array([2, 0, 2])
    taken = from_lists.take(idx)
    assert_origin_arrays(taken, 3)
    both = RowOrigin.concat(from_lists, synthetic)
    assert_origin_arrays(both, 5)
    for name in ORIGIN_DTYPES:
        np.testing.assert_array_equal(getattr(taken, name), getattr(from_lists, name)[idx])
        want = np.concatenate([getattr(from_lists, name), getattr(synthetic, name)])
        np.testing.assert_array_equal(getattr(both, name), want)

    with pytest.raises(ValueError, match="row origin field delta has mismatched length"):
        RowOrigin([0, 0], [0, 1], [-1, -1], [0.0])


# ---------------------------------------------------------------------------
# synthetic generator
# ---------------------------------------------------------------------------


def test_synthetic_exact_positive_count() -> None:
    for n, rate, want in [(1000, 0.005, 5), (20000, 0.005, 100), (400, 0.1, 40), (999, 0.0125, 12)]:
        ds = generate_synthetic(SynthConfig(n_samples=n, positive_rate=rate))
        assert ds.n_rows == n
        assert int(ds.labels.sum()) == want


def test_synthetic_rows_sorted_by_time() -> None:
    ds = generate_synthetic(SynthConfig(n_samples=500, positive_rate=0.1, seed=8))
    assert ds.time is not None
    assert (np.diff(ds.time) >= 0).all()
    assert ds.time.min() >= 0.0
    assert ds.time.max() <= TIME_SPAN_SECONDS


def test_synthetic_is_deterministic_per_seed() -> None:
    a = generate_synthetic(SynthConfig(n_samples=300, positive_rate=0.1, seed=5))
    b = generate_synthetic(SynthConfig(n_samples=300, positive_rate=0.1, seed=5))
    c = generate_synthetic(SynthConfig(n_samples=300, positive_rate=0.1, seed=6))
    np.testing.assert_array_equal(a.features, b.features)
    np.testing.assert_array_equal(a.labels, b.labels)
    np.testing.assert_array_equal(a.time, b.time)
    assert not np.array_equal(a.features, c.features)


def test_synthetic_class_separation_on_first_axis() -> None:
    ds = generate_synthetic(
        SynthConfig(n_samples=20000, positive_rate=0.3, n_features=4, class_separation=6.0, seed=0)
    )
    pos = ds.features[ds.labels == 1]
    neg = ds.features[ds.labels == 0]
    gap = pos.mean(axis=0) - neg.mean(axis=0)
    assert abs(gap[0] - 6.0) < 0.1
    assert np.abs(gap[1:]).max() < 0.1
    # unit variance per axis on both sides
    assert np.abs(pos.std(axis=0) - 1.0).max() < 0.05
    assert np.abs(neg.std(axis=0) - 1.0).max() < 0.05


def test_synthetic_fraud_burst_concentrates_positives() -> None:
    ds = generate_synthetic(
        SynthConfig(n_samples=2000, positive_rate=0.05, seed=9, fraud_burst=True)
    )
    pos_times = ds.time[ds.labels == 1]
    neg_times = ds.time[ds.labels == 0]
    assert pos_times.min() >= 0.8 * TIME_SPAN_SECONDS
    assert neg_times.min() < 0.8 * TIME_SPAN_SECONDS


def test_synth_config_validation() -> None:
    with pytest.raises(ValueError, match="positive_rate"):
        SynthConfig(n_samples=100, positive_rate=0.6)
    with pytest.raises(ValueError, match="positive_rate"):
        SynthConfig(n_samples=100, positive_rate=0.0)
    with pytest.raises(ValueError, match="at least 2"):
        SynthConfig(n_samples=100, positive_rate=0.01)
    with pytest.raises(ValueError, match="n_samples"):
        SynthConfig(n_samples=0, positive_rate=0.1)
    with pytest.raises(ValueError, match="class_separation"):
        SynthConfig(n_samples=100, positive_rate=0.1, class_separation=-1.0)
    with pytest.raises(ValueError, match="n_features must be positive"):
        SynthConfig(n_samples=100, positive_rate=0.1, n_features=0)
    with pytest.raises(ValueError, match="seed must be non-negative"):
        SynthConfig(n_samples=100, positive_rate=0.1, seed=-1)


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------


def test_load_csv_hand_written(tmp_path) -> None:
    path = tmp_path / "tiny.csv"
    path.write_text("Time,V1,Amount,Class\n10.0,0.5,99.25,0\n20.0,-1.5,3.0,1\n")
    ds = load_csv(str(path))
    assert ds.feature_names == ("V1", "Amount")
    np.testing.assert_array_equal(ds.features, [[0.5, 99.25], [-1.5, 3.0]])
    np.testing.assert_array_equal(ds.labels, [0, 1])
    np.testing.assert_array_equal(ds.time, [10.0, 20.0])


def test_load_csv_without_time_column(tmp_path) -> None:
    path = tmp_path / "no_time.csv"
    path.write_text("a,b,Class\n1,2,0\n3,4,1\n")
    ds = load_csv(str(path))
    assert ds.time is None
    assert ds.feature_names == ("a", "b")


def test_load_csv_errors(tmp_path) -> None:
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ValueError, match="file is empty"):
        load_csv(str(empty))

    no_label = tmp_path / "no_label.csv"
    no_label.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError, match="no 'Class' column"):
        load_csv(str(no_label))
    # a blank first line is a header with no names, not an empty file
    no_label.write_text("\na,Class\n1,0\n")
    with pytest.raises(ValueError, match="no 'Class' column"):
        load_csv(str(no_label))

    # a repeated name would turn the label or the timestamp into a feature
    for header, name in (("Time,V1,Class,Class", "Class"), ("Time,V1,Time,Class", "Time")):
        repeated = tmp_path / "repeated.csv"
        repeated.write_text(f"{header}\n1,2,3,0\n")
        with pytest.raises(ValueError, match=f"header repeats column '{name}'"):
            load_csv(str(repeated))

    # the label and the time axis alone leave the model nothing to read
    for header in ("Time,Class", "Class"):
        no_features = tmp_path / "no_features.csv"
        no_features.write_text(f"{header}\n1,0\n")
        with pytest.raises(ValueError, match="no_features.csv: no feature columns in header"):
            load_csv(str(no_features))

    # errors of the csv module itself name the file and the line, in the header and the rows
    big = tmp_path / "big.csv"
    big.write_text("a,Class\n" + "1" * 200_000 + ",0\n")
    with pytest.raises(ValueError, match="big.csv: line 2: field larger than field limit"):
        load_csv(str(big))
    big.write_text("a" * 200_000 + ",Class\n1,0\n")
    with pytest.raises(ValueError, match="big.csv: line 1: field larger than field limit"):
        load_csv(str(big))

    # a file that is not UTF-8 names the path; the decoder reads in chunks, so no line
    cp1252 = tmp_path / "cp1252.csv"
    cp1252.write_bytes(b"Montant\xe9,Class\n1,0\n")
    with pytest.raises(ValueError, match="cp1252.csv: 'utf-8' codec can't decode byte 0xe9"):
        load_csv(str(cp1252))

    ragged = tmp_path / "ragged.csv"
    ragged.write_text("a,Class\n1,0\n1,0,9\n")
    with pytest.raises(ValueError, match="line 3: expected 2 columns, got 3"):
        load_csv(str(ragged))

    non_numeric = tmp_path / "non_numeric.csv"
    non_numeric.write_text("a,Class\n1,0\nfoo,1\n")
    with pytest.raises(ValueError, match="line 3: column 'a' has non-numeric value 'foo'"):
        load_csv(str(non_numeric))

    # the bad cell follows a numeric one on its line and still names its own column
    late = tmp_path / "late.csv"
    late.write_text("a,b,Class\n1.0,abc,0\n")
    with pytest.raises(ValueError, match="line 2: column 'b' has non-numeric value 'abc'"):
        load_csv(str(late))

    for cell in ("nan", "inf", "-inf"):
        non_finite = tmp_path / "non_finite.csv"
        non_finite.write_text(f"a,b,Class\n1,2,0\n3,{cell},1\n")
        with pytest.raises(
            ValueError, match=f"line 3: column 'b' has non-finite value '{cell}'"
        ):
            load_csv(str(non_finite))

    bad_label = tmp_path / "bad_label.csv"
    bad_label.write_text("a,Class\n1,0\n2,3\n")
    with pytest.raises(ValueError, match="line 3: label 3.0 is not 0 or 1"):
        load_csv(str(bad_label))

    # a quoted cell holding a newline spans two lines; later errors still name the physical line
    for body, message in (
        ("foo,1", "line 4: column 'a' has non-numeric value 'foo'"),
        ("inf,1", "line 4: column 'a' has non-finite value 'inf'"),
        ("2,3", "line 4: label 3.0 is not 0 or 1"),
    ):
        multi_line = tmp_path / "multi_line.csv"
        multi_line.write_text(f'a,Class\n"1\n",0\n{body}\n')
        with pytest.raises(ValueError, match=re.escape(message)):
            load_csv(str(multi_line))

    header_only = tmp_path / "header_only.csv"
    header_only.write_text("a,Class\n")
    with pytest.raises(ValueError, match="no data rows"):
        load_csv(str(header_only))


def test_load_csv_schema_check(tmp_path) -> None:
    good = tmp_path / "schema.csv"
    row = ",".join(["1.0"] * 30 + ["0"])
    good.write_text(",".join(TRANSACTION_SCHEMA) + "\n" + row + "\n")
    ds = load_csv(str(good), expect_schema=True)
    assert ds.n_features == 29  # Time and Class are not features
    assert ds.feature_names[:2] == ("V1", "V2")

    bad = tmp_path / "off_schema.csv"
    bad.write_text("a,Class\n1,0\n")
    with pytest.raises(ValueError, match="does not match the expected transactions schema"):
        load_csv(str(bad), expect_schema=True)


def test_load_csv_skips_a_byte_order_mark(tmp_path) -> None:
    # spreadsheet tools often start a UTF-8 file with a BOM; it must not rename the first column
    path = tmp_path / "bom.csv"
    path.write_text("Time,V1,Class\n10.0,0.5,0\n20.0,-1.5,1\n", encoding="utf-8-sig")
    assert path.read_bytes().startswith(b"\xef\xbb\xbfTime,")
    ds = load_csv(str(path))
    assert ds.feature_names == ("V1",)
    np.testing.assert_array_equal(ds.time, [10.0, 20.0])
    np.testing.assert_array_equal(ds.features, [[0.5], [-1.5]])

    schema = tmp_path / "schema_bom.csv"
    row = ",".join(["1.0"] * 30 + ["0"])
    schema.write_text(",".join(TRANSACTION_SCHEMA) + "\n" + row + "\n", encoding="utf-8-sig")
    ds = load_csv(str(schema), expect_schema=True)
    assert ds.n_features == 29
    assert ds.time is not None


def _spelling(rng: random.Random, value: int) -> str:
    """An integer in one of the spellings float() accepts."""
    if value >= 1000 and rng.random() < 0.3:
        return f"{value:_}"
    if value % 1000 == 0 and rng.random() < 0.3:
        return f"+{value // 1000}e3"
    return rng.choice(["", " "]) + str(value)


def _quoted(rng: random.Random, cell: str) -> tuple[str, str]:
    """The cell as written to the file, quoted at random, and as the csv module reads it."""
    roll = rng.random()
    if roll < 0.15:
        cell = rng.choice([f"{cell}\n", f"\n{cell}"])  # only quotes keep the newline
    if roll < 0.3:
        return f'"{cell}"', cell
    return cell, cell


def _generated_csv(rng: random.Random, fault: str | None):
    """A labelled CSV text with at most one planted fault, its table, and the expected error.

    The generator counts lines as it writes them, so the line an error must
    name does not come from the reader under test.
    """
    names = [f"V{j}" for j in range(1, rng.randint(1, 4) + 1)] + ["Class"]
    if rng.random() < 0.5:
        names.append("Time")
    rng.shuffle(names)
    label = names.index("Class")
    cells = [
        [rng.choice([rng.randint(0, 9), 1000 * rng.randint(1, 50)]) for _ in names]
        for _ in range(rng.randint(1, 8))
    ]
    table = np.array(cells, dtype=np.float64)
    table[:, label] = [rng.randint(0, 1) for _ in cells]
    r = rng.randrange(len(table))
    c = label if fault == "label" else rng.randrange(len(names))
    bad = {"non_numeric": "x7", "inf": "inf", "label": "3"}
    records = [list(names)] + [[_spelling(rng, int(v)) for v in row] for row in table]
    if fault == "short":
        del records[r + 1][-1]
    elif fault is not None:
        records[r + 1][c] = bad[fault]
    text, line, message = "", 1, None
    for i, record in enumerate(records):
        written, read = zip(*(_quoted(rng, cell) for cell in record))
        if i == r + 1 and fault is not None:
            cell = read[c] if fault == "non_numeric" else None  # the planted cell as read back
            message = f"line {line}: " + {
                "short": f"expected {len(names)} columns, got {len(names) - 1}",
                "non_numeric": f"column {names[c]!r} has non-numeric value {cell!r}",
                "inf": f"column {names[c]!r} has non-finite value 'inf'",
                "label": "label 3.0 is not 0 or 1",
            }[fault]
        text += ",".join(written) + "\n"
        line = text.count("\n") + 1
    return names, table, text, message


def test_load_csv_property(tmp_path) -> None:
    """Generated files load to the written table, or fail naming the planted fault's line."""
    path = tmp_path / "generated.csv"
    for seed in range(300):
        rng = random.Random(seed)
        fault = rng.choice([None, "short", "non_numeric", "inf", "label"])
        names, table, text, message = _generated_csv(rng, fault)
        path.write_text(text, encoding=rng.choice(["utf-8", "utf-8-sig"]))
        if message is not None:
            with pytest.raises(ValueError, match=re.escape(f"generated.csv: {message}")):
                load_csv(str(path))
            continue
        ds = load_csv(str(path))
        features = [j for j, name in enumerate(names) if name not in ("Class", "Time")]
        assert ds.feature_names == tuple(names[j] for j in features)
        np.testing.assert_array_equal(ds.features, table[:, features])
        np.testing.assert_array_equal(ds.labels, table[:, names.index("Class")])
        if "Time" in names:
            np.testing.assert_array_equal(ds.time, table[:, names.index("Time")])
        else:
            assert ds.time is None


def test_csv_round_trip_is_exact(tmp_path) -> None:
    rng = np.random.default_rng(42)
    ds = make_dataset(rng.standard_normal((20, 3)), rng.integers(0, 2, 20), time=rng.uniform(0, 100, 20))
    path = tmp_path / "round.csv"
    save_csv(ds, str(path))
    back = load_csv(str(path))
    np.testing.assert_array_equal(back.features, ds.features)
    np.testing.assert_array_equal(back.labels, ds.labels)
    np.testing.assert_array_equal(back.time, ds.time)
    assert back.feature_names == ds.feature_names


# ---------------------------------------------------------------------------
# feature expansion
# ---------------------------------------------------------------------------


def test_expand_degree_one_is_identity() -> None:
    ds = make_dataset([[1.0, 2.0]], [0])
    assert expand_features(ds, 1) is ds


def test_expand_degree_two_counts_and_names() -> None:
    ds = make_dataset(np.ones((2, 4)), [0, 1])
    out = expand_features(ds, 2)
    assert out.n_features == 4 + 10
    assert out.feature_names[:4] == ("V1", "V2", "V3", "V4")
    assert out.feature_names[4:7] == ("V1*V1", "V1*V2", "V1*V3")
    assert out.feature_names[-1] == "V4*V4"

    wide = make_dataset(np.ones((1, 30)), [0])
    assert expand_features(wide, 2).n_features == 495


def test_expand_degree_two_values() -> None:
    ds = make_dataset([[2.0, 3.0]], [1])
    out = expand_features(ds, 2)
    np.testing.assert_array_equal(out.features, [[2.0, 3.0, 4.0, 6.0, 9.0]])


def test_expand_rejects_other_degrees() -> None:
    ds = make_dataset([[1.0]], [0])
    with pytest.raises(ValueError, match="degree must be 1 or 2"):
        expand_features(ds, 3)
