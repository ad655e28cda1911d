"""Benchmark designs, dataset generation, and the experiment grid."""

import concurrent.futures
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from bayenet import simulate
from bayenet.kernels import run_chain
from bayenet.model import RegressionData, make_prior
from bayenet.rng import RngStream
from bayenet.simulate import (
    RESULT_COLUMNS,
    _chain_stream,
    data_stream,
    design,
    generate_dataset,
    read_dataset_csv,
    run_cell,
    run_experiment,
    write_csv,
)

from helpers import csv_cell_by_cell, write_dataset_csv


def test_design_shapes_and_signals():
    d1 = design(1)
    assert (d1.n, d1.p) == (20, 8)
    assert d1.sigma_true == 3.0
    np.testing.assert_allclose(
        d1.beta_true, [3.0, 1.5, 0.0, 0.0, 2.0, 0.0, 0.0, 0.0])

    d2 = design(2)
    assert np.all(d2.beta_true == 0.85)

    d3 = design(3)
    assert (d3.n, d3.p, d3.sigma_true) == (100, 40, 15.0)
    assert d3.beta_true[[0, 9, 20, 29]].tolist() == [2.0] * 4
    assert d3.beta_true[[10, 19, 30, 39]].tolist() == [0.0] * 4

    d4 = design(4)
    assert d4.sigma_true == 15.0
    assert np.all(d4.beta_true[:15] == 3.0)
    assert np.all(d4.beta_true[15:] == 0.0)


def test_design_covariances():
    V1 = design(1).covariance
    # geometric decay along the band
    assert V1[0, 1] == 0.5
    assert V1[0, 7] == 0.5 ** 7 == 0.0078125
    np.testing.assert_allclose(V1, V1.T)

    V3 = design(3).covariance
    assert np.all(np.diag(V3) == 1.0)
    off = V3[~np.eye(40, dtype=bool)]
    assert np.all(off == 0.5)

    V4 = design(4).covariance
    assert V4[0, 0] == 1.01
    assert V4[0, 4] == 1.0
    assert V4[0, 5] == 0.0
    assert V4[6, 9] == 1.0
    assert V4[14, 10] == 1.0
    # the zero-coefficient tail is uncorrelated
    np.testing.assert_array_equal(V4[15:, 15:], np.eye(25))
    # nearly collinear blocks: smallest eigenvalue is 1.01 - 1
    w = np.linalg.eigvalsh(V4)
    assert w.min() == pytest.approx(0.01, rel=1e-9)


def test_design_rejects_unknown_id():
    with pytest.raises(ValueError, match="1..4"):
        design(5)
    with pytest.raises(ValueError, match="1..4"):
        design("one")


def test_generate_dataset_moments():
    # large synthetic draw reproduces the design covariance and noise level
    dsg = design(1)
    big = replace(dsg, n=40000)
    y, X = generate_dataset(big, RngStream(7, 0))
    C = np.cov(X, rowvar=False)
    assert abs(C[0, 1] - 0.5) < 0.02
    assert abs(C[3, 3] - 1.0) < 0.03
    resid = y - X @ dsg.beta_true
    assert abs(resid.std() - dsg.sigma_true) < 0.05
    assert abs(resid.mean()) < 0.05


def test_generate_dataset_block_design_correlation():
    dsg = design(4)
    big = replace(dsg, n=20000)
    _, X = generate_dataset(big, RngStream(11, 3))
    C = np.corrcoef(X, rowvar=False)
    # within-block correlation 1/1.01, across blocks ~0
    assert abs(C[0, 1] - 1.0 / 1.01) < 0.005
    assert abs(C[5, 6] - 1.0 / 1.01) < 0.005
    assert abs(C[0, 5]) < 0.03
    assert abs(C[0, 20]) < 0.03


# the cells a float row template must render exactly as format_cell does
_EDGE_FLOATS = [np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324,
                2.2250738585072009e-308, 1.8e308, -1.8e308,
                1.7976931348623157e308, 0.1, 1e16, 123456789.0]


def _edge_table(shape):
    return np.resize(np.array(_EDGE_FLOATS), shape)


@settings(max_examples=200, deadline=None)
@given(table=hnp.arrays(
    np.float64,
    hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=6),
    elements=st.one_of(st.sampled_from(_EDGE_FLOATS),
                       st.floats(width=64))),
       quoted=st.booleans())
@example(table=_edge_table((7, 2)), quoted=True)
@example(table=_edge_table((14, 1)), quoted=False)
@example(table=_edge_table((0, 3)), quoted=True)
@example(table=_edge_table((0, 1)), quoted=False)
@example(table=_edge_table((3, 0)), quoted=False)
def test_float_table_writes_the_bytes_of_format_cell(tmp_path_factory,
                                                     table, quoted):
    header = [f"c{j}" for j in range(table.shape[1])]
    if quoted and header:
        header[0] = 'a "b",c'
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    write_csv(path, header, table)
    assert path.read_bytes() == csv_cell_by_cell(header, table.tolist())


def test_dataset_csv_round_trip(tmp_path):
    y, X = generate_dataset(design(1), RngStream(3, 1))
    path = tmp_path / "d.csv"
    write_dataset_csv(path, y, X)
    y2, X2 = read_dataset_csv(path)
    np.testing.assert_array_equal(y, y2)
    np.testing.assert_array_equal(X, X2)


def test_dataset_csv_response_column_position(tmp_path):
    path = tmp_path / "odd.csv"
    path.write_text("x1,y,x2\n1.0,2.0,3.0\n4.0,5.0,6.0\n")
    y, X = read_dataset_csv(path)
    np.testing.assert_array_equal(y, [2.0, 5.0])
    np.testing.assert_array_equal(X, [[1.0, 3.0], [4.0, 6.0]])


def test_dataset_csv_rejects_bad_files(tmp_path):
    no_y = tmp_path / "a.csv"
    no_y.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError, match="'y' column"):
        read_dataset_csv(no_y)

    bad_cell = tmp_path / "b.csv"
    bad_cell.write_text("y,x1\n1.0,oops\n")
    with pytest.raises(ValueError, match="non-numeric"):
        read_dataset_csv(bad_cell)

    lone = tmp_path / "c.csv"
    lone.write_text("y\n1.0\n")
    with pytest.raises(ValueError, match="predictor"):
        read_dataset_csv(lone)

    nan_cell = tmp_path / "d.csv"
    nan_cell.write_text("x1,y\n1.0,2.0\n3.0,nan\n")
    with pytest.raises(ValueError) as err:
        read_dataset_csv(nan_cell)
    assert str(err.value) == f"{nan_cell}: non-finite value nan in row 2, y"

    # each refusal names its cause and the first bad row, counted from 1
    # after the header as above, blank lines skipped
    for name, text, message in [
            ("e.csv", "y,x1,x2\n1,2,3\n\n4,5\n6,7\n",
             "row 2 has 2 cells, the header 3"),
            ("f.csv", "y,x1\n1,2\n3,4,5\n",
             "row 2 has 3 cells, the header 2"),
            ("g.csv", "y,x1\n", "no data rows"),
            ("h.csv", "x1,y,x2\n1,2,3\n4,5,six\n",
             "non-numeric cell 'six' in row 2, predictor column 2"),
            ("i.csv", "x1,y\n1,\n", "non-numeric cell '' in row 1, y")]:
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(ValueError) as err:
            read_dataset_csv(path)
        assert str(err.value) == f"{path}: {message}"


def test_chain_stream_ids_are_pinned():
    # the ids are part of every simulate chain's seed, so reordering the
    # sampler or preset tables must fail here rather than move results
    labels = ("rs-common-direct", "rs-common-da", "rs-differential-direct",
              "rs-differential-da", "mh-common-direct", "mh-common-da",
              "mh-differential-direct", "mh-differential-da")
    for kind_id, label in enumerate(labels):
        for prior_id, prior_name in enumerate(("weak", "strong")):
            got = _chain_stream(5, 3, 2, label, prior_name).gen.random(4)
            want = RngStream(5, (1, 3, 2, kind_id, prior_id)).gen.random(4)
            np.testing.assert_array_equal(got, want)


def test_run_cell_smoke_and_determinism():
    a = run_cell(1, "rs-common-direct", "weak", 0, iters=120, burnin=20,
                 seed=19)
    b = run_cell(1, "rs-common-direct", "weak", 0, iters=120, burnin=20,
                 seed=19)
    assert a.error is None
    assert {row["parameter"] for row in a.summary} >= {
        "beta_1", "sigma2", "lambda1", "lambda2", "lambda_total",
        "alpha_share"}
    assert a.summary == b.summary

    c = run_cell(1, "rs-common-direct", "weak", 0, iters=120, burnin=20,
                 seed=20)
    ess = lambda cell: [row["ess"] for row in cell.summary]
    assert ess(c) != ess(a)


def test_run_cell_captures_failures():
    bad = run_cell(9, "rs-common-direct", "weak", 0, iters=50, burnin=5)
    assert bad.error is not None
    assert "ValueError" in bad.error
    assert bad.summary is None


def test_run_experiment_rows_and_improvement_join():
    rows, failures = run_experiment(
        design_ids=[1],
        sampler="rs-common-direct",
        prior_name="weak",
        replicates=2,
        iters=150,
        burnin=20,
        seed=5,
    )
    assert failures == []
    # the sampler and its twin x 2 replicates x (p + 3 + 4 derived)
    per_chain = 8 + 3 + 4
    assert len(rows) == 2 * 2 * per_chain

    rs_rows = [r for r in rows if r["sampler"] == "rs-common-direct"]
    mh_rows = [r for r in rows if r["sampler"] == "mh-common-direct"]
    assert all(r["pct_improvement"] is None for r in mh_rows)

    mh_ess = {(r["replicate"], r["parameter"]): r["ess"] for r in mh_rows}
    for r in rs_rows:
        base = mh_ess[(r["replicate"], r["parameter"])]
        want = (r["ess"] - base) / base * 100.0
        assert r["pct_improvement"] == pytest.approx(want, rel=1e-12)

    # MH rows carry scale acceptance rates, RS rows do not
    assert all(r["acceptance_rate"] is None for r in rs_rows)
    mh_sigma = [r for r in mh_rows if r["parameter"] == "sigma2"]
    assert all(0.0 < r["acceptance_rate"] < 1.0 for r in mh_sigma)

    # MH rows carry the steps run_chain froze after burn-in; the other
    # parameters' rows and every RS row leave mh_step empty
    assert all(r["mh_step"] is None for r in rs_rows)
    for rep in (0, 1):
        y, X = generate_dataset(design(1), data_stream(5, 1, rep))
        chain = run_chain(
            "mh", RegressionData(y, X),
            make_prior("common", "direct", preset="weak"),
            _chain_stream(5, 1, rep, "mh-common-direct", "weak"),
            iters=150, burnin=20)
        assert set(chain.mh_steps) == {"sigma2", "lambda1", "lambda2"}
        assert all(step != 1.0 for step in chain.mh_steps.values())
        assert {r["parameter"]: r["mh_step"] for r in mh_rows
                if r["replicate"] == rep} == {
            name: chain.mh_steps.get(name) for name in chain.parameter_names}


def test_run_experiment_rows_match_across_worker_counts():
    # every column but the measured wall time is reproducible
    grid = ([1], "rs-common-da", "weak", 2)
    serial, _ = run_experiment(*grid, iters=200, burnin=20, seed=4)
    pooled, _ = run_experiment(*grid, iters=200, burnin=20, seed=4,
                               workers=2)
    untimed = lambda rows: [{k: v for k, v in r.items() if k != "wall_ms"}
                            for r in rows]
    assert serial and untimed(pooled) == untimed(serial)


def test_run_experiment_pool_has_no_more_workers_than_cells(monkeypatch):
    sizes = []

    class InProcessPool:
        """Records its size and maps in this process: starts no worker."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        InProcessPool)
    # also where a module-level import would have bound it, so that no
    # real pool starts whichever way run_experiment imports it
    monkeypatch.setattr(simulate, "ProcessPoolExecutor", InProcessPool,
                        raising=False)
    two_cells = ([1], "rs-common-da", "weak", 1)
    pooled, _ = run_experiment(*two_cells, iters=100, burnin=0, seed=6,
                               workers=64)
    assert pooled and sizes == [2]
    # one cell runs in process, with no pool at all
    one_cell = ([1], "mh-common-da", "weak", 1)
    assert run_experiment(*one_cell, iters=100, burnin=0, seed=6,
                          workers=2)[0]
    assert sizes == [2]


def test_run_experiment_survives_failed_cell():
    rows, failures = run_experiment(
        design_ids=[1, 9],
        sampler="mh-common-direct",
        prior_name="weak",
        replicates=1,
        iters=120,
        burnin=10,
        seed=2,
    )
    assert len(failures) == 1
    assert failures[0].design_id == 9
    assert "ValueError" in failures[0].error
    # the good cell still produced its rows
    assert rows and {r["design"] for r in rows} == {1}


def test_run_experiment_refuses_unknown_sampler_before_any_cell(
        monkeypatch):
    ran = []
    monkeypatch.setattr(simulate, "run_cell",
                        lambda *args: ran.append(args))
    with pytest.raises(ValueError, match="sampler must be one of"):
        run_experiment([1], "rs-fancy-direct", "weak", 1, iters=120)
    assert ran == []


def test_metropolis_grid_runs_no_twin():
    rows, failures = run_experiment([1], "mh-differential-da", "weak", 2,
                                    iters=120, burnin=10, seed=3)
    assert failures == []
    assert rows and {r["sampler"] for r in rows} == {"mh-differential-da"}
    assert all(r["pct_improvement"] is None for r in rows)


def test_results_csv_format(tmp_path):
    rows, _ = run_experiment([1], "rs-common-direct", "weak", 1,
                             iters=120, burnin=10, seed=8)
    path = tmp_path / "res.csv"
    write_csv(path, RESULT_COLUMNS,
              ([row[k] for k in RESULT_COLUMNS] for row in rows))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == ",".join(RESULT_COLUMNS)
    assert len(lines) == len(rows) + 1
    # None renders as an empty field, floats round-trip exactly
    first = dict(zip(RESULT_COLUMNS, lines[1].split(",")))
    match = [r for r in rows
             if r["sampler"] == first["sampler"]
             and r["parameter"] == first["parameter"]][0]
    assert float(first["ess"]) == match["ess"]
    mh_line = [ln for ln in lines[1:] if ",mh-common-direct," in ln][0]
    assert mh_line.split(",")[RESULT_COLUMNS.index("pct_improvement")] == ""
