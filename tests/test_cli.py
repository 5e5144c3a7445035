import json
import math

import numpy as np
import pytest

from conftest import csv_writer_table
from gibbsdyn import classify, cli, mc_sim, paths, potential, tilted


@pytest.fixture()
def cosine_json(tmp_path):
    p = tmp_path / "cosine.json"
    p.write_text('{"family": "cosine_well", "params": {"beta": 1.0}}')
    return str(p)


@pytest.fixture()
def zero_json(tmp_path):
    p = tmp_path / "zero.json"
    p.write_text('{"family": "zero", "params": {}}')
    return str(p)


@pytest.fixture()
def doublewell_json(tmp_path):
    p = tmp_path / "dw.json"
    p.write_text('{"family": "polynomial", "params": {"coefficients": [3, 0, -4, 0, 1]}}')
    return str(p)


@pytest.fixture()
def glued_json(tmp_path):
    p = tmp_path / "glued.json"
    p.write_text('{"family": "glued_exp", "params": {"beta": 1.0}}')
    return str(p)


@pytest.fixture()
def abs_json(tmp_path):
    p = tmp_path / "abs.json"
    p.write_text('{"family": "abs", "params": {}}')
    return str(p)


def test_tc_report(cosine_json, tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.run(["tc", "--potential", cosine_json, "--out", str(out)]) == 0
    doc = json.loads((out / "tc.json").read_text())
    assert doc["results"]["beta"] == pytest.approx(1.0)
    assert doc["results"]["t_c"] == pytest.approx(2.0, abs=1e-6)
    assert doc["results"]["t_first_bad"] == pytest.approx(1.0, abs=1e-6)
    assert doc["results"]["gibbs_at_tc"] == "gibbs"
    assert doc["tool"]["name"] == "gibbs-dyn"
    assert "potential" in doc and "tolerances" in doc


def test_kernel_moments(zero_json, tmp_path):
    out = tmp_path / "out"
    rc = cli.run(
        ["kernel", "--potential", zero_json, "--n", "7", "--t", "1", "--alpha", "3", "--out", str(out)]
    )
    assert rc == 0
    doc = json.loads((out / "kernel.json").read_text())
    assert doc["results"]["mean"] == pytest.approx(0.0, abs=1e-10)
    assert doc["results"]["variance"] == pytest.approx(2.0, abs=1e-10)
    csv_text = (out / "kernel.csv").read_text()
    assert csv_text.startswith("x,density\n")
    assert "\r" not in csv_text


def test_bad_scan_contains_origin(doublewell_json, tmp_path):
    out = tmp_path / "out"
    rc = cli.run(
        ["bad-scan", "--potential", doublewell_json, "--t", "1", "--window=-3,3",
         "--grid", "301", "--out", str(out)]
    )
    assert rc == 0
    doc = json.loads((out / "bad_scan.json").read_text())
    assert any(lo - 1e-6 <= 0.0 <= hi + 1e-6 for lo, hi in doc["results"]["intervals"])
    assert doc["params"] == {"t": 1.0, "window": [-3.0, 3.0], "grid": 301}
    header = (out / "bad_scan.csv").read_text().splitlines()[0]
    assert header == "alpha,n_minimisers,q_min,q_max,value,indeterminate"
    assert doc["results"]["n_indeterminate_rows"] == 0


def test_bad_scan_flags_near_tie_rows(doublewell_json, tmp_path):
    # at t = 1 the double well's bad alpha 0 has contacts +-sqrt(1.5) with
    # value 0.75, so a row at alpha has the value gap |alpha| 2 sqrt(1.5):
    # rows 1.5e-9 and 3e-9 from it lie in the near-tie band (1e-9, 1e-8]
    out = tmp_path / "out"
    rc = cli.run(
        ["bad-scan", "--potential", doublewell_json, "--t", "1", "--window=-3e-9,3e-9",
         "--grid", "5", "--out", str(out)]
    )
    assert rc == 0
    doc = json.loads((out / "bad_scan.json").read_text())
    assert doc["results"]["n_indeterminate_rows"] == 4
    rows = [line.split(",") for line in (out / "bad_scan.csv").read_text().splitlines()[1:]]
    assert [(r[1], r[-1]) for r in rows] == [("1", "True")] * 2 + [("2", "False")] + [("1", "True")] * 2


def test_traj_writes_paths(doublewell_json, tmp_path):
    out = tmp_path / "out"
    rc = cli.run(
        ["traj", "--potential", doublewell_json, "--t", "1", "--alpha", "0", "--out", str(out)]
    )
    assert rc == 0
    doc = json.loads((out / "traj.json").read_text())
    assert doc["results"]["n_trajectories"] == 2
    assert (out / "traj_0.csv").exists() and (out / "traj_1.csv").exists()


def test_simulate_reports_ks(zero_json, tmp_path):
    out = tmp_path / "out"
    rc = cli.run(
        ["simulate", "--potential", zero_json, "--n", "16", "--t", "1", "--alpha", "0",
         "--replicas", "20000", "--seed", "11", "--out", str(out)]
    )
    assert rc == 0
    doc = json.loads((out / "simulate.json").read_text())
    assert doc["results"]["ks_vs_quadrature"]["ks_statistic"] < 0.05
    assert doc["params"]["seed"] == 11
    samples = (out / "samples.csv").read_text().splitlines()
    assert samples[0] == "x1"
    assert len(samples) - 1 == doc["results"]["accepted"]


def test_simulate_reports_the_dkw_floor(zero_json, tmp_path):
    out = tmp_path / "out"
    rc = cli.run(
        ["simulate", "--potential", zero_json, "--n", "16", "--t", "1", "--alpha", "0",
         "--replicas", "20000", "--seed", "11", "--out", str(out)]
    )
    assert rc == 0
    results = json.loads((out / "simulate.json").read_text())["results"]
    ks = results["ks_vs_quadrature"]
    assert ks["dkw_delta"] == 1e-6
    assert ks["dkw_floor"] == pytest.approx(math.sqrt(math.log(2e6) / (2 * results["accepted"])), rel=1e-15)
    assert ks["ks_statistic"] <= ks["dkw_floor"]


def test_simulate_reports_a_far_bins_log_acceptance(doublewell_json, tmp_path):
    # the double well's bin at alpha = 4 is hit with probability about
    # exp(-1413.7): acceptance_rate underflows to 0.0, its log does not
    out = tmp_path / "out"
    rc = cli.run(
        ["simulate", "--potential", doublewell_json, "--n", "64", "--t", "0.1", "--alpha", "4", "--binwidth", "0.005",
         "--replicas", "1000", "--out", str(out)]
    )
    assert rc == 0
    doc = json.loads((out / "simulate.json").read_text())
    assert doc["params"]["method"] == "exact" and doc["results"]["acceptance_rate"] == 0.0
    assert doc["results"]["log_acceptance_rate"] == pytest.approx(-1413.70, rel=0.0, abs=0.01)


def test_limitpot_and_oracle(doublewell_json, tmp_path):
    out = tmp_path / "out"
    assert cli.run(
        ["limitpot", "--potential", doublewell_json, "--t", "1", "--window=-2,2",
         "--grid", "21", "--out", str(out)]
    ) == 0
    rows = (out / "limitpot.csv").read_text().splitlines()
    assert rows[0] == "r,v_t"
    assert len(rows) == 22
    assert cli.run(
        ["oracle", "--potential", doublewell_json, "--beta", "3.5", "--out", str(out)]
    ) == 0
    doc = json.loads((out / "oracle.json").read_text())
    assert doc["results"]["agreement"] is True


def test_oracle_on_glued_exp_and_table_matches_library(glued_json, tmp_path, capsys):
    grid = np.linspace(-4.0, 4.0, 81)
    table = tmp_path / "table.json"
    table.write_text(json.dumps(
        {"family": "custom_table", "params": {"grid": grid.tolist(), "values": ((grid**2 - 16.0) ** 2 / 16.0).tolist()}}
    ))
    for path, window in ((glued_json, (-6.0, 6.0)), (str(table), (-4.0, 4.0))):
        for beta in (0.5, 3.0):
            argv = ["oracle", "--potential", path, "--beta", str(beta), f"--window={window[0]},{window[1]}"]
            assert cli.run([*argv, "--out", str(tmp_path / "out")]) == 0
            agreement = json.loads(capsys.readouterr().out)["agreement"]
            assert agreement is classify.equivalence_oracle(potential.from_json(path), beta, window, 201)


def test_limitpot_wide_window_of_fast_growing_potential(tmp_path, capsys):
    spec = tmp_path / "glued.json"
    spec.write_text('{"family": "glued_exp", "params": {"beta": 1.0}}')
    argv = ["limitpot", "--potential", str(spec), "--t", "0.3", "--window=-50,-40", "--grid", "3"]
    assert cli.run([*argv, "--out", str(tmp_path / "out")]) == 0
    vt_min = json.loads(capsys.readouterr().out)["vt_min"]
    assert vt_min == pytest.approx(1419.1389, abs=1e-3)


def test_exit_code_io_error(tmp_path):
    assert cli.run(["tc", "--potential", str(tmp_path / "missing.json"), "--out", str(tmp_path)]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.run(["tc", "--potential", str(bad), "--out", str(tmp_path)]) == 1


def test_spec_file_that_is_not_utf8_exits_1(tmp_path, capsys):
    # a UTF-16 byte-order mark is not valid UTF-8
    spec = tmp_path / "utf16.json"
    spec.write_bytes(b"\xff\xfe" + '{"family": "zero", "params": {}}'.encode("utf-16-le"))
    out = tmp_path / "out"
    assert cli.run(["tc", "--potential", str(spec), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("gibbs-dyn: cannot read potential spec")
    assert "Traceback" not in err
    assert not (out / "tc.json").exists()


def test_exit_code_domain_error(zero_json, tmp_path):
    rc = cli.run(
        ["eta", "--potential", zero_json, "--n", "5", "--t", "-1", "--alpha", "0",
         "--out", str(tmp_path)]
    )
    assert rc == 2


@pytest.mark.parametrize("argv", [
    ["bad-scan", "--t", "0.3", "--window=-1e200,1e200"],
    ["limitpot", "--t", "0.3", "--window=-1e200,1e200"],
    ["traj", "--t", "0.3", "--alpha", "1e300"],
])
def test_overflowing_truncation_window_exits_2(doublewell_json, tmp_path, capsys, recwarn, argv):
    # r^4 overflows at the tilt centers: one line naming t and the alphas,
    # and no numpy overflow warnings before it
    assert cli.run([*argv, "--potential", doublewell_json, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("gibbs-dyn: g_t overflows on the truncation window at t = 0.3")
    assert "alpha in [" in err[0]
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("beta", ["-1e308", "1e308"])
def test_oracle_with_an_overflowing_beta_exits_2(doublewell_json, tmp_path, capsys, recwarn, beta):
    # beta x^2 overflows on the grid: one line, no warnings, no agreement read
    # off inf and NaN hull arithmetic
    argv = ["oracle", "--potential", doublewell_json, f"--beta={beta}", "--window=-5,5", "--out", str(tmp_path)]
    assert cli.run(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("gibbs-dyn: f + beta x^2 is not finite")
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_kernel_at_a_vanishing_t_exits_2(doublewell_json, tmp_path, capsys):
    # the s-law's rows grow like t^(-1/2): at t = 1e-300 they would not fit
    # in memory; one line names t
    argv = ["kernel", "--potential", doublewell_json, "--n", "2", "--alpha", "0", "--t", "1e-300", "--out", str(tmp_path)]
    assert cli.run(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "trapezoid rows at t = 1e-300" in err[0]


def test_traj_on_a_table_starts_at_its_kink(tmp_path, capsys):
    # at t = 1, alpha = 0 the minimiser is the table's kink at the node 0: the
    # path starts there exactly
    spec = tmp_path / "table.json"
    spec.write_text(json.dumps(potential.custom_table([-4, -2, 0, 2, 4], [4, 1, 0, 1, 4]).to_json_dict()))
    out = tmp_path / "out"
    assert cli.run(["traj", "--potential", str(spec), "--t", "1", "--alpha", "0", "--out", str(out)]) == 0
    results = json.loads((out / "traj.json").read_text())["results"]
    assert results["starting_points"] == [0.0] and results["rates"] == [0.0]


def test_unknown_flags_rejected(zero_json, tmp_path):
    with pytest.raises(SystemExit):
        cli.run(["tc", "--potential", zero_json, "--out", str(tmp_path), "--frobnicate"])


def test_format_json_suppresses_csv(zero_json, tmp_path):
    out = tmp_path / "out"
    cli.run(
        ["kernel", "--potential", zero_json, "--n", "7", "--t", "1", "--alpha", "3",
         "--out", str(out), "--format", "json"]
    )
    assert (out / "kernel.json").exists()
    assert not (out / "kernel.csv").exists()


def test_tolerance_overrides_recorded(zero_json, tmp_path):
    out = tmp_path / "out"
    rc = cli.run(
        ["kernel", "--potential", zero_json, "--n", "7", "--t", "1", "--alpha", "3",
         "--quad-grid", "2048", "--eps-val-rel", "1e-8", "--out", str(out)]
    )
    assert rc == 0
    doc = json.loads((out / "kernel.json").read_text())
    assert doc["tolerances"] == {"eps_val_rel": 1e-8, "delta_cluster": 1e-6, "grid_n": 2048}
    # the evolved kernel's odd-point Simpson lattice is no coarser than 2049 nodes
    assert doc["results"]["grid_n"] >= 2049 and doc["results"]["grid_n"] % 2 == 1


def test_round_trip_reproducibility(cosine_json, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    cli.run(["tc", "--potential", cosine_json, "--out", str(out1)])
    cli.run(["tc", "--potential", cosine_json, "--out", str(out2)])
    assert (out1 / "tc.json").read_bytes() == (out2 / "tc.json").read_bytes()

    # rebuild the potential from the embedded spec and rerun: same numbers
    doc = json.loads((out1 / "tc.json").read_text())
    respec = tmp_path / "respec.json"
    respec.write_text(json.dumps(doc["potential"]))
    out3 = tmp_path / "c"
    cli.run(["tc", "--potential", str(respec), "--out", str(out3)])
    assert json.loads((out3 / "tc.json").read_text())["results"] == doc["results"]


# Each of these crashed with a traceback, or answered, before argparse and the
# library validated them.
MALFORMED = [
    pytest.param("doublewell_json", ["limitpot", "--t", "1", "--grid", "0"], id="limitpot-grid-0"),
    pytest.param("doublewell_json", ["oracle", "--beta", "1", "--grid", "2"], id="oracle-grid-2"),
    pytest.param("doublewell_json", ["bad-scan", "--t", "1", "--window=a,b"], id="bad-scan-window-a,b"),
    pytest.param("doublewell_json", ["limitpot", "--t", "1", "--window=-1,1,2"], id="limitpot-window-3-parts"),
    pytest.param("doublewell_json", ["oracle", "--beta", "1", "--window=1,-1"], id="oracle-window-reversed"),
    pytest.param("zero_json", ["simulate", "--n", "16", "--t", "1", "--alpha", "nan"], id="simulate-alpha-nan"),
    pytest.param("cosine_json", ["tc", "--eps-val-rel", "nan"], id="tc-eps-val-rel-nan"),
    pytest.param("doublewell_json", ["oracle", "--beta", "inf"], id="oracle-beta-inf"),
    pytest.param("doublewell_json", ["limitpot", "--t", "1e308", "--grid", "3", "--window=-1,1"], id="limitpot-t-1e308"),
    # options a command does not read are not registered for it
    pytest.param("doublewell_json", ["limitpot", "--t", "1", "--eps-val-rel", "1e-3"], id="limitpot-eps-val-rel"),
    pytest.param("doublewell_json", ["oracle", "--beta", "1", "--quad-grid", "64"], id="oracle-quad-grid"),
    pytest.param("cosine_json", ["tc", "--quad-grid", "64"], id="tc-quad-grid"),
    pytest.param("zero_json", ["kernel", "--n", "7", "--alpha", "0", "--truncation-mass", "1e-10"],
                 id="kernel-truncation-mass"),
    pytest.param(
        "doublewell_json",
        ["simulate", "--n", "16", "--t", "1", "--alpha", "0", "--replicas", "1000", "--binwidth", "inf"],
        id="simulate-binwidth-inf",
    ),
]


@pytest.mark.parametrize("spec, argv", MALFORMED)
def test_malformed_arguments_exit_2(spec, argv, request, tmp_path, capsys):
    path = request.getfixturevalue(spec)
    out = tmp_path / "out"
    try:
        rc = cli.run([argv[0], "--potential", path, *argv[1:], "--out", str(out)])
    except SystemExit as exc:
        rc = exc.code
    assert rc == 2
    assert "Traceback" not in capsys.readouterr().err
    assert not (out.exists() and any(out.iterdir()))  # no report for a rejected call


# Spec files that ended in an uncaught exception before the spec reader
# validated them.
MALFORMED_SPECS = [
    pytest.param("[1, 2]", id="list"),
    pytest.param('"zero"', id="string"),
    pytest.param('{"family": "polynomial", "params": {"coefficients": "abc"}}', id="coefficients-string"),
    pytest.param('{"family": "cosine_well", "params": {"beta": "x"}}', id="beta-string"),
    pytest.param('{"family": "polynomial", "params": {"coefficients": []}}', id="coefficients-empty"),
    pytest.param(
        '{"family": "custom_table", "params": {"grid": [-1, 0, 1], "values": [1, 0, 1], "smoothness": "bogus"}}',
        id="table-smoothness-bogus",
    ),
    pytest.param(
        '{"family": "custom_table", "params": {"grid": [-1, 0, 1], "values": [1, 0, 1], "smoothness": "C2_analytic"}}',
        id="table-smoothness-C2",
    ),
    # the smoothness tag is gone: a spec that still carries it, with a value
    # that once was valid, is rejected rather than read with another answer
    pytest.param(
        '{"family": "custom_table", "params": {"grid": [-1, 0, 1], "values": [1, 0, 1], "smoothness": "lsc_only"}}',
        id="table-smoothness-lsc",
    ),
    pytest.param(
        '{"family": "custom_table", "params": {"grid": [-1, 0, 1], "values": [1, 0, 1], "smoothness": "C1_only"}}',
        id="table-smoothness-C1",
    ),
    pytest.param(
        '{"family": "polynomial", "params": {"coefficients": [3, 0, -4, 0, 1], "normalise": true}}',
        id="unknown-key-normalise",
    ),
    pytest.param('{"family": "cosine_well", "params": {"beta": 1, "window_radius": 5}}', id="unknown-key-window-radius"),
    pytest.param('{"family": "polynomial", "params": {"coefficients": [5, 0, 1], "normalize": "false"}}',
                 id="normalize-string"),
    pytest.param('{"family": "polynomial", "params": {"coefficients": [NaN, 0, 1]}}', id="coefficients-nan"),
    pytest.param('{"family": "cosine_well", "params": {"beta": Infinity}}', id="cosine-beta-infinite"),
    pytest.param('{"family": "glued_exp", "params": {"beta": Infinity}}', id="glued-beta-infinite"),
    # float(true) is 1.0, so a JSON boolean used to build a spec
    pytest.param('{"family": "cosine_well", "params": {"beta": true}}', id="cosine-beta-true"),
    pytest.param('{"family": "glued_exp", "params": {"beta": true}}', id="glued-beta-true"),
    pytest.param('{"family": "polynomial", "params": {"coefficients": [true, 0, 1]}}', id="coefficients-true"),
    pytest.param('{"family": "custom_table", "params": {"grid": [-1, 0, true], "values": [1, 0, 1]}}',
                 id="table-grid-true"),
    pytest.param('{"family": "custom_table", "params": {"grid": [-1, 0, 1], "values": [true, false, true]}}',
                 id="table-values-true"),
]


@pytest.mark.parametrize("text", MALFORMED_SPECS)
def test_malformed_spec_files_exit_2(text, tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(text)
    out = tmp_path / "out"
    assert cli.run(["tc", "--potential", str(spec), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("gibbs-dyn: invalid potential spec") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not (out / "tc.json").exists()


EVERY_COMMAND = [
    ("cosine_json", ["tc"]),
    ("doublewell_json", ["bad-scan", "--t", "1", "--window=-3,3", "--grid", "31"]),
    ("zero_json", ["kernel", "--n", "7", "--t", "1", "--alpha", "3"]),
    ("zero_json", ["eta", "--n", "7", "--t", "1", "--alpha", "0"]),
    ("doublewell_json", ["traj", "--t", "1", "--alpha", "0", "--grid", "64"]),
    ("zero_json", ["simulate", "--n", "16", "--t", "1", "--alpha", "0", "--replicas", "20000"]),
    ("doublewell_json", ["limitpot", "--t", "1", "--window=-2,2", "--grid", "21"]),
    ("doublewell_json", ["oracle", "--beta", "3.5", "--grid", "51"]),
]


# the settings each command reads, as its report's tolerances block names them
READS = {
    "tc": {"eps_val_rel", "delta_cluster"},
    "bad-scan": {"eps_val_rel", "delta_cluster"},
    "kernel": {"eps_val_rel", "delta_cluster", "grid_n"},
    "eta": {"eps_val_rel", "delta_cluster", "grid_n"},
    "traj": {"eps_val_rel", "delta_cluster"},
    "simulate": {"eps_val_rel", "delta_cluster", "grid_n"},
    "limitpot": set(),
    "oracle": set(),
}


@pytest.mark.parametrize("spec, argv", EVERY_COMMAND, ids=[a[0] for _, a in EVERY_COMMAND])
def test_stdout_is_the_report_results(spec, argv, request, tmp_path, capsys):
    assert sorted(a[0] for _, a in EVERY_COMMAND) == sorted(cli._COMMANDS) == sorted(READS)
    path = request.getfixturevalue(spec)
    out = tmp_path / "out"
    assert cli.run([argv[0], "--potential", path, *argv[1:], "--out", str(out)]) == 0
    doc = json.loads((out / f"{argv[0].replace('-', '_')}.json").read_text())
    assert capsys.readouterr().out == json.dumps(doc["results"], sort_keys=True) + "\n"
    assert set(doc["tolerances"]) == READS[argv[0]]


# --- one minimisation per query ------------------------------------------------

@pytest.fixture()
def minimiser_calls(monkeypatch):
    """The (t, alpha) of every tilted.global_minimisers call, in order."""
    calls = []
    real = tilted.global_minimisers

    def counting(tr, *args, **kwargs):
        calls.append((float(tr.t), float(tr.alpha)))
        return real(tr, *args, **kwargs)

    monkeypatch.setattr(tilted, "global_minimisers", counting)
    return calls


def _run(argv, path, out):
    assert cli.run([argv[0], "--potential", path, *argv[1:], "--out", str(out)]) == 0


GLUED_TRAJ = ("glued_json", ["traj", "--t", "1", "--alpha", "0", "--grid", "64"])


@pytest.mark.parametrize("spec, argv", [*EVERY_COMMAND, GLUED_TRAJ],
                         ids=[a[0] for _, a in EVERY_COMMAND] + ["traj-glued-continuum"])
def test_no_command_minimises_the_same_query_twice(spec, argv, request, minimiser_calls, tmp_path):
    _run(argv, request.getfixturevalue(spec), tmp_path / "out")
    assert len(minimiser_calls) == len(set(minimiser_calls)), minimiser_calls


@pytest.mark.parametrize("spec, argv", [EVERY_COMMAND[4], GLUED_TRAJ], ids=["double-well", "glued-continuum"])
def test_traj_minimises_once_per_run(spec, argv, request, minimiser_calls, tmp_path, capsys):
    # a second identical run minimises again: nothing is cached across calls
    path = request.getfixturevalue(spec)
    query = (float(argv[2]), float(argv[4]))
    _run(argv, path, tmp_path / "first")
    assert minimiser_calls == [query]
    _run(argv, path, tmp_path / "second")
    assert minimiser_calls == [query, query]
    first, second = capsys.readouterr().out.splitlines()
    assert first == second


@pytest.mark.parametrize("spec, t, alpha, n_paths", [
    ("doublewell_json", 1.0, 0.0, 2),
    ("doublewell_json", 1.0, 0.7, 1),
    ("glued_json", 1.0, 0.0, 5),
    ("abs_json", 2.0, 1.27, 1),
], ids=["double-well-bad", "double-well-good", "glued-continuum", "abs-t2"])
def test_traj_rates_are_path_rates(spec, t, alpha, n_paths, request, tmp_path, capsys):
    path = request.getfixturevalue(spec)
    _run(["traj", "--t", repr(t), "--alpha", repr(alpha), "--grid", "64"], path, tmp_path / "out")
    results = json.loads(capsys.readouterr().out)
    spec = potential.from_json(path)
    trajectories = paths.minimising_trajectories(spec, t, alpha, grid_n=64)
    assert results["n_trajectories"] == len(trajectories) == n_paths
    assert results["starting_points"] == [p.start for p in trajectories]
    assert results["rates"] == [paths.path_rate(spec, t, alpha, p) for p in trajectories]  # bit for bit


def test_negative_values_in_scientific_notation(zero_json, doublewell_json, tmp_path, capsys):
    reports, stdouts = [], []
    for i, alpha in enumerate((["--alpha", "-1e-3"], ["--alpha=-1e-3"])):
        out = tmp_path / str(i)
        argv = ["kernel", "--potential", zero_json, "--n", "7", "--t", "1", *alpha, "--out", str(out)]
        assert cli.run(argv) == 0
        reports.append((out / "kernel.json").read_bytes())
        stdouts.append(capsys.readouterr().out)
    assert reports[0] == reports[1]
    assert stdouts[0] == stdouts[1]
    assert json.loads(reports[0])["params"]["alpha"] == -1e-3

    out = tmp_path / "scan"
    argv = ["bad-scan", "--potential", doublewell_json, "--t", "0.1", "--window=-5,5", "--grid", "11", "--out", str(out)]
    assert cli.run(argv) == 0
    assert json.loads((out / "bad_scan.json").read_text())["params"]["window"] == [-5.0, 5.0]


def test_tc_inconclusive_exits_2(tmp_path, capsys):
    # (r+3)^3 on [-3, 3]: the table's curvature decreases all the way to its edge
    rs = np.linspace(-3, 3, 2001)
    spec = tmp_path / "cube.json"
    spec.write_text(json.dumps(potential.custom_table(rs, (rs + 3.0) ** 3).to_json_dict()))
    out = tmp_path / "out"
    assert cli.run(["tc", "--potential", str(spec), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "table edge" in err and "Traceback" not in err
    assert not (out / "tc.json").exists()


# --- CSV tables ---------------------------------------------------------------

B = cli.CSV_BLOCK_ROWS
SPECIAL_FLOATS = [-0.0, math.inf, -math.inf, math.nan, 5e-324, 1e16, 1e-5, 0.1 + 0.2]


@pytest.mark.parametrize("n_cols", [1, 2, 5])
@pytest.mark.parametrize("n_rows", [0, 1, B - 1, B, B + 1, 2 * B + 1])
def test_csv_columns_match_csv_writer(n_rows, n_cols, tmp_path):
    rng = np.random.default_rng(1000 * n_cols + n_rows)
    columns = [rng.standard_normal(n_rows) * 10.0 ** rng.integers(-300, 300, n_rows) for _ in range(n_cols)]
    for k, col in enumerate(columns):
        col[k::3] = np.resize(SPECIAL_FLOATS, col[k::3].size)
    if n_cols > 1:
        columns[1] = rng.integers(1, 3, n_rows)  # an int column, as bad-scan's n_minimisers
    if n_cols == 5:
        columns = [c.tolist() for c in columns]  # sequences, as bad-scan passes them
    header = ["alpha", "n_minimisers", "q_min", "q_max", "value"][:n_cols]
    rows = zip(*(np.asarray(c).tolist() for c in columns))
    csv_writer_table(tmp_path / "want.csv", header, rows)
    cli._write_csv(tmp_path / "got.csv", header, columns)
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


# --- in-process reuse ----------------------------------------------------------

REUSE_SEQUENCE = [
    ("zero_json", ["kernel", "--n", "7", "--t", "1", "--alpha", "3"]),
    ("zero_json", ["simulate", "--n", "16", "--t", "1", "--alpha", "0", "--replicas", "20000", "--method", "exact"]),
    ("zero_json", ["simulate", "--n", "16", "--t", "1", "--alpha", "0", "--replicas", "20000"]),
    ("doublewell_json", ["bad-scan", "--t", "1", "--window=-3,3", "--grid", "31"]),
    ("doublewell_json", ["traj", "--t", "1", "--alpha", "0", "--grid", "64"]),
    ("cosine_json", ["tc"]),
]


def test_repeated_commands_in_one_process_are_identical(request, tmp_path, capsys):
    def run_sequence(name, order):
        outputs = {}
        for i in order:
            spec, argv = REUSE_SEQUENCE[i]
            out = tmp_path / name / str(i)
            assert cli.run([argv[0], "--potential", request.getfixturevalue(spec), *argv[1:], "--out", str(out)]) == 0
            files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
            outputs[i] = (capsys.readouterr().out, files)
        return outputs

    order = range(len(REUSE_SEQUENCE))
    first = run_sequence("first", order)
    assert run_sequence("second", order) == first
    assert run_sequence("reversed", reversed(order)) == first

    methods = [json.loads(first[i][1]["simulate.json"])["params"]["method"] for i in (1, 2)]
    config = mc_sim.SimConfig(n=16, t=1.0, alpha_target=0.0, replicas=20000, seed=0, bin_halfwidth=0.05)
    ran = mc_sim.evolve_and_condition(config, potential.zero()).method
    assert methods == [mc_sim.METHOD_EXACT, ran]
    assert ran != mc_sim.METHOD_AUTO


def test_malformed_arguments_between_good_runs(zero_json, tmp_path, capsys):
    good = ["kernel", "--potential", zero_json, "--n", "7", "--t", "1", "--alpha", "3", "--out"]
    assert cli.run([*good, str(tmp_path / "a")]) == 0
    before = capsys.readouterr().out
    for bad in (["--n", "7", "--t", "1", "--alpha", "nan"], ["--n", "7", "--t", "1"], ["--n", "7", "--frobnicate"]):
        with pytest.raises(SystemExit) as exc:
            cli.run(["kernel", "--potential", zero_json, *bad, "--out", str(tmp_path / "bad")])
        assert exc.value.code == 2
    assert not (tmp_path / "bad").exists()
    capsys.readouterr()
    assert cli.run([*good, str(tmp_path / "b")]) == 0
    assert capsys.readouterr().out == before
    for name in ("kernel.json", "kernel.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    assert cli.build_parser() is cli.build_parser()
