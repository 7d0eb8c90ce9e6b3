"""End-to-end command-line behavior: validation, artifacts, determinism."""

import json
import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from genbound import cli
from genbound.network import init_gaussian
from genbound.training import estimate_c_f, max_feasible_eta

from oracles import write_trajectory_csv_per_cell


def _base_config(**overrides):
    doc = {
        "network": {
            "input_dim": 3,
            "fc_widths": [8],
            "output_width": 8,
            "norm_exponent": 0.5,
        },
        "train": {"algorithm": "GD", "eta": 0.05, "total_steps": 25},
        "data": {"source": "synthetic", "kind": "regression", "n_train": 48, "n_test": 24, "seed": 0},
        "bound": {"lam": 0.5, "delta": 0.05},
        "seeds": [0],
    }
    for key, value in overrides.items():
        if isinstance(value, dict) and key in doc:
            doc[key].update(value)
        else:
            doc[key] = value
    return doc


def _write(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc, indent=2))
    return str(path)


def _read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_unknown_key_rejected(tmp_path, capsys):
    doc = _base_config()
    doc["train"]["learning_rate"] = 0.1
    code = cli.main(["train", "--config", _write(tmp_path, doc), "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert "learning_rate" in err and "train" in err


@pytest.mark.parametrize("c_y", [7.0, 0.5])
def test_c_y_rejected_for_synthetic_regression(tmp_path, capsys, c_y):
    # synthetic regression targets fix c_y, so the key would do nothing
    doc = _base_config(data={"c_y": c_y})
    out = tmp_path / "o"
    assert cli.main(["train", "--config", _write(tmp_path, doc), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "config error: unknown key 'c_y' in section 'data'\n"
    assert not out.exists()
    # classification and IDX data keep the key, and range-check it
    classification = _write(tmp_path, _base_config(data={"kind": "classification", "c_y": c_y}))
    if c_y <= 1.0:
        assert cli.load_config(classification).data.c_y == c_y
    else:
        with pytest.raises(cli.ConfigError, match=r"key 'c_y': expected a number in \(0, 1\]"):
            cli.load_config(classification)


def test_unknown_top_level_key_rejected(tmp_path, capsys):
    doc = _base_config()
    doc["trainer"] = {}
    code = cli.main(["train", "--config", _write(tmp_path, doc), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "trainer" in capsys.readouterr().err


def test_malformed_json_reports_line(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{\n  "network": {,}\n}\n')
    code = cli.main(["train", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 2
    assert ":2:" in capsys.readouterr().err


def test_invalid_network_rejected(tmp_path, capsys):
    doc = _base_config(network={"input_dim": 13, "conv_kernels": [3], "fc_widths": [3], "output_width": 3, "norm_exponent": 0.5})
    code = cli.main(["train", "--config", _write(tmp_path, doc), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_train_writes_artifacts(tmp_path):
    out = tmp_path / "run"
    code = cli.main(["train", "--config", _write(tmp_path, _base_config()), "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["algorithm"] == "GD"
    assert report["bound"] > 0
    assert report["diverged"] == [False]
    lines = (out / "trajectory.csv").read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header[:6] == ["t", "eta_t", "Ln_train", "Ln_test", "psi", "CL"]
    assert header[-1] == "bound_prefix"
    assert len(lines) == 1 + 26
    last = lines[-1].split(",")
    assert float(last[header.index("bound_prefix")]) == pytest.approx(report["bound"])
    assert float(last[header.index("CL")]) == pytest.approx(report["cl"])


def test_train_rerun_byte_identical(tmp_path):
    cfg = _write(tmp_path, _base_config(seeds=[0, 1]))
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["train", "--config", cfg, "--out", str(a)]) == 0
    assert cli.main(["train", "--config", cfg, "--out", str(b)]) == 0
    for name in ("trajectory.csv", "trajectory_seed1.csv", "report.json"):
        assert _read_bytes(a / name) == _read_bytes(b / name), name


def _tree_bytes(root):
    """Every file under root, keyed by its path relative to root."""
    out = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            out[os.path.relpath(path, root)] = _read_bytes(path)
    return out


def test_sweep_rerun_byte_identical(tmp_path):
    doc = _base_config(
        train={"algorithm": "SGD", "eta": 0.5, "alpha": 0.9, "batch": 8, "total_steps": 30},
        data={"kind": "classification", "c_y": 0.25, "n_test": 0},
        sweep={"axis": "noise", "values": [0.0, 0.5]},
        seeds=[0, 1],
    )
    cfg = _write(tmp_path, doc)
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["sweep", "--config", cfg, "--out", str(a)]) == 0
    assert cli.main(["sweep", "--config", cfg, "--out", str(b)]) == 0
    files = _tree_bytes(a)
    assert set(files) == {
        "sweep.csv",
        *(os.path.join(f"noise_{v}", name) for v in (0.0, 0.5) for name in ("trajectory.csv", "report.json")),
    }
    assert files == _tree_bytes(b)


def test_compare_rerun_byte_identical(tmp_path):
    doc = _base_config(
        train={"algorithm": "SGLD", "eta": 0.05, "total_steps": 30, "beta": 100.0},
        compare={"betas": [10, 1000], "loss_bound": 0.25, "lip": 1.0},
    )
    cfg = _write(tmp_path, doc)
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["compare", "--config", cfg, "--out", str(a)]) == 0
    assert cli.main(["compare", "--config", cfg, "--out", str(b)]) == 0
    assert _tree_bytes(a) == _tree_bytes(b) != {}


def test_train_seed_override(tmp_path):
    cfg = _write(tmp_path, _base_config(seeds=[0]))
    out = tmp_path / "s5"
    assert cli.main(["train", "--config", cfg, "--seed", "5", "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["seeds"] == [5]


def test_train_eta_auto(tmp_path):
    doc = _base_config(
        train={"algorithm": "GD", "eta": "auto", "alpha": 1.0, "total_steps": 10, "kappa": 2.0},
        seeds=[0, 1],
    )
    cfg = _write(tmp_path, doc)
    out = tmp_path / "auto"
    assert cli.main(["train", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    # each seed's rate: max_feasible_eta at that seed's initialization and c_f
    config = cli.load_config(cfg)
    ds, _ = cli.build_datasets(config)
    want = []
    for seed in (0, 1):
        train_cfg = replace(config.train, seed=seed)
        params0 = init_gaussian(config.spec, train_cfg.kappa, seed)
        c_f = estimate_c_f(params0, ds.inputs)
        want.append(max_feasible_eta(params0.norms(), config.spec, train_cfg, c_f, ds.c_y))
    assert report["eta_resolved"] == want
    assert want[0] != want[1] and min(want) > 0


def test_train_gf_float_times(tmp_path):
    doc = _base_config(train={"algorithm": "GF", "eta": 0.1, "duration": 0.05, "gf_substep": 0.005})
    out = tmp_path / "gf"
    assert cli.main(["train", "--config", _write(tmp_path, doc), "--out", str(out)]) == 0
    lines = (out / "trajectory.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 11
    t_last = float(lines[-1].split(",")[0])
    assert t_last == pytest.approx(0.05)


def test_train_svg_chart(tmp_path):
    doc = _base_config(svg=True)
    out = tmp_path / "sv"
    assert cli.main(["train", "--config", _write(tmp_path, doc), "--out", str(out)]) == 0
    svg = (out / "chart.svg").read_text()
    assert svg.startswith("<svg") and "train loss" in svg


def _csv_column(path, name):
    lines = path.read_text().splitlines()
    i = lines[0].split(",").index(name)
    return [float(line.split(",")[i]) for line in lines[1:] if not line.startswith("#")]


@pytest.mark.parametrize(
    "train_section",
    [
        {"algorithm": "GD", "eta": 0.05, "total_steps": 25},
        {"algorithm": "SGD", "eta": 0.05, "batch": 8, "total_steps": 25},
        {"algorithm": "SGLD", "eta": 0.05, "beta": 100.0, "total_steps": 25},
        {"algorithm": "GF", "eta": 0.1, "duration": 0.05, "gf_substep": 0.005},
    ],
    ids=lambda section: section["algorithm"],
)
def test_bound_recompute_matches_train(tmp_path, train_section):
    doc = _base_config(train=train_section)
    cfg = _write(tmp_path, doc)
    out = tmp_path / "run"
    assert cli.main(["train", "--config", cfg, "--out", str(out)]) == 0
    report_path = tmp_path / "recomputed.json"
    assert cli.main([
        "bound", "--config", cfg, "--trajectory", str(out / "trajectory.csv"), "--out", str(report_path)
    ]) == 0
    original = json.loads((out / "report.json").read_text())
    recomputed = json.loads(report_path.read_text())
    assert recomputed["bound"] == original["bound"]
    assert recomputed["cl"] == original["cl"]
    assert recomputed["init_sq_norms"] == original["init_sq_norms"]
    # the report's CL is the last row of the CSV's CL column, also for gradient flow
    assert _csv_column(out / "trajectory.csv", "CL")[-1] == original["cl"]
    config = cli.load_config(cfg)
    traj, logged = cli.read_trajectory_csv(str(out / "trajectory.csv"), config)
    _, series = cli._assemble(config, traj)
    # the reader derives psi and CL from the losses and returns the logged columns by name
    for name, derived in (("psi", traj.psi), ("CL", traj.cl), ("bound_prefix", series)):
        assert derived.tolist() == logged[name].tolist() == _csv_column(out / "trajectory.csv", name)


@pytest.mark.parametrize(
    "train_section",
    [
        {"algorithm": "GD", "eta": 1e5, "total_steps": 400, "kappa": 4.0},
        # 2*eta overflows, so the noise and the parameters turn infinite
        {"algorithm": "SGLD", "eta": 1e308, "beta": 10.0, "total_steps": 50, "kappa": 4.0},
        # the initial loss is already past the cap: a one-row trajectory
        {"algorithm": "GF", "eta": 0.1, "duration": 0.05, "gf_substep": 0.005, "kappa": 1e4},
    ],
    ids=lambda section: section["algorithm"],
)
def test_diverged_run_flags_train_and_bound(tmp_path, capsys, train_section):
    doc = _base_config(
        network={"input_dim": 3, "fc_widths": [16, 16], "output_width": 16, "norm_exponent": 0.0},
        train=train_section,
        data={"n_train": 16, "n_test": 0},
    )
    cfg = _write(tmp_path, doc)
    out = tmp_path / "run"
    report_path = tmp_path / "recomputed.json"
    with np.errstate(all="ignore"):
        assert cli.main(["train", "--config", cfg, "--out", str(out)]) == 1
        capsys.readouterr()
        code = cli.main([
            "bound", "--config", cfg, "--trajectory", str(out / "trajectory.csv"), "--out", str(report_path)
        ])
    marker = (out / "trajectory.csv").read_text().splitlines()[-1]
    assert marker.startswith("# diverged at step ")
    step = int(marker.rsplit(" ", 1)[1])
    assert code == 1
    assert f"trajectory diverged at step {step}" in capsys.readouterr().err
    assert json.loads(report_path.read_text())["cl"] == json.loads((out / "report.json").read_text())["cl"]


@pytest.mark.parametrize(
    "train_section, n_test",
    [
        ({"algorithm": "GD", "eta": 0.05, "total_steps": 25}, 24),
        ({"algorithm": "GF", "eta": 0.1, "duration": 0.05, "gf_substep": 0.005}, 24),
        ({"algorithm": "SGD", "eta": 0.05, "batch": 8, "total_steps": 25}, 0),
        # 2*eta overflows: the run diverges at step 1 with infinite norms
        ({"algorithm": "SGLD", "eta": 1e308, "beta": 10.0, "total_steps": 50, "kappa": 4.0}, 0),
    ],
    ids=["GD", "GF", "SGD-no-test-set", "SGLD-diverged"],
)
def test_trajectory_csv_matches_per_cell_writer(tmp_path, train_section, n_test):
    config = cli.load_config(_write(tmp_path, _base_config(train=train_section, data={"n_test": n_test})))
    ds, ds_test = cli.build_datasets(config)
    with np.errstate(all="ignore"):
        result = cli.run_one(config, ds, ds_test, 0)
        _, series = cli._assemble(config, result.trajectory)
    cli.write_trajectory_csv(result.trajectory, series, str(tmp_path / "by_column.csv"))
    write_trajectory_csv_per_cell(result.trajectory, series, str(tmp_path / "by_cell.csv"))
    got = _read_bytes(tmp_path / "by_column.csv")
    assert got == _read_bytes(tmp_path / "by_cell.csv")
    assert (b",nan," in got) == (n_test == 0)
    diverged = result.trajectory.diverged_at is not None
    assert diverged == (train_section["algorithm"] == "SGLD")
    assert got.endswith(b"# diverged at step 1\n") == diverged


def _fc_network(widths):
    return {"input_dim": 3, "fc_widths": widths, "output_width": widths[-1], "norm_exponent": 0.5}


@pytest.mark.parametrize(
    "trained, read, edit",
    [
        ([8], [8, 8], None),
        ([8, 8], [8], None),
        ([8], [8], "header_only"),
        ([8], [8], "CL"),
        ([8], [8], "bound_prefix"),
    ],
    ids=["deeper_config", "shallower_config", "header_only", "renamed_column", "renamed_bound_prefix"],
)
def test_bound_rejects_csv_that_does_not_fit_config(tmp_path, capsys, trained, read, edit):
    out = tmp_path / "run"
    cfg = _write(tmp_path, _base_config(network=_fc_network(trained)), "train.json")
    assert cli.main(["train", "--config", cfg, "--out", str(out)]) == 0
    csv = out / "trajectory.csv"
    lines = csv.read_text().splitlines(keepends=True)
    if edit == "header_only":
        csv.write_text(lines[0])
    elif edit is not None:
        csv.write_text("".join([lines[0].replace(f",{edit}", f",{edit}X")] + lines[1:]))
    capsys.readouterr()
    cfg = _write(tmp_path, _base_config(network=_fc_network(read)), "read.json")
    code = cli.main(["bound", "--config", cfg, "--trajectory", str(csv), "--out", str(tmp_path / "r.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(csv) in err
    if edit not in (None, "header_only"):
        assert err.rstrip().endswith(f"missing columns {edit}")
    assert not (tmp_path / "r.json").exists()


_CONFIGS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs")


def test_train_names_the_config_key_it_rejects(tmp_path, capsys):
    # the shipped SGLD config sets no train.beta, which only compare fills in
    out = tmp_path / "o"
    code = cli.main(["train", "--config", os.path.join(_CONFIGS, "compare_sgld.json"), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: section 'train' key 'beta': SGLD needs beta > 0")
    assert not out.exists()


@pytest.mark.parametrize(
    "train_section, key",
    [
        ({"algorithm": "GF", "eta": 0.1}, "duration"),
        ({"algorithm": "GF", "eta": 0.1, "duration": 0.05, "gf_substep": 0.0}, "gf_substep"),
        ({"eta": -0.1}, "eta"),
        ({"kappa": 0.0}, "kappa"),
    ],
    ids=lambda v: v if isinstance(v, str) else None,
)
def test_range_error_names_train_key(tmp_path, capsys, train_section, key):
    out = tmp_path / "o"
    cfg = _write(tmp_path, _base_config(train=train_section))
    assert cli.main(["train", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: section 'train' key '{key}': ")
    assert not out.exists()


@pytest.mark.parametrize(
    "data_section, key, expected",
    [
        ({"n_train": 0}, "n_train", "an integer >= 1, got 0"),
        ({"n_test": -3}, "n_test", "an integer >= 0, got -3"),
        ({"seed": -1}, "seed", "an integer >= 0, got -1"),
        ({"kind": "classification", "c_y": 0}, "c_y", "a number in (0, 1], got 0"),
        ({"kind": "classification", "c_y": 7}, "c_y", "a number in (0, 1], got 7"),
    ],
    ids=["n_train", "n_test", "seed", "c_y-0", "c_y-7"],
)
def test_range_error_names_data_key(tmp_path, capsys, data_section, key, expected):
    out = tmp_path / "o"
    cfg = _write(tmp_path, _base_config(data=data_section))
    assert cli.main(["train", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: section 'data' key '{key}': expected {expected}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--seed", "-1"],
        ["gen-data", "--kind", "regression", "--seed", "-1", "--out", "d.csv"],
        ["train", "--config", "cfg.json", "--seed", "-2"],
    ],
    ids=["verify", "gen-data", "train"],
)
def test_negative_seed_option_names_the_option(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main([str(tmp_path / a) if a.endswith((".csv", ".json")) else a for a in argv])
    assert exc.value.code == 2
    seed = argv[argv.index("--seed") + 1]
    assert f"error: argument --seed: expected an integer >= 0, got '{seed}'" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_negative_config_seed_names_the_key(tmp_path, capsys):
    out = tmp_path / "o"
    cfg = _write(tmp_path, _base_config(seeds=[0, -1]))
    assert cli.main(["train", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "config error: section '<top>' key 'seeds': expected a nonempty list of integers >= 0, got [0, -1]\n"
    assert not out.exists()


def test_bound_rejects_shipped_config_of_another_run(tmp_path, capsys):
    out = tmp_path / "toy"
    assert cli.main(["train", "--config", os.path.join(_CONFIGS, "toy_regression.json"), "--out", str(out)]) == 0
    capsys.readouterr()
    report_path = tmp_path / "r.json"
    # as shipped, the SGLD config sets no train.beta, which only compare fills in
    code = cli.main([
        "bound", "--config", os.path.join(_CONFIGS, "compare_sgld.json"),
        "--trajectory", str(out / "trajectory.csv"), "--out", str(report_path),
    ])
    assert code == 2
    assert capsys.readouterr().err.startswith("config error: section 'train' key 'beta': SGLD needs beta > 0")
    # with a beta it passes the range check and fails the recheck of the CSV
    with open(os.path.join(_CONFIGS, "compare_sgld.json")) as fh:
        doc = json.load(fh)
    doc["train"]["beta"] = 100.0
    code = cli.main([
        "bound", "--config", _write(tmp_path, doc),
        "--trajectory", str(out / "trajectory.csv"), "--out", str(report_path),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert "column bound_prefix differs from the config's bound at data row 0: CSV " in err
    assert "n, lam, delta, rho, the algorithm and the network" in err
    assert not report_path.exists()


@pytest.mark.parametrize(
    "bound_section, expected",
    [
        ({"lam": 0.7}, "section 'bound' key 'lam': lam must lie in (0, 1/sqrt(3))"),
        ({"epsilon": 1.5}, "section 'bound' key 'epsilon': epsilon must lie in (0, 1)"),
    ],
    ids=["lam", "epsilon"],
)
def test_bound_range_checks_the_run_before_reading_the_csv(tmp_path, capsys, bound_section, expected):
    # train's range check runs first, so no CSV is opened: lam's error names its key and epsilon is rejected
    report_path = tmp_path / "r.json"
    code = cli.main([
        "bound", "--config", _write(tmp_path, _base_config(bound=bound_section)),
        "--trajectory", str(tmp_path / "missing.csv"), "--out", str(report_path),
    ])
    assert code == 2
    assert capsys.readouterr().err == f"config error: {expected}\n"
    assert not report_path.exists()


@pytest.mark.parametrize(
    "trained, read",
    [
        ({}, {"bound": {"lam": 0.4}}),
        ({}, {"bound": {"delta": 0.1}}),
        ({}, {"data": {"n_train": 40}}),
        ({}, {"train": {"algorithm": "SGD", "batch": 8}}),  # rho 1 doubles both summands
        ({}, {"network": {"input_dim": 3, "fc_widths": [16], "output_width": 16, "norm_exponent": 0.5}}),
        ({"train": {"algorithm": "SGD", "batch": 8}}, {"train": {"algorithm": "SGD", "batch": 8}, "bound": {"rho": 2.0}}),
        ({}, None),  # the train config, with the CL cell of row 5 edited
    ],
    ids=["lam", "delta", "n_train", "algorithm", "network", "rho", "edited_CL"],
)
def test_bound_rejects_trajectory_its_config_does_not_reproduce(tmp_path, capsys, trained, read):
    out = tmp_path / "run"
    cfg = _write(tmp_path, _base_config(**trained), "train.json")
    assert cli.main(["train", "--config", cfg, "--out", str(out)]) == 0
    csv = out / "trajectory.csv"
    row = 0
    if read is None:
        row = 5
        lines = csv.read_text().splitlines(keepends=True)
        cells = lines[1 + row].split(",")
        cells[5] = repr(float(cells[5]) + 1.0)
        lines[1 + row] = ",".join(cells)
        csv.write_text("".join(lines))
    else:
        cfg = _write(tmp_path, _base_config(**{**trained, **read}), "read.json")
    capsys.readouterr()
    report_path = tmp_path / "r.json"
    code = cli.main(["bound", "--config", cfg, "--trajectory", str(csv), "--out", str(report_path)])
    assert code == 2
    err = capsys.readouterr().err
    # an edited CL cell breaks CL's own recurrence, which is checked before the bound
    column, what = ("bound_prefix", "bound") if read is not None else ("CL", "CL")
    assert err.startswith(f"error: {csv}: column {column} differs from the config's {what} at data row {row}: ")
    logged = _csv_column(csv, column)[row]
    assert f"CSV {logged!r}, config " in err
    assert not report_path.exists()


@pytest.mark.parametrize(
    "trained, read, edit, column, row",
    [
        ({}, {}, (3, 4), "psi", 3),  # the psi cell of row 3 edited
        ({}, {"train": {"loss_power": 4}}, None, "psi", 0),
        ({"data": {"kind": "classification"}}, {"data": {"c_y": 0.5}}, None, "psi", 0),
        ({}, {}, (5, 1), "CL", 6),  # the eta cell of row 5 edited: CL from row 6 on
        (
            {"train": {"algorithm": "GF", "duration": 0.05, "gf_substep": 0.005}},
            {"train": {"algorithm": "GD"}},  # the left sum where the CSV holds the trapezoid
            None,
            "CL",
            1,
        ),
    ],
    ids=["edited_psi", "loss_power", "c_y", "edited_eta", "GF_read_as_GD"],
)
def test_bound_rejects_psi_or_cl_its_config_does_not_reproduce(
    tmp_path, capsys, trained, read, edit, column, row
):
    # psi is recomputed from Ln_train and CL from psi and eta, before the bound
    out = tmp_path / "run"
    cfg = _write(tmp_path, _base_config(**trained), "train.json")
    assert cli.main(["train", "--config", cfg, "--out", str(out)]) == 0
    csv = out / "trajectory.csv"
    if edit is not None:
        edited, cell = edit
        lines = csv.read_text().splitlines(keepends=True)
        cells = lines[1 + edited].split(",")
        cells[cell] = repr(float(cells[cell]) * 1.5)
        lines[1 + edited] = ",".join(cells)
        csv.write_text("".join(lines))
    read_doc = _base_config(**trained)
    for section, keys in read.items():
        read_doc[section].update(keys)
    cfg = _write(tmp_path, read_doc, "read.json")
    capsys.readouterr()
    report_path = tmp_path / "r.json"
    code = cli.main(["bound", "--config", cfg, "--trajectory", str(csv), "--out", str(report_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {csv}: column {column} differs from the config's {column} at data row {row}:")
    assert f"CSV {_csv_column(csv, column)[row]!r}, config " in err
    assert ("c_y (data section) and loss_power" in err) == (column == "psi")
    assert ("psi, eta and the algorithm" in err) == (column == "CL")
    assert not report_path.exists()


def test_bound_rejects_negative_loss_naming_row(tmp_path, capsys):
    out = tmp_path / "run"
    cfg = _write(tmp_path, _base_config())
    assert cli.main(["train", "--config", cfg, "--out", str(out)]) == 0
    csv = out / "trajectory.csv"
    lines = csv.read_text().splitlines(keepends=True)
    cells = lines[1 + 3].split(",")
    cells[2] = "-0.5"
    lines[1 + 3] = ",".join(cells)
    csv.write_text("".join(lines))
    capsys.readouterr()
    report_path = tmp_path / "r.json"
    assert cli.main(["bound", "--config", cfg, "--trajectory", str(csv), "--out", str(report_path)]) == 2
    assert capsys.readouterr().err == f"error: {csv}: column Ln_train is negative at data row 3\n"
    assert not report_path.exists()


@pytest.mark.parametrize(
    "edit",
    ["ragged_row", "non_numeric_cell", "marker_not_a_number", "marker_without_step"],
)
def test_bound_rejects_malformed_csv_naming_line(tmp_path, capsys, edit):
    out = tmp_path / "run"
    cfg = _write(tmp_path, _base_config())
    assert cli.main(["train", "--config", cfg, "--out", str(out)]) == 0
    csv = out / "trajectory.csv"
    lines = csv.read_text().splitlines(keepends=True)
    cells = lines[4].rstrip("\n").split(",")
    lineno = 5
    if edit == "ragged_row":
        lines[4] = ",".join(cells[:3] + cells[4:]) + "\n"
    elif edit == "non_numeric_cell":
        cells[2] = "x" + cells[2]
        lines[4] = ",".join(cells) + "\n"
    else:
        lines.append("# diverged at step x\n" if edit == "marker_not_a_number" else "# diverged at step\n")
        lineno = len(lines)
    csv.write_text("".join(lines))
    capsys.readouterr()
    report_path = tmp_path / "r.json"
    assert cli.main(["bound", "--config", cfg, "--trajectory", str(csv), "--out", str(report_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {csv}: line {lineno}: "), err
    assert err.count("\n") == 1
    assert not report_path.exists()


def test_bound_counts_nan_equal_to_nan(tmp_path):
    out = tmp_path / "run"
    cfg = _write(tmp_path, _base_config())
    assert cli.main(["train", "--config", cfg, "--out", str(out)]) == 0
    csv = out / "trajectory.csv"
    lines = csv.read_text().splitlines(keepends=True)
    # a NaN loss at data row 5 gives a NaN psi there, a NaN CL from row 6 on
    # and so a NaN bound, which the CSV then logs
    for row in range(5, len(lines) - 1):
        cells = lines[1 + row].split(",")
        if row == 5:
            cells[2] = cells[4] = "nan"
        else:
            cells[5] = "nan"
            cells[-1] = "nan\n"
        lines[1 + row] = ",".join(cells)
    csv.write_text("".join(lines))
    assert cli.main(["bound", "--config", cfg, "--trajectory", str(csv), "--out", str(tmp_path / "r.json")]) == 0


@pytest.mark.parametrize(
    "command, override, key, expected_order, n_builds",
    [
        ("train", {"seeds": [0, 1]}, lambda c, s: s, [0, 1], 1),
        (
            "compare",
            {
                "train": {"algorithm": "SGLD", "beta": 100.0},
                "compare": {"betas": [10, 1000], "loss_bound": 0.25, "lip": 1.0},
            },
            lambda c, s: (c.train.algorithm, c.train.beta, s),
            [("SGLD", 10.0, 0), ("SGLD", 1000.0, 0), ("GD", math.inf, 0)],
            1,
        ),
        (
            "sweep",
            {
                "train": {"algorithm": "SGD", "batch": 8},
                "data": {"kind": "classification", "c_y": 0.25},
                "sweep": {"axis": "noise", "values": [0.0, 0.5, 1.0]},
                "seeds": [0, 1],
            },
            lambda c, s: (c.data.noise_fraction, s),
            [(0.0, 0), (0.0, 1), (0.5, 0), (0.5, 1), (1.0, 0), (1.0, 1)],
            3,
        ),
        (
            "sweep",
            {"sweep": {"axis": "width", "values": [4, 8]}, "seeds": [0, 1]},
            lambda c, s: (c.spec.output_width, s),
            [(4, 0), (4, 1), (8, 0), (8, 1)],
            1,
        ),
        (
            "sweep",
            {"train": {"eta": "auto"}, "sweep": {"axis": "lr", "values": [0.02, 0.08]}, "seeds": [0, 1]},
            lambda c, s: (c.train.eta, c.eta_auto, s),
            [(0.02, False, 0), (0.02, False, 1), (0.08, False, 0), (0.08, False, 1)],
            1,
        ),
    ],
    ids=["train", "compare", "sweep-noise", "sweep-width", "sweep-lr"],
)
def test_runs_build_each_data_section_once_and_run_in_config_order(
    tmp_path, monkeypatch, command, override, key, expected_order, n_builds
):
    builds, order, written = [], [], []
    build_datasets, run_one = cli.build_datasets, cli.run_one
    out = tmp_path / "o"

    def counting_build(config):
        builds.append(config.data)
        return build_datasets(config)

    def recording_run(config, ds, ds_test, seed):
        order.append(key(config, seed))
        written.append(len(list(out.glob("*/report.json"))))
        return run_one(config, ds, ds_test, seed)

    monkeypatch.setattr(cli, "build_datasets", counting_build)
    monkeypatch.setattr(cli, "run_one", recording_run)
    doc = _base_config(**override)
    assert cli.main([command, "--config", _write(tmp_path, doc), "--out", str(out)]) == 0
    assert len(builds) == len(set(builds)) == n_builds
    assert order == expected_order
    # a sweep writes each value's directory before the next value's runs start
    n_seeds = len(doc["seeds"])
    assert written == [i // n_seeds if command == "sweep" else 0 for i in range(len(order))]


@pytest.mark.parametrize(
    "command, override",
    [
        ("train", {"seeds": 5}),
        ("train", {"seeds": []}),
        ("compare", {"seeds": 5}),
        ("sweep", {"seeds": []}),
        ("sweep", {"seeds": [0, "1"]}),
        ("train", {"network": {"fc_widths": 16}}),
        ("train", {"train": {"alpha": [1]}}),
        ("train", {"data": {"n_train": [16]}}),
        # at the parent these trained first, ended in a traceback, wrote a sweep value
        # first or named no section and key
        ("train", {"bound": {"delta": [0.05]}}),
        ("train", {"bound": {"rho": "x"}}),
        ("train", {"bound": {"delta": 1.5}}),
        ("train", {"bound": {"lam": [0.5]}}),
        ("train", {"bound": {"epsilon": "x"}}),
        ("compare", {"compare": {"loss_bound": 0.25, "lip": 1.0, "betas": 10}}),
        ("compare", {"compare": {"betas": [10], "loss_bound": 0.25, "lip": [1]}}),
        ("sweep", {"sweep": {"axis": "width", "values": [[4]]}}),
        ("sweep", {"sweep": {"axis": "lr", "values": 0.5}}),
        ("sweep", {"sweep": {"axis": "lr", "values": [0.05, "x"]}}),
        ("sweep", {"sweep": {"axis": "lr", "values": [0.05, -0.1]}}),
        # at the parent these trained runs other than the ones the config names,
        # or wrote two runs into one directory
        ("train", {"train": {"loss_power": 2.5}}),
        ("train", {"network": {"output_width": 16, "fc_widths": [16.5]}}),
        ("train", {"svg": "false"}),
        ("train", {"data": {"noise_fraction": -0.5}}),
        ("train --seed 3", {"seeds": [0.5]}),
        ("sweep", {"sweep": {"axis": "lr", "values": [0.05, 0.05, 0.1]}}),
        # at the parent the last two named no key; each run's range check names the
        # key at fault, and a base key stays named when a sweep value edits another
        ("sweep", {"train": {"kappa": -1.0}}),
        ("train", {"bound": {"lam": 0.7}}),
        ("train", {"train": {"algorithm": "SGD", "batch": 8}, "bound": {"rho": None}}),
        ("train", {"data": {"noise_fraction": 0.5}}),
    ],
)
def test_malformed_config_types_are_config_errors(tmp_path, capsys, command, override):
    sections = {
        "sweep": {"axis": "lr", "values": [0.05]},
        "compare": {"betas": [10], "loss_bound": 0.25, "lip": 1.0},
    }
    doc = _base_config(**{**sections, **override})
    out = tmp_path / "o"
    code = cli.main(command.split() + ["--config", _write(tmp_path, doc), "--out", str(out)])
    assert code == 2
    # the faulty key is the last one the override names
    section, value = list(override.items())[-1]
    section, key = (section, list(value)[-1]) if isinstance(value, dict) else ("<top>", section)
    assert capsys.readouterr().err.startswith(f"config error: section '{section}' key '{key}': ")
    assert not any(files for _, _, files in os.walk(out))


@pytest.mark.parametrize(
    "command, override",
    [
        # each parses, then fails a range check or its data build
        ("train", {"train": {"algorithm": "SGLD"}}),  # SGLD without beta
        ("compare", {"train": {"kappa": -1.0}, "compare": {"betas": [10], "loss_bound": 0.25, "lip": 1.0}}),
        ("sweep", {"sweep": {"axis": "noise", "values": [0.0, 0.1]}}),  # regression labels
    ],
)
def test_run_check_error_writes_no_directory(tmp_path, capsys, command, override):
    out = tmp_path / "o"
    code = cli.main([command, "--config", _write(tmp_path, _base_config(**override)), "--out", str(out)])
    assert code == 2
    assert "error: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "sweep, expected",
    [
        ({"axis": "lr", "values": [0.05, -0.1]}, "eta must be positive, got -0.1"),
        ({"axis": "noise", "values": [0.0, 1.5]}, "expected a number in [0, 1], got 1.5"),
        ({"axis": "noise", "values": [0.0, 0.5]}, "label noise needs binary labels (kind=classification), got 0.5"),
        ({"axis": "width", "values": [4, 1]}, "width values must be integers >= 2, got 1"),
    ],
    ids=["lr", "noise-range", "noise-regression", "width"],
)
def test_sweep_value_error_names_the_value(tmp_path, capsys, sweep, expected):
    # each value is an edit of the config document, checked as the key it sets
    out = tmp_path / "o"
    cfg = _write(tmp_path, _base_config(sweep=sweep))
    assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: section 'sweep' key 'values': {expected}\n"
    assert not out.exists()


def test_verify_pass_and_fail(tmp_path, capsys):
    out_file = tmp_path / "verify.json"
    # value-bounds yields numpy-scalar violations; the JSON dump must take them
    code = cli.main(["verify", "--suite", "loss-decomposition",
                     "--suite", "value-bounds", "--out", str(out_file)])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert all(line.startswith("PASS") for line in lines)
    payload = json.loads(out_file.read_text())
    assert payload["all_passed"] is True
    assert len(payload["outcomes"]) == 3
    assert cli.main(["verify", "--suite", "homogeneity", "--inject-bug"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_verify_rejects_unknown_suite():
    with pytest.raises(SystemExit):
        cli.main(["verify", "--suite", "bogus"])


def test_compare_table(tmp_path):
    doc = _base_config(
        train={"algorithm": "SGLD", "eta": 0.05, "total_steps": 40, "beta": 100.0},
        compare={"betas": [10, 1000], "loss_bound": 0.25, "lip": 1.0},
    )
    out = tmp_path / "cmp"
    assert cli.main(["compare", "--config", _write(tmp_path, doc), "--out", str(out)]) == 0
    lines = (out / "compare.csv").read_text().strip().splitlines()
    assert lines[0] == "algorithm,beta,cl,bound_cl,bound_info,diverged_at"
    rows = [line.split(",") for line in lines[1:]]
    assert [r[0] for r in rows] == ["SGLD", "SGLD", "GD"]
    assert [r[5] for r in rows] == ["", "", ""]  # no run diverged
    infos = [float(r[4]) for r in rows]
    assert infos[0] < infos[1] and math.isinf(infos[2])
    assert all(math.isfinite(float(r[3])) for r in rows)


def test_compare_diverged_run_writes_table_and_exits_1(tmp_path, capsys):
    # the shipped compare config at eta 50: the beta=10 SGLD run diverges at step 3
    with open(os.path.join(_CONFIGS, "compare_sgld.json")) as fh:
        doc = json.load(fh)
    doc["train"]["eta"] = 50
    out = tmp_path / "cmp"
    assert cli.main(["compare", "--config", _write(tmp_path, doc), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "at least one compare run diverged\n"
    lines = (out / "compare.csv").read_text().strip().splitlines()
    assert [line.split(",")[:2] for line in lines[1:]] == [
        ["SGLD", "10.0"], ["SGLD", "100.0"], ["SGLD", "1000.0"], ["SGLD", "10000.0"], ["GD", "inf"]
    ]
    # the table itself says which runs diverged, and at which step
    assert lines[0].endswith(",diverged_at")
    assert [line.split(",")[5] for line in lines[1:]] == ["3", "5", "12", "", ""]


def test_compare_requires_section(tmp_path, capsys):
    code = cli.main(["compare", "--config", _write(tmp_path, _base_config()), "--out", str(tmp_path / "x")])
    assert code == 2
    assert "compare" in capsys.readouterr().err


def test_sweep_width_preserves_out_scale(tmp_path):
    doc = _base_config(
        network={"input_dim": 3, "fc_widths": [4], "output_width": 4, "norm_exponent": 1.0},
        sweep={"axis": "width", "values": [4, 16]},
    )
    out = tmp_path / "sw"
    assert cli.main(["sweep", "--config", _write(tmp_path, doc), "--out", str(out)]) == 0
    lines = (out / "sweep.csv").read_text().strip().splitlines()
    assert lines[0] == "axis,value,cl,bound,cl_seed_mean,bound_seed_mean"
    assert len(lines) == 3
    for value in (4, 16):
        report = json.loads((out / f"width_{value}" / "report.json").read_text())
        assert report["output_width"] == value
        assert value ** report["norm_exponent"] == pytest.approx(4.0)


def test_sweep_lr_axis(tmp_path):
    doc = _base_config(sweep={"axis": "lr", "values": [0.02, 0.08]})
    out = tmp_path / "swlr"
    assert cli.main(["sweep", "--config", _write(tmp_path, doc), "--out", str(out)]) == 0
    a = json.loads((out / "lr_0.02" / "report.json").read_text())
    b = json.loads((out / "lr_0.08" / "report.json").read_text())
    assert b["cl"] > a["cl"]


def test_sweep_width_rejects_cnn(tmp_path, capsys):
    doc = _base_config(
        network={"input_dim": 11, "conv_kernels": [3], "fc_widths": [3], "output_width": 3, "norm_exponent": 0.5},
        sweep={"axis": "width", "values": [4, 8]},
    )
    assert cli.main(["sweep", "--config", _write(tmp_path, doc), "--out", str(tmp_path / "x")]) == 2
    assert "width" in capsys.readouterr().err


def test_sweep_needs_axis(tmp_path, capsys):
    assert cli.main(["sweep", "--config", _write(tmp_path, _base_config()), "--out", str(tmp_path / "x")]) == 2
    assert "axis" in capsys.readouterr().err


def test_gen_data_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(["gen-data", "--kind", "regression", "--n", "32", "--seed", "3", "--out", str(a)]) == 0
    assert cli.main(["gen-data", "--kind", "regression", "--n", "32", "--seed", "3", "--out", str(b)]) == 0
    assert _read_bytes(a) == _read_bytes(b)


@pytest.mark.parametrize("kind", ["regression", "idx-fixture"])
@pytest.mark.parametrize("n", ["0", "-1"])
def test_gen_data_rejects_n_below_one(tmp_path, capsys, kind, n):
    # at the parent these passed argparse: --n 0 wrote an empty idx fixture, and the
    # others failed later with errors that named no option
    with pytest.raises(SystemExit) as exc:
        cli.main(["gen-data", "--kind", kind, "--n", n, "--out", str(tmp_path / "d")])
    assert exc.value.code == 2
    assert f"error: argument --n: expected an integer >= 1, got '{n}'" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_gen_data_idx_fixture_loads(tmp_path):
    stem = str(tmp_path / "fix")
    assert cli.main(["gen-data", "--kind", "idx-fixture", "--n", "40", "--seed", "1", "--out", stem]) == 0
    from genbound.data import load_idx

    ds = load_idx(stem + "-images.idx", stem + "-labels.idx", keep=(0, 1), c_y=0.25)
    assert ds.n == 40 and ds.dim == 16


def test_idx_config_source(tmp_path):
    stem = str(tmp_path / "fix")
    assert cli.main(["gen-data", "--kind", "idx-fixture", "--n", "60", "--seed", "2", "--out", stem]) == 0
    doc = _base_config(
        network={"input_dim": 16, "fc_widths": [8], "output_width": 8, "norm_exponent": 0.5},
        data={
            "source": "idx",
            "images": stem + "-images.idx",
            "labels": stem + "-labels.idx",
            "keep": [0, 1],
            "c_y": 0.25,
            "train_fraction": 0.75,
            "seed": 0,
        },
    )
    out = tmp_path / "idxrun"
    assert cli.main(["train", "--config", _write(tmp_path, doc), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["n"] == 45
    assert report["final_ln_test"] is not None


def _idx_config(stem, noise_fraction, seed=0):
    return _base_config(
        network={"input_dim": 16, "fc_widths": [8], "output_width": 8, "norm_exponent": 0.5},
        data={
            "source": "idx",
            "images": stem + "-images.idx",
            "labels": stem + "-labels.idx",
            "keep": [0, 1],
            "c_y": 0.25,
            "train_fraction": 0.75,
            "noise_fraction": noise_fraction,
            "seed": seed,
        },
    )


def test_idx_label_noise_enters_the_train_split(tmp_path):
    # the noise step covers a loaded IDX split too, so a noisy run trains on other labels than a clean one
    from genbound.data import inject_label_noise, load_idx, split

    stem = str(tmp_path / "fix")
    assert cli.main(["gen-data", "--kind", "idx-fixture", "--n", "80", "--seed", "1", "--out", stem]) == 0
    config = cli.load_config(_write(tmp_path, _idx_config(stem, 0.5, seed=3)))
    clean, clean_test = split(load_idx(stem + "-images.idx", stem + "-labels.idx", (0, 1), 0.25), 0.75, 3)
    ds, ds_test = cli.build_datasets(config)
    assert ds.targets.tobytes() == inject_label_noise(clean, 0.5, 5).targets.tobytes()
    assert ds.targets.tobytes() != clean.targets.tobytes()
    assert ds.inputs.tobytes() == clean.inputs.tobytes()
    assert ds_test.targets.tobytes() == clean_test.targets.tobytes()
    trajectories = []
    for noise_fraction in (0.0, 0.5):
        out = tmp_path / f"noise_{noise_fraction}"
        cfg = _write(tmp_path, _idx_config(stem, noise_fraction), f"noise_{noise_fraction}.json")
        assert cli.main(["train", "--config", cfg, "--out", str(out)]) == 0
        trajectories.append(_read_bytes(out / "trajectory.csv"))
    assert trajectories[0] != trajectories[1]


def test_idx_label_noise_on_one_label_value_names_the_key(tmp_path, capsys):
    from genbound.data import write_idx

    stem = str(tmp_path / "fix")
    images = np.random.default_rng(0).integers(0, 256, size=(40, 4, 4), dtype=np.uint8)
    write_idx(images, np.zeros(40, np.uint8), stem + "-images.idx", stem + "-labels.idx")
    out = tmp_path / "o"
    assert cli.main(["train", "--config", _write(tmp_path, _idx_config(stem, 0.0)), "--out", str(out)]) == 0
    out = tmp_path / "noisy"
    assert cli.main(["train", "--config", _write(tmp_path, _idx_config(stem, 0.25)), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "config error: section 'data' key 'noise_fraction': label noise needs two label values, got 1\n"
    assert not out.exists()


def test_sweep_value_that_breaks_the_data_build_names_the_sweep_values(tmp_path, capsys):
    # the build of a data section a noise value made runs under the sweep values' label too
    from genbound.data import write_idx

    stem = str(tmp_path / "fix")
    images = np.random.default_rng(0).integers(0, 256, size=(40, 4, 4), dtype=np.uint8)
    write_idx(images, np.zeros(40, np.uint8), stem + "-images.idx", stem + "-labels.idx")
    doc = _idx_config(stem, 0.0)
    doc["sweep"] = {"axis": "noise", "values": [0.0, 0.25]}
    out = tmp_path / "o"
    assert cli.main(["sweep", "--config", _write(tmp_path, doc), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == (
        "config error: section 'sweep' key 'values': label noise needs two label values, got 1, got 0.25\n"
    )
    assert not out.exists()


def _cli_child(*args: str) -> subprocess.CompletedProcess:
    """Run the CLI in a child process with numpy's default warning filters."""
    # the child imports genbound from where this process found it
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "genbound.cli", *args], capture_output=True, text=True, env=env
    )


def test_console_script_smoke(tmp_path):
    cfg = _write(tmp_path, _base_config(train={"algorithm": "GD", "eta": 0.05, "total_steps": 5}))
    proc = _cli_child("train", "--config", cfg, "--out", str(tmp_path / "o"))
    assert proc.returncode == 0, proc.stderr
    assert "bound" in proc.stdout


def test_overflowing_run_prints_one_stderr_line(tmp_path):
    # kappa 1e308 overflows the first forward pass; only the divergence message is printed
    with open(os.path.join(_CONFIGS, "toy_regression.json")) as fh:
        doc = json.load(fh)
    doc["train"]["kappa"] = 1e308
    out = tmp_path / "o"
    proc = _cli_child("train", "--config", _write(tmp_path, doc), "--out", str(out))
    assert proc.returncode == 1
    assert proc.stderr == "training diverged; partial trajectory written\n"
    assert (out / "trajectory.csv").read_text().splitlines()[-1].startswith("# diverged at step ")
