"""Command-line interface: exit codes, payload shapes, determinism."""

import csv
import hashlib
import json

import numpy as np
import pytest

from steercoh import (bell_state, load_state, maximally_mixed, prepare_protocol_state, save_state,
                      state_to_dict)
from steercoh import cli
from steercoh.cli import main
from steercoh.sampling import random_hs_state

GAP_RECIPE = '{"kind": "gap_example"}'
BELL_RECIPE = '{"kind": "bell"}'


def _run_json(argv, tmp_path, name="out.json"):
    out = tmp_path / name
    code = main(argv + ["--out", str(out), "--force"])
    return code, json.loads(out.read_text())


def test_compute_gap_example_has_strict_gap(tmp_path):
    code, payload = _run_json(
        ["compute", "sic", "bsmid", "--recipe", GAP_RECIPE, "--budget", "1000"],
        tmp_path,
    )
    assert code == 0
    assert payload["command"] == "compute"
    assert payload["dims"] == [2, 2]
    sic_entry, bsmid_entry = payload["results"]
    assert sic_entry["quantity"] == "sic"
    assert sic_entry["converged"]
    assert np.isclose(sic_entry["value"], 0.21040208776627728, atol=1e-6)
    assert sic_entry["value"] < 0.5 - 1e-3
    for key in ("alice_basis", "bob_basis"):
        basis = sic_entry[key]
        assert np.asarray(basis["re"]).shape == (2, 2)
        assert np.asarray(basis["im"]).shape == (2, 2)
    assert bsmid_entry["quantity"] == "bsmid"
    assert np.isclose(bsmid_entry["value"], 0.5, atol=1e-9)


def test_compute_theta_of_bell(tmp_path):
    code, payload = _run_json(
        ["compute", "theta", "--recipe", BELL_RECIPE], tmp_path
    )
    assert code == 0
    theta = payload["results"][0]["value"]
    assert np.allclose(theta["tmat"], np.diag([1.0, -1.0, 1.0]), atol=1e-12)
    assert np.allclose(theta["a"], 0.0, atol=1e-12)
    assert np.allclose(theta["b"], 0.0, atol=1e-12)


def test_compute_coherence_of_bell(tmp_path):
    code, payload = _run_json(
        ["compute", "coherence", "--recipe", BELL_RECIPE], tmp_path
    )
    assert code == 0
    entry = payload["results"][0]
    assert entry["basis"] == "computational"
    assert np.isclose(entry["value"], 1.0, atol=1e-9)


def test_compute_sie_of_rho_x(tmp_path):
    code, payload = _run_json(
        ["compute", "sie", "--recipe", '{"kind": "rho_x"}'], tmp_path
    )
    assert code == 0
    entry = payload["results"][0]
    assert np.isclose(entry["value"], 1.0, atol=1e-9)
    assert entry["converged"]
    assert all(rec["exact"] for rec in entry["per_outcome"])


def test_compute_sie_of_a_mixed_protocol_state_is_exact(tmp_path):
    # the copy protocol leaves every steered BC state maximally correlated,
    # so a mixed qutrit Bob gets the closed form rather than an error
    rho = random_hs_state((2, 3), np.random.default_rng(23))
    path = tmp_path / "protocol.json"
    save_state(prepare_protocol_state(rho), str(path))
    code, payload = _run_json(["compute", "sie", "--state", str(path)], tmp_path)
    assert code == 0
    entry = payload["results"][0]
    assert entry["tolerance"] == 1e-12
    assert entry["converged"]
    assert entry["per_outcome"] and all(rec["exact"] for rec in entry["per_outcome"])


def test_compute_from_state_file(tmp_path):
    path = tmp_path / "bell.json"
    save_state(bell_state(), str(path))
    code, payload = _run_json(
        ["compute", "coherence", "--state", str(path)], tmp_path
    )
    assert code == 0
    assert payload["source"]["state"] == str(path)


def test_compute_csv_format(tmp_path, capsys):
    code = main(
        ["compute", "coherence", "theta", "--recipe", BELL_RECIPE,
         "--format", "csv"]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "quantity,kind,value,tolerance,converged"
    assert len(lines) == 2  # matrix-valued theta is skipped in csv
    assert lines[1].startswith("coherence,r,")


def test_compute_quantity_flag_merges_and_dedupes(tmp_path):
    code, payload = _run_json(
        ["compute", "coherence", "--quantity", "coherence,theta",
         "--recipe", BELL_RECIPE],
        tmp_path,
    )
    assert code == 0
    names = [e["quantity"] for e in payload["results"]]
    assert names == ["coherence", "theta"]


def test_compute_validation_exit_codes(tmp_path):
    state = tmp_path / "bell.json"
    save_state(bell_state(), str(state))
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert main(["compute", "sic"]) == 1  # no source
    assert main(["compute", "sic", "--recipe", BELL_RECIPE,
                 "--state", str(state)]) == 1  # two sources
    assert main(["compute", "sic", "--state", str(tmp_path / "none.json")]) == 3
    assert main(["compute", "sic", "--state", str(bad)]) == 1
    assert main(["compute", "frobnicate", "--recipe", BELL_RECIPE]) == 1
    assert main(["compute", "--recipe", BELL_RECIPE]) == 1  # nothing requested
    assert main(["compute", "theta", "--recipe", '{"kind": "rho_x"}']) == 1
    assert main(["compute", "sie", "--recipe", BELL_RECIPE]) == 1
    assert main(["compute", "sic", "--recipe", '{"kind": "ghz"}']) == 1
    assert main(["compute", "coherence", "--recipe",
                 '{"kind": "werner", "params": {"q": 0.2}}']) == 1  # not a werner parameter
    big = '{"kind": "random_hs", "params": {"dims": [9, 8]}}'
    assert main(["compute", "coherence", "--recipe", big]) == 1  # above dim cap


@pytest.mark.parametrize("dims,shown", [(float("inf"), "inf"), (2.5, "2.5")])
def test_compute_rejects_a_state_file_with_a_non_integer_dimension(dims, shown, tmp_path,
                                                                   capsys):
    payload = state_to_dict(maximally_mixed((2,)))
    payload["dims"] = [dims]
    path = tmp_path / "state.json"
    path.write_text(json.dumps(payload))
    assert main(["compute", "coherence", "--state", str(path)]) == 1
    assert capsys.readouterr().err == (
        f"error: invalid state file: a subsystem dimension must be an integer, got {shown}\n")


def test_compute_rejects_a_state_file_with_nan(tmp_path, capsys):
    # json writes and parses the bare token NaN
    payload = state_to_dict(bell_state())
    payload["re"][0][0] = float("nan")
    path = tmp_path / "nan_state.json"
    path.write_text(json.dumps(payload))
    assert main(["compute", "theta", "--state", str(path)]) == 1
    err = capsys.readouterr().err
    assert "invalid state file" in err and "non-finite" in err


@pytest.mark.parametrize("argv", [["compute", "theta"], ["sweep"], ["sample", "--n", "1"]])
def test_malformed_recipe_json_exits_one_with_position(argv, capsys):
    assert main(argv + ["--recipe", "{broken"]) == 1
    assert "recipe is not valid JSON: line 1 column 2" in capsys.readouterr().err


def test_parser_errors_exit_one(capsys):
    assert main([]) == 1
    assert main(["bogus"]) == 1
    assert main(["verify", "thm1", "--kind", "bogus"]) == 1
    capsys.readouterr()


def test_verify_small_ensembles_pass(tmp_path):
    code, payload = _run_json(
        ["verify", "thm1", "--n", "2", "--budget", "500", "--seed", "5"],
        tmp_path,
    )
    assert code == 0
    assert payload["status"] == "PASS"
    assert payload["n"] == 2
    assert len(payload["instances"]) == 2
    assert payload["all_converged"]
    assert all("details" not in row for row in payload["instances"])

    code, payload = _run_json(
        ["verify", "thm3", "--n", "3", "--seed", "1"], tmp_path
    )
    assert code == 0
    assert payload["status"] == "PASS"

    code, payload = _run_json(
        ["verify", "cor1", "--n", "2", "--seed", "2"], tmp_path
    )
    assert code == 0
    assert payload["status"] == "PASS"

    code, payload = _run_json(
        ["verify", "distances", "--n", "25", "--seed", "3"], tmp_path
    )
    assert code == 0
    assert payload["status"] == "PASS"
    assert len(payload["instances"]) == 2


def test_verify_thm2_small(tmp_path):
    code, payload = _run_json(
        ["verify", "thm2", "--n", "2", "--budget", "400", "--seed", "4"],
        tmp_path,
    )
    assert code == 0
    assert payload["status"] == "PASS"


def test_verify_rho_x_variant_reports_finding(tmp_path):
    code, payload = _run_json(
        ["verify", "cor1", "--suite", "rhoX", "--n", "1"], tmp_path
    )
    assert code == 0
    assert payload["status"] == "FINDING"
    assert payload["instances"][0]["status"] == "FINDING"
    assert np.isclose(payload["instances"][0]["value_lhs"], 1.0, atol=1e-9)


def test_verify_validation_exit_codes():
    assert main(["verify", "thm1", "--suite", "rhoX", "--n", "1"]) == 1
    assert main(["verify", "thm1", "--n", "0"]) == 1
    assert main(["verify", "thm1", "--n", "1", "--kind", "l1"]) == 1
    assert main(["verify", "nosuch", "--n", "1"]) == 1


def test_verify_reruns_are_byte_identical(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    argv = ["verify", "thm3", "--n", "2", "--budget", "300", "--seed", "9"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_csv_format(tmp_path):
    out = tmp_path / "rows.csv"
    code = main(
        ["verify", "distances", "--n", "10", "--format", "csv", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "index,theorem,kind,status,value_lhs,value_rhs,margin,converged"
    assert len(lines) == 3


def test_sweep_werner_entrywise(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(
        ["sweep", "--recipe",
         '{"kind": "werner", "params": {"p": [0.2, 0.5, 0.8]}}',
         "--kind", "l1", "--budget", "400", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("# sic kind=l1 disturbance kind=t")
    assert lines[1] == "parameter,sic,q_b,margin,converged"
    rows = [line.split(",") for line in lines[2:]]
    assert len(rows) == 3
    sic_vals = [float(r[1]) for r in rows]
    for p, v in zip((0.2, 0.5, 0.8), sic_vals):
        assert np.isclose(v, p, atol=1e-5)
    assert sic_vals == sorted(sic_vals)
    for r in rows:
        assert float(r[3]) >= -1e-6  # disturbance stays above steering value
        assert r[4] == "True"


def test_sweep_maximally_correlated_matches_entropy(tmp_path):
    code, payload = _run_json(
        ["sweep", "--recipe",
         '{"kind": "maximally_correlated", "params": {"lambda0": [0.1, 0.5]}}',
         "--kind", "r", "--budget", "400", "--format", "json"],
        tmp_path,
    )
    assert code == 0
    vals = [row["sic"] for row in payload["rows"]]
    assert np.isclose(vals[0], 0.4689955935892812, atol=1e-6)
    assert np.isclose(vals[1], 1.0, atol=1e-6)


def test_sweep_validation_exit_codes():
    assert main(["sweep"]) == 1
    assert main(["sweep", "--recipe", '{"kind": "werner", "params": {}}']) == 1
    assert main(["sweep", "--recipe",
                 '{"kind": "werner", "params": {"p": []}}']) == 1
    assert main(["sweep", "--recipe",
                 '{"kind": "werner", "params": {"p": [0.1], "q": [0.2]}}']) == 1
    assert main(["sweep", "--recipe",
                 '{"kind": "bell", "params": {"p": [0.1]}}']) == 1
    assert main(["sweep", "--recipe",
                 '{"kind": "werner", "params": {"x": [0.1]}}']) == 1
    assert main(["sweep", "--recipe",
                 '{"kind": "werner", "params": {"p": [0.3]}}',
                 "--kind", "t"]) == 1
    assert main(["sweep", "--recipe",
                 '{"kind": "werner", "params": {"p": [7.0]}}']) == 1


def test_sample_corpus_is_replayable(tmp_path):
    recipe = '{"kind": "random_hs", "params": {"dims": [2, 2]}}'
    d1 = tmp_path / "run1"
    d2 = tmp_path / "run2"
    argv = ["sample", "--recipe", recipe, "--n", "3", "--seed", "11"]
    assert main(argv + ["--out", str(d1)]) == 0
    assert main(argv + ["--out", str(d2)]) == 0
    m1 = json.loads((d1 / "manifest.json").read_text())
    m2 = json.loads((d2 / "manifest.json").read_text())
    assert m1 == m2
    assert len(m1["files"]) == 3
    for rec in m1["files"]:
        blob1 = (d1 / rec["path"]).read_bytes()
        assert (d2 / rec["path"]).read_bytes() == blob1
        assert hashlib.sha256(blob1).hexdigest() == rec["sha256"]
        state = load_state(str(d1 / rec["path"]))
        assert state.dims == (2, 2)


def test_sample_collision_and_force(tmp_path):
    recipe = '{"kind": "random_pure", "params": {"dims": [2, 2]}}'
    out = tmp_path / "corpus"
    argv = ["sample", "--recipe", recipe, "--n", "1", "--seed", "3",
            "--out", str(out)]
    assert main(argv) == 0
    assert main(argv) == 3
    assert main(argv + ["--force"]) == 0


def test_sample_empty_and_invalid_requests(tmp_path):
    recipe = '{"kind": "random_hs", "params": {"dims": [2, 2]}}'
    out = tmp_path / "empty"
    assert main(["sample", "--recipe", recipe, "--n", "0",
                 "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["files"] == []
    assert main(["sample", "--recipe", recipe, "--n", "-1",
                 "--out", str(tmp_path / "x")]) == 1
    assert main(["sample", "--recipe", '{"kind": "bell"}', "--n", "1",
                 "--out", str(tmp_path / "y")]) == 1
    assert main(["sample", "--recipe", recipe, "--n", "1"]) == 1
    assert main(["sample", "--n", "1", "--out", str(tmp_path / "z")]) == 1


def test_output_collision_and_force_for_compute(tmp_path):
    out = tmp_path / "result.json"
    argv = ["compute", "coherence", "--recipe", BELL_RECIPE, "--out", str(out)]
    assert main(argv) == 0
    assert main(argv) == 3
    assert main(argv + ["--force"]) == 0


def test_compute_writes_json_to_stdout_by_default(capsys):
    code = main(["compute", "coherence", "--recipe", BELL_RECIPE])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["results"][0]["quantity"] == "coherence"


def test_state_round_trip_through_cli(tmp_path):
    rng = np.random.default_rng(21)
    rho = random_hs_state((2, 2), rng)
    path = tmp_path / "state.json"
    save_state(rho, str(path))
    code, payload = _run_json(
        ["compute", "bsmid", "--state", str(path), "--budget", "400"], tmp_path
    )
    assert code == 0
    assert payload["results"][0]["value"] >= 0.0


@pytest.mark.parametrize("recipe,seed", [
    ('{"kind": "random_hs"}', "-1"),
    ('{"kind": "random_hs", "params": {"dims": [1, 2]}}', "0"),
])
def test_sample_bad_seed_or_recipe_exits_one(recipe, seed, tmp_path, capsys):
    out = tmp_path / "corpus"
    argv = ["sample", "--recipe", recipe, "--n", "2", "--seed", seed, "--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert not out.exists()


def test_compute_non_list_dims_exits_one(capsys):
    recipe = '{"kind": "random_hs", "params": {"dims": 5}}'
    assert main(["compute", "coherence", "--recipe", recipe]) == 1
    assert "error: invalid recipe: dims must be a list" in capsys.readouterr().err


@pytest.mark.parametrize("command,recipe,message", [
    ("compute coherence", '{"kind": "werner", "params": {"p": [1]}}',
     "p must be a number, got [1]"),
    ("compute coherence", '{"kind": "bell", "seed": [1]}', "seed must be a number, got [1]"),
    ("compute coherence", '{"kind": "bell", "params": 5}', "recipe params must be an object"),
    # a 0-d coefficient matrix
    ("compute coherence", '{"kind": "maximally_correlated", "params": {"coeff_re": 1.0}}',
     "coefficient matrix must be square"),
    ("sweep", '{"kind": "werner", "params": {"p": [[1], 0.5]}}',
     "p grid value must be a number, got [1]"),
    ("compute sic", '{"kind": "maximally_correlated", "params": {"schmidt": {"a": 1}}}',
     "schmidt must be an array of numbers, got {'a': 1}"),
    # an integer field is neither truncated nor overflows
    ("compute coherence", '{"kind": "bell", "seed": Infinity}',
     "seed must be an integer, got inf"),
    ("compute coherence", '{"kind": "random_hs", "params": {"dims": [Infinity, 2]}}',
     "a subsystem dimension must be an integer, got inf"),
    ("compute coherence", '{"kind": "maximally_correlated", "params": {"d": Infinity}}',
     "d must be an integer, got inf"),
    ("compute coherence", '{"kind": "random_hs", "params": {"dims": [2.7, 2]}}',
     "a subsystem dimension must be an integer, got 2.7"),
    # a JSON null is not read as a 0-d NaN
    ("compute coherence", '{"kind": "maximally_correlated", "params": {"coeff_re": null}}',
     "coeff_re must be an array of numbers, got None"),
    ("compute coherence",
     '{"kind": "maximally_correlated", "params": {"coeff_re": [[1]], "coeff_im": null}}',
     "coeff_im must be an array of numbers, got None"),
    ("compute sic", '{"kind": "maximally_correlated", "params": {"schmidt": null}}',
     "schmidt must be an array of numbers, got None"),
], ids=["werner_p_list", "bell_seed_list", "bell_params_number", "coeff_re_scalar",
        "sweep_grid_entry_list", "schmidt_object", "seed_infinite", "dims_infinite",
        "d_infinite", "dims_fractional", "coeff_re_null", "coeff_im_null", "schmidt_null"])
def test_recipe_field_of_the_wrong_json_type_exits_one(command, recipe, message, capsys):
    assert main([*command.split(), "--recipe", recipe]) == 1
    err = capsys.readouterr().err
    assert err == f"error: invalid recipe: {message}\n"


@pytest.mark.parametrize("d", [1, 0, -3])
def test_maximally_correlated_d_below_two_exits_one(d, capsys):
    # every subsystem of a state has dimension at least 2
    recipe = json.dumps({"kind": "maximally_correlated", "params": {"d": d}})
    assert main(["compute", "coherence", "--recipe", recipe]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: invalid recipe: d must be at least 2\n"


@pytest.mark.parametrize("recipe,side", [
    ('{"kind": "random_hs", "params": {"dims": [200, 200]}}', 40000),
    ('{"kind": "maximally_correlated", "params": {"d": 200}}', 40000),
    # np.outer flattens the weights: 64 of them give a 64 x 64 coefficient matrix
    (json.dumps({"kind": "maximally_correlated",
                 "params": {"schmidt": np.full((8, 8), 1 / 64).tolist()}}), 4096),
    # coeff_re broadcasts against coeff_im
    (json.dumps({"kind": "maximally_correlated",
                 "params": {"coeff_re": [[0.01]],
                            "coeff_im": np.zeros((100, 100)).tolist()}}), 10000),
], ids=["dims", "d", "schmidt", "coeff_broadcast"])
def test_recipe_dimension_cap_applies_before_the_state_is_built(
        recipe, side, monkeypatch, capsys):
    def refuse(_):
        raise AssertionError("make_state ran on a recipe above the cap")

    monkeypatch.setattr(cli, "make_state", refuse)
    assert main(["compute", "coherence", "--recipe", recipe]) == 1
    assert f"total dimension {side} exceeds the cap of 64" in capsys.readouterr().err


def test_sample_applies_the_dimension_cap_before_any_state_is_drawn(
        monkeypatch, tmp_path, capsys):
    def refuse(_):
        raise AssertionError("make_state ran on a recipe above the cap")

    monkeypatch.setattr(cli, "make_state", refuse)
    out = tmp_path / "corpus"
    recipe = '{"kind": "random_hs", "params": {"dims": [200, 200]}}'
    assert main(["sample", "--recipe", recipe, "--n", "1", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: total dimension 40000 exceeds the cap of 64\n"
    assert not out.exists()


def test_recipe_dimension_cap_also_applies_to_the_built_state(monkeypatch, capsys):
    monkeypatch.setattr(cli, "recipe_side", lambda _: 1)
    recipe = '{"kind": "random_hs", "params": {"dims": [9, 9]}}'
    assert main(["compute", "coherence", "--recipe", recipe]) == 1
    assert "total dimension 81 exceeds the cap of 64" in capsys.readouterr().err


def _csv_cell(value):
    return repr(value) if isinstance(value, float) else str(value)


@pytest.mark.parametrize("argv,rows_key,header_lines", [
    (["compute", "coherence", "sie", "--recipe", '{"kind": "rho_x"}'], "results", 1),
    (["verify", "distances", "--n", "10"], "instances", 1),
    (["sweep", "--recipe", '{"kind": "werner", "params": {"p": [0.3, 0.8]}}',
      "--kind", "l1", "--budget", "200"], "rows", 2),
])
def test_csv_cells_match_the_json_payload(argv, rows_key, header_lines, tmp_path):
    code, payload = _run_json(argv + ["--format", "json"], tmp_path)
    out = tmp_path / "out.csv"
    assert main(argv + ["--format", "csv", "--out", str(out)]) == code == 0
    lines = out.read_text().splitlines()
    table = list(csv.reader(lines[header_lines - 1:]))
    columns = table[0]
    rows = payload[rows_key]
    assert len(lines) == header_lines + len(rows)
    # every row has one cell per column, a cell holding a comma (the
    # distances report's kind "r,l1") quoted
    for i, (row, cells) in enumerate(zip(rows, table[1:])):
        row = {"index": i, **row}
        assert cells == [_csv_cell(row[c]) if c in row else "" for c in columns]
    if rows_key == "instances":
        assert lines[-1].split(",")[2:4] == ['"r', 'l1"']
    if rows_key == "results":
        assert [r["quantity"] for r in rows] == ["coherence", "sie"]
        assert "kind" not in rows[1] and lines[2].startswith("sie,,")
