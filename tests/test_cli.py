import json
import math

import numpy as np
import pytest

from fadingcr.cli import _frontier_rows, main
from fadingcr.model import ChannelParams, Rayleigh
from fadingcr.optimize import maximize_rate, rd_frontier

REFERENCE_CONFIG = {
    "Q": 1.0, "sigma_z2": 1.0, "P_avg": 2.5,
    "fading": {"type": "rayleigh"}, "quadrature_nodes": 16, "log_base": 2,
}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(REFERENCE_CONFIG))
    return str(path)


def test_eval_reports_point(capsys):
    assert main(["eval", "--g", "1", "--p", "2.5",
                 "--rho1", "0.9", "--rho2", "0", "--d", "0.9"]) == 0
    out = capsys.readouterr().out
    assert "rate_per_state      : 0.516514400194 bits/use" in out
    assert "kappa_member        : true" in out
    assert "cond_var_y_given_u  : 2.375" in out
    assert "gp_rate_oracle      : 0.516514400194" in out


def test_eval_full_distortion_zero_rate(capsys):
    assert main(["eval", "--g", "1", "--p", "2.5",
                 "--rho1", "0", "--rho2", "0", "--d", "1.0"]) == 0
    out = capsys.readouterr().out
    assert "rate_per_state      : 0 bits/use" in out
    assert "kappa_member        : true" in out


def test_eval_disk_violation_exits_2(capsys):
    assert main(["eval", "--g", "1", "--p", "2.5",
                 "--rho1", "0.9", "--rho2", "0.9", "--d", "0.9"]) == 2
    assert "exceed 1" in capsys.readouterr().err


def test_eval_nats(capsys):
    assert main(["eval", "--log-base", "e", "--g", "1", "--p", "2.5",
                 "--rho1", "0.9", "--rho2", "0", "--d", "0.9"]) == 0
    out = capsys.readouterr().out
    assert f"{0.5165144001937355 * math.log(2):.12g} nats/use" in out


def test_region_csv_and_manifest(tmp_path, config_path):
    out = tmp_path / "region.csv"
    code = main(["region", "--config", config_path, "--points", "8",
                 "--out", str(out), "--compare-static"])
    assert code == 0
    text = out.read_text()
    lines = text.splitlines()
    assert lines[0] == "D,R_bits,d_used,mode"
    assert "\r" not in text
    rows = [ln.split(",") for ln in lines[1:]]
    ds = [float(r[0]) for r in rows]
    rs = [float(r[1]) for r in rows]
    assert ds == sorted(ds)
    assert all(b >= a - 1e-12 for a, b in zip(rs, rs[1:]))
    assert all(float(r[2]) <= float(r[0]) + 1e-15 for r in rows)  # d_used <= D

    manifest = json.loads((tmp_path / "region.csv.manifest.json").read_text())
    assert manifest["tool"] == "fadingcr"
    assert manifest["config"]["P_avg"] == 2.5
    assert manifest["quadrature_nodes"] == 16
    assert "created_utc" in manifest

    static = (tmp_path / "region.static.csv").read_text().splitlines()
    assert static[0] == "D,R_bits,d_used,mode"
    static_rates = {float(r.split(",")[0]): float(r.split(",")[1]) for r in static[1:]}
    for d, r in zip(ds, rs):
        if d in static_rates:
            assert static_rates[d] >= r - 1e-9


def test_region_manifest_lists_solver_warnings(tmp_path):
    # a Rayleigh-8 solve at d = Q and budget 0.02 ends with a duality-gap warning
    cfg = dict(REFERENCE_CONFIG, P_avg=0.02, quadrature_nodes=8)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "region.csv"
    assert main(["region", "--config", str(path), "--points", "2", "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "region.csv.manifest.json").read_text())
    assert [(w["D"], w["d_used"]) for w in manifest["warnings"]] == [(1.0, 1.0)]
    assert manifest["warnings"][0]["warnings"][0].startswith("duality gap")
    # the warnings stay out of the CSV
    lines = out.read_text().splitlines()
    assert lines[0] == "D,R_bits,d_used,mode"
    assert all(len(ln.split(",")) == 4 for ln in lines)


def test_region_byte_determinism(tmp_path, config_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["region", "--config", config_path, "--points", "6", "--out", str(out1)]) == 0
    assert main(["region", "--config", config_path, "--points", "6", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_region_dead_channel_not_empty_due_to_dq(tmp_path):
    cfg = dict(REFERENCE_CONFIG, fading={"type": "degenerate", "g": 0.0})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "region.csv"
    assert main(["region", "--config", str(path), "--points", "5", "--out", str(out)]) == 0
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 1  # only (D=Q, R=0) survives
    d, r, _, _ = rows[0].split(",")
    assert float(d) == 1.0 and float(r) == 0.0


def test_region_requires_out(capsys):
    assert main(["region", "--points", "4"]) == 2
    assert "--out" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["region", "--seed", "1"], ["validate", "--mode", "fixed-rho"],
    ["eval", "--mode", "adaptive-rho", "--g", "1", "--p", "1", "--rho1", "0", "--rho2", "0",
     "--d", "0.5"]])
def test_flags_of_other_commands_are_rejected(tmp_path, argv, capsys):
    # --mode belongs to region and power, --seed to validate
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path / "x.csv")])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_power_long_format(tmp_path):
    cfg = dict(REFERENCE_CONFIG, fading={"type": "degenerate", "g": 1.0})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "power.csv"
    code = main(["power", "--config", str(path), "--rate", "0.05", "--rate", "0.2",
                 "--dgrid", "0.5,1.0", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "R_target,D,P_min"
    assert len(lines) == 5
    table = {(float(a), float(b)): float(c)
             for a, b, c in (ln.split(",") for ln in lines[1:])}
    assert table[(0.05, 1.0)] <= table[(0.05, 0.5)]
    assert table[(0.05, 0.5)] <= table[(0.2, 0.5)]


def test_power_split_format_and_zero_rate(tmp_path):
    cfg = dict(REFERENCE_CONFIG, fading={"type": "degenerate", "g": 1.0})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "power.csv"
    code = main(["power", "--config", str(path), "--rate", "0",
                 "--dgrid", "0.8,1.0", "--format", "split", "--out", str(out)])
    assert code == 0
    split = tmp_path / "power_R0.csv"
    lines = split.read_text().splitlines()
    assert lines[0] == "D,P_min"
    table = {float(a): b for a, b in (ln.split(",") for ln in lines[1:])}
    assert table[1.0] == "0"  # silence suffices at D = Q


def test_power_unreachable_rows(tmp_path):
    cfg = dict(REFERENCE_CONFIG, fading={"type": "degenerate", "g": 0.0})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "power.csv"
    code = main(["power", "--config", str(path), "--rate", "0.1",
                 "--dgrid", "0.5,1.0", "--out", str(out)])
    assert code == 3
    lines = out.read_text().splitlines()
    assert all(ln.endswith("unreachable") for ln in lines[1:])


def test_power_rejects_bad_inputs(tmp_path, capsys):
    out = tmp_path / "p.csv"
    assert main(["power", "--out", str(out)]) == 2
    assert main(["power", "--rate", "-0.5", "--out", str(out)]) == 2
    assert main(["power", "--rate", "0.1", "--dgrid", "2.5", "--out", str(out)]) == 2


def test_validate_passes_and_is_deterministic(tmp_path, config_path):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    args = ["validate", "--config", config_path, "--draws", "400",
            "--samples", "200000", "--mc-sets", "3", "--seed", "42"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    report = json.loads(out1.read_text())
    assert report["passed"] is True
    assert report["prng"] == "pcg64-ndtri"
    names = [e["name"] for e in report["identities"]]
    assert "rate-oracle-agreement" in names and "quad-mean" in names


def test_validate_corrupt_hook_fails(tmp_path, config_path, capsys):
    out = tmp_path / "r.json"
    code = main(["validate", "--config", config_path, "--draws", "50",
                 "--samples", "200000", "--mc-sets", "1", "--seed", "42",
                 "--self-test-corrupt", "rate-oracle-agreement", "--out", str(out)])
    assert code == 1
    assert "rate-oracle-agreement" in capsys.readouterr().err
    report = json.loads(out.read_text())
    entry = [e for e in report["identities"] if e["name"] == "rate-oracle-agreement"][0]
    assert entry["passed"] is False and entry["tolerance"] == -1.0


def test_validate_corrupt_hook_fails_an_exact_identity(tmp_path, config_path, capsys):
    # the converse identity holds bit for bit, so a tolerance of 0 would pass it
    out = tmp_path / "r.json"
    code = main(["validate", "--config", config_path, "--draws", "50",
                 "--samples", "200000", "--mc-sets", "1", "--seed", "42",
                 "--self-test-corrupt", "converse-identity", "--out", str(out)])
    assert code == 1
    assert "converse-identity" in capsys.readouterr().err
    entry = [e for e in json.loads(out.read_text())["identities"]
             if e["name"] == "converse-identity"][0]
    assert entry["observed"] == 0.0 and entry["passed"] is False


def test_validate_corrupt_hook_rejects_unknown_names(capsys):
    assert main(["validate", "--draws", "50", "--samples", "200000", "--mc-sets", "1",
                 "--self-test-corrupt", "no-such-identity"]) == 2
    assert "no-such-identity" in capsys.readouterr().err


def test_validate_rejects_small_samples(capsys):
    assert main(["validate", "--samples", "10"]) == 2


def test_missing_config_file(capsys):
    assert main(["eval", "--config", "/nonexistent.json", "--g", "1", "--p", "1",
                 "--rho1", "0", "--rho2", "0", "--d", "0.5"]) == 2


def test_csv_numbers_have_12_significant_digits(tmp_path, config_path):
    out = tmp_path / "region.csv"
    main(["region", "--config", config_path, "--points", "6", "--out", str(out)])
    row = out.read_text().splitlines()[1].split(",")
    # 12 significant digits of a non-terminating value keep 12 digit chars
    digits = row[0].replace(".", "").replace("-", "").lstrip("0")
    assert len(digits) >= 11


def test_region_adaptive_solves_are_independent(tmp_path, config_path):
    # each solve keeps its own warm-start state: a second run in the same
    # process writes the same bytes, and every frontier point is the lone
    # solve at its d_used
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (out1, out2):
        assert main(["region", "--config", config_path, "--points", "8",
                     "--mode", "adaptive-rho", "--out", str(out)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    ch = ChannelParams(1.0, 1.0, 2.5)
    frontier = rd_frontier(ch, Rayleigh(), ch.P_avg, grid=np.geomspace(1e-3, 1.0, 8),
                           mode="adaptive-rho", nodes=16)
    rows = [line.split(",") for line in out1.read_text().splitlines()[1:]]
    assert rows == _frontier_rows(frontier, "adaptive-rho")
    for p in frontier.points:
        assert p.R == maximize_rate(ch, Rayleigh(), p.d_used, ch.P_avg, mode="adaptive-rho",
                                    nodes=16).rate
