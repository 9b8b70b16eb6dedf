"""Command-line interface and result tables."""

import sys
from pathlib import Path

import numpy as np
import pytest

from spinkac import cli
from spinkac.report import ResultTable, format_value

REPO = Path(__file__).resolve().parents[1]
DEMO = "tests/data/demo-n2.model"


def free_model(tmp_path):
    """A zero-coupling n = 2 model file."""
    p = tmp_path / "free.model"
    p.write_text("[model]\nn = 2\n\n[J]\n0 0\n0 0\n\n[kernel]\nmean-field\n")
    return str(p)


def read_table(path):
    """Parse a table back into (meta dict, columns, rows as float array):
    the inverse of ResultTable.write. Non-numeric cells come back as nan;
    compare the raw file for bytes."""
    meta = {}
    columns = None
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if "=" in body:
                    k, v = body.split("=", 1)
                    meta[k.strip()] = v.strip()
                continue
            if columns is None:
                columns = tuple(line.split(","))
                continue
            vals = []
            for cell in line.split(","):
                try:
                    vals.append(float(cell))
                except ValueError:
                    vals.append(float("nan"))
            rows.append(vals)
    if columns is None:
        raise ValueError(f"{path}: no column header")
    data = np.array(rows) if rows else np.zeros((0, len(columns)))
    return meta, columns, data


class TestExitCodes:
    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 64

    def test_unknown_flag(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["evolve", "--model", DEMO, "--bogus"])
        assert exc.value.code == 64

    def test_missing_model_file(self, tmp_path, capsys):
        code = cli.main(["evolve", "--model", str(tmp_path / "absent.model"),
                         "--out", str(tmp_path / "o.csv")])
        assert code == 1
        assert "spinkac: error:" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, said", [
        (["--N", "0"], "N = 0"),
        (["--N", "3", "--t-end", "-1"], "t_end = -1.0"),
    ])
    def test_kac_needs_slots_and_a_horizon(self, tmp_path, capsys, flags, said):
        out = tmp_path / "k.csv"
        code = cli.main(["kac", "--model", str(REPO / DEMO), *flags, "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("spinkac: error:")
        assert said in err
        assert not out.exists()

    @pytest.mark.parametrize("t_end", ["nan", "inf"])
    def test_kac_needs_a_finite_horizon(self, tmp_path, package_python, t_end):
        # a walk to an endless horizon never returns, so the CLI runs in
        # a child that a timeout ends
        out = tmp_path / "k.csv"
        res = package_python(["-m", "spinkac.cli", "kac", "--model", DEMO, "--N", "3",
                              "--t-end", t_end, "--seed", "5", "--out", str(out)],
                             cwd=REPO, capture_output=True, timeout=60)
        assert res.returncode == 1
        err = res.stderr.decode()
        assert err.startswith("spinkac: error:")
        assert f"t_end = {t_end}" in err
        assert not out.exists()

    @pytest.mark.parametrize("t", ["nan", "inf", "-1"])
    def test_tree_needs_a_finite_time(self, tmp_path, capsys, t):
        out = tmp_path / "t.csv"
        code = cli.main(["tree", "--model", str(REPO / DEMO), "--t", t, "--samples", "3",
                         "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("spinkac: error:")
        assert f"got t = {float(t)}" in err
        assert not out.exists()

    @pytest.mark.parametrize("args, said", [
        (["chaos", "--k", "0"], "got k = 0 and N = 8"),
        (["chaos", "--k", "3", "--N-grid", "2,4"], "got k = 3 and N = 2"),
        (["chaos", "--N-grid", "8"], "two distinct N"),
        (["kac-mlsi", "--N", "0"], "got N = 0"),
        (["kac-mlsi", "--N", "-1"], "got N = -1"),
    ])
    def test_chaos_and_kac_mlsi_need_a_shell(self, tmp_path, capsys, args, said):
        out = tmp_path / "c.csv"
        code = cli.main([*args, "--model", str(REPO / DEMO), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("spinkac: error:")
        assert said in err
        assert not out.exists()

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_verify_all_needs_a_worker(self, tmp_path, capsys, workers):
        out = tmp_path / "v.csv"
        code = cli.main(["verify-all", "--quick", "--workers", workers, "--out", str(out)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("spinkac: error:")
        assert f"workers = {workers}" in captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("args", [
        ["mlsi-nl", "--model", DEMO, "--trials", "-1"],
        ["kac-mlsi", "--model", DEMO, "--trials", "-3"],
        ["downup", "--L", "8", "--M", "0", "--mode", "cov", "--trials", "-1"],
    ])
    def test_trials_is_a_count(self, tmp_path, capsys, args):
        out = tmp_path / "t.csv"
        with pytest.raises(SystemExit) as exc:
            cli.main([*args, "--out", str(out)])
        assert exc.value.code == 64
        err = capsys.readouterr().err
        assert f"argument --trials: need a count >= 0, got {args[-1]}" in err
        assert not out.exists()

    @pytest.mark.parametrize("args", [
        ["kac", "--rho", "0.5,0.25", "--t-end", "1"],
        ["kac-mlsi", "--rho-grid", "0.5,0.25,9", "--trials", "5"],
    ])
    def test_one_density_per_block(self, tmp_path, capsys, args):
        # the demo model has one block; extra densities are an error, not dropped
        out = tmp_path / "k.csv"
        code = cli.main([*args, "--model", str(REPO / DEMO), "--N", "2", "--out", str(out)])
        assert code == 1
        assert "need 1 block densities, got" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("runs", ["0", "-3"])
    def test_mpp_needs_a_run(self, tmp_path, capsys, runs):
        out = tmp_path / "f.csv"
        code = cli.main(["mpp", "--model", free_model(tmp_path), "--u", "0",
                         "--runs", runs, "--out", str(out)])
        assert code == 1
        assert "need at least one run" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("args, said", [
        (["--blocks-spec", "5"], "part '5' is not SIZE:M"),
        (["--blocks-spec", "3:1,x:0"], "part 'x:0' is not SIZE:M"),
        (["--L", "0", "--M", "0"], "need L >= 1"),
        (["--L", "-2", "--M", "0"], "need L >= 1 sites, got -2"),
        (["--blocks-spec", "3:1,-2:0"], "part '-2:0' needs SIZE >= 1"),
        (["--blocks-spec", "3:1,-3:1"], "part '-3:1' needs SIZE >= 1"),
    ])
    def test_downup_names_a_bad_geometry(self, capsys, args, said):
        code = cli.main(["downup", *args, "--mode", "mlsi", "--trials", "3"])
        assert code == 1
        assert said in capsys.readouterr().err

    def test_tree_checks_its_initial_density(self, tmp_path, capsys):
        # a vector of mass 2 at t = 0, where no product would check it
        (tmp_path / "p0.txt").write_text("0.5 0.5 0.5 0.5\n")
        out = tmp_path / "tree.csv"
        code = cli.main(["tree", "--model", str(REPO / DEMO), "--t", "0", "--samples", "5",
                         "--p0", f"file:{tmp_path / 'p0.txt'}", "--out", str(out)])
        assert code == 1
        assert "density mass 2.0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("args", [
        ["mlsi-nl", "--trials", "5"],
        ["kac", "--N", "3", "--t-end", "1"],
        ["kac", "--N", "12", "--t-end", "1"],  # past the enumeration gate: no shell measure
        ["kac-mlsi", "--N", "2", "--trials", "5"],
    ])
    def test_field_must_be_constant_on_each_block(self, tmp_path, capsys, args):
        # one mean-field block carrying two field values
        model = tmp_path / "split.model"
        model.write_text("[model]\nn = 2\n\n[J]\n0 0.1\n0.1 0\n\n[h]\n0.5 -0.3\n\n"
                         "[kernel]\nmean-field\n")
        out = tmp_path / "o.csv"
        code = cli.main([*args, "--model", str(model), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("spinkac: error:")
        assert "field is not constant on block (1, 2): 0.5 vs -0.3" in err
        assert not out.exists()

    @pytest.mark.parametrize("J, h, kernel, said", [
        ("0 nan\nnan 0", "0 0", "mean-field", "line 5: entries must be finite, got '0 nan'"),
        ("0 inf\ninf 0", "0 0", "mean-field", "line 5: entries must be finite, got '0 inf'"),
        ("0 0.1\n0.1 0", "nan 0.2", "mean-field", "line 9: entries must be finite, got 'nan 0.2'"),
        ("0 0.1\n0.1 0", "0 0", "matrix\n0.5 nan\nnan 0.5",
         "line 13: entries must be finite, got '0.5 nan'"),
    ], ids=["nan-coupling", "inf-coupling", "nan-field", "nan-kernel"])
    def test_model_entries_must_be_finite(self, tmp_path, capsys, J, h, kernel, said):
        model = tmp_path / "bad.model"
        model.write_text(f"[model]\nn = 2\n\n[J]\n{J}\n\n[h]\n{h}\n\n[kernel]\n{kernel}\n")
        out = tmp_path / "o.csv"
        code = cli.main(["mlsi-nl", "--trials", "5", "--model", str(model), "--out", str(out)])
        assert code == 1
        assert said in capsys.readouterr().err
        assert not out.exists()

    def test_field_file_entries_must_be_finite(self, tmp_path, capsys):
        w = tmp_path / "w.txt"
        w.write_text("# field\n0.3 -0.2 0.5 nan -0.4 0.2 0.6 -0.1\n")
        out = tmp_path / "d.csv"
        code = cli.main(["downup", "--L", "8", "--M", "0", "--mode", "factorize", "--trials", "5",
                         "--w", str(w), "--out", str(out)])
        assert code == 1
        assert "line 2: entries must be finite, got '0.3 -0.2 0.5 nan" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_initial_state(self, tmp_path, capsys):
        code = cli.main(["evolve", "--model", str(REPO / DEMO), "--p0", "delta:9",
                         "--out", str(tmp_path / "o.csv")])
        assert code == 1
        assert "delta mask" in capsys.readouterr().err


class TestSubcommands:
    def test_mlsi_nl(self, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        code = cli.main(["mlsi-nl", "--model", str(REPO / DEMO), "--trials", "40",
                         "--out", str(out)])
        assert code == 0
        assert "min ratio" in capsys.readouterr().out
        meta, cols, data = read_table(out)
        assert meta["claim"] == "nonlinear-ratio-scan"
        assert cols == ("min_ratio", "median_ratio", "samples", "discarded")
        assert data.shape == (1, 4)
        assert data[0, 0] > 0

    def test_tree(self, tmp_path):
        out = tmp_path / "tree.csv"
        code = cli.main(["tree", "--model", str(REPO / DEMO), "--t", "0.5",
                         "--samples", "200", "--out", str(out)])
        assert code == 0
        meta, cols, data = read_table(out)
        assert cols == ("state", "estimate", "stderr", "ci_lo", "ci_hi")
        assert data.shape[0] == 4
        assert data[:, 1].sum() == pytest.approx(1.0, abs=1e-10)
        assert float(meta["mean_leaves"]) >= 1.0

    def test_mpp_requires_zero_coupling(self, tmp_path, capsys):
        code = cli.main(["mpp", "--model", str(REPO / DEMO), "--runs", "100"])
        assert code == 1
        assert "zero-coupling" in capsys.readouterr().err

    def test_mpp(self, tmp_path, capsys):
        out = tmp_path / "mpp.csv"
        code = cli.main(["mpp", "--model", free_model(tmp_path), "--u", "2",
                         "--runs", "500", "--out", str(out)])
        assert code == 0
        assert "fragmentation-time tail" in capsys.readouterr().out
        _, cols, data = read_table(out)
        assert cols == ("u", "tail", "stderr", "envelope")
        assert np.all(np.diff(data[:, 0]) > 0)
        assert np.all(data[:, 3] > 0)

    def test_kac(self, tmp_path):
        out = tmp_path / "kac.csv"
        code = cli.main(["kac", "--model", str(REPO / DEMO), "--N", "3",
                         "--t-end", "2", "--out", str(out)])
        assert code == 0
        meta, cols, data = read_table(out)
        assert cols[-1] == "occupation_tv"  # N*n small enough for the exact law
        assert data.shape[0] == 50
        # the shell is conserved, so the block magnetization never moves
        assert np.abs(data[:, 2] - data[0, 2]).max() == 0.0
        assert 0.0 <= data[-1, -1] <= 1.0
        assert meta["shell"]

    def test_chaos(self, tmp_path, capsys):
        out = tmp_path / "chaos.csv"
        code = cli.main(["chaos", "--model", str(REPO / DEMO), "--k", "2",
                         "--N-grid", "8,16,32", "--out", str(out)])
        assert code == 0
        assert "slope" in capsys.readouterr().out
        meta, cols, data = read_table(out)
        assert cols == ("N", "tv")
        assert data.shape == (3, 2)
        assert np.all(np.diff(data[:, 1]) < 0)
        assert float(meta["slope"]) < 0

    def test_kac_mlsi(self, tmp_path):
        out = tmp_path / "pscan.csv"
        code = cli.main(["kac-mlsi", "--model", str(REPO / DEMO), "--trials", "30",
                         "--N", "2", "--rho-grid", "all", "--out", str(out)])
        assert code == 0
        meta, cols, data = read_table(out)
        assert data.shape[0] == 5  # one row per admissible shell at N = 2
        assert data[:, 1].tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert np.all(data[:, 2] > 0)  # frozen shells report inf, still positive

    def test_downup_mlsi(self, tmp_path):
        out = tmp_path / "du.csv"
        code = cli.main(["downup", "--L", "4", "--M", "0", "--trials", "30",
                         "--out", str(out)])
        assert code == 0
        meta, _, data = read_table(out)
        assert meta["claim"] == "relocation-ratio-scan"
        assert data[0, 0] >= 1.0 - 1e-9

    def test_downup_factorize_blocks(self, tmp_path):
        out = tmp_path / "duf.csv"
        code = cli.main(["downup", "--blocks-spec", "3:1,3:1", "--mode", "factorize",
                         "--trials", "20", "--out", str(out)])
        assert code == 0
        meta, _, data = read_table(out)
        assert meta["claim"] == "block-factorization-scan"
        assert data[0, 0] >= 1.0 - 1e-9

    @pytest.mark.parametrize("mode", ["mlsi", "factorize"])
    def test_downup_one_state_slice_is_vacuous(self, capsys, mode):
        # a full block has one configuration and no nonconstant F
        code = cli.main(["downup", "--L", "4", "--M", "4", "--mode", mode, "--trials", "5"])
        assert code == 0
        assert "min ratio    = inf\n" in capsys.readouterr().out

    def test_downup_names_why_the_bound_does_not_apply(self, tmp_path, capsys):
        # lambda = 0.6 I has largest eigenvalue 0.6 >= 1/2
        lam = tmp_path / "lam.txt"
        lam.write_text("\n".join(" ".join("0.6" if i == j else "0" for j in range(4))
                                  for i in range(4)) + "\n")
        out = tmp_path / "du.csv"
        code = cli.main(["downup", "--L", "4", "--M", "0", "--lambda-matrix", str(lam),
                         "--trials", "10", "--out", str(out)])
        assert code == 0
        assert "constant     = n/a (largest eigenvalue 0.6 >= 1/2)\n" in capsys.readouterr().out
        meta, _, _ = read_table(out)
        assert meta["constant"] == "n/a (largest eigenvalue 0.6 >= 1/2)"

    def test_downup_cov(self, tmp_path):
        out = tmp_path / "ducov.csv"
        code = cli.main(["downup", "--L", "4", "--M", "0", "--mode", "cov",
                         "--trials", "10", "--out", str(out)])
        assert code == 0
        _, cols, data = read_table(out)
        assert cols == ("max_eigenvalue", "bound", "samples")
        assert data[0, 0] <= data[0, 1]

    def test_downup_needs_a_geometry(self, capsys):
        code = cli.main(["downup", "--mode", "mlsi"])
        assert code == 1
        assert "--blocks-spec" in capsys.readouterr().err


class TestResultTables:
    def test_float_format_roundtrips_bits(self):
        for x in (1.0 / 3.0, np.pi, 1e-300, -0.1, 2.0 ** 52 + 0.5, 6.02e23):
            assert float(format_value(x)) == x

    def test_scalar_formats(self):
        assert format_value(True) == "1"
        assert format_value(False) == "0"
        assert format_value(np.int64(7)) == "7"
        assert format_value("shell") == "shell"

    def test_meta_keys_must_be_plain(self):
        table = ResultTable("demo", 0, ("a",))
        with pytest.raises(ValueError, match="plain words"):
            table.add_meta("bad=key", "1")
        with pytest.raises(ValueError, match="plain words"):
            table.add_meta("bad\nkey", "1")

    def test_row_width_checked(self):
        table = ResultTable("demo", 0, ("a", "b"))
        with pytest.raises(ValueError, match="row has 1 fields"):
            table.append(1.0)

    def test_write_read_roundtrip(self, tmp_path):
        table = ResultTable("demo", 3, ("x", "y"))
        table.add_meta("note", "two rows")
        table.append(0.1, 2)
        table.append(np.pi, -1)
        p = tmp_path / "t.csv"
        table.write(p)
        meta, cols, data = read_table(p)
        assert meta["claim"] == "demo"
        assert meta["seed"] == "3"
        assert meta["note"] == "two rows"
        assert cols == ("x", "y")
        assert data[1, 0] == np.pi
        assert data[1, 1] == -1.0

    def test_rewrite_is_byte_identical(self, tmp_path):
        def build():
            t = ResultTable("demo", 1, ("v",))
            t.append(1.0 / 3.0)
            return t.render()

        assert build() == build()
