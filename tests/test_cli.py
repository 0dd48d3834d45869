import os

import pytest

from nsassim.cli import main
from nsassim.config import load_config
from nsassim.errors import InvalidFieldError
from nsassim.runner import run_twin

SMALL = """
[grid]
nx = 8
ny = 8
nt = 6
t_end = 0.3

[physics]
nu = 0.01
lambda = 0.5
u0 = vortex
u0_amplitude = 0.1

[observation]
kind = masked-velocity
mask_stride = 2
noise_amplitude = 0.0
seed = 77

[schedule]
p_list = 2,4

[optimizer]
max_iters = 300

[output]
directory = {out}
plots = {plots}
"""


def write_cfg(tmp_path, name="cfg.ini", out="out", plots="true", **edits):
    text = SMALL.format(out=tmp_path / out, plots=plots)
    for old, new in edits.items():
        text = text.replace(old, new)
    path = tmp_path / name
    path.write_text(text)
    return path


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


class TestTwin:
    def test_minimal_run(self, tmp_path, capsys):
        cfg_path = write_cfg(tmp_path)
        assert main(["twin", "--config", str(cfg_path)]) == 0
        out = tmp_path / "out"
        lines = (out / "stages.csv").read_text().splitlines()
        assert lines[0] == ("p,iterations,e_p,e_inf,grad_norm,converged,stalled,"
                            "forward_evals,backtracks")
        assert len(lines) == 3  # header + two stages
        # the p = 2 misfit can be worse than the feasible truth only by slack
        cfg = load_config(path=str(cfg_path))
        result = run_twin(cfg, out_dir=str(tmp_path / "probe"), plots=False,
                          log=lambda *a: None)
        from nsassim.misfit import assemble_state, report_from_state
        truth_rep = report_from_state(
            assemble_state(result.reference.control, result.setup, result.model),
            result.setup, 2.0)
        e_p2 = float(lines[1].split(",")[2])
        assert e_p2 <= truth_rep.e_p + 1e-6
        for name in ("misfit.csv", "diagnostics.csv", "pairings.csv",
                     "timings.csv", "run_config.ini", "mask.txt",
                     "truth_u.bin", "truth_u.meta", "data_q.bin",
                     "ep_vs_p.svg", "concentration.svg", "y_heatmap.svg"):
            assert (out / name).exists(), name

    def test_no_plots_flag(self, tmp_path):
        cfg_path = write_cfg(tmp_path, out="noplot")
        assert main(["twin", "--config", str(cfg_path), "--no-plots"]) == 0
        assert not (tmp_path / "noplot" / "ep_vs_p.svg").exists()

    @pytest.mark.parametrize("kind", ["vorticity", "speed-squared"])
    def test_maskless_observation_kinds(self, tmp_path, kind):
        cfg_path = write_cfg(
            tmp_path, name=f"{kind}.ini", out=f"out_{kind}",
            **{"kind = masked-velocity": f"kind = {kind}",
               "noise_amplitude = 0.0": "noise_amplitude = 0.1"})
        assert main(["twin", "--config", str(cfg_path), "--no-plots"]) == 0
        out = tmp_path / f"out_{kind}"
        assert (out / "stages.csv").exists()
        assert not (out / "mask.txt").exists()

    def test_malformed_config_names_field(self, tmp_path, capsys):
        cfg_path = write_cfg(tmp_path, **{"lambda = 0.5": "lambda = 1.5"})
        code = main(["twin", "--config", str(cfg_path)])
        err = capsys.readouterr().err
        assert code != 0
        assert "ERROR physics.lambda" in err

    def test_non_finite_amplitude_is_a_config_error(self, tmp_path, capsys):
        cfg_path = write_cfg(tmp_path, **{"u0_amplitude = 0.1": "u0_amplitude = nan"})
        code = main(["twin", "--config", str(cfg_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("ERROR physics.u0_amplitude: ")
        assert not (tmp_path / "out").exists()

    def test_mask_stride_missing_the_interior_is_a_config_error(self, tmp_path, capsys):
        # caught before the reference solve writes anything
        cfg_path = write_cfg(tmp_path, **{"mask_stride = 2": "mask_stride = 7"})
        code = main(["twin", "--config", str(cfg_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("ERROR observation.mask_stride: ")
        assert not (tmp_path / "out").exists()

    def test_invalid_field_is_a_run_error(self, tmp_path, capsys, monkeypatch):
        def not_finite(*args, **kwargs):
            raise InvalidFieldError("velocity field contains non-finite values")

        monkeypatch.setattr("nsassim.runner.run_twin", not_finite)
        code = main(["twin", "--config", str(write_cfg(tmp_path))])
        err = capsys.readouterr().err
        assert code == 1
        assert err.strip() == "ERROR run: velocity field contains non-finite values"

    def test_missing_config_is_a_file_error(self, tmp_path, capsys):
        code = main(["twin", "--config", str(tmp_path / "absent.ini")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("ERROR file: cannot read ")
        assert "Traceback" not in err

    def test_unwritable_out_is_a_run_error(self, tmp_path, capsys):
        (tmp_path / "plain").write_text("")
        code = main(["twin", "--config", str(write_cfg(tmp_path)),
                     "--out", str(tmp_path / "plain" / "x")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("ERROR run: ")
        assert "Traceback" not in err

    def test_capped_stage_reads_unconverged(self, tmp_path):
        cfg_path = write_cfg(tmp_path, out="capped", **{"max_iters = 300": "max_iters = 2"})
        assert main(["twin", "--config", str(cfg_path), "--no-plots"]) == 0
        lines = (tmp_path / "capped" / "stages.csv").read_text().splitlines()
        header = lines[0].split(",")
        for line in lines[1:]:
            row = dict(zip(header, line.split(",")))
            assert row["iterations"] == "2"
            assert (row["converged"], row["stalled"]) == ("0", "0")

    def test_ref_tol_enforced(self, tmp_path, capsys):
        cfg_path = write_cfg(tmp_path, out="strict",
                             **{"u0_amplitude = 0.1": "u0_amplitude = 0.1\nref_tol = 1e-6"})
        code = main(["twin", "--config", str(cfg_path), "--no-plots"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("ERROR run: reference sup residual ")
        assert "exceeds physics.ref_tol 1e-06" in err
        assert not (tmp_path / "strict" / "stages.csv").exists()

    def test_rerun_is_bit_identical(self, tmp_path):
        cfg_path = write_cfg(tmp_path)
        assert main(["twin", "--config", str(cfg_path), "--out",
                     str(tmp_path / "a")]) == 0
        assert main(["twin", "--config", str(cfg_path), "--out",
                     str(tmp_path / "b")]) == 0
        names = [n for n in os.listdir(tmp_path / "a")
                 if n != "timings.csv"]
        assert names
        for name in sorted(names):
            assert read(tmp_path / "a" / name) == read(tmp_path / "b" / name), name


class TestVerify:
    def test_default_all_suites_pass(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        for name in ("norms", "gradient", "manufactured", "counterexample",
                     "fields", "observation"):
            assert f"{name}" in out
        assert "FAIL" not in out

    def test_suite_filter(self, capsys):
        assert main(["verify", "--suite", "counterexample"]) == 0
        out = capsys.readouterr().out
        assert "counterexample" in out
        assert "gradient" not in out

    def test_malformed_config_is_still_rejected(self, tmp_path, capsys):
        cfg_path = write_cfg(tmp_path, **{"lambda = 0.5": "lambda = 1.5"})
        assert main(["verify", "--config", str(cfg_path), "--suite", "counterexample"]) == 2
        captured = capsys.readouterr()
        assert "ERROR physics.lambda" in captured.err
        assert "counterexample" not in captured.out

    def test_directory_config_is_a_file_error(self, tmp_path, capsys):
        assert main(["verify", "--config", str(tmp_path), "--suite", "counterexample"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("ERROR file: cannot read ")
        assert "counterexample" not in captured.out

    def test_unknown_suite(self, capsys):
        assert main(["verify", "--suite", "nope"]) == 2
        assert "ERROR verify.suite" in capsys.readouterr().err


class TestSweep:
    def test_lambda_sweep(self, tmp_path):
        cfg_path = write_cfg(tmp_path)
        code = main(["sweep", "--config", str(cfg_path),
                     "--out", str(tmp_path / "sweep"), "--no-plots",
                     "--param", "physics.lambda", "--values", "0.25,0.5,0.75"])
        assert code == 0
        lines = (tmp_path / "sweep" / "combined.csv").read_text().splitlines()
        assert lines[0].startswith("lambda,")
        assert len(lines) == 4
        for val in ("0.25", "0.5", "0.75"):
            assert (tmp_path / "sweep" / f"lambda_{val}" / "stages.csv").exists()

    def test_noise_sweep_raises_observation_floor(self, tmp_path):
        cfg_path = write_cfg(tmp_path)
        code = main(["sweep", "--config", str(cfg_path),
                     "--out", str(tmp_path / "noise"), "--no-plots",
                     "--param", "observation.noise_amplitude",
                     "--values", "0,0.05"])
        assert code == 0
        lines = (tmp_path / "noise" / "combined.csv").read_text().splitlines()
        term_k = [float(line.split(",")[3]) for line in lines[1:]]
        assert term_k[1] > term_k[0]

    def test_empty_values_rejected(self, tmp_path, capsys):
        cfg_path = write_cfg(tmp_path)
        code = main(["sweep", "--config", str(cfg_path),
                     "--param", "physics.lambda", "--values", " , "])
        assert code == 2
        assert "ERROR sweep.values" in capsys.readouterr().err

    def test_percent_value_is_a_config_error(self, tmp_path, capsys):
        cfg_path = write_cfg(tmp_path)
        code = main(["sweep", "--config", str(cfg_path),
                     "--out", str(tmp_path / "sweep"), "--no-plots",
                     "--param", "physics.forcing", "--values", "none%"])
        assert code == 2
        assert "ERROR physics.forcing" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["../escape", "a/b", ".."])
    def test_path_like_values_rejected(self, tmp_path, capsys, value):
        cfg_path = write_cfg(tmp_path)
        code = main(["sweep", "--config", str(cfg_path),
                     "--out", str(tmp_path / "sweep"), "--no-plots",
                     "--param", "output.directory", "--values", f"ok,{value}"])
        assert code == 2
        assert "ERROR sweep.values" in capsys.readouterr().err
        assert not (tmp_path / "sweep").exists()
        assert not (tmp_path / "escape").exists()
